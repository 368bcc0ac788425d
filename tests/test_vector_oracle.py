"""The packed-slice table build and closure against the tuple-at-a-time
oracle in vector_oracle.py: equal algebras, field for field, and equal
refusals."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import vector_oracle
from lattice_oracle import up_masks_of
from dualbench import duality
from dualbench.algebra import (
    FiniteLattice,
    make_bdl,
    make_lvl,
    packed_slices,
    product_algebra,
    vector_algebra,
)
from dualbench.corpus import corpus_frames, corpus_lattices, corpus_run
from dualbench.duality import (
    MODES,
    check_implication_preimage_identity,
    esakia_dual,
    priestley_dual,
)
from dualbench.errors import AlgebraError
from dualbench.kripke import (
    close_vectors,
    intuitionistic_power,
    monotone_vectors,
    power_subalgebra,
    upset_algebra,
)
from dualbench.lattice import Poset
from dualbench.topology import OrderedSpace, generate_topology
from test_topology_oracle import random_basis, random_order

SIGNATURES = ("bdl", "heyting", "lvl", "isp_i")


def oracle_subalgebra(truth, frame, generators, name):
    closed = vector_oracle.close_vectors(truth, frame, generators)
    return vector_oracle.vector_algebra(
        closed, truth, name, "isp_i", order=frame, presented=True
    )


def outcome(build, *args, **kwargs):
    """The algebra built, or the code and message of the refusal."""
    try:
        return build(*args, **kwargs)
    except AlgebraError as exc:
        return exc.code, str(exc)


def test_powers_match_the_oracle(chain2, chain3, b2):
    frames = corpus_frames(4)
    assert len(frames) == 24
    for truth in (chain2, chain3, b2):
        for frame in frames:
            vectors = tuple(itertools.product(range(len(truth)), repeat=len(frame)))
            expected = vector_oracle.vector_algebra(
                vectors,
                truth,
                f"{truth.name}^{frame.name}",
                "isp_i",
                order=frame,
                presented=True,
            )
            assert intuitionistic_power(truth, frame) == expected


def test_upset_algebras_match_the_oracle(chain2, chain3, b2):
    cases = [(truth, f) for truth in (chain2, chain3) for f in corpus_frames(5)]
    cases += [(b2, f) for f in corpus_frames(4)]
    assert len(cases) == 2 * 87 + 24
    for truth, frame in cases:
        expected = oracle_subalgebra(
            truth, frame, monotone_vectors(truth, frame), f"up({frame.name})"
        )
        assert upset_algebra(truth, frame) == expected


def test_corpus_map_algebras_match_the_oracle(monkeypatch):
    calls = []
    build = duality.vector_algebra

    def spy(*args, **kwargs):
        result = outcome(build, *args, **kwargs)
        calls.append((args, kwargs, result))
        if isinstance(result, tuple):
            raise AlgebraError(*result)
        return result

    monkeypatch.setattr(duality, "vector_algebra", spy)
    corpus_run(7, 4, 0)
    signatures = {args[3] for args, _, _ in calls}
    assert signatures == {"bdl", "lvl", "isp_i"}
    for args, kwargs, result in calls:
        assert result == outcome(vector_oracle.vector_algebra, *args, **kwargs)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_random_generator_sets_match_the_oracle(chain2, chain3, b2, data):
    truth = data.draw(st.sampled_from([chain2, chain3, b2]))
    frame = data.draw(st.sampled_from(corpus_frames(4)))
    vector = st.tuples(*[st.integers(0, len(truth) - 1)] * len(frame))
    gens = data.draw(st.lists(vector, max_size=4))
    assert close_vectors(truth, frame, gens) == vector_oracle.close_vectors(
        truth, frame, gens
    )
    assert power_subalgebra(truth, frame, gens, name="g") == oracle_subalgebra(
        truth, frame, gens, "g"
    )


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_random_families_match_the_oracle(chain2, chain3, b2, data):
    truth = data.draw(st.sampled_from([chain2, chain3, b2]))
    frame = data.draw(st.sampled_from(corpus_frames(3)))
    vector = st.tuples(*[st.integers(0, len(truth) - 1)] * len(frame))
    family = data.draw(st.lists(vector, max_size=12, unique=True))
    if data.draw(st.booleans()):
        # mostly closed: with both bounds and a closure under all operations
        family = vector_oracle.close_vectors(truth, frame, family)
    signature = data.draw(st.sampled_from(SIGNATURES))
    presented = data.draw(st.booleans())
    args = (family, truth, "fam", signature)
    kwargs = {"order": frame, "presented": presented}
    assert outcome(vector_algebra, *args, **kwargs) == outcome(
        vector_oracle.vector_algebra, *args, **kwargs
    )


def handed_structure_holds(lattice):
    """The order masks and the distributivity flag that ``vector_algebra``
    hands its lattice, against the meet-row scan and against fresh
    ``Poset`` and Birkhoff computations on the handed up-sets."""
    handed = vars(lattice)
    assert "down_masks" in handed and handed["is_distributive"] is True, lattice.name
    up, down = vector_oracle.order_masks_of_meet(lattice.meet)
    assert (lattice.up_masks, lattice.down_masks) == (up, down), lattice.name
    assert Poset(lattice.elements, lattice.up_masks).down_masks == down, lattice.name
    fresh = FiniteLattice(
        lattice.elements,
        lattice.up_masks,
        lattice.meet,
        lattice.join,
        lattice.bottom,
        lattice.top,
    )
    assert fresh.is_distributive, lattice.name


def test_vector_lattices_arrive_whole(chain2, chain3, b2):
    built = []
    # over b2 the corpus stops at 7 elements: the map algebras of the
    # eight-element Boolean lattice have 4096 elements, and their tables
    # would take most of the time of this test
    for truth, size in ((chain2, 8), (chain3, 8), (b2, 7)):
        for mode in ("pspa", "hspa"):
            mode = MODES[mode]
            for lat in corpus_lattices(size):
                space, _ = mode.dual(mode.from_lattice(lat, truth))
                try:
                    built.append(mode.reconstruct(space, truth)[0])
                except AlgebraError as exc:
                    # hspa over chain3 and b2 refuses some map families:
                    # the relativized implication leaves them
                    assert exc.code == "not-closed" and mode.name == "hspa"
        # pbs objects carry their own truth lattice: L, and L x L over it
        base = make_lvl(truth)
        for algebra in (base, product_algebra(base, base)):
            built.append(MODES["pbs"].reconstruct(MODES["pbs"].dual(algebra)[0], truth)[0])
    for lat in corpus_lattices(8):
        built.append(MODES["pbs"].reconstruct(MODES["pbs"].dual(make_lvl(lat))[0], lat)[0])
    for truth, worlds in ((chain2, 5), (chain3, 5), (b2, 4)):
        built += [upset_algebra(truth, frame) for frame in corpus_frames(worlds)]
    # 10 hspa refusals over chain3 and 8 over b2
    assert len(built) == 4 * 35 + 2 * 20 - 18 + 3 * 2 + 35 + 2 * 87 + 24
    for algebra in built:
        handed_structure_holds(algebra.lattice)


def test_packed_slices_round_trip(chain3, b2):
    for truth in (chain3, b2):
        full, encode, decode, _, _ = packed_slices(truth, 3)
        for vec in itertools.product(range(len(truth)), repeat=3):
            assert decode(encode(vec)) == vec
        assert encode((truth.top,) * 3) == full
        assert encode((truth.bottom,) * 3) == 0


def test_packed_slices_need_a_distributive_truth_lattice():
    # the diamond M3: 0 < a, b, c < 1
    names = ("0", "a", "b", "c", "1")
    n = range(5)
    leq = tuple(tuple(i == j or i == 0 or j == 4 for j in n) for i in n)
    meet = tuple(tuple(i if leq[i][j] else j if leq[j][i] else 0 for j in n) for i in n)
    join = tuple(tuple(j if leq[i][j] else i if leq[j][i] else 4 for j in n) for i in n)
    m3 = FiniteLattice(names, up_masks_of(leq), meet, join, 0, 4, name="m3")
    with pytest.raises(AlgebraError) as err:
        packed_slices(m3, 2)
    assert err.value.code == "not-distributive"


def test_monotone_vectors_match_the_recursive_search(chain2, chain3, b2):
    frames = corpus_frames(5)
    assert len(frames) == 87
    for truth in (chain2, chain3, b2):
        for frame in frames:
            assert monotone_vectors(truth, frame) == vector_oracle.monotone_vectors(
                truth, frame
            ), (truth.name, frame.name)


def preimage_identity_matches_the_oracle(space, truth):
    """The packed verdict and witness of the implication preimage identity,
    against the tuple and frozenset oracle over the same maps."""
    res = check_implication_preimage_identity(space, truth)
    vectors = duality._ordered_map_vectors(space, truth)
    assert res == vector_oracle.check_implication_preimage_identity(space, truth, vectors)
    return res.witness


def test_preimage_identity_matches_the_oracle_on_corpus_duals(chain2, chain3, b2):
    spaces = [
        (priestley_dual(make_bdl(lat, truth)), truth)
        for truth in (chain2, chain3, b2)
        for lat in corpus_lattices(7)
    ]
    spaces += [(esakia_dual(upset_algebra(chain2, f)), chain2) for f in corpus_frames(4)]
    assert len(spaces) == 84
    witnesses = {preimage_identity_matches_the_oracle(*case) for case in spaces}
    # at f = g and the top value the left side is every point and the right
    # side empty, so no space passes; the counts and first instances differ
    assert None not in witnesses and len(witnesses) > 20


def test_preimage_identity_matches_the_oracle_on_random_spaces(chain2, chain3, b2):
    rng = random.Random(0)
    witnesses, coarse = set(), 0
    for k in range(120):
        n = 1 + k % 4
        names = tuple(f"p{i}" for i in range(n))
        topo = generate_topology(n, random_basis(rng, n))
        space = OrderedSpace(names, topo, random_order(rng, n, names), name="X")
        truth = (chain2, chain3, b2)[rng.randrange(3)]
        witnesses.add(preimage_identity_matches_the_oracle(space, truth))
        coarse += topo.minopen != tuple(1 << i for i in range(n))
    # the sweep meets many witnesses, and topologies that are not discrete
    assert len(witnesses) > 20 and coarse > 30
