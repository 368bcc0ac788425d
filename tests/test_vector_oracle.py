"""The packed-slice table build and closure against the tuple-at-a-time
oracle in vector_oracle.py: equal algebras, field for field, and equal
refusals."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import vector_oracle
from lattice_oracle import up_masks_of
from dualbench import algebra, duality
from dualbench.algebra import (
    FiniteLattice,
    make_lvl,
    packed_slices,
    product_algebra,
    vector_algebra,
)
from dualbench.corpus import (
    corpus_frames,
    corpus_lattices,
    corpus_run,
    suite_ispi_roundtrip,
)
from dualbench.duality import MODES
from dualbench.errors import AlgebraError
from dualbench.kripke import (
    close_vectors,
    intuitionistic_power,
    monotone_vectors,
    power_subalgebra,
    upset_algebra,
)
from dualbench.lattice import Poset, build_poset, chain_lattice

SIGNATURES = ("bdl", "heyting", "lvl", "isp_i")


def oracle_subalgebra(truth, frame, generators, name):
    closed = vector_oracle.close_vectors(truth, frame, generators)
    return vector_oracle.vector_algebra(closed, truth, name, "isp_i", order=frame)


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
    args = (family, truth, "fam", signature)
    assert outcome(vector_algebra, *args, order=frame) == outcome(
        vector_oracle.vector_algebra, *args, order=frame
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


def test_the_order_masks_do_not_depend_on_the_order_of_the_family(chain2, chain3, b2):
    # the mask scan runs in code order; families handed over shuffled, and
    # with a repeated vector, give the masks of the meet-row scan and the
    # oracle's algebra
    rng = random.Random(0)
    families = [(truth, frame) for truth in (chain2, chain3) for frame in corpus_frames(3)]
    families += [(b2, frame) for frame in corpus_frames(2)]
    for truth, frame in families:
        for vectors in (
            monotone_vectors(truth, frame),
            tuple(itertools.product(range(len(truth)), repeat=len(frame))),
        ):
            shuffled = list(vectors)
            rng.shuffle(shuffled)
            for family in (shuffled, shuffled + [shuffled[0]]):
                args = (family, truth, "fam", "isp_i")
                built = outcome(vector_algebra, *args, order=frame)
                assert built == outcome(vector_oracle.vector_algebra, *args, order=frame)
                if len(family) == len(vectors):
                    lattice = built.lattice
                    masks = vector_oracle.order_masks_of_meet(lattice.meet)
                    assert (lattice.up_masks, lattice.down_masks) == masks


@pytest.fixture
def renders(monkeypatch):
    """The names of the lattices whose element names were rendered by a
    function during the test, one entry per rendering."""
    rendered = []
    render = Poset.elements.func

    def spy(poset):
        rendered.append(poset.name)
        return render(poset)

    monkeypatch.setattr(Poset.elements, "func", spy)
    return rendered


def test_vector_names_are_rendered_once_on_first_read(chain3, monkeypatch, renders):
    frame = build_poset(("w0", "w1", "w2"), [("w0", "w1")], name="f")
    calls = []
    name = algebra.vector_name

    def counted(truth, vec):
        calls.append(vec)
        return name(truth, vec)

    monkeypatch.setattr(algebra, "vector_name", counted)
    built = upset_algebra(chain3, frame)
    lattice = built.lattice
    assert calls == [] and "elements" not in vars(lattice)
    assert len(built) == len(lattice) == len(lattice.up_masks) > 2
    names = lattice.elements
    assert calls == list(built.presentation.vectors) and renders == ["up(f)"]
    assert lattice.elements is names and built.element_name(0) == names[0]
    assert len(calls) == len(names) and renders == ["up(f)"]
    # the function is let go once it has run
    assert "_render" not in vars(lattice)


def test_vector_lattices_compare_print_and_copy_as_the_oracle_builds(chain3, renders):
    frame = build_poset(("w0", "w1", "w2"), [("w0", "w1"), ("w0", "w2")], name="f")
    vectors = monotone_vectors(chain3, frame)
    args = (vectors, chain3, "fam", "isp_i")
    oracle = vector_oracle.vector_algebra(*args, order=frame)

    def fresh():
        built = vector_algebra(*args, order=frame)
        assert "elements" not in vars(built.lattice)
        return built

    # each a first read of the names
    assert fresh() == oracle and oracle == fresh()
    assert hash(fresh()) == hash(oracle)
    assert repr(fresh()) == repr(oracle)
    assert fresh().lattice.replace(name="g") == oracle.lattice.replace(name="g")
    assert fresh().lattice != oracle.lattice.replace(elements=oracle.elements[::-1])
    assert renders == ["fam"] * 6


def test_round_trips_render_only_the_names_a_witness_reads(renders):
    # the corpus run reads the names of two double duals, each for the
    # witness of a map that is not onto (isp_roundtrip_chain3, red by design)
    corpus_run(7, 4, 0)
    assert len(renders) <= 2 and len(set(renders)) == len(renders)
    del renders[:]
    suite = suite_ispi_roundtrip(corpus_frames(5))
    assert suite.passed and renders == []


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


def test_the_truth_tables_are_kept_per_truth_lattice_and_width(chain2, frame2):
    truth = chain_lattice(3)
    full, encode, decode, implication, constant = packed_slices(truth, 3)
    again = packed_slices(truth, 3)
    assert again[:3] == (full, encode, decode) and again[4] is constant
    assert packed_slices(truth, 2)[1] is not encode
    # a lattice equal by value keeps its own
    assert packed_slices(chain_lattice(3), 3)[1] is not encode
    assert set(truth.derived) == {("packed_slices", 3), ("packed_slices", 2)}
    # the implication memos are built on each call and kept by no lattice
    assert again[3] is not implication
    over = packed_slices(chain2, 2, frame2)[3]
    assert packed_slices(chain2, 2, frame2)[3] is not over
    assert not any("packed_slices" in key for key in frame2.derived)


def test_orders_of_one_width_get_their_own_implication(chain2, frame2, antichain2):
    # (0,1) -> (0,0): false above w0 in the chain w0 <= w1, true at the
    # antichain's first point
    oracle = vector_oracle.relativized_implication
    assert oracle(chain2, frame2)((0, 1), (0, 0)) == (0, 0)
    assert oracle(chain2, antichain2)((0, 1), (0, 0)) == (1, 0)
    for order in (frame2, antichain2, frame2, None):
        full, encode, decode, implication, _ = packed_slices(chain2, 2, order)
        u, v = encode((0, 1)), encode((0, 0))
        expected = oracle(chain2, order or antichain2)((0, 1), (0, 0))
        assert decode(implication[(~u | v) & full]) == expected


def test_vector_algebra_still_refuses_a_one_element_carrier(chain2):
    # its tables are positions in the family and are not scanned again, but
    # the carrier is still checked (every other builder scans its tables:
    # test_algebra.test_implication_table_must_be_total)
    for signature in ("bdl", "heyting", "lvl"):
        with pytest.raises(AlgebraError) as err:
            vector_algebra([()], chain2, "one", signature)
        assert err.value.code == "degenerate-carrier"


def test_monotone_vectors_match_the_recursive_search(chain2, chain3, b2):
    frames = corpus_frames(5)
    assert len(frames) == 87
    for truth in (chain2, chain3, b2):
        for frame in frames:
            assert monotone_vectors(truth, frame) == vector_oracle.monotone_vectors(
                truth, frame
            ), (truth.name, frame.name)
