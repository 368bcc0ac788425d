"""Cross-checks of the minimal-open topology layer against the slow oracle
in ``topology_oracle``: verdicts and exact witness strings of every
space-side check, on every corpus dual, on the sample-document spaces and on
random small spaces and maps. The map searches of the reconstructions are
checked on the same spaces against ``map_oracle``, which filters every
candidate map for continuity through the oracle topologies."""

import functools
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

import map_oracle
import topology_oracle as oracle
from dualbench import documents, duality, topology
from dualbench.algebra import (
    lvl_subalgebras,
    make_bdl,
    make_heyting_ispi,
    make_lvl,
    product_algebra,
)
from dualbench.corpus import corpus_lattices, corpus_run
from dualbench.documents import DocumentSet, parse_documents
from dualbench.duality import check_second_topology_inclusion
from dualbench.errors import SpaceError
from dualbench.lattice import (
    build_poset,
    chain_lattice,
    diamond_lattice,
)
from dualbench.topology import (
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    back_condition,
    generate_topology,
    is_pairwise_hausdorff,
    is_pairwise_zero_dimensional,
    non_open_image,
    non_open_preimage,
    verify_hspa_object,
    verify_pbs_morphism,
    verify_pbs_object,
    verify_pspa_morphism,
    verify_pspa_object,
)

DOCS = os.path.join(os.path.dirname(__file__), os.pardir, "sample_docs")
TRUTHS = (chain_lattice(2), chain_lattice(3), diamond_lattice())


def outcome(check, *args):
    """A check's result, or the code and message of the SpaceError it raised."""
    try:
        return check(*args)
    except SpaceError as exc:
        return ("raised", exc.code, str(exc))


def members(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def assert_topology_matches(fast, slow):
    assert fast.open_count == len(slow.opens)
    assert fast.opens == slow.opens
    if fast.size <= 8:
        probes = [members(m) for m in range(1 << fast.size)]
    else:
        probes = [o ^ {p} for o in slow.opens for p in range(fast.size)]
    for s in probes:
        assert fast.is_open(s) == slow.is_open(s), sorted(s)


def assert_map_matches(mapping, src, dst, slow_src, slow_dst):
    """Continuity and openness of one map, against the oracle; returns the
    fast verdicts (True when the map passes)."""
    pre = non_open_preimage(mapping, src, dst)
    assert pre == oracle.non_open_preimage(mapping, slow_src, slow_dst)
    img = non_open_image(mapping, src, dst)
    assert img == oracle.non_open_image(mapping, slow_src, slow_dst)
    return {"continuous": pre is None, "open": img is None}


def assert_self_maps_match(topo, slow, rng):
    """Identity, constants and a few random self-maps of one topology."""
    n = topo.size
    maps = [tuple(range(n))] + [(v,) * n for v in range(n)]
    maps += [tuple(rng.randrange(n) for _ in range(n)) for _ in range(4)]
    for mapping in maps:
        assert_map_matches(mapping, topo, topo, slow, slow)


def assert_ordered_matches(space, slow_topo):
    """Topology, Priestley separation and the hspa law; returns the fast
    verdicts."""
    assert_topology_matches(space.topo, slow_topo)
    slow = OrderedSpace(space.points, slow_topo, space.order, name=space.name)
    pspa = verify_pspa_object(space)
    assert pspa == oracle.verify_pspa_object(slow)
    hspa = outcome(verify_hspa_object, space)
    assert hspa == outcome(oracle.verify_hspa_object, slow)
    return {"pspa": pspa.passed, "hspa": "raised" if isinstance(hspa, tuple) else hspa.passed}


def assert_bitop_matches(space, slow1, slow2):
    """Both topologies, both Hausdorff readings, zero-dimensionality and the
    inclusion of the second topology in the first; returns the oracle space
    and the fast verdicts."""
    assert_topology_matches(space.topo1, slow1)
    assert_topology_matches(space.topo2, slow2)
    slow = BitopSpace(space.points, slow1, slow2, name=space.name)
    verdicts = {}
    for mode in ("unordered", "ordered"):
        res = is_pairwise_hausdorff(space, mode=mode)
        assert res == oracle.is_pairwise_hausdorff(slow, mode=mode)
        verdicts[f"hausdorff_{mode}"] = res.passed
    res = is_pairwise_zero_dimensional(space)
    assert res == oracle.is_pairwise_zero_dimensional(slow)
    verdicts["zero_dimensional"] = res.passed
    # the inclusion check reads the space only
    res = check_second_topology_inclusion(PbsObject(space, None))
    assert res == oracle.check_second_topology_inclusion(PbsObject(slow, None))
    verdicts["second_inside_first"] = res.passed
    return slow, verdicts


def assert_pbs_matches(obj, slow1, slow2):
    slow, verdicts = assert_bitop_matches(obj.space, slow1, slow2)
    checks = outcome(verify_pbs_object, obj)
    assert checks == outcome(oracle.verify_pbs_object, PbsObject(slow, obj.alpha))
    verdicts["alpha_images_closed"] = checks["alpha_images_closed"].passed
    return verdicts


def assert_ordered_maps_match(space, slow_topo, truth):
    """The continuous order-preserving maps into the truth lattice, against
    the filter-after oracle on the oracle topology; returns whether every
    order-preserving map is continuous."""
    slow = OrderedSpace(space.points, slow_topo, space.order, name=space.name)
    candidates = map_oracle.order_preserving_vectors(slow, truth)
    kept = duality._ordered_map_vectors(space, truth)
    assert kept == map_oracle.ordered_map_vectors(slow, truth)
    return len(kept) == len(candidates)


def assert_pbs_maps_match(obj, slow1, slow2):
    """The maps of the function algebra, against the filter-after oracle on
    the oracle topologies; returns whether every assignment-respecting map
    is continuous."""
    slow = PbsObject(
        BitopSpace(obj.space.points, slow1, slow2, name=obj.space.name), obj.alpha
    )
    kept = duality._pbs_map_vectors(obj)
    assert kept == map_oracle.pbs_map_vectors(slow)
    return len(kept) == len(map_oracle.assignment_vectors(slow))


def evaluation_basis(algebra, homs):
    """The evaluation sets of a dual by the definition, as frozensets: for
    each element a, the homs that send a to the top of the truth lattice."""
    top = algebra.truth.top
    return [
        frozenset(i for i, h in enumerate(homs) if h.mapping[a] == top)
        for a in range(len(algebra))
    ]


def complemented(basis, size):
    full = frozenset(range(size))
    return [full - b for b in basis]


def ordered_dual_basis(algebra, homs):
    """The subbasis of an ordered dual: the evaluation sets and their
    complements."""
    basis = evaluation_basis(algebra, homs)
    return basis + complemented(basis, len(homs))


def lvl_dual_bases(algebra, homs):
    """The subbases of both topologies of an lvl dual: the evaluation sets,
    and their complements (a hom h sends T_top(a) -> 0 to the top exactly
    when h(a) is not the top)."""
    basis = evaluation_basis(algebra, homs)
    return basis, complemented(basis, len(homs))


@pytest.fixture
def slow_topology(monkeypatch):
    """Records the subbasis of every topology that documents generate during
    the test, and returns the oracle topology of a recorded one, built from
    its subbasis by the definition."""
    seen = {}

    def recording(size, basis):
        basis = [frozenset(b) for b in basis]
        topo = generate_topology(size, basis)
        seen[id(topo)] = (topo, basis)
        return topo

    monkeypatch.setattr(documents, "generate_topology", recording)

    def slow(topo):
        kept, basis = seen[id(topo)]
        assert kept is topo
        return oracle.generate(topo.size, basis)

    return slow


@pytest.mark.parametrize("truth", TRUTHS[:2], ids=lambda t: t.name)
def test_corpus_ordered_duals_match_oracle(truth):
    rng = random.Random(0)
    pspa = set()
    for lat in corpus_lattices(7):
        for mode, algebra in (
            (duality.PSPA, make_bdl(lat, truth)),
            (duality.HSPA, make_heyting_ispi(lat, truth)),
        ):
            space, homs = mode.dual(algebra)
            slow = oracle.generate(len(homs), ordered_dual_basis(algebra, homs))
            pspa.add(assert_ordered_matches(space, slow)["pspa"])
            assert_self_maps_match(space.topo, slow, rng)
            assert_ordered_maps_match(space, slow, truth)
    # the three-chain duals include invalid ordered Stone spaces
    assert pspa == ({True} if truth.name == "chain2" else {True, False})


def test_lvl_duals_match_oracle():
    rng = random.Random(0)
    for truth in TRUTHS:
        base = make_lvl(truth)
        for algebra in (base, product_algebra(base, base)):
            obj, homs = duality.PBS.dual(algebra)
            topo1, topo2 = obj.space.topo1, obj.space.topo2
            slow1, slow2 = (
                oracle.generate(len(homs), b) for b in lvl_dual_bases(algebra, homs)
            )
            assert_pbs_matches(obj, slow1, slow2)
            assert_pbs_maps_match(obj, slow1, slow2)
            assert_self_maps_match(topo1, slow1, rng)
            assert_self_maps_match(topo2, slow2, rng)


def test_mask_built_dual_topologies_match_their_evaluation_bases(monkeypatch):
    # every dual of a seed-0 corpus pass: its topologies, built from
    # evaluation masks, against generate_topology over the frozenset
    # evaluation sets, rebuilt from its homs
    built = []
    for name in ("_ordered_dual", "_lvl_dual"):

        def spy(*args, build=getattr(duality, name)):
            out = build(*args)
            built.append((args, out))
            return out

        monkeypatch.setattr(duality, name, spy)
    corpus_run(7, 4, 0)
    kinds = set()
    for args, (space, homs) in built:
        algebra, k = args[0], len(homs)
        if isinstance(space, PbsObject):
            basis1, basis2 = lvl_dual_bases(algebra, homs)
            assert space.space.topo1 == generate_topology(k, basis1), space.name
            assert space.space.topo2 == generate_topology(k, basis2), space.name
            kinds.add(("pbs", algebra.truth.name))
        else:
            assert space.topo == generate_topology(k, ordered_dual_basis(algebra, homs))
            kinds.add((space.name.split("(")[0], algebra.truth.name))
    assert kinds == {
        ("G", "chain2"),
        ("G", "chain3"),
        ("GI", "chain2"),
        ("pbs", "chain2"),
        ("pbs", "chain3"),
        ("pbs", "b2"),
    }


def test_ordered_dual_minimal_opens_are_the_classes_of_homs():
    # the minimal open of a hom is the class of homs that send the same
    # elements to the top; over the three-chain, homs that differ only
    # where they take the middle value share one
    largest = 0
    for lat in corpus_lattices(8):
        algebra = make_bdl(lat, TRUTHS[1])
        space, homs = duality.PSPA.dual(algebra)
        basis = ordered_dual_basis(algebra, homs)
        assert space.topo == generate_topology(len(homs), basis), lat.name
        largest = max(largest, *map(int.bit_count, space.topo.minopen))
    assert largest > 1


@functools.cache
def corpus_dual_pool():
    """The pspa duals over both chains and the hspa duals over the
    two-chain of the corpus lattices up to six elements, with one to eight
    points, each beside its oracle topology."""
    pool = []
    for lat in corpus_lattices(6):
        for mode, algebra in (
            (duality.PSPA, make_bdl(lat, TRUTHS[0])),
            (duality.PSPA, make_bdl(lat, TRUTHS[1])),
            (duality.HSPA, make_heyting_ispi(lat, TRUTHS[0])),
        ):
            space, homs = mode.dual(algebra)
            if 1 <= len(homs) <= 8:
                slow = oracle.generate(len(homs), ordered_dual_basis(algebra, homs))
                pool.append((space, slow))
    return tuple(pool)


def assert_ordered_map_laws_match(mapping, src, dst, slow_src, slow_dst):
    """Continuity, open images, order and the back condition of one map:
    the mask verdict of each alone against the oracle's scan, and each
    law's result, verdict and witness, against the scan's. Returns the
    verdicts."""
    pre = oracle.non_open_preimage(mapping, slow_src, slow_dst)
    assert (topology._maps_into(mapping, src.topo.minopen, dst.topo.minopen) is None) == (
        pre is None
    )
    assert non_open_preimage(mapping, src.topo, dst.topo) == pre
    img = oracle.non_open_image(mapping, slow_src, slow_dst)
    assert (topology._maps_onto(mapping, src.topo.minopen, dst.topo.minopen) is None) == (
        img is None
    )
    assert non_open_image(mapping, src.topo, dst.topo) == img
    up = (src.order.up_masks, dst.order.up_masks)
    order = oracle.order_preserving(mapping, src, dst)
    assert (topology._maps_into(mapping, *up) is None) == order.passed
    assert verify_pspa_morphism(mapping, src, dst)["order_preserving"] == order
    back = oracle.back_condition(mapping, src, dst)
    assert (topology._maps_onto(mapping, *up) is None) == back.passed
    assert back_condition(mapping, src, dst) == back
    return {
        "continuous": pre is None,
        "open": img is None,
        "order": order.passed,
        "back": back.passed,
    }


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_random_maps_between_corpus_duals_match_the_scans(data):
    pool = corpus_dual_pool()
    (src, slow_src), (dst, slow_dst) = (data.draw(st.sampled_from(pool)) for _ in "sd")
    values = st.integers(0, len(dst.points) - 1)
    n = len(src.points)
    mapping = tuple(data.draw(st.lists(values, min_size=n, max_size=n)))
    assert_ordered_map_laws_match(mapping, src, dst, slow_src, slow_dst)


def test_corpus_dual_map_sweep_meets_every_verdict():
    # random maps, and the identity of each dual, must meet a pass and a
    # failure (with its witness) of each law
    rng = random.Random(0)
    pool = corpus_dual_pool()
    seen = {}
    for k in range(400):
        (src, slow_src), (dst, slow_dst) = rng.choice(pool), rng.choice(pool)
        if k % 4 == 0:
            (dst, slow_dst), mapping = (src, slow_src), tuple(range(len(src.points)))
        else:
            mapping = tuple(rng.randrange(len(dst.points)) for _ in src.points)
        verdicts = assert_ordered_map_laws_match(mapping, src, dst, slow_src, slow_dst)
        for key, verdict in verdicts.items():
            seen.setdefault(key, set()).add(verdict)
    assert seen == dict.fromkeys(("continuous", "open", "order", "back"), {True, False})


def test_sample_document_spaces_match_oracle(slow_topology):
    kinds = set()
    for name in sorted(os.listdir(DOCS)):
        with open(os.path.join(DOCS, name), encoding="utf-8") as fh:
            docset = DocumentSet(parse_documents(fh.read()))
        for doc in docset.docs.values():
            if doc.kind != "space":
                continue
            space = docset.space(doc.name)
            if isinstance(space, PbsObject):
                topos = (space.space.topo1, space.space.topo2)
                assert_pbs_matches(space, *map(slow_topology, topos))
            else:
                assert_ordered_matches(space, slow_topology(space.topo))
            kinds.add(type(space).__name__)
    assert kinds == {"PbsObject", "OrderedSpace"}


# -- random small spaces and maps --------------------------------------------


def random_basis(rng, n):
    basis = [
        frozenset(i for i in range(n) if rng.random() < 0.5)
        for _ in range(rng.randrange(6))
    ]
    if rng.random() < 0.5:
        # a subbasis closed under complement makes every open clopen, as
        # in the ordered duals
        basis += [frozenset(range(n)) - b for b in basis]
    return basis


def random_order(rng, n, names):
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = [
        (names[perm[i]], names[perm[j]])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return build_poset(names, pairs)


def random_alpha(rng, n, truth):
    subs = lvl_subalgebras(truth)
    full = frozenset(range(n))
    images = [
        full if rng.random() < 0.5 else frozenset(i for i in range(n) if rng.random() < 0.7)
        for _ in subs
    ]
    return AlphaAssignment(truth, subs, tuple(images))


def check_random_instance(rng, n):
    """One random pbs object, ordered space and map on n points, checked
    against the oracle; returns the fast verdicts and the ordered space."""
    names = tuple(f"p{i}" for i in range(n))
    b1, b2, b3 = (random_basis(rng, n) for _ in range(3))
    space = BitopSpace(names, generate_topology(n, b1), generate_topology(n, b2))
    truth = TRUTHS[rng.randrange(len(TRUTHS))]
    obj = PbsObject(space, random_alpha(rng, n, truth))
    slow1, slow2 = oracle.generate(n, b1), oracle.generate(n, b2)
    verdicts = assert_pbs_matches(obj, slow1, slow2)
    verdicts["pbs_maps_all_continuous"] = assert_pbs_maps_match(obj, slow1, slow2)
    ordered = OrderedSpace(
        names, generate_topology(n, b3), random_order(rng, n, names), name="X"
    )
    slow3 = oracle.generate(n, b3)
    verdicts.update(assert_ordered_matches(ordered, slow3))
    verdicts["ordered_maps_all_continuous"] = assert_ordered_maps_match(
        ordered, slow3, truth
    )
    mapping = tuple(rng.randrange(n) for _ in range(n))
    verdicts.update(
        assert_map_matches(mapping, ordered.topo, space.topo1, slow3, slow1)
    )
    # a self-map of the pbs object, the identity one time in three
    if rng.random() < 1 / 3:
        mapping = tuple(range(n))
    slow = PbsObject(BitopSpace(names, slow1, slow2), obj.alpha)
    checks = verify_pbs_morphism(mapping, obj, obj)
    assert checks["alpha_preserved"] == oracle.alpha_preserved(mapping, obj, obj)
    for tag, topo in (("continuous_1", slow1), ("continuous_2", slow2)):
        bad = oracle.non_open_preimage(mapping, topo, topo)
        assert checks[tag].passed == (bad is None)
        assert bad is None or checks[tag].witness == (
            f"preimage of {slow.space.subset_name(bad)} is not open"
        )
    compatible = duality._alpha_compatible(mapping, obj, obj)
    assert compatible == oracle.alpha_compatible(mapping, obj, obj)
    verdicts["alpha_preserved"] = checks["alpha_preserved"].passed
    verdicts["alpha_compatible"] = compatible.passed
    return verdicts, ordered


@settings(deadline=None, max_examples=150)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 6))
def test_random_spaces_and_maps_match_oracle(rng, n):
    check_random_instance(rng, n)


@functools.cache
def random_sweep():
    """The same cross-check over a fixed sweep of 300 instances."""
    rng = random.Random(0)
    return tuple(check_random_instance(rng, 1 + k % 5) for k in range(300))


def test_random_sweep_exercises_every_witness():
    # the sweep must meet both a pass and a failure (with its witness) of
    # every check
    seen = {}
    for verdicts, _ in random_sweep():
        for key, verdict in verdicts.items():
            seen.setdefault(key, set()).add(verdict)
    hspa = seen.pop("hspa")
    assert all({True, False} <= verdicts for verdicts in seen.values()), seen
    # a space that passes Priestley separation is discrete (see the next
    # test), so the down-closure law holds: the hspa check passes or raises
    assert hspa == {True, "raised"}


def test_priestley_separated_sweep_spaces_are_discrete():
    # of two distinct points one is not below the other, so a clopen up-set
    # separates them; hence every minimal open of a space that passes
    # Priestley separation is a singleton
    separated = [space for verdicts, space in random_sweep() if verdicts["pspa"]]
    assert separated and any(
        m & (m - 1) for _, space in random_sweep() for m in space.topo.minopen
    )
    for space in separated:
        assert space.topo.minopen == tuple(1 << i for i in range(space.topo.size))


def test_empty_carrier_matches_oracle():
    topo = generate_topology(0, [])
    assert_topology_matches(topo, oracle.generate(0, []))
