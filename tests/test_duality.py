import ast
import pathlib
import sys

import pytest

from dualbench import duality
from dualbench.algebra import (
    Homomorphism,
    enumerate_homs,
    hom_order,
    lvl_subalgebras,
    make_bdl,
    make_heyting_ispi,
    make_lvl,
    product_algebra,
)
from dualbench.duality import (
    HSPA,
    PBS,
    PSPA,
    algebra_roundtrip,
    check_downclosure_identity,
    check_esakia_algebra_roundtrip,
    check_esakia_space_roundtrip,
    check_second_topology_inclusion,
    dual_hom_of_map,
    dual_map_of_hom,
    functor_composition_check,
    functor_identity_check,
    space_roundtrip,
    spectrum_correspondence,
    verification_scope,
)
from dualbench.corpus import corpus_frames, corpus_lattices, corpus_run
from dualbench.errors import AlgebraError, SpaceError
from dualbench.kripke import intuitionistic_power, upset_algebra
from dualbench.lattice import (
    build_poset,
    chain_lattice,
    heyting_implies,
)
from dualbench.topology import (
    AlphaAssignment,
    BitopSpace,
    PbsObject,
    verify_hspa_object,
    verify_pbs_object,
    verify_pspa_object,
)
import topology_oracle
from topology_oracle import discrete_topology, indiscrete_topology
from hom_oracle import hom_leq_masks


def is_chain(lattice):
    n = len(lattice)
    return all(lattice.leq[i][j] or lattice.leq[j][i] for i in range(n) for j in range(n))


# --- bitopological side -----------------------------------------------------


def test_lvl_dual_of_two_chain(chain2):
    obj = PBS.dual(make_lvl(chain2))[0]
    assert len(obj.space.points) == 1
    assert set(obj.space.topo1.opens) == {frozenset(), frozenset({0})}
    assert set(obj.space.topo2.opens) == {frozenset(), frozenset({0})}
    assert obj.alpha.image_mask(frozenset({0, 1})) == 0b1  # the mask of {h0}


def test_lvl_dual_of_three_chain(chain3):
    obj = PBS.dual(make_lvl(chain3))[0]
    assert len(obj.space.points) == 1
    # no unary-operator-preserving hom lands in the two-element subalgebra
    assert obj.alpha.image_mask(frozenset({0, 2})) == 0


def test_lvl_dual_reads_the_cached_subalgebra_family(chain3):
    for truth in (chain3, *corpus_lattices(5)):
        family = lvl_subalgebras(truth)
        assert PBS.dual(make_lvl(truth))[0].alpha.subalgebras is family
        assert lvl_subalgebras(truth) is family


def test_lvl_dual_of_square(chain2):
    square = product_algebra(make_lvl(chain2), make_lvl(chain2))
    obj = PBS.dual(square)[0]
    assert len(obj.space.points) == 2
    assert len(obj.space.topo1.opens) == 4
    assert len(obj.space.topo2.opens) == 4


def test_lvl_dual_passes_object_laws(chain2, chain3, b2):
    for truth in (chain2, chain3, b2):
        for algebra in (make_lvl(truth), product_algebra(make_lvl(truth), make_lvl(truth))):
            obj = PBS.dual(algebra)[0]
            checks = verify_pbs_object(obj)
            assert all(r.passed for r in checks.values()), algebra.name
            assert check_second_topology_inclusion(obj).passed


def test_lvl_duals_are_bidiscrete():
    # a hom h sends T_l(a) to the top exactly when h(a) = l, so every
    # point is cut out by a basic open of each topology
    objects = [make_lvl(lat) for lat in corpus_lattices(7)]
    objects += [product_algebra(make_lvl(lat), make_lvl(lat)) for lat in corpus_lattices(4)]
    assert len(objects) == 24
    points = []
    for algebra in objects:
        space = PBS.dual(algebra)[0].space
        singletons = tuple(1 << i for i in range(len(space.points)))
        assert space.topo1.minopen == singletons, algebra.name
        assert space.topo2.minopen == singletons, algebra.name
        points.append(len(singletons))
    # the identity is the one hom of L into itself; L x L has its projections
    assert points == [1] * 20 + [2] * 4


def test_lvl_reconstruct_one_point(chain3):
    obj = PBS.dual(make_lvl(chain3))[0]
    algebra = PBS.reconstruct(obj, None)[0]
    assert len(algebra) == 3
    assert is_chain(algebra.lattice)


def test_lvl_reconstruct_two_discrete_points(chain2):
    disc = discrete_topology(2)
    space = BitopSpace(("p", "q"), disc, disc)
    subs = lvl_subalgebras(chain2)
    obj = PbsObject(space, AlphaAssignment(chain2, subs, (frozenset({0, 1}),)))
    algebra = PBS.reconstruct(obj, None)[0]
    assert len(algebra) == 4


def test_lvl_reconstruct_alpha_filters_carrier(chain3):
    disc = discrete_topology(2)
    space = BitopSpace(("p", "q"), disc, disc)
    subs = lvl_subalgebras(chain3)
    images = tuple(
        frozenset({0, 1}) for _ in subs
    )  # every point constrained into {0,1} as well
    obj = PbsObject(space, AlphaAssignment(chain3, subs, images))
    algebra = PBS.reconstruct(obj, None)[0]
    assert len(algebra) == 4
    for name in algebra.elements:
        assert "m" not in name


def test_lvl_algebra_roundtrip_examples(chain2, chain3):
    rep = algebra_roundtrip(PBS, make_lvl(chain2))
    assert rep.passed and rep.cardinalities["double_dual"] == 2
    rep = algebra_roundtrip(PBS, make_lvl(chain3))
    assert rep.passed and rep.cardinalities["double_dual"] == 3


def canonical_pbs(truth):
    disc = discrete_topology(len(truth))
    space = BitopSpace(tuple(truth.elements), disc, disc, name=f"{truth.name}-as-space")
    subs = lvl_subalgebras(truth)
    return PbsObject(space, AlphaAssignment(truth, subs, subs))


def test_lvl_space_roundtrip_canonical_object(chain2, chain3):
    for truth in (chain2, chain3):
        rep = space_roundtrip(PBS, canonical_pbs(truth))
        assert rep.passed, rep.witnesses


def test_lvl_space_roundtrip_on_duals(chain2, b2):
    for truth in (chain2, b2):
        algebra = product_algebra(make_lvl(truth), make_lvl(truth))
        rep = space_roundtrip(PBS, PBS.dual(algebra)[0])
        assert rep.passed, rep.witnesses


def test_lvl_space_roundtrip_boolean_canonical(b2):
    # four points, a 64-element function algebra, and exactly the four
    # evaluations coming back
    rep = space_roundtrip(PBS, canonical_pbs(b2))
    assert rep.passed, rep.witnesses
    assert rep.cardinalities == {
        "points": 4,
        "function_algebra": 64,
        "double_dual_points": 4,
    }


def test_lvl_space_roundtrip_alpha_constrained(chain3):
    # a hand-built object whose assignment pins every point into the
    # two-element subalgebra; the function algebra shrinks accordingly and
    # the evaluation map is still an isomorphism
    disc = discrete_topology(2)
    space = BitopSpace(("p", "q"), disc, disc, name="pq")
    subs = lvl_subalgebras(chain3)
    obj = PbsObject(
        space,
        AlphaAssignment(chain3, subs, tuple(frozenset({0, 1}) for _ in subs)),
    )
    rep = space_roundtrip(PBS, obj)
    assert rep.passed, rep.witnesses
    assert rep.cardinalities["function_algebra"] == 4


# --- ordered side, bounded lattices ----------------------------------------


def test_each_dual_refuses_an_algebra_of_another_signature(chain2):
    bdl = make_bdl(chain2, chain2)
    for mode, algebra, message in (
        (PBS, bdl, "the bitopological dual needs an lvl algebra"),
        (
            PSPA,
            make_heyting_ispi(chain2, chain2),
            "the ordered dual needs a bounded-lattice algebra",
        ),
        (HSPA, bdl, "the Esakia-style dual needs an isp_i algebra"),
    ):
        with pytest.raises(AlgebraError) as err:
            mode.dual(algebra)
        assert (err.value.code, str(err.value)) == ("signature-mismatch", message)


def test_priestley_dual_examples(chain2, chain3, b2):
    x = PSPA.dual(make_bdl(chain3, chain2))[0]
    assert len(x.points) == 2
    assert x.order.leq[0][1] != x.order.leq[1][0]  # a two-chain
    assert len(x.topo.opens) == 4  # discrete
    x = PSPA.dual(make_bdl(b2, chain2))[0]
    assert len(x.points) == 2
    assert not x.order.leq[0][1] and not x.order.leq[1][0]  # antichain
    x = PSPA.dual(make_bdl(chain2, chain2))[0]
    assert len(x.points) == 1


def top_classes(homs, top):
    """The minimal open of each hom from the definition: the homs that send
    the same elements to the top."""
    tops = [frozenset(x for x, v in enumerate(h.mapping) if v == top) for h in homs]
    return tuple(sum(1 << i for i, other in enumerate(tops) if other == t) for t in tops)


def test_top_classes_past_the_byte_range_give_the_same_space(b2):
    # a value above 255 does not fit a byte, so a truth lattice of more
    # than 256 elements keys the classes by tuples; both keys must give
    # the classes of the definition, on both sides of the bound
    for size in (3, 257):
        truth = chain_lattice(size)
        for lat in (chain_lattice(2), chain_lattice(3), b2):
            algebra = make_bdl(lat, truth)
            space = PSPA.dual(algebra)[0]
            homs = enumerate_homs(algebra, make_bdl(truth, truth))
            assert space.topo.minopen == top_classes(homs, truth.top), (size, lat.name)
            assert space.order.up_masks == hom_order(homs)
    # the three-chain has one hom per value of m, and only m -> top is apart
    assert len(space.points) == 2  # b2 has its two projections
    space = PSPA.dual(make_bdl(chain_lattice(3), truth))[0]
    assert space.topo.minopen == ((1 << 256) - 1,) * 256 + (1 << 256,)


def test_priestley_reconstruct_examples(chain2):
    two_chain_space = PSPA.dual(make_bdl(chain_lattice(3), chain2))[0]
    algebra = PSPA.reconstruct(two_chain_space, chain2)[0]
    assert len(algebra) == 3 and is_chain(algebra.lattice)
    anti = PSPA.dual(make_bdl(chain_lattice(3), chain2))[0]
    one_point = PSPA.dual(make_bdl(chain2, chain2))[0]
    assert len(PSPA.reconstruct(one_point, chain2)[0]) == 2
    b2_space = PSPA.dual(make_bdl(chain_lattice(4), chain2))[0]
    assert len(PSPA.reconstruct(b2_space, chain2)[0]) == 4


def test_priestley_roundtrips_truth_two(small_lattices, chain2):
    for lat in small_lattices:
        algebra = make_bdl(lat, chain2)
        assert algebra_roundtrip(PSPA, algebra).passed
        space = PSPA.dual(algebra)[0]
        assert verify_pspa_object(space).passed
        assert space_roundtrip(PSPA, space, chain2).passed


def test_priestley_roundtrip_fails_truth_three(chain2, chain3):
    # over a three-element truth lattice the one-point dual of the two-chain
    # reconstructs to a three-element map algebra, so evaluation cannot be
    # onto; the workbench reports exactly that
    rep = algebra_roundtrip(PSPA, make_bdl(chain2, chain3))
    assert rep.cardinalities == {
        "algebra": 2,
        "dual_points": 1,
        "double_dual": 3,
    }
    assert rep.verdicts["well_defined"]
    assert rep.verdicts["injective"]
    assert not rep.verdicts["surjective"]
    # and the three-chain's own dual is not even Priestley-separated
    space = PSPA.dual(make_bdl(chain3, chain3))[0]
    assert not verify_pspa_object(space).passed


def test_delta_reflection_device(small_lattices, chain2):
    for lat in small_lattices:
        space = PSPA.dual(make_bdl(lat, chain2))[0]
        rep = space_roundtrip(PSPA, space, chain2)
        assert rep.verdicts["order_reflecting"]
        assert rep.verdicts["reflection_device"]


# --- ordered side, implication algebras -------------------------------------


def test_esakia_dual_of_up_set_algebra(chain2, frame2):
    algebra = upset_algebra(chain2, frame2)
    space = HSPA.dual(algebra)[0]
    assert len(space.points) == 2
    assert verify_hspa_object(space).passed
    assert check_downclosure_identity(algebra).passed


def test_esakia_dual_two_chain_trivial(chain2):
    algebra = make_heyting_ispi(chain2, chain2)
    space = HSPA.dual(algebra)[0]
    assert len(space.points) == 1
    assert check_downclosure_identity(algebra).passed


def test_an_esakia_object_is_separated_once(monkeypatch):
    # a separated dual is checked once, inside verify_hspa_object; only an
    # unseparated one is checked a second time for its pspa_object witness
    from dualbench import topology
    from dualbench.corpus import suite_ispi_roundtrip

    separated = []
    separation = topology.verify_pspa_object

    def spy(space):
        separated.append(space.name)
        return separation(space)

    monkeypatch.setattr(topology, "verify_pspa_object", spy)
    monkeypatch.setattr(duality, "verify_pspa_object", spy)
    suite = suite_ispi_roundtrip(corpus_frames(4))
    assert suite.passed and suite.counts == {"frames": 24}
    assert len(separated) == 24


def test_an_unseparated_space_fails_both_esakia_object_laws():
    from dualbench.reporting import failed
    from dualbench.topology import OrderedSpace

    points = ("w0", "w1")
    order = build_poset(points, [("w0", "w1")])
    space = OrderedSpace(points, indiscrete_topology(2), order, name="X")
    witness = "no clopen up-set separates w1 from w0"
    assert HSPA.verify_object(space) == {
        "pspa_object": failed(witness),
        "hspa_object": failed(f"'X' is not a valid ordered Stone space: {witness}"),
    }


def test_downclosure_identity_fails_on_full_power(chain2, frame2):
    power = intuitionistic_power(chain2, frame2)
    res = check_downclosure_identity(power)
    assert not res.passed
    assert "(0,1)" in res.witness


def test_downclosure_masks_match_the_scan(chain2, chain3, b2):
    # the mask test against the elementwise scan of the oracle: the same
    # verdict, and the same first failing element and sides as the witness
    cases = [(chain2, f) for f in corpus_frames(4)]
    cases += [(truth, f) for truth in (chain3, b2) for f in corpus_frames(3)]
    verdicts = []
    for truth, frame in cases:
        for build in (upset_algebra, intuitionistic_power):
            algebra = build(truth, frame)
            space, homs = duality.HSPA.dual(algebra)
            scan = topology_oracle.downclosure_scan(algebra, space, homs)
            fast = duality._downclosure_mismatch(algebra, space.order, homs)
            assert (fast is None) == scan.passed, (algebra.name, scan.witness)
            if build is upset_algebra and truth is chain2:
                assert scan.passed, algebra.name
            assert check_downclosure_identity(algebra).witness == scan.witness
            verdicts.append(scan.passed)
    # the full powers over frames with an order fail, and so does every
    # algebra over the four-element Boolean lattice
    assert verdicts.count(True) == 38 and verdicts.count(False) == 42


def test_implies_preserved_names_the_first_broken_pair(chain2):
    frame = build_poset(("a", "b", "c"), [("a", "b"), ("a", "c")], name="vee")
    algebra = upset_algebra(chain2, frame)
    space, homs = duality.HSPA.dual(algebra)
    double, vectors = duality._ordered_reconstruct(space, chain2, "isp_i", "CI")
    pos = {v: i for i, v in enumerate(vectors)}
    n = len(algebra)
    mapping = tuple(pos[tuple(h.mapping[a] for h in homs)] for a in range(n))
    assert duality._implies_preserved(mapping, algebra, double).passed

    def per_pair(table):
        for a in range(n):
            for b in range(n):
                if mapping[algebra.implies[a][b]] != table[mapping[a]][mapping[b]]:
                    name = algebra.element_name
                    return f"implication not preserved at ({name(a)}, {name(b)})"
        return None

    for p in range(n):
        for q in range(n):
            rows = [list(row) for row in double.implies]
            rows[p][q] = (rows[p][q] + 1) % n
            broken = double.replace(implies=tuple(map(tuple, rows)))
            res = duality._implies_preserved(mapping, algebra, broken)
            assert not res.passed
            assert res.witness == per_pair(broken.implies)


def test_a_passed_homomorphism_decides_the_implication_law(chain2, monkeypatch):
    # is_homomorphism of isp_i algebras checks the implication pair by pair,
    # in the order _implies_preserved does, so the law runs only after the
    # homomorphism law failed, and then alone decides its verdict
    frame = build_poset(("a", "b", "c"), [("a", "b"), ("a", "c")], name="vee")
    algebra = upset_algebra(chain2, frame)
    runs = []
    law = duality._ALGEBRA_LAWS["implies_preserved"]

    def counted(*args):
        runs.append(args)
        return law(*args)

    monkeypatch.setitem(duality._ALGEBRA_LAWS, "implies_preserved", counted)
    assert algebra_roundtrip(HSPA, algebra).passed
    assert runs == []

    def broken(change):
        def reconstruct(space, truth):
            double, vectors = HSPA.reconstruct(space, truth)
            return change(double), vectors

        return algebra_roundtrip(HSPA.replace(reconstruct=reconstruct), algebra)

    # meet and join swapped: the implication is still kept
    report = broken(
        lambda d: d.replace(lattice=d.lattice.replace(meet=d.lattice.join, join=d.lattice.meet))
    )
    assert report.verdicts["homomorphism"] is False
    assert report.witnesses["homomorphism"].startswith("meet not preserved at")
    assert report.verdicts["implies_preserved"] is True and len(runs) == 1

    def flipped(d):
        rows = [list(row) for row in d.implies]
        rows[1][2] = (rows[1][2] + 1) % len(rows)
        return d.replace(implies=tuple(map(tuple, rows)))

    report = broken(flipped)
    assert report.verdicts["implies_preserved"] is False and len(runs) == 2
    at = report.witnesses["implies_preserved"].removeprefix("implication not preserved at")
    assert report.witnesses["homomorphism"] == "implies not preserved at" + at
    # a mode that checks the implication law alone still runs it
    report = algebra_roundtrip(HSPA.replace(algebra_laws=("implies_preserved",)), algebra)
    assert report.passed and "homomorphism" not in report.verdicts and len(runs) == 3


def test_esakia_reconstruct_examples(chain2, frame2):
    algebra = upset_algebra(chain2, frame2)
    space = HSPA.dual(algebra)[0]
    rebuilt = HSPA.reconstruct(space, chain2)[0]
    assert len(rebuilt) == 3
    for a in range(3):
        for b in range(3):
            assert rebuilt.implies[a][b] == heyting_implies(rebuilt.lattice, a, b)
    one_point = HSPA.dual(make_heyting_ispi(chain2, chain2))[0]
    assert len(HSPA.reconstruct(one_point, chain2)[0]) == 2


def test_esakia_reconstruct_antichain_is_boolean(chain2, antichain2):
    power = intuitionistic_power(chain2, antichain2)
    space = HSPA.dual(power)[0]
    rebuilt = HSPA.reconstruct(space, chain2)[0]
    assert len(rebuilt) == 4
    # pointwise Boolean implication: a -> b = complement(a) join b
    lat = rebuilt.lattice
    for a in range(4):
        comp = rebuilt.implies[a][lat.bottom]
        for b in range(4):
            assert rebuilt.implies[a][b] == lat.join[comp][b]


def test_esakia_roundtrips(chain2, frame2):
    algebra = upset_algebra(chain2, frame2)
    assert check_esakia_algebra_roundtrip(algebra).passed
    space = HSPA.dual(algebra)[0]
    assert check_esakia_space_roundtrip(space, chain2).passed
    two = make_heyting_ispi(chain2, chain2)
    assert check_esakia_algebra_roundtrip(two).passed


# --- functors on morphisms ---------------------------------------------------


def test_dual_of_identity_all_modes(chain2, chain3, frame2):
    assert functor_identity_check(make_lvl(chain3), "pbs").passed
    assert functor_identity_check(make_bdl(chain3, chain2), "pspa").passed
    assert functor_identity_check(upset_algebra(chain2, frame2), "hspa").passed


def test_dual_of_bounds_hom(chain2, chain3):
    source = make_bdl(chain2, chain2)
    target = make_bdl(chain3, chain2)
    (hom,) = enumerate_homs(source, target)
    mapping, checks = dual_map_of_hom(hom, "pspa")
    assert all(r.passed for r in checks.values())
    # both points of the three-chain dual land on the single point
    assert mapping == (0, 0)


def test_functor_composition(chain2, chain3, b2):
    a = make_bdl(chain3, chain2)
    b = make_bdl(b2, chain2)
    c = make_bdl(chain2, chain2)
    for f in enumerate_homs(a, b):
        for g in enumerate_homs(b, c):
            assert functor_composition_check(f, g, "pspa").passed
    square = product_algebra(make_lvl(chain2), make_lvl(chain2))
    for f in enumerate_homs(make_lvl(chain2), square):
        for g in enumerate_homs(square, make_lvl(chain2)):
            assert functor_composition_check(f, g, "pbs").passed


def test_dual_hom_of_map(chain2):
    space = PSPA.dual(make_bdl(chain_lattice(3), chain2))[0]
    hom, checks = dual_hom_of_map((1, 1), space, space, "pspa", truth=chain2)
    assert all(r.passed for r in checks.values())
    assert hom is not None
    ident, checks = dual_hom_of_map((0, 1), space, space, "pspa", truth=chain2)
    assert ident.mapping == tuple(range(len(ident.source)))


def test_dual_hom_of_map_pbs(chain2):
    obj = PBS.dual(product_algebra(make_lvl(chain2), make_lvl(chain2)))[0]
    hom, checks = dual_hom_of_map((1, 0), obj, obj, "pbs")
    assert all(r.passed for r in checks.values())


def test_dual_hom_of_map_refuses_a_map_that_is_not_total(chain2):
    # a short map, an entry past the last point and a negative entry are
    # carrier mismatches, as the morphism verifiers find them
    space = PSPA.dual(make_bdl(chain_lattice(3), chain2))[0]
    obj = PBS.dual(product_algebra(make_lvl(chain2), make_lvl(chain2)))[0]
    spaces = (("pspa", space, chain2), ("hspa", space, chain2), ("pbs", obj, None))
    for mapping in ((0,), (0, 5), (0, -1), (0, 1, 0)):
        for mode, src, truth in spaces:
            with pytest.raises(SpaceError, match=f"map '{mode}-map' is not total") as exc:
                dual_hom_of_map(mapping, src, src, mode, truth=truth)
            assert exc.value.code == "carrier-mismatch"


def _one_mode_each(chain2, frame2):
    return (
        (PBS, make_lvl(chain2)),
        (PSPA, make_bdl(chain_lattice(3), chain2)),
        (HSPA, upset_algebra(chain2, frame2)),
    )


def test_algebra_roundtrip_names_an_evaluation_outside_the_double_dual(chain2, frame2):
    # a record whose reconstruction loses its last map leaves one
    # evaluation outside the double dual; each mode words that its own way
    # and fails every later law with it
    phrase = {
        "pbs": "is not a point of the double dual",
        "pspa": "is not a continuous order-preserving map on the dual",
        "hspa": "is not a map of the double dual",
    }
    for mode, algebra in _one_mode_each(chain2, frame2):

        def short(space, truth, mode=mode):
            double, vectors = mode.reconstruct(space, truth)
            return double, vectors[:-1]

        rep = algebra_roundtrip(mode.replace(reconstruct=short), algebra)
        assert rep.witnesses["well_defined"].endswith(phrase[mode.name])
        laws = {"homomorphism", "injective", "surjective"}
        if mode is HSPA:
            laws.add("implies_preserved")
        assert set(rep.verdicts) == laws | {"well_defined"}
        assert not any(rep.verdicts.values())
        assert {rep.witnesses[k] for k in laws} == {"natural map is not well defined"}


def test_space_roundtrip_names_a_point_outside_the_double_dual(chain2, frame2):
    # the same with the double dual of a space losing its last point
    for mode, algebra in _one_mode_each(chain2, frame2):

        def short(a, mode=mode):
            space, homs = mode.dual(a)
            return space, homs[:-1]

        space = mode.dual(algebra)[0]
        rep = space_roundtrip(mode.replace(dual=short), space, algebra.truth)
        carrier = "function algebra" if mode is PBS else "map algebra"
        assert rep.witnesses["well_defined"].endswith(f"is not a hom of the {carrier}")
        assert set(rep.verdicts) == {"well_defined", "injective", "surjective", *mode.space_laws}
        assert not any(rep.verdicts.values())


def test_hspa_roundtrips_record_a_map_family_that_is_not_closed(chain3, b2):
    # over a truth lattice other than the two-chain the hspa dual of a
    # Heyting algebra need not be an ordered Stone space, and then its maps
    # are not closed under the relativized implication: both round trips
    # fail well_defined with that refusal, and every later law with it.
    # The eight-element Boolean lattice is left out over b2: its maps are
    # closed, and their 4096-element algebra takes seconds and 400 MB
    refused = {}
    for truth in (chain3, b2):
        for lat in corpus_lattices(8):
            if truth is b2 and len(lat) == 8 and len(lat.join_irreducibles) == 3:
                continue
            algebra = HSPA.from_lattice(lat, truth)
            rep = algebra_roundtrip(HSPA, algebra)
            witness = rep.witnesses.get("well_defined", "")
            if not witness.endswith("an implication leaves the map family"):
                continue
            refused[truth.name] = refused.get(truth.name, 0) + 1
            laws = set(HSPA.algebra_laws) | {"injective", "surjective"}
            assert set(rep.verdicts) == laws | {"well_defined"}
            assert not any(rep.verdicts.values())
            assert {rep.witnesses[k] for k in laws} == {"natural map is not well defined"}
            assert set(rep.cardinalities) == {"algebra", "dual_points"}
            space = HSPA.dual(algebra)[0]
            rep = space_roundtrip(HSPA, space, truth)
            assert rep.witnesses["well_defined"] == witness
            assert set(rep.verdicts) == {"well_defined", "injective", "surjective", *HSPA.space_laws}
            assert not any(rep.verdicts.values())
            assert set(rep.cardinalities) == {"points"}
    assert refused == {"chain3": 10, "b2": 18}


def test_roundtrips_raise_a_refusal_other_than_not_closed(chain2, frame2):
    def refuse(space, truth):
        raise AlgebraError("empty-carrier", "no maps")

    algebra = upset_algebra(chain2, frame2)
    mode = HSPA.replace(reconstruct=refuse)
    with pytest.raises(AlgebraError, match="no maps"):
        algebra_roundtrip(mode, algebra)
    with pytest.raises(AlgebraError, match="no maps"):
        space_roundtrip(mode, HSPA.dual(algebra)[0], chain2)


def test_dual_hom_of_map_names_what_is_missing(chain2):
    # an ordered space is read over a truth lattice given beside it, and a
    # bitopological object is no ordered space: both are typed errors now,
    # not a TypeError or an AttributeError from deep inside the functor
    space = PSPA.dual(make_bdl(chain_lattice(3), chain2))[0]
    with pytest.raises(AlgebraError, match="pspa mode needs a truth lattice"):
        dual_hom_of_map((0, 1), space, space, "pspa")
    obj = PBS.dual(make_lvl(chain2))[0]
    with pytest.raises(SpaceError, match="pspa mode needs a space of type OrderedSpace"):
        dual_hom_of_map((0,), obj, obj, "pspa", truth=chain2)
    with pytest.raises(SpaceError, match="pbs mode needs a space of type PbsObject"):
        dual_hom_of_map((0, 1), space, space, "pbs")
    with pytest.raises(AlgebraError, match="unknown duality mode 'esakia'"):
        dual_hom_of_map((0, 1), space, space, "esakia", truth=chain2)


def test_modes_are_looked_up_by_record_or_name():
    assert list(duality.MODES) == ["pbs", "pspa", "hspa"]
    for name, mode in duality.MODES.items():
        assert mode.name == name
        assert duality.as_mode(name) is duality.as_mode(mode) is mode


def _mode_name_comparisons(tree, names):
    """(line, source) of each ==, !=, in or not in comparison with a mode
    name as a string constant on either side, alone or in a literal
    tuple, list or set."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not all(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            continue
        operands = []
        for o in (node.left, *node.comparators):
            operands += o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o]
        if any(isinstance(o, ast.Constant) and o.value in names for o in operands):
            yield node.lineno, ast.unparse(node)


def test_modes_are_dispatched_in_one_place():
    # modes are told apart by their records: no module of the package
    # compares a value with a mode's name, so a new mode is one new record
    names = set(duality.MODES)
    package = pathlib.Path(duality.__file__).parent
    found = {
        path.name: list(_mode_name_comparisons(ast.parse(path.read_text()), names))
        for path in sorted(package.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}
    # and the check does see such a comparison
    sample = ast.parse('if mode == "pspa" or "hspa" != m or m in ("pbs",):\n    pass\n')
    assert len(list(_mode_name_comparisons(sample, names))) == 3


def _unused_imports(tree):
    """(line, name) of each name that an import binds and the module never
    reads; a ``from __future__`` import binds no name."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in read:
                yield node.lineno, name


def test_no_module_imports_a_name_it_never_reads():
    # the package namespace re-exports what it imports, so it is left out
    package = pathlib.Path(duality.__file__).parent
    found = {
        path.name: list(_unused_imports(ast.parse(path.read_text())))
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {k: v for k, v in found.items() if v} == {}
    # and the check does see an unused import
    sample = ast.parse(
        "from __future__ import annotations\nimport os.path\nfrom x import y as z, w\nw()\n"
    )
    assert list(_unused_imports(sample)) == [(2, "os"), (3, "z")]


def _imports_of(tree, module):
    """Line of each import of ``module`` or of a name from it, at any depth
    of the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            yield node.lineno


def test_no_module_imports_dataclasses():
    # the records are plain classes: building a dataclass generates and
    # executes its methods at import time, which every CLI call would pay
    package = pathlib.Path(duality.__file__).parent
    found = {
        path.name: list(_imports_of(ast.parse(path.read_text()), "dataclasses"))
        for path in sorted(package.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}
    # and the check does see such an import, also inside a function
    sample = ast.parse(
        "import os, dataclasses as dc\nfrom dataclasses import field\n"
        "def f():\n    from dataclasses import replace\n"
        "from .dataclasses import x\nimport dataclasses_json\n"
    )
    assert sorted(_imports_of(sample, "dataclasses")) == [1, 2, 4]


def _reads(node):
    """Every name that code under ``node`` reads, as a bare name or as the
    attribute of a module or object."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _module_level_names(tree):
    """(line, name, node) of each function, class or constant that a
    module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield node.lineno, t.id, node


def _orphaned_helpers(trees):
    """(module, line, name) of each module-level private function, class or
    constant that no code of the given modules reads outside its own
    definition."""
    read = {}
    for tree in trees.values():
        for name in _reads(tree):
            read[name] = read.get(name, 0) + 1
    for module, tree in trees.items():
        for line, name, node in _module_level_names(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if read.get(name, 0) == sum(n == name for n in _reads(node)):
                yield module, line, name


def test_no_private_helper_is_orphaned():
    # a private helper that nothing in the package reads is dead code; the
    # tests and oracles do not count as readers
    package = pathlib.Path(duality.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert list(_orphaned_helpers(trees)) == []
    # and the check does see an orphan: a constant that nothing reads and a
    # function that only calls itself; a read as a module attribute counts
    sample = {
        "a.py": ast.parse(
            "_LIMIT = 3\n_DEAD = 4\ndef _rec(n):\n    return _rec(n - 1)\n"
            "class _Box:\n    pass\ndef run():\n    return _LIMIT\n"
        ),
        "b.py": ast.parse("import a\na._Box()\n"),
    }
    assert list(_orphaned_helpers(sample)) == [("a.py", 2, "_DEAD"), ("a.py", 3, "_rec")]


def _imported_names(tree):
    """Each name that a ``from ... import`` at any depth of the tree binds
    from its module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _unread_public_names(trees, callers):
    """(module, line, name) of each public module-level name that no code
    of the given modules reads or imports outside its own definition, and
    that none of the caller trees imports."""
    read = {}
    for tree in trees.values():
        for name in (*_reads(tree), *_imported_names(tree)):
            read[name] = read.get(name, 0) + 1
    called = {name for tree in callers for name in _imported_names(tree)}
    for module, tree in trees.items():
        for line, name, node in _module_level_names(tree):
            if name.startswith("_") or name in called:
                continue
            if read.get(name, 0) == sum(n == name for n in _reads(node)):
                yield module, line, name


# public names that only the tests read, each kept for its own reason
UNREAD_PUBLIC_NAMES = {
    "brute_force_homs": "the independent oracle that enumerate_homs is checked against",
    "subalgebra_of": "the sweep over products of lvl-subalgebras of a corpus lattice needs it",
}


def test_no_public_name_is_unread():
    # a public name is read by the package itself (its namespace included),
    # or imported by the benchmark worker or a script; the tests and
    # oracles do not count as readers
    package = pathlib.Path(duality.__file__).parent
    root = package.parent.parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    callers = [
        ast.parse(path.read_text())
        for path in (root / "perfbench" / "worker.py", *sorted((root / "scripts").glob("*.py")))
    ]
    found = [name for _, _, name in _unread_public_names(trees, callers)]
    assert sorted(found) == sorted(UNREAD_PUBLIC_NAMES)
    # and the check does see an unread name: one that only reads itself;
    # a read as a module attribute, an import by the package or by a
    # caller each count
    sample = {
        "a.py": ast.parse(
            "LIMIT = 3\nDEAD = 4\ndef rec(n):\n    return rec(n - 1)\n"
            "class Box:\n    pass\ndef run():\n    return LIMIT\ndef main():\n    pass\n"
        ),
        "b.py": ast.parse("import a\nfrom .a import run\na.Box()\n"),
    }
    caller = ast.parse("def f():\n    from dualbench.a import main\n")
    assert list(_unread_public_names(sample, [caller])) == [
        ("a.py", 2, "DEAD"),
        ("a.py", 3, "rec"),
    ]


def _foreign_imports(tree):
    """(line, module) of each import of a module that is neither in the
    standard library nor in dualbench; a relative import is dualbench's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top != "dualbench":
                yield node.lineno, module


def test_the_package_imports_only_the_standard_library():
    package = pathlib.Path(duality.__file__).parent
    found = {
        path.name: list(_foreign_imports(ast.parse(path.read_text())))
        for path in sorted(package.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}
    # and the check does see a module from outside
    sample = ast.parse(
        "import os, numpy.linalg\nfrom . import lattice\n"
        "from dualbench.errors import DualityError\nfrom hypothesis import given\n"
    )
    assert list(_foreign_imports(sample)) == [(1, "numpy.linalg"), (4, "hypothesis")]


def _placeholderless_fstrings(tree):
    """(line, source) of each f-string with no placeholder; the format spec
    of a placeholder is an f-string of its own, and is left out."""
    specs = {
        id(node.format_spec)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.JoinedStr)
            and id(node) not in specs
            and not any(isinstance(v, ast.FormattedValue) for v in node.values)
        ):
            yield node.lineno, ast.unparse(node)


def test_no_fstring_lacks_a_placeholder():
    package = pathlib.Path(duality.__file__).parent
    found = {
        path.name: list(_placeholderless_fstrings(ast.parse(path.read_text())))
        for path in sorted(package.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}
    # and the check does see such an f-string, alone or joined to a plain
    # string, but not a placeholder's format spec
    sample = ast.parse('a = f"x"\nb = "y" f"z"\nc = f"{a:>4}" f"w"\nd = f"{a!r:{b}}"\n')
    assert list(_placeholderless_fstrings(sample)) == [(1, "f'x'"), (2, "f'yz'")]


# --- verification scope -----------------------------------------------------


def _scope_instances():
    """A few corpus instances per mode, grouped so that homs compose within
    a group; the pspa group over the three-chain is red by design."""
    chain2, chain3 = chain_lattice(2), chain_lattice(3)
    groups = {"pbs": [], "pspa": [], "hspa": []}
    for truth in (chain2, chain3):
        base = make_lvl(truth)
        groups["pbs"].append([base, product_algebra(base, base)])
        groups["pspa"].append([make_bdl(lat, truth) for lat in corpus_lattices(4)[1:]])
    groups["hspa"].append([upset_algebra(chain2, f) for f in corpus_frames(3)[1:5]])
    return groups


def _all_results(mode, algebras):
    """Every report, verdict and witness that the cached constructions feed,
    in the order a corpus instance builds them."""
    out = []
    record = duality.MODES[mode]
    for alg in algebras:
        for _, check in record.dual_checks:
            out.append(check(alg))
        out.append(algebra_roundtrip(record, alg))
        space = record.dual(alg)[0]
        out.append(space_roundtrip(record, space, alg.truth))
        out.append(functor_identity_check(alg, mode))
    for a in algebras:
        for b in algebras:
            for c in algebras:
                for f in enumerate_homs(a, b)[:2]:
                    for g in enumerate_homs(b, c)[:2]:
                        out.append(functor_composition_check(f, g, mode))
    return out


def test_scope_keeps_every_verdict_and_witness():
    failing = 0
    for mode, groups in _scope_instances().items():
        for algebras in groups:
            plain = _all_results(mode, algebras)
            with verification_scope():
                scoped = _all_results(mode, algebras)
                cached = _all_results(mode, algebras)
            assert scoped == plain, mode
            assert cached == plain, mode
            failing += sum(not r.passed for r in plain)
    # the three-chain pspa round trips are red, so witnesses are compared too
    assert failing
    assert duality._SCOPE_CACHE.get() is None


def test_scope_reuses_duals_and_map_algebras(chain2, chain3):
    alg = make_bdl(chain3, chain2)
    with verification_scope():
        space = PSPA.dual(alg)[0]
        assert PSPA.dual(alg)[0] is space
        algebra = PSPA.reconstruct(space, chain2)[0]
        assert PSPA.reconstruct(space, chain2)[0] is algebra
    assert PSPA.dual(alg)[0] is not PSPA.dual(alg)[0]


def test_dual_map_of_hom_is_cached_in_a_scope_only(chain2, chain3, b2, dual_map_caches):
    source, target = make_bdl(chain3, chain2), make_bdl(b2, chain2)
    (hom, *_) = enumerate_homs(source, target)
    first, second = dual_map_of_hom(hom, "pspa"), dual_map_of_hom(hom, PSPA)
    # outside a scope two calls build two records
    assert first is not second and first == second
    assert dual_map_caches == [None, None]
    with verification_scope():
        scoped = dual_map_of_hom(hom, "pspa")
        # an equal hom from the same two objects hits the cache
        again = dual_map_of_hom(Homomorphism(source, target, hom.mapping), PSPA)
        assert again is scoped and scoped == first
        # another mode, or ends that are equal but other objects, do not
        assert dual_map_of_hom(hom, PSPA.replace(name="other")) is not scoped
        copy = Homomorphism(make_bdl(chain3, chain2), target, hom.mapping)
        assert dual_map_of_hom(copy, PSPA) is not scoped
        cache = duality._SCOPE_CACHE.get()
        entry = cache[(dual_map_of_hom, id(source), id(target), hom.mapping, "pspa")]
        # the entry holds both ends, so their ids stay theirs
        assert entry == ((source, target), scoped)
    assert len(dual_map_caches) == 5
    assert cache == {}


def test_nested_scope_keeps_the_outer_cache(chain2, chain3):
    alg = make_bdl(chain3, chain2)
    with verification_scope():
        space = PSPA.dual(alg)[0]
        with verification_scope():
            assert PSPA.dual(alg)[0] is space
            inner = HSPA.dual(make_heyting_ispi(chain3, chain2))[0]
        assert PSPA.dual(alg)[0] is space
        cache = duality._SCOPE_CACHE.get()
        # the pspa dual and the hspa dual, which holds its points
        assert len(cache) == 2
        assert any(entry[1][0] is inner for entry in cache.values())
    assert duality._SCOPE_CACHE.get() is None
    assert cache == {}


def test_hom_order_matches_hom_leq_over_a_corpus_run(monkeypatch):
    built = []
    build = duality._ordered_dual

    def spy(*args):
        out = build(*args)
        built.append(out)
        return out

    monkeypatch.setattr(duality, "_ordered_dual", spy)
    corpus_run(10, 4, 0)
    kinds = set()
    for space, homs in built:
        slow = hom_leq_masks(homs)
        assert hom_order(homs) == space.order.up_masks == slow, space.name
        kinds.add((space.name.split("(")[0], len(homs[0].target) if homs else 0))
    # pspa (G) and hspa (GI) duals over both truth chains
    assert {("G", 2), ("G", 3), ("GI", 2)} <= kinds


# --- spectrum ---------------------------------------------------------------


def test_spectrum_examples(chain2, chain3, b2):
    rep = spectrum_correspondence(make_bdl(b2, chain2))
    assert rep.passed
    assert rep.cardinalities == {"homs": 2, "prime_filters": 2}
    rep = spectrum_correspondence(make_bdl(chain3, chain2))
    assert rep.passed and rep.cardinalities["homs"] == 2
    rep = spectrum_correspondence(make_bdl(chain2, chain2))
    assert rep.passed and rep.cardinalities["homs"] == 1


def test_spectrum_general_truth_is_experimental(chain3):
    rep = spectrum_correspondence(make_bdl(chain3, chain3))
    assert rep.verdicts["vp_description_typechecks"]
    assert rep.verdicts["vp_well_defined"]
    assert rep.verdicts["vp_homomorphism"]
    # the described map ignores the ideal, so the correspondence collapses
    assert not rep.verdicts["correspondence_injective"]
    assert not rep.verdicts["correspondence_onto"]
    assert rep.cardinalities == {"homs": 3, "prime_ideals": 2}


def test_spectrum_not_evaluable_off_the_truth_lattice(chain3, b2):
    rep = spectrum_correspondence(make_bdl(b2, chain3))
    assert not rep.verdicts["vp_description_typechecks"]


# --- enumeration budgets ------------------------------------------------------


def test_ordered_map_enumeration_budget(chain2):
    from dualbench.errors import BudgetExceeded
    from dualbench.lattice import build_poset
    from dualbench.topology import OrderedSpace

    # every one of the 2**18 maps of a discrete antichain into the two-chain
    # is continuous and order-preserving
    points = tuple(f"p{i}" for i in range(18))
    space = OrderedSpace(
        points, discrete_topology(18), build_poset(points, []), name="wide"
    )
    assert 2**18 > duality.MAP_ENUM_LIMIT
    with pytest.raises(BudgetExceeded):
        PSPA.reconstruct(space, chain2)


def test_pbs_map_enumeration_budget(b2):
    from dualbench.errors import BudgetExceeded

    # the proper subalgebras of b2 are assigned no points, so all 4**9 maps
    # of the discrete 9-point space into b2 are valid
    points = tuple(f"p{i}" for i in range(9))
    disc = discrete_topology(9)
    space = BitopSpace(points, disc, disc, name="wide")
    subs = lvl_subalgebras(b2)
    full = frozenset(range(len(b2)))
    images = tuple(frozenset(range(9)) if s == full else frozenset() for s in subs)
    obj = PbsObject(space, AlphaAssignment(b2, subs, images))
    assert 4**9 > duality.MAP_ENUM_LIMIT
    with pytest.raises(BudgetExceeded):
        PBS.reconstruct(obj, None)
