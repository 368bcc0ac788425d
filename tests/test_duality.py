import pytest

from dualbench import duality
from dualbench.algebra import (
    enumerate_homs,
    make_bdl,
    make_heyting_ispi,
    make_lvl,
    product_algebra,
)
from dualbench.duality import (
    check_downclosure_identity,
    check_esakia_algebra_roundtrip,
    check_esakia_space_roundtrip,
    check_implication_preimage_identity,
    check_lvl_algebra_roundtrip,
    check_lvl_space_roundtrip,
    check_priestley_algebra_roundtrip,
    check_priestley_space_roundtrip,
    check_second_topology_inclusion,
    dual_hom_of_map,
    dual_map_of_hom,
    esakia_dual,
    esakia_reconstruct,
    functor_composition_check,
    functor_identity_check,
    lvl_dual,
    lvl_reconstruct,
    priestley_dual,
    priestley_reconstruct,
    spectrum_correspondence,
    verification_scope,
)
from dualbench.corpus import corpus_frames, corpus_lattices
from dualbench.kripke import intuitionistic_power, upset_algebra
from dualbench.lattice import (
    chain_lattice,
    enumerate_subalgebras,
    heyting_implies,
)
from dualbench.topology import (
    AlphaAssignment,
    BitopSpace,
    PbsObject,
    discrete_topology,
    verify_hspa_object,
    verify_pbs_object,
    verify_pspa_object,
)


def is_chain(lattice):
    n = len(lattice)
    return all(lattice.leq[i][j] or lattice.leq[j][i] for i in range(n) for j in range(n))


# --- bitopological side -----------------------------------------------------


def test_lvl_dual_of_two_chain(chain2):
    obj = lvl_dual(make_lvl(chain2))
    assert len(obj.space.points) == 1
    assert set(obj.space.topo1.opens) == {frozenset(), frozenset({0})}
    assert set(obj.space.topo2.opens) == {frozenset(), frozenset({0})}
    assert obj.alpha.image_of(frozenset({0, 1})) == frozenset({0})


def test_lvl_dual_of_three_chain(chain3):
    obj = lvl_dual(make_lvl(chain3))
    assert len(obj.space.points) == 1
    # no unary-operator-preserving hom lands in the two-element subalgebra
    assert obj.alpha.image_of(frozenset({0, 2})) == frozenset()


def test_lvl_dual_of_square(chain2):
    square = product_algebra(make_lvl(chain2), make_lvl(chain2))
    obj = lvl_dual(square)
    assert len(obj.space.points) == 2
    assert len(obj.space.topo1.opens) == 4
    assert len(obj.space.topo2.opens) == 4


def test_lvl_dual_passes_object_laws(chain2, chain3, b2):
    for truth in (chain2, chain3, b2):
        for algebra in (make_lvl(truth), product_algebra(make_lvl(truth), make_lvl(truth))):
            obj = lvl_dual(algebra)
            checks = verify_pbs_object(obj)
            assert all(r.passed for r in checks.values()), algebra.name
            assert check_second_topology_inclusion(obj).passed


def test_lvl_reconstruct_one_point(chain3):
    obj = lvl_dual(make_lvl(chain3))
    algebra = lvl_reconstruct(obj)
    assert len(algebra) == 3
    assert is_chain(algebra.lattice)


def test_lvl_reconstruct_two_discrete_points(chain2):
    disc = discrete_topology(2)
    space = BitopSpace(("p", "q"), disc, disc)
    subs = enumerate_subalgebras(chain2, "lvl")
    obj = PbsObject(space, AlphaAssignment(chain2, subs, (frozenset({0, 1}),)))
    algebra = lvl_reconstruct(obj)
    assert len(algebra) == 4


def test_lvl_reconstruct_alpha_filters_carrier(chain3):
    disc = discrete_topology(2)
    space = BitopSpace(("p", "q"), disc, disc)
    subs = enumerate_subalgebras(chain3, "lvl")
    images = tuple(
        frozenset({0, 1}) for _ in subs
    )  # every point constrained into {0,1} as well
    obj = PbsObject(space, AlphaAssignment(chain3, subs, images))
    algebra = lvl_reconstruct(obj)
    assert len(algebra) == 4
    for name in algebra.elements:
        assert "m" not in name


def test_lvl_algebra_roundtrip_examples(chain2, chain3):
    rep = check_lvl_algebra_roundtrip(make_lvl(chain2))
    assert rep.passed and rep.cardinalities["double_dual"] == 2
    rep = check_lvl_algebra_roundtrip(make_lvl(chain3))
    assert rep.passed and rep.cardinalities["double_dual"] == 3


def canonical_pbs(truth):
    disc = discrete_topology(len(truth))
    space = BitopSpace(tuple(truth.elements), disc, disc, name=f"{truth.name}-as-space")
    subs = enumerate_subalgebras(truth, "lvl")
    return PbsObject(space, AlphaAssignment(truth, subs, subs))


def test_lvl_space_roundtrip_canonical_object(chain2, chain3):
    for truth in (chain2, chain3):
        rep = check_lvl_space_roundtrip(canonical_pbs(truth))
        assert rep.passed, rep.witnesses


def test_lvl_space_roundtrip_on_duals(chain2, b2):
    for truth in (chain2, b2):
        algebra = product_algebra(make_lvl(truth), make_lvl(truth))
        rep = check_lvl_space_roundtrip(lvl_dual(algebra))
        assert rep.passed, rep.witnesses


def test_lvl_space_roundtrip_boolean_canonical(b2):
    # four points, a 64-element function algebra, and exactly the four
    # evaluations coming back
    rep = check_lvl_space_roundtrip(canonical_pbs(b2))
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
    subs = enumerate_subalgebras(chain3, "lvl")
    obj = PbsObject(
        space,
        AlphaAssignment(chain3, subs, tuple(frozenset({0, 1}) for _ in subs)),
    )
    rep = check_lvl_space_roundtrip(obj)
    assert rep.passed, rep.witnesses
    assert rep.cardinalities["function_algebra"] == 4


# --- ordered side, bounded lattices ----------------------------------------


def test_priestley_dual_examples(chain2, chain3, b2):
    x = priestley_dual(make_bdl(chain3, chain2))
    assert len(x.points) == 2
    assert x.order.leq[0][1] != x.order.leq[1][0]  # a two-chain
    assert len(x.topo.opens) == 4  # discrete
    x = priestley_dual(make_bdl(b2, chain2))
    assert len(x.points) == 2
    assert not x.order.leq[0][1] and not x.order.leq[1][0]  # antichain
    x = priestley_dual(make_bdl(chain2, chain2))
    assert len(x.points) == 1


def test_priestley_reconstruct_examples(chain2):
    two_chain_space = priestley_dual(make_bdl(chain_lattice(3), chain2))
    algebra = priestley_reconstruct(two_chain_space, chain2)
    assert len(algebra) == 3 and is_chain(algebra.lattice)
    anti = priestley_dual(make_bdl(chain_lattice(3), chain2))
    one_point = priestley_dual(make_bdl(chain2, chain2))
    assert len(priestley_reconstruct(one_point, chain2)) == 2
    b2_space = priestley_dual(make_bdl(chain_lattice(4), chain2))
    assert len(priestley_reconstruct(b2_space, chain2)) == 4


def test_priestley_roundtrips_truth_two(small_lattices, chain2):
    for lat in small_lattices:
        algebra = make_bdl(lat, chain2)
        assert check_priestley_algebra_roundtrip(algebra).passed
        space = priestley_dual(algebra)
        assert verify_pspa_object(space).passed
        assert check_priestley_space_roundtrip(space, chain2).passed


def test_priestley_roundtrip_fails_truth_three(chain2, chain3):
    # over a three-element truth lattice the one-point dual of the two-chain
    # reconstructs to a three-element map algebra, so evaluation cannot be
    # onto; the workbench reports exactly that
    rep = check_priestley_algebra_roundtrip(make_bdl(chain2, chain3))
    assert rep.cardinalities == {
        "algebra": 2,
        "dual_points": 1,
        "double_dual": 3,
    }
    assert rep.verdicts["well_defined"]
    assert rep.verdicts["injective"]
    assert not rep.verdicts["surjective"]
    # and the three-chain's own dual is not even Priestley-separated
    space = priestley_dual(make_bdl(chain3, chain3))
    assert not verify_pspa_object(space).passed


def test_delta_reflection_device(small_lattices, chain2):
    for lat in small_lattices:
        space = priestley_dual(make_bdl(lat, chain2))
        rep = check_priestley_space_roundtrip(space, chain2)
        assert rep.verdicts["order_reflecting"]
        assert rep.verdicts["reflection_device"]


# --- ordered side, implication algebras -------------------------------------


def test_esakia_dual_of_up_set_algebra(chain2, frame2):
    algebra = upset_algebra(chain2, frame2)
    space = esakia_dual(algebra)
    assert len(space.points) == 2
    assert verify_hspa_object(space).passed
    assert check_downclosure_identity(algebra).passed


def test_esakia_dual_two_chain_trivial(chain2):
    algebra = make_heyting_ispi(chain2, chain2)
    space = esakia_dual(algebra)
    assert len(space.points) == 1
    assert check_downclosure_identity(algebra).passed


def test_downclosure_identity_fails_on_full_power(chain2, frame2):
    power = intuitionistic_power(chain2, frame2)
    res = check_downclosure_identity(power)
    assert not res.passed
    assert "(0,1)" in res.witness


def test_esakia_reconstruct_examples(chain2, frame2):
    algebra = upset_algebra(chain2, frame2)
    space = esakia_dual(algebra)
    rebuilt = esakia_reconstruct(space, chain2)
    assert len(rebuilt) == 3
    for a in range(3):
        for b in range(3):
            assert rebuilt.implies[a][b] == heyting_implies(rebuilt.lattice, a, b)
    one_point = esakia_dual(make_heyting_ispi(chain2, chain2))
    assert len(esakia_reconstruct(one_point, chain2)) == 2


def test_esakia_reconstruct_antichain_is_boolean(chain2, antichain2):
    power = intuitionistic_power(chain2, antichain2)
    space = esakia_dual(power)
    rebuilt = esakia_reconstruct(space, chain2)
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
    space = esakia_dual(algebra)
    assert check_esakia_space_roundtrip(space, chain2).passed
    two = make_heyting_ispi(chain2, chain2)
    assert check_esakia_algebra_roundtrip(two).passed


def test_implication_preimage_identity_reported(chain2, frame2):
    # the printed set identity is a proof device; on the two-point chain
    # dual it disagrees at six of the eighteen instances and the checker
    # says so rather than asserting it
    space = esakia_dual(upset_algebra(chain2, frame2))
    res = check_implication_preimage_identity(space, chain2)
    assert not res.passed
    assert "6 of 18" in res.witness


# --- functors on morphisms ---------------------------------------------------


def test_dual_of_identity_all_modes(chain2, chain3, frame2):
    assert functor_identity_check(make_lvl(chain3), "pbs").passed
    assert functor_identity_check(make_bdl(chain3, chain2), "pspa").passed
    assert functor_identity_check(upset_algebra(chain2, frame2), "hspa").passed


def test_dual_of_bounds_hom(chain2, chain3):
    source = make_bdl(chain2, chain2)
    target = make_bdl(chain3, chain2)
    (hom,) = enumerate_homs(source, target)
    dual = dual_map_of_hom(hom, "pspa")
    assert dual.passed
    # both points of the three-chain dual land on the single point
    assert dual.mapping == (0, 0)


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
    space = priestley_dual(make_bdl(chain_lattice(3), chain2))
    hom, checks = dual_hom_of_map((1, 1), space, space, "pspa", truth=chain2)
    assert all(r.passed for r in checks.values())
    assert hom is not None
    ident, checks = dual_hom_of_map((0, 1), space, space, "pspa", truth=chain2)
    assert ident.mapping == tuple(range(len(ident.source)))


def test_dual_hom_of_map_pbs(chain2):
    obj = lvl_dual(product_algebra(make_lvl(chain2), make_lvl(chain2)))
    hom, checks = dual_hom_of_map((1, 0), obj, obj, "pbs")
    assert all(r.passed for r in checks.values())


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
    for alg in algebras:
        if mode == "pbs":
            out.append(check_lvl_algebra_roundtrip(alg).to_dict())
            out.append(check_lvl_space_roundtrip(lvl_dual(alg)).to_dict())
        elif mode == "pspa":
            out.append(check_priestley_algebra_roundtrip(alg).to_dict())
            space = priestley_dual(alg)
            out.append(check_priestley_space_roundtrip(space, alg.truth).to_dict())
        else:
            out.append(check_downclosure_identity(alg))
            out.append(check_esakia_algebra_roundtrip(alg).to_dict())
            space = esakia_dual(alg)
            out.append(check_esakia_space_roundtrip(space, alg.truth).to_dict())
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
            failing += sum(
                not (r["passed"] if isinstance(r, dict) else r.passed) for r in plain
            )
    # the three-chain pspa round trips are red, so witnesses are compared too
    assert failing
    assert duality._SCOPE_CACHE.get() is None


def test_scope_reuses_duals_and_map_algebras(chain2, chain3):
    alg = make_bdl(chain3, chain2)
    with verification_scope():
        space = priestley_dual(alg)
        assert priestley_dual(alg) is space
        algebra = priestley_reconstruct(space, chain2)
        assert priestley_reconstruct(space, chain2) is algebra
    assert priestley_dual(alg) is not priestley_dual(alg)


def test_nested_scope_keeps_the_outer_cache(chain2, chain3):
    alg = make_bdl(chain3, chain2)
    with verification_scope():
        space = priestley_dual(alg)
        with verification_scope():
            assert priestley_dual(alg) is space
            inner = esakia_dual(make_heyting_ispi(chain3, chain2))
        assert priestley_dual(alg) is space
        cache = duality._SCOPE_CACHE.get()
        assert len(cache) == 2
        assert any(entry[1][0] is inner for entry in cache.values())
    assert duality._SCOPE_CACHE.get() is None
    assert cache == {}


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
    from dualbench.topology import OrderedSpace, indiscrete_topology

    points = tuple(f"p{i}" for i in range(18))
    space = OrderedSpace(
        points, indiscrete_topology(18), build_poset(points, []), name="wide"
    )
    with pytest.raises(BudgetExceeded):
        priestley_reconstruct(space, chain2)


def test_pbs_map_enumeration_budget(b2):
    from dualbench.errors import BudgetExceeded
    from dualbench.topology import indiscrete_topology

    points = tuple(f"p{i}" for i in range(9))
    ind = indiscrete_topology(9)
    space = BitopSpace(points, ind, ind, name="wide")
    subs = enumerate_subalgebras(b2, "lvl")
    obj = PbsObject(
        space, AlphaAssignment(b2, subs, tuple(frozenset(range(9)) for _ in subs))
    )
    with pytest.raises(BudgetExceeded):
        lvl_reconstruct(obj)
