import pytest
from hypothesis import given, settings, strategies as st

from dualbench.algebra import (
    algebra_from_tables,
    brute_force_homs,
    check_lvl_axioms,
    compose_homs,
    enumerate_homs,
    identity_hom,
    is_homomorphism,
    make_bdl,
    make_heyting,
    make_lvl,
    product_algebra,
    subalgebra_of,
    t_operator,
)
from dualbench.corpus import corpus_frames, corpus_lattices
from dualbench.errors import AlgebraError
from dualbench.kripke import subalgebra_generated, upset_algebra
from dualbench.lattice import chain_lattice, diamond_lattice, enumerate_subalgebras


def test_t_operator_truth_constants(chain3, b2):
    for truth in (chain3, b2):
        assert t_operator(truth, truth.top, truth.top) == truth.top
        for l in range(len(truth)):
            if l != truth.top:
                assert t_operator(truth, l, truth.top) == truth.bottom
    m = chain3.index("m")
    assert t_operator(chain3, m, m) == chain3.top
    # cross-check: for each x exactly one truth constant fires, so the join
    # over the family is the top
    for x in range(len(chain3)):
        acc = chain3.bottom
        for l in range(len(chain3)):
            acc = chain3.join[acc][t_operator(chain3, l, x)]
        assert acc == chain3.top


def test_make_lvl_passes_amended_axioms(chain2, chain3, b2):
    for lat in (chain2, chain3, b2):
        report = check_lvl_axioms(make_lvl(lat))
        assert report.passed, report.to_dict()


def test_literal_iv_fails_on_three_chain(chain3):
    report = check_lvl_axioms(make_lvl(chain3), literal_iv=True)
    assert not report.clauses["iv"].passed
    assert "a=m, L1=0, L2=m" in report.clauses["iv"].witness
    # direct evaluation of the displayed form at that witness
    alg = make_lvl(chain3)
    m = chain3.index("m")
    value = alg.lattice.join[alg.t_ops[0][m]][alg.implies[alg.t_ops[m][m]][0]]
    assert value == alg.lattice.bottom != alg.lattice.top


def test_clause_v_fails_with_identity_t_top(chain3):
    base = make_lvl(chain3)
    t_ops = list(base.t_ops)
    t_ops[chain3.top] = tuple(range(3))  # redefined as the identity
    broken = algebra_from_tables(
        "lvl", chain3, chain3, implies=base.implies, t_ops=tuple(t_ops), name="broken"
    )
    report = check_lvl_axioms(broken)
    assert not report.clauses["v"].passed
    assert "L1=1, L2=m, a=m" in report.clauses["v"].witness


def test_clause_ii_full_on_corpus(chain2, chain3, b2):
    for lat in (chain2, chain3, b2):
        assert check_lvl_axioms(make_lvl(lat)).clauses["ii"].passed


def test_axiom_check_needs_lvl(chain2):
    with pytest.raises(AlgebraError):
        check_lvl_axioms(make_bdl(chain2, chain2))


def test_is_homomorphism_examples(chain2, chain3, b2):
    lvl3 = make_lvl(chain3)
    assert is_homomorphism(tuple(range(3)), lvl3, lvl3).passed
    two = make_bdl(chain2, chain2)
    res = is_homomorphism((1, 1), two, two)
    assert not res.passed and "0" in res.witness
    b2a = make_bdl(b2, chain2)
    proj = (0, 1, 0, 1)  # a -> 1, b -> 0
    assert is_homomorphism(proj, b2a, two).passed


def test_enumerate_homs_examples(chain2, chain3, b2):
    two = make_bdl(chain2, chain2)
    homs = enumerate_homs(two, two)
    assert [h.mapping for h in homs] == [(0, 1)]
    b2a = make_bdl(b2, chain2)
    homs = enumerate_homs(b2a, two)
    assert [h.mapping for h in homs] == [(0, 0, 1, 1), (0, 1, 0, 1)]
    lvl3 = make_lvl(chain3)
    homs = enumerate_homs(lvl3, lvl3)
    assert [h.mapping for h in homs] == [(0, 1, 2)]


def test_enumerate_homs_against_brute_force(small_lattices, chain2, chain3):
    two = make_bdl(chain2, chain2)
    three = make_bdl(chain3, chain3)
    for lat in small_lattices:
        a2 = make_bdl(lat, chain2)
        assert [h.mapping for h in enumerate_homs(a2, two)] == [
            h.mapping for h in brute_force_homs(a2, two)
        ]
        a3 = make_bdl(lat, chain3)
        assert [h.mapping for h in enumerate_homs(a3, three)] == [
            h.mapping for h in brute_force_homs(a3, three)
        ]
    lvl3 = make_lvl(chain3)
    assert [h.mapping for h in enumerate_homs(lvl3, lvl3)] == [
        h.mapping for h in brute_force_homs(lvl3, lvl3)
    ]
    # propagating only one argument order of the implication would admit
    # three lattice homs between these two that do not preserve it
    lats = {lat.name: lat for lat in corpus_lattices(7)}
    a, b = (make_heyting(lats[name], chain2) for name in ("L7_2", "L5_1"))
    assert [h.mapping for h in enumerate_homs(a, b)] == [
        h.mapping for h in brute_force_homs(a, b)
    ]


# brute_force_homs scans |b|^|a| maps; pairs above this stay out of the
# oracle test so that one example costs at most a fraction of a second
ORACLE_MAPS = 20_000


@pytest.fixture(scope="module")
def oracle_pools(small_lattices):
    """Algebras per signature; homs are only searched within one pool."""
    truths = (chain_lattice(2), chain_lattice(3))
    pools = {
        "bdl": [make_bdl(lat, t) for lat in small_lattices for t in truths],
        "heyting": [make_heyting(lat, t) for lat in small_lattices for t in truths],
    }
    for truth in truths + (diamond_lattice(),):
        base = make_lvl(truth)
        pools[f"lvl/{truth.name}"] = [base, product_algebra(base, base)]
    pools["isp_i"] = [upset_algebra(truths[0], frame) for frame in corpus_frames(3)]
    return pools


@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_enumerate_homs_matches_oracle_in_every_signature(oracle_pools, data):
    pool = data.draw(st.sampled_from(sorted(oracle_pools)))
    algebras = oracle_pools[pool]
    a = data.draw(st.sampled_from(algebras))
    b = data.draw(st.sampled_from(algebras))
    if pool == "isp_i" and data.draw(st.booleans()):
        gens = data.draw(st.sets(st.integers(0, len(a) - 1), max_size=2))
        a = subalgebra_generated(a, gens)
    for src, dst in ((a, b), (b, a)):
        if len(dst) ** len(src) > ORACLE_MAPS:
            continue
        assert [h.mapping for h in enumerate_homs(src, dst)] == [
            h.mapping for h in brute_force_homs(src, dst)
        ], (src.name, dst.name)


def test_homs_match_prime_filters(small_lattices, chain2):
    from dualbench.lattice import prime_filters

    two = make_bdl(chain2, chain2)
    for lat in small_lattices:
        homs = enumerate_homs(make_bdl(lat, chain2), two)
        filters = {
            frozenset(x for x in range(len(lat)) if h.mapping[x] == 1) for h in homs
        }
        assert filters == set(prime_filters(lat))


def test_product_algebra_projections(chain2):
    square = product_algebra(make_lvl(chain2), make_lvl(chain2))
    homs = enumerate_homs(square, make_lvl(chain2))
    assert [h.mapping for h in homs] == [(0, 0, 1, 1), (0, 1, 0, 1)]
    assert [h.mapping for h in brute_force_homs(square, make_lvl(chain2))] == [
        h.mapping for h in homs
    ]


def test_composition_closure(chain2, chain3, b2):
    two = make_bdl(chain2, chain2)
    b2a = make_bdl(b2, chain2)
    c3a = make_bdl(chain3, chain2)
    for f in enumerate_homs(c3a, b2a):
        for g in enumerate_homs(b2a, two):
            gf = compose_homs(g, f)
            assert is_homomorphism(gf.mapping, c3a, two).passed


def test_subalgebra_inclusions_are_homs(chain3, b2):
    for lat in (chain3, b2):
        lvl = make_lvl(lat)
        for subset in enumerate_subalgebras(lat, "lvl"):
            if len(subset) < 2:
                continue
            sub = subalgebra_of(lvl, subset)
            inclusion = tuple(sorted(subset))
            assert is_homomorphism(inclusion, sub, lvl).passed


def test_degenerate_carrier_rejected(chain2):
    from dualbench.lattice import FiniteLattice

    one = FiniteLattice(("x",), ((True,),), ((0,),), ((0,),), 0, 0, name="one")
    with pytest.raises(AlgebraError) as err:
        make_bdl(one, chain2)
    assert err.value.code == "degenerate-carrier"


def test_signature_mismatch(chain2, chain3):
    with pytest.raises(AlgebraError):
        enumerate_homs(make_bdl(chain2, chain2), make_lvl(chain2))
    with pytest.raises(AlgebraError):
        is_homomorphism((0, 1), make_lvl(chain2), make_lvl(chain3))


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_hom_images_respect_order(small_lattices, chain2, data):
    lat = data.draw(st.sampled_from(small_lattices))
    two = make_bdl(chain2, chain2)
    homs = enumerate_homs(make_bdl(lat, chain2), two)
    if not homs:
        return
    h = data.draw(st.sampled_from(homs))
    x = data.draw(st.integers(0, len(lat) - 1))
    y = data.draw(st.integers(0, len(lat) - 1))
    if lat.leq[x][y]:
        assert h.mapping[x] <= h.mapping[y]


def test_identity_hom(chain3):
    lvl = make_lvl(chain3)
    assert identity_hom(lvl).mapping == (0, 1, 2)
