import functools
import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dualbench.algebra import (
    Algebra,
    Homomorphism,
    algebra_from_tables,
    brute_force_homs,
    characteristic_tables,
    check_lvl_axioms,
    compose_homs,
    enumerate_homs,
    enumerate_subalgebras,
    hom_order,
    hom_search_plan,
    identity_hom,
    is_homomorphism,
    make_bdl,
    make_heyting,
    make_heyting_ispi,
    make_lvl,
    product_algebra,
    subalgebra_of,
    vector_algebra,
)
from dualbench import algebra as algebra_module
from dualbench.corpus import corpus_frames, corpus_lattices, corpus_run
from dualbench.duality import HSPA, algebra_roundtrip
from dualbench.errors import AlgebraError
from dualbench.kripke import monotone_vectors, power_subalgebra, upset_algebra
from dualbench.lattice import (
    FiniteLattice,
    build_poset,
    cached_attribute,
    chain_lattice,
    diamond_lattice,
    heyting_table,
)
import axiom_oracle
from hom_oracle import hom_leq_masks
from lattice_oracle import up_masks_of


def test_characteristic_tables_are_the_truth_constants(chain3, b2):
    for truth in (chain3, b2):
        t = characteristic_tables(truth)
        assert t[truth.top][truth.top] == truth.top
        for l in range(len(truth)):
            if l != truth.top:
                assert t[l][truth.top] == truth.bottom
    m = chain3.index("m")
    t = characteristic_tables(chain3)
    assert t[m][m] == chain3.top
    # cross-check: for each x exactly one truth constant fires, so the join
    # over the family is the top
    for x in range(len(chain3)):
        acc = chain3.bottom
        for l in range(len(chain3)):
            acc = chain3.join[acc][t[l][x]]
        assert acc == chain3.top


def test_make_lvl_passes_amended_axioms(chain2, chain3, b2):
    for lat in (chain2, chain3, b2):
        report = check_lvl_axioms(make_lvl(lat))
        assert report.passed, report.clauses


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


def supports_agree(algebra):
    """Assert that clauses (ii) and (vii), which run over the supports of
    the T-operators, give the full scans' verdicts and witnesses; return
    every clause."""
    clauses = check_lvl_axioms(algebra).clauses
    assert clauses["vii"] == axiom_oracle.clause_vii(algebra), algebra.name
    assert clauses["ii"] == axiom_oracle.clause_ii(algebra), algebra.name
    return clauses


def test_clause_ii_on_supports_against_the_full_scan():
    for lat in corpus_lattices(8):
        assert supports_agree(make_lvl(lat))["ii"].passed
    for lat in corpus_lattices(4):
        base = make_lvl(lat)
        supports_agree(product_algebra(base, base))


def test_clause_ii_on_supports_with_one_operator_entry_changed(chain3, b2):
    # every single-entry change of every T-operator, on L and on L x L
    witnesses = []
    for lat in (chain3, b2):
        base = make_lvl(lat)
        for alg in (base, product_algebra(base, base)):
            for l, row in enumerate(alg.t_ops):
                for x in range(len(alg)):
                    for v in range(len(alg)):
                        if v == row[x]:
                            continue
                        t_ops = list(alg.t_ops)
                        t_ops[l] = row[:x] + (v,) + row[x + 1 :]
                        changed = algebra_from_tables(
                            "lvl",
                            alg.lattice,
                            alg.truth,
                            implies=alg.implies,
                            t_ops=tuple(t_ops),
                            name=f"{alg.name}[{l},{x}]",
                        )
                        found = supports_agree(changed)["ii"]
                        if not found.passed:
                            witnesses.append(found.witness)
    # the first loop, which runs over the supports, finds most of them
    first = [w for w in witnesses if w.startswith("T_L1(a)^T_L2(b)")]
    assert len(first) > len(witnesses) // 2 > 0


def test_clause_vii_on_supports_with_one_implication_entry_changed(chain3, b2):
    # imp[bottom][bottom] on L and L x L: where it is not the top, neither is
    # biimp(bottom, bottom), so clause (vii) must fold over every truth
    # value; and every entry on the smaller algebras, where clause (vii) fails
    def changes(alg, entries):
        for x, y in entries:
            for v in range(len(alg)):
                if v == alg.implies[x][y]:
                    continue
                rows = [list(row) for row in alg.implies]
                rows[x][y] = v
                yield algebra_from_tables(
                    "lvl",
                    alg.lattice,
                    alg.truth,
                    implies=tuple(map(tuple, rows)),
                    t_ops=alg.t_ops,
                    name=f"{alg.name}[{x}->{y}={v}]",
                )

    cases = []
    for lat in (chain3, b2):
        base = make_lvl(lat)
        square = product_algebra(base, base)
        cases.append((base, itertools.product(range(len(base)), repeat=2)))
        cases.append((square, [(square.lattice.bottom, square.lattice.bottom)]))
    square = product_algebra(make_lvl(chain3), make_lvl(chain3))
    cases.append((square, itertools.product(range(len(square)), repeat=2)))
    failures = [
        not supports_agree(changed)["vii"].passed
        for alg, entries in cases
        for changed in changes(alg, entries)
    ]
    assert 0 < sum(failures) < len(failures)


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


def test_enumerate_homs_implication_commutative_on_one_side(chain2):
    # the biimplication of the two-element chain is symmetric and its
    # implication is not; the identity keeps the bounds, meet, join and the
    # entries at (0, 0), (1, 0) and (1, 1), and breaks only the one at (0, 1),
    # so a search that took the pair for commutative from one side alone and
    # checked one argument order would admit it
    sym = algebra_from_tables(
        "isp_i", chain2, chain2, implies=((1, 0), (0, 1)), name="biimp"
    )
    asym = algebra_from_tables(
        "isp_i", chain2, chain2, implies=heyting_table(chain2), name="imp"
    )
    for a, b in ((sym, asym), (asym, sym)):
        assert [h.mapping for h in enumerate_homs(a, b)] == [
            h.mapping for h in brute_force_homs(a, b)
        ] == []
    assert [h.mapping for h in enumerate_homs(sym, sym)] == [(0, 1)]


def pentagon():
    """The non-distributive pentagon 0 < a < c < 1, 0 < b < 1, with its
    meet and join read off the order."""
    poset = build_poset(
        ("0", "a", "c", "b", "1"),
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        name="pentagon",
    )
    leq, n = poset.leq, range(5)

    def bound(i, j, below):
        common = [k for k in n if below(k, i) and below(k, j)]
        return next(k for k in common if all(below(c, k) for c in common))

    def under(x, y):
        return leq[x][y]

    def over(x, y):
        return leq[y][x]

    return FiniteLattice(
        poset.elements,
        poset.up_masks,
        tuple(tuple(bound(i, j, under) for j in n) for i in n),
        tuple(tuple(bound(i, j, over) for j in n) for i in n),
        0,
        4,
        name="pentagon",
    )


# brute_force_homs scans |b|^|a| maps; pairs above this stay out of the
# oracle test so that one example costs at most a fraction of a second
ORACLE_MAPS = 20_000


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_hom_order_matches_hom_leq(small_lattices, data):
    # real hom lists between small lattices, the pentagon included, found
    # by either search, then cut to a sub-list in any order: hom_order is
    # exact on lattice homs from a common source, which is all that an
    # ordered dual passes it
    lattices = small_lattices + (pentagon(),)
    truth = data.draw(st.sampled_from(lattices))
    lat = data.draw(st.sampled_from(lattices))
    source = algebra_from_tables("bdl", lat, truth)
    target = algebra_from_tables("bdl", truth, truth)
    search = data.draw(st.sampled_from((enumerate_homs, brute_force_homs)))
    if len(target) ** len(source) > ORACLE_MAPS:
        search = enumerate_homs
    homs = search(source, target)
    order = data.draw(st.permutations(range(len(homs))))
    keep = data.draw(st.integers(0, len(homs)))
    homs = tuple(homs[i] for i in order[:keep])
    assert hom_order(homs) == hom_leq_masks(homs)


def test_hom_order_into_the_pentagon(small_lattices):
    # the pentagon has no packed slices; the hom order needs none
    five = pentagon()
    target = algebra_from_tables("bdl", five, five)
    sizes = []
    for lat in small_lattices:
        homs = enumerate_homs(make_bdl(lat, five), target)
        sizes.append(len(homs))
        assert hom_order(homs) == hom_leq_masks(homs)
    assert max(sizes) > 10


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
        vectors = a.presentation.vectors
        a = power_subalgebra(a.truth, a.presentation.frame, [vectors[g] for g in gens])
    for src, dst in ((a, b), (b, a)):
        if len(dst) ** len(src) > ORACLE_MAPS:
            continue
        assert [h.mapping for h in enumerate_homs(src, dst)] == [
            h.mapping for h in brute_force_homs(src, dst)
        ], (src.name, dst.name)


def hom_search_plan_oracle(lat):
    """The source-only setup of the hom search, read off ``leq``."""
    leq, n, top = lat.leq, len(lat), lat.top
    irreducibles = lat.join_irreducibles
    pairs = tuple(
        tuple(
            (i, lat.meet[j][i])
            for i in irreducibles[:p]
            if not leq[i][j] and not leq[j][i]
        )
        for p, j in enumerate(irreducibles)
    )
    final = tuple(
        max((p for p, j in enumerate(irreducibles, 1) if leq[j][x]), default=0)
        if x != top
        else 0
        for x in range(n)
    )
    ups = tuple(
        tuple(x for x in range(n) if leq[j][x] and x != top) for j in irreducibles
    )
    return tuple(zip(irreducibles, pairs, ups, [()] * len(irreducibles))), final


def fresh_copy(lat):
    """The same lattice as a new object, none of its cached properties
    found yet."""
    return FiniteLattice(
        lat.elements, lat.up_masks, lat.meet, lat.join, lat.bottom, lat.top, name=lat.name
    )


def test_hom_search_plan_matches_a_fresh_computation():
    for lat in corpus_lattices(10):
        plan = hom_search_plan(lat)
        assert plan == hom_search_plan(fresh_copy(lat))
        assert plan == hom_search_plan_oracle(lat), lat.name


def hom_search_keys(lat):
    return [key for key in lat.derived if "hom_search" in str(key)]


def test_searches_out_of_one_lattice_keep_only_its_plan(small_lattices, chain2, chain3):
    for lat in (fresh_copy(lat) for lat in small_lattices):
        # bdl, heyting, isp_i and lvl searches out of one lattice
        searches = [
            (make_bdl(lat, truth), make_bdl(truth, truth)) for truth in (chain2, chain3)
        ]
        searches += [
            (make(lat, truth), make(truth, truth))
            for make in (make_heyting, make_heyting_ispi)
            for truth in (chain2, chain3)
        ]
        if len(lat) <= 4:
            searches.append((make_lvl(lat), make_lvl(lat)))
        for a, b in searches:
            assert a.lattice is lat
            assert [h.mapping for h in enumerate_homs(a, b)] == [
                h.mapping for h in brute_force_homs(a, b)
            ], (a.name, a.signature)
            # each source but a bdl one keeps its own checks
            assert ("hom_search_steps" in vars(a)) is (a.signature != "bdl")
        # the lattice keeps the plan, once, and nothing of any table
        assert list(lat.derived) == hom_search_keys(lat) == ["hom_search_plan"]
        assert hom_search_plan(lat) is lat.derived["hom_search_plan"]


def fresh_algebra(algebra):
    """The same algebra on a fresh copy of its lattice, with copies of its
    tables, so that nothing derived from the original is found again."""
    copy = lambda table: None if table is None else tuple(map(tuple, table))
    return Algebra(
        algebra.signature,
        fresh_copy(algebra.lattice),
        algebra.truth,
        implies=copy(algebra.implies),
        t_ops=copy(algebra.t_ops),
    )


def test_hom_search_schedule_is_built_once_per_source(small_lattices, chain2, chain3):
    for lat in small_lattices:
        lat = fresh_copy(lat)
        sources = [
            make_bdl(lat, chain2),
            make_heyting(lat, chain2),
            make_heyting_ispi(lat, chain3),
            make_lvl(lat),
        ]
        plan_steps, _ = plan = hom_search_plan(lat)
        for a in sources:
            targets = [make_lvl(lat)]
            if a.signature != "lvl":
                targets = [
                    Algebra(a.signature, t, a.truth, implies=heyting_table(t))
                    for t in (chain2, chain3)
                ]
            for b in targets:
                enumerate_homs(a, b)
            first, steps = schedule = a.hom_search_steps
            # one schedule per source, shared by every search out of it,
            # laid on the one plan of its lattice
            assert a.hom_search_steps is schedule
            assert schedule == fresh_algebra(a).hom_search_steps
            assert [step[:3] for step in steps] == [step[:3] for step in plan_steps]
            assert all(step[1] is plan_steps[p][1] for p, step in enumerate(steps))
        assert hom_search_plan(lat) is plan
        assert hom_search_keys(lat) == ["hom_search_plan"]
        # a bdl source has no checks: its search runs on the plan as it is
        assert sources[0].hom_search_steps == ((), plan_steps)


def test_hom_search_schedule_is_kept_per_table_not_per_lattice(small_lattices, chain2):
    # an implication table with one entry changed, on the same lattice and
    # signature, gets its own checks and its own homs
    for lat in small_lattices:
        true = make_heyting(lat, chain2)
        targets = [make_heyting(t, chain2) for t in small_lattices if len(t) <= 4]
        x, y = lat.top, lat.bottom
        rows = [list(row) for row in true.implies]
        rows[x][y] = lat.top
        changed = algebra_from_tables(
            "heyting", lat, chain2, implies=tuple(map(tuple, rows)), name=f"{lat.name}'"
        )
        for a in (true, changed, true):
            for b in targets:
                got = [h.mapping for h in enumerate_homs(a, b)]
                assert got == [h.mapping for h in brute_force_homs(a, b)], (a.name, b.name)
        assert true.hom_search_steps != changed.hom_search_steps
        assert enumerate_homs(changed, targets[0]) == ()  # 1 -> 0 is 1 nowhere
        assert hom_search_keys(lat) == ["hom_search_plan"]


class Unhashable(tuple):
    """A table that refuses to be hashed."""

    __hash__ = None


def test_hom_search_hashes_no_table(small_lattices, chain2):
    # tables that refuse a hash are searched as any others, and an equal
    # copy of a source's tables on the same lattice builds checks equal to
    # the source's; every source searches correctly
    for lat in (fresh_copy(lat) for lat in small_lattices):
        targets = [make_heyting(t, chain2) for t in small_lattices if len(t) <= 4]
        unhashable = algebra_from_tables(
            "heyting", lat, chain2, implies=Unhashable(heyting_table(lat))
        )
        lvl = make_lvl(lat)
        lvl = lvl.replace(t_ops=Unhashable(lvl.t_ops))
        for a in (unhashable, lvl):
            copy = fresh_algebra(a).replace(lattice=lat)
            assert copy.implies == a.implies and copy.implies is not a.implies
            for source in (a, copy, a):
                for b in targets if a.signature == "heyting" else [make_lvl(lat)]:
                    got = [h.mapping for h in enumerate_homs(source, b)]
                    assert got == [h.mapping for h in brute_force_homs(source, b)]
            assert a.hom_search_steps == copy.hom_search_steps
        assert hom_search_keys(lat) == ["hom_search_plan"]


def test_hom_search_schedule_checks_each_entry_once_when_it_is_final(small_lattices):
    # every (table, arguments) entry of the source sits at exactly one step,
    # the first after which its elements are all final
    for lat in small_lattices:
        a = make_lvl(lat)
        _, final = hom_search_plan(lat)
        first, steps = a.hom_search_steps
        placed = [(0, check) for check in first]
        placed += [(p, check) for p, (*_, checks) in enumerate(steps, 1) for check in checks]
        n, nt = len(lat), len(a.truth)
        expected = {
            (t, a.t_ops[t][x], x, lat.bottom) for t in range(nt) for x in range(n)
        } | {(nt, a.implies[x][y], x, y) for x in range(n) for y in range(n)}
        assert len(placed) == len(expected) and {c for _, c in placed} == expected
        for p, (_, r, x, y) in placed:
            assert p == max(final[r], final[x], final[y]), (lat.name, r, x, y)


def test_a_corpus_run_builds_each_plan_per_lattice_and_checks_per_source(monkeypatch):
    # seed 0 at size 7 searches out of 126 lattices and 26 sources with
    # checks; a plan kept per source, checks kept per search or built for
    # a bdl source build more
    built = {"plan": 0, "checks": 0}
    plan = algebra_module.hom_search_plan
    steps = Algebra.hom_search_steps.func

    def plan_spy(lattice):
        kept = lattice.derived.get("hom_search_plan")
        out = plan(lattice)
        built["plan"] += out is not kept
        return out

    @functools.wraps(steps)
    def steps_spy(a):
        built["checks"] += 1
        return steps(a)

    monkeypatch.setattr(algebra_module, "hom_search_plan", plan_spy)
    monkeypatch.setattr(Algebra, "hom_search_steps", cached_attribute(steps_spy))
    corpus_run(7, 4, 0)
    assert built["plan"] <= 126 and built["checks"] <= 26, built


def test_searches_out_of_one_source_into_several_targets_match_the_scan(
    small_lattices, chain2, chain3, b2
):
    # one source searched into targets whose tables differ, in one process:
    # a schedule that kept a target's table would fail on the next target
    pools = [[make_heyting(lat, chain2) for lat in small_lattices]]
    for truth in (chain2, chain3, b2):
        base = make_lvl(truth)
        subs = [subalgebra_of(base, s) for s in enumerate_subalgebras(base) if len(s) > 1]
        objects = [base, *subs]
        if len(truth) == 2:
            objects.append(product_algebra(base, base))
        pools.append(objects)
    frames = [f for f in corpus_frames(3) if len(f) <= 2]
    isp = [upset_algebra(chain2, f) for f in frames]
    isp += [make_heyting_ispi(lat, chain2) for lat in small_lattices if len(lat) <= 4]
    pools.append(isp)
    for pool in pools:
        kinds = 0
        for a in pool:
            seen = set()
            for b in pool:
                got = [h.mapping for h in enumerate_homs(a, b)]
                assert got == [h.mapping for h in brute_force_homs(a, b)], (a.name, b.name)
                seen.add(len(got))
            kinds = max(kinds, len(seen))
        assert kinds > 1  # some source has more homs into one target than another


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
        for subset in enumerate_subalgebras(lvl):
            if len(subset) < 2:
                continue
            sub = subalgebra_of(lvl, subset)
            inclusion = tuple(sorted(subset))
            assert is_homomorphism(inclusion, sub, lvl).passed


def closed_subsets_scan(algebra):
    """Oracle: every subset of the carrier that holds both bounds and is
    closed under the algebra's own meet, join and implication tables and,
    for lvl, its truth-constant operators, in canonical order."""
    lat, n = algebra.lattice, len(algebra)
    binaries = [lat.meet, lat.join]
    if algebra.implies is not None:
        binaries.append(algebra.implies)
    unaries = algebra.t_ops if algebra.signature == "lvl" else ()
    rest = [x for x in range(n) if x not in (lat.bottom, lat.top)]
    out = []
    for mask in range(1 << len(rest)):
        s = {lat.bottom, lat.top} | {x for k, x in enumerate(rest) if mask >> k & 1}
        if all(u[x] in s for u in unaries for x in s) and all(
            t[x][y] in s for t in binaries for x in s for y in s
        ):
            out.append(frozenset(s))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_subalgebras_of_a_square_read_its_own_tables():
    # the T-operators of L x L act componentwise: they are not the truth
    # constants of the product lattice, so only its own tables give S(L^2)
    counts, on_the_lattice = [], []
    for lat in corpus_lattices(4):
        base = make_lvl(lat)
        square = product_algebra(base, base)
        found = enumerate_subalgebras(square)
        assert list(found) == closed_subsets_scan(square), lat.name
        counts.append(len(found))
        on_the_lattice.append(len(enumerate_subalgebras(make_lvl(square.lattice))))
    assert counts == [2, 6, 6, 20]
    assert on_the_lattice == [2, 9, 15, 42]


def test_subalgebra_of_refuses_a_subset_without_a_bound(chain3):
    with pytest.raises(AlgebraError) as err:
        subalgebra_of(make_lvl(chain3), {chain3.bottom, chain3.index("m")})
    assert err.value.code == "not-closed"
    assert str(err.value) == "subset of 'chain3' is missing a bound"


def test_subalgebra_of_refuses_a_subset_a_binary_table_leaves(b2):
    # {0, a, 1} is closed under meet and join, but a -> 0 is b
    subset = {b2.index(x) for x in ("0", "a", "1")}
    assert subalgebra_of(make_bdl(b2, b2), subset).elements == ("0", "a", "1")
    with pytest.raises(AlgebraError) as err:
        subalgebra_of(make_heyting(b2, b2), subset)
    assert err.value.code == "not-closed"
    assert str(err.value) == "subset of 'b2' is not closed at ('a', '0')"


def test_subalgebra_of_refuses_a_subset_a_unary_operator_leaves(chain2, chain3):
    # the first operator sends the top to m, outside {0, 1}
    bot, m, top = (chain3.index(x) for x in ("0", "m", "1"))
    t_ops = ((top, bot, m), (bot, bot, top))
    alg = algebra_from_tables(
        "lvl", chain3, chain2, implies=heyting_table(chain3), t_ops=t_ops
    )
    with pytest.raises(AlgebraError) as err:
        subalgebra_of(alg, {bot, top})
    assert err.value.code == "not-closed"
    assert str(err.value) == (
        "subset of 'chain3' is not closed under a unary operator at '1'"
    )


def test_degenerate_carrier_rejected(chain2):
    from dualbench.lattice import FiniteLattice

    up = up_masks_of(((True,),))
    one = FiniteLattice(("x",), up, ((0,),), ((0,),), 0, 0, name="one")
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


def refusal(vectors, truth, signature, order=None):
    """The code and message with which vector_algebra refuses a family."""
    with pytest.raises(AlgebraError) as err:
        vector_algebra(vectors, truth, "fam", signature, order=order)
    return err.value.code, str(err.value)


def test_vector_algebra_refuses_a_family_open_under_an_operation(
    chain2, chain3, frame2
):
    # 1100 meet 0110 and 1100 join 0110 both leave: the meet is reported
    both = [(0, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1)]
    assert refusal(both, chain2, "bdl") == (
        "not-closed",
        "'fam': a meet leaves the map family",
    )
    join_only = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    assert refusal(join_only, chain2, "bdl") == (
        "not-closed",
        "'fam': a join leaves the map family",
    )
    assert refusal([(0, 1), (1, 1)], chain2, "bdl") == (
        "not-closed",
        "'fam': the bottom leaves the map family",
    )
    # the up-sets of the two-world chain: closed under the relativized
    # implication, not under the pointwise one ((0,1) -> (0,0) is (1,0))
    upsets = [(0, 0), (0, 1), (1, 1)]
    vector_algebra(upsets, chain2, "fam", "isp_i", order=frame2)
    assert refusal(upsets, chain2, "heyting") == (
        "not-closed",
        "'fam': an implication leaves the map family",
    )
    # and the down-sets: (1,0) -> (0,0) is (0,1) either way
    downsets = [(0, 0), (1, 0), (1, 1)]
    assert refusal(downsets, chain2, "isp_i", order=frame2) == (
        "not-closed",
        "'fam': an implication leaves the map family",
    )
    # closed under meet, join and implication, but t[m] of (m,1) is (1,0)
    assert refusal([(0, 0), (1, 2), (2, 2)], chain3, "lvl") == (
        "not-closed",
        "'fam': a truth-constant image leaves the map family",
    )
    assert vector_algebra([(0, 0), (1, 2), (2, 2)], chain3, "fam", "heyting").t_ops is None


def test_recursive_searches_leave_no_reference_cycle(chain2, b2):
    # a recursive closure refers to itself through its cell; left bound,
    # it keeps the algebras it reads alive until a full collection
    frame = corpus_frames(3)[3]
    source = make_bdl(b2, chain2)
    up = upset_algebra(chain2, frame)
    gc.collect()
    gc.disable()
    try:
        for run in (
            lambda: enumerate_homs(source, source),
            lambda: monotone_vectors(chain2, frame),
            lambda: algebra_roundtrip(HSPA, up),  # searches its maps by vectors
        ):
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "broken",
    [
        lambda rows: [[-1, *rows[0][1:]], *rows[1:]],  # a negative entry
        lambda rows: [*rows[:-1], [*rows[-1][:-1], len(rows)]],  # out of range
        lambda rows: [rows[0][:-1], *rows[1:]],  # a short row
        lambda rows: rows[:-1],  # a missing row
    ],
)
def test_implication_table_must_be_total(chain3, broken):
    heyting = make_heyting(chain3, chain3)
    rows = [list(row) for row in heyting.implies]
    with pytest.raises(AlgebraError) as err:
        algebra_from_tables("heyting", chain3, chain3, implies=broken(rows))
    assert err.value.code == "bad-table"
    assert str(err.value) == f"implies table of {chain3.name!r} is not total"
