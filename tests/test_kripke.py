from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dualbench import duality, kripke
from dualbench.algebra import (
    enumerate_homs,
    make_bdl,
    make_heyting_ispi,
    subalgebra_of,
    vector_algebra,
)
from dualbench.corpus import corpus_frames, corpus_run
from dualbench.errors import AlgebraError, BudgetExceeded
from dualbench.kripke import (
    DEFAULT_POWER_BUDGET,
    _kripke_columns_agree,
    _kripke_scan,
    build_frame,
    close_vectors,
    intuitionistic_power,
    kripke_condition_check,
    monotone_vectors,
    subalgebra_generated,
    upset_algebra,
)
from dualbench.lattice import (
    FiniteLattice,
    chain_lattice,
    heyting_implies,
    heyting_table,
)
from hom_oracle import hom_leq
from lattice_oracle import close_subset, up_masks_of
from vector_oracle import monotone_vector_indices, relativized_implication


def table_closure(power, generators, name=None):
    """The generated subalgebra cut out of the materialized power: its
    generators closed under the power's own tables, then restricted, with
    the truth-constant operators dropped where they do not restrict. The
    slow oracle for the closure on vectors."""
    lat = power.lattice
    closed = close_subset(
        frozenset(generators) | {lat.bottom, lat.top},
        [lat.meet, lat.join, power.implies],
        [],
    )
    try:
        return subalgebra_of(power, closed, name=name)
    except AlgebraError:
        return subalgebra_of(power.replace(t_ops=None), closed, name=name)


def test_one_world_power_is_the_truth_lattice(chain2, chain3):
    w1 = build_frame(("w",), [])
    for truth in (chain2, chain3):
        p = intuitionistic_power(truth, w1)
        assert len(p) == len(truth)
        hey = heyting_table(truth)
        for a in range(len(p)):
            for b in range(len(p)):
                assert p.implies[a][b] == hey[a][b]


def test_two_chain_frame_worked_example(chain2, frame2):
    p = intuitionistic_power(chain2, frame2)
    i10 = p.elements.index("(1,0)")
    i00 = p.elements.index("(0,0)")
    assert p.elements[p.implies[i10][i00]] == "(0,1)"


def test_antichain_power_is_pointwise(chain2, antichain2):
    p = intuitionistic_power(chain2, antichain2)
    hey = heyting_table(chain2)
    vectors = p.presentation.vectors
    for a, u in enumerate(vectors):
        for b, v in enumerate(vectors):
            pointwise = tuple(hey[x][y] for x, y in zip(u, v))
            assert p.presentation.vectors[p.implies[a][b]] == pointwise


def test_power_budget(chain3):
    w4 = build_frame(tuple(f"w{i}" for i in range(8)), [])
    with pytest.raises(BudgetExceeded):
        intuitionistic_power(chain3, w4, budget=4096)


def test_subalgebra_generated_examples(chain2, frame2):
    p = intuitionistic_power(chain2, frame2)
    up = subalgebra_generated(p, monotone_vector_indices(p))
    assert up.elements == ("(0,0)", "(0,1)", "(1,1)")
    # its implication coincides with the three-chain relative pseudocomplement
    for a in range(3):
        for b in range(3):
            assert up.implies[a][b] == heyting_implies(up.lattice, a, b)
    empty = subalgebra_generated(p, [])
    assert empty.elements == ("(0,0)", "(1,1)")
    full = subalgebra_generated(p, [p.elements.index("(1,0)")])
    assert len(full) == 4


def test_generator_out_of_range(chain2, frame2):
    p = intuitionistic_power(chain2, frame2)
    with pytest.raises(AlgebraError):
        subalgebra_generated(p, [99])


def test_kripke_condition_up_set_algebra(chain2, frame2):
    assert kripke_condition_check(upset_algebra(chain2, frame2)).passed


def test_kripke_condition_one_world(chain2):
    w1 = build_frame(("w",), [])
    assert kripke_condition_check(intuitionistic_power(chain2, w1)).passed


def test_kripke_condition_full_power_fails(chain2, frame2):
    p = intuitionistic_power(chain2, frame2)
    res = kripke_condition_check(p)
    assert not res.passed
    # independent recomputation at the reported witness shape: the hom
    # evaluating at the lower world, x = (1,1), y = (1,0) style violations
    # exist because the hom order of the full power is an antichain
    reduct = make_bdl(p.lattice, chain2)
    homs = enumerate_homs(reduct, make_bdl(chain2, chain2))
    assert len(homs) == 2
    assert not hom_leq(homs[0], homs[1]) and not hom_leq(homs[1], homs[0])
    violations = []
    for v in homs:
        above = [w for w in homs if hom_leq(v, w)]
        for x in range(len(p)):
            for y in range(len(p)):
                expected = chain2.top
                for w in above:
                    expected = chain2.meet[expected][
                        heyting_table(chain2)[w.mapping[x]][w.mapping[y]]
                    ]
                if v.mapping[p.implies[x][y]] != expected:
                    violations.append((v, x, y))
    assert violations


def test_kripke_condition_wrong_signature(chain2):
    with pytest.raises(AlgebraError):
        kripke_condition_check(make_bdl(chain2, chain2))


def test_full_power_implication_not_residuated(chain2, frame2):
    # the boundary of the Heyting coincidence: with non-monotone vectors in
    # the carrier the frame-relativized implication stops being a relative
    # pseudocomplement (h = (1,0) meets f = (0,1) below g = (0,0) but does
    # not sit below f -> g)
    p = intuitionistic_power(chain2, frame2)
    f = p.elements.index("(0,1)")
    g = p.elements.index("(0,0)")
    h = p.elements.index("(1,0)")
    assert p.lattice.leq[p.lattice.meet[f][h]][g]
    assert not p.lattice.leq[h][p.implies[f][g]]


def test_power_truth_constants_pointwise(chain3, frame2):
    p = intuitionistic_power(chain3, frame2)
    vectors = p.presentation.vectors
    for l in range(len(chain3)):
        for i, vec in enumerate(vectors):
            image = vectors[p.t_ops[l][i]]
            assert image == tuple(
                chain3.top if x == l else chain3.bottom for x in vec
            )


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_implication_monotone_antitone(chain2, data):
    frames = [
        build_frame(("w",), []),
        build_frame(("w0", "w1"), [("w0", "w1")]),
        build_frame(("p", "q"), []),
        build_frame(("a", "b", "c"), [("a", "b"), ("a", "c")]),
    ]
    frame = data.draw(st.sampled_from(frames))
    p = intuitionistic_power(chain2, frame)
    n = len(p)
    f1 = data.draw(st.integers(0, n - 1))
    f2 = data.draw(st.integers(0, n - 1))
    g = data.draw(st.integers(0, n - 1))
    if p.lattice.leq[f1][f2]:
        assert p.lattice.leq[p.implies[f2][g]][p.implies[f1][g]]
        assert p.lattice.leq[p.implies[g][f1]][p.implies[g][f2]]


def test_upset_algebra_carrier_is_monotone_maps(chain2):
    frame = build_frame(("a", "b", "c"), [("a", "b"), ("a", "c")])
    up = upset_algebra(chain2, frame)
    power = intuitionistic_power(chain2, frame)
    monotone = {power.presentation.vectors[i] for i in monotone_vector_indices(power)}
    assert set(up.presentation.vectors) == monotone


def test_upset_algebra_matches_the_power_oracle(chain2, chain3):
    cases = [(chain2, f) for f in corpus_frames(5)]
    cases += [(chain3, f) for f in corpus_frames(4)]
    assert len(cases) == 87 + 24
    for truth, frame in cases:
        power = intuitionistic_power(truth, frame)
        monotone = monotone_vector_indices(power)
        name = f"up({frame.name})"
        up = upset_algebra(truth, frame)
        assert up == subalgebra_generated(power, monotone, name=name)
        assert up == table_closure(power, monotone, name=name)
        assert monotone_vectors(truth, frame) == up.presentation.vectors


def test_monotone_vectors_are_closed(chain2, chain3, b2):
    # upset_algebra builds its tables on the order-preserving vectors
    # without closing them: closing changes nothing
    for truth in (chain2, chain3, b2):
        for frame in corpus_frames(5):
            monotone = monotone_vectors(truth, frame)
            assert close_vectors(truth, frame, monotone) == monotone, (truth.name, frame.name)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_vector_closure_matches_table_closure(chain2, chain3, data):
    truth = data.draw(st.sampled_from([chain2, chain3]))
    frame = data.draw(st.sampled_from(corpus_frames(3)))
    power = intuitionistic_power(truth, frame)
    gens = data.draw(st.lists(st.integers(0, len(power) - 1), max_size=4))
    vectors = power.presentation.vectors
    expected = table_closure(power, gens)
    assert close_vectors(truth, frame, [vectors[g] for g in gens]) == (
        expected.presentation.vectors
    )
    assert subalgebra_generated(power, gens) == expected


def test_relativized_implication_is_the_meet_over_worlds_above(chain3):
    hey = heyting_table(chain3)
    for frame in corpus_frames(3):
        implies = relativized_implication(chain3, frame)
        vectors = intuitionistic_power(chain3, frame).presentation.vectors
        for u in vectors:
            for v in vectors:
                expected = []
                for w in range(len(frame)):
                    val = chain3.top
                    for w2 in sorted(frame.upset(w)):
                        val = chain3.meet[val][hey[u[w2]][v[w2]]]
                    expected.append(val)
                assert implies(u, v) == tuple(expected)


def test_upset_algebra_budget(chain2, monkeypatch):
    # the budget bounds the up-set family, not the power 2^13 around it
    worlds = tuple(f"w{i}" for i in range(13))
    chain13 = build_frame(worlds, list(zip(worlds, worlds[1:])), name="chain13")
    assert len(upset_algebra(chain2, chain13)) == 14
    antichain13 = build_frame(worlds, [], name="antichain13")
    with pytest.raises(BudgetExceeded) as err:
        upset_algebra(chain2, antichain13, budget=4096)
    assert str(err.value) == "more than 4096 order-preserving vectors over 'antichain13'"
    # the refusal comes from the map search, before any table is built
    built = []
    build = kripke.vector_algebra

    def spy(vectors, *rest, **options):
        built.append(len(vectors))
        return build(vectors, *rest, **options)

    monkeypatch.setattr(kripke, "vector_algebra", spy)
    with pytest.raises(BudgetExceeded):
        upset_algebra(chain2, chain13, budget=13)
    assert built == []
    assert len(upset_algebra(chain2, chain13, budget=14)) == 14
    assert built == [14]


def test_upset_algebra_is_kept_with_its_frame(chain2, chain3, b2):
    frame = build_frame(("a", "b", "c"), [("a", "b")], name="kept")
    up = upset_algebra(chain_lattice(2), frame)
    # a fresh truth lattice equal by value reads the same entry
    assert upset_algebra(chain_lattice(2), frame) is up
    assert upset_algebra(chain2, frame) is up
    assert frame.derived == {("upset_algebra", chain2, DEFAULT_POWER_BUDGET): up}
    # each truth lattice, and each budget, has an entry of its own
    kept = {truth.name: upset_algebra(truth, frame) for truth in (chain3, b2)}
    assert len({id(up), *map(id, kept.values())}) == 3
    assert upset_algebra(chain2, frame, budget=64) == up
    assert upset_algebra(chain2, frame, budget=64) is not up
    assert set(frame.derived) == {
        ("upset_algebra", chain2, DEFAULT_POWER_BUDGET),
        ("upset_algebra", chain3, DEFAULT_POWER_BUDGET),
        ("upset_algebra", b2, DEFAULT_POWER_BUDGET),
        ("upset_algebra", chain2, 64),
    }


def test_a_budget_cut_keeps_nothing_and_is_raised_on_every_call(chain2, monkeypatch):
    # kept under the default budget, the algebra is still refused under a
    # budget it exceeds: a search runs and refuses on each call
    frame = build_frame(tuple(f"w{i}" for i in range(4)), [], name="antichain4")
    assert len(upset_algebra(chain2, frame)) == 16
    searches = []
    search = kripke.monotone_vectors

    def spy(truth, frame, limit):
        searches.append(limit)
        return search(truth, frame, limit)

    monkeypatch.setattr(kripke, "monotone_vectors", spy)
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            upset_algebra(chain2, frame, budget=15)
    assert searches == [15, 15]
    assert list(frame.derived) == [("upset_algebra", chain2, DEFAULT_POWER_BUDGET)]


def test_kept_upset_algebras_match_a_fresh_build(chain2, chain3, b2):
    cases = [(truth, f) for truth in (chain2, chain3) for f in corpus_frames(5)]
    cases += [(b2, f) for f in corpus_frames(4)]
    for truth, frame in cases:
        kept = upset_algebra(truth, frame)
        fresh = vector_algebra(
            monotone_vectors(truth, frame),
            truth,
            f"up({frame.name})",
            "isp_i",
            order=frame,
            presented=True,
        )
        assert kept == fresh and kept is not fresh, (truth.name, frame.name)
        assert upset_algebra(truth, frame) is kept


def test_corpus_run_builds_each_upset_algebra_at_most_once(monkeypatch):
    # the frame suites and the hspa pool of the functoriality suite read
    # one algebra per frame; corpus_frames is cached, so earlier tests may
    # have built some already, and none is built twice
    built = Counter()
    search = kripke.monotone_vectors

    def spy(truth, frame, limit):
        built[frame, truth, limit] += 1
        return search(truth, frame, limit)

    monkeypatch.setattr(kripke, "monotone_vectors", spy)
    corpus_run(7, 4, 0)
    assert max(built.values(), default=0) <= 1
    key = ("upset_algebra", chain_lattice(2), DEFAULT_POWER_BUDGET)
    assert all(key in frame.derived for frame in corpus_frames(4))


def test_kripke_check_reads_the_points_of_the_scoped_dual(chain2, monkeypatch):
    # inside a verification scope the check and the hspa dual share one hom
    # search, and the witness, hom index included, is the one found alone
    searches = []
    search = duality.enumerate_homs

    def spy(a, b):
        searches.append(a)
        return search(a, b)

    monkeypatch.setattr(duality, "enumerate_homs", spy)
    frames = corpus_frames(3)
    algebras = [intuitionistic_power(chain2, frame) for frame in frames]
    algebras += [upset_algebra(chain2, frame) for frame in frames]
    witnesses = set()
    for algebra in algebras:
        alone = kripke_condition_check(algebra)
        searches.clear()
        with duality.verification_scope():
            scoped = kripke_condition_check(algebra)
            duality.esakia_dual(algebra)
        assert len(searches) == 1
        assert (scoped.passed, scoped.witness) == (alone.passed, alone.witness)
        if not alone.passed:
            witnesses.add(alone.witness.split()[1])
    assert {"h1", "h2"} <= witnesses


def test_kripke_columns_match_the_scan(chain2, chain3, b2):
    # the packed verdict alone against the hom-by-hom scan: a verdict that
    # is too strict would fall back to the scan, and the check would hide it
    cases = [(chain2, f) for f in corpus_frames(4)]
    cases += [(truth, f) for truth in (chain3, b2) for f in corpus_frames(3)]
    verdicts = []
    for truth, frame in cases:
        for build in (upset_algebra, intuitionistic_power):
            algebra = build(truth, frame)
            space, homs = duality._esakia_dual(algebra)
            scan = _kripke_scan(algebra, homs, space.order)
            fast = _kripke_columns_agree(algebra, homs, space.order)
            assert fast == scan.passed, (algebra.name, scan.witness)
            if build is upset_algebra and truth is chain2:
                assert scan.passed, algebra.name
            assert kripke_condition_check(algebra).witness == scan.witness
            verdicts.append(scan.passed)
    # the full powers over frames with an order fail, so both verdicts occur
    assert verdicts.count(True) == 49 and verdicts.count(False) == 31


def test_kripke_condition_over_a_non_distributive_truth_lattice(chain3, b2):
    # packed columns need a distributive truth lattice; over the diamond M3
    # (0 < a, b, c < 1) the check is the hom-by-hom scan
    names = ("0", "a", "b", "c", "1")
    n = range(5)
    leq = tuple(tuple(i == j or i == 0 or j == 4 for j in n) for i in n)
    meet = tuple(tuple(i if leq[i][j] else j if leq[j][i] else 0 for j in n) for i in n)
    join = tuple(tuple(j if leq[i][j] else i if leq[j][i] else 4 for j in n) for i in n)
    m3 = FiniteLattice(names, up_masks_of(leq), meet, join, 0, 4, name="m3")
    assert kripke_condition_check(make_heyting_ispi(chain3, m3)).passed
    res = kripke_condition_check(make_heyting_ispi(b2, m3))
    assert res.witness == (
        "hom h1 [0->0, a->a, b->b, 1->1]: v(x->y) != meet of w(x)->w(y) at x=a, y=0"
    )
