import gc
import hashlib
import itertools
import random
from collections import Counter

import corpus_oracle
import pytest
from dualbench import corpus, duality
from dualbench.algebra import enumerate_homs, make_bdl, make_lvl, product_algebra
from dualbench.cli import main
from dualbench.corpus import (
    SuiteResult,
    _guarded,
    _lex_min,
    _poset_classes,
    corpus_frames,
    corpus_lattices,
    corpus_run,
    downset_lattice,
    suite_axiom_ledger,
    suite_functoriality,
    suite_heyting_coincidence,
    suite_ispi_roundtrip,
    suite_lvl_duality,
    suite_separation,
)
from dualbench.errors import BudgetExceeded
from dualbench.lattice import (
    build_poset,
    chain_lattice,
    diamond_lattice,
    heyting_implies,
    is_prime_ideal,
    separating_prime_ideal,
)
from dualbench.reporting import failed

# sha256 of the machine report of `corpus-run --max-size 7 --frame-size 4
# --seed 0`: an optimisation must keep every verdict, witness, count and
# ordering, and so this hash
CORPUS_RUN_7_4_0_SHA256 = (
    "c3f3e614e748601f5a2e6526f345ccb16e0c01fac475921dcbc897345fdc7e74"
)
# the same report at further seeds, which draw other morphism pairs for the
# functoriality suite
CORPUS_RUN_7_4_SHA256_BY_SEED = {
    1: "d436c8c7a237360804d381776896ad70372057d8041bcfb0c782910063a2a5d7",
    2: "ba180a7cdc5f471ab4ae046a64ff99a46295b1f2a6f7c120a6534ff20825199f",
    3: "ce11d4ff237cdecfd8bdaf6d43c06fab474eb2f64b55d614d1c326c0b6cee4b5",
}
# the report at --max-size 10: 108 lattices, whose larger double duals are
# where a hom-search bug would show first
CORPUS_RUN_10_4_0_SHA256 = (
    "0fe9cc42bf48aa1d26136ded2bf88ac05dcb54f0259a40f515683944817ee681"
)
# the report at --frame-size 5: the 87 frames of up to five worlds, whose
# up-set algebras the frame suites build
CORPUS_RUN_7_5_0_SHA256 = (
    "16ea8c09c0e69a829bc77f886c720b796e3747ad0147b1760664ac54eea48fe8"
)


def is_chain(lattice):
    n = len(lattice)
    return all(lattice.leq[i][j] or lattice.leq[j][i] for i in range(n) for j in range(n))


def test_corpus_sizes_match_known_counts():
    # distributive lattices per size: 2:1, 3:1, 4:2, 5:3, 6:5, 7:8
    by_size = {}
    for lat in corpus_lattices(7):
        by_size[len(lat)] = by_size.get(len(lat), 0) + 1
    assert by_size == {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}


def test_corpus_max_size_four():
    lats = corpus_lattices(4)
    assert [len(l) for l in lats] == [2, 3, 4, 4]
    chains = [l for l in lats if is_chain(l)]
    assert [len(l) for l in chains] == [2, 3, 4]
    (diamond,) = [l for l in lats if not is_chain(l)]
    assert len(diamond) == 4


def test_corpus_max_size_two():
    (only,) = corpus_lattices(2)
    assert len(only) == 2


def test_corpus_lattices_are_deduplicated():
    lats = corpus_lattices(6)
    seen = set()
    for lat in lats:
        key = canonical_lattice_key(lat)
        assert key not in seen
        seen.add(key)


def canonical_lattice_key(lat):
    n = len(lat)
    best = None
    for perm in itertools.permutations(range(n)):
        enc = tuple(lat.leq[perm[i]][perm[j]] for i in range(n) for j in range(n))
        if best is None or enc < best:
            best = enc
    return best


def test_frame_counts():
    assert len(corpus_frames(1)) == 1
    assert len(corpus_frames(2)) == 3
    assert len(corpus_frames(3)) == 8
    assert len(corpus_frames(4)) == 24


def test_downset_lattice_of_v_poset():
    poset = build_poset(("a", "b", "c"), [("a", "b"), ("a", "c")])
    lat = downset_lattice(poset, "v")
    assert len(lat) == 5
    assert lat.elements[lat.bottom] == "{}"
    assert lat.elements[lat.top] == "{a,b,c}"


# distributive lattices on 2..12 elements (OEIS A006982) and posets on
# 1..7 points (OEIS A000112), both up to isomorphism
DISTRIBUTIVE_LATTICES = {
    2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15, 9: 26, 10: 47, 11: 82, 12: 151
}
POSETS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63, 6: 318, 7: 2045}


def test_corpus_counts_match_oeis():
    assert Counter(len(lat) for lat in corpus_lattices(12)) == DISTRIBUTIVE_LATTICES
    assert Counter(len(frame) for frame in corpus_frames(7)) == POSETS


def lattice_fields(lat):
    return (lat.name, lat.elements, lat.leq, lat.meet, lat.join, lat.bottom, lat.top)


def test_corpus_matches_the_scan_oracle():
    for m in range(2, 8):
        assert [lattice_fields(lat) for lat in corpus_lattices(m)] == [
            lattice_fields(lat) for lat in corpus_oracle.corpus_lattices(m)
        ]
    for k in range(1, 6):
        assert [(f.name, f.elements, f.leq) for f in corpus_frames(k)] == [
            (f.name, f.elements, f.leq) for f in corpus_oracle.corpus_frames(k)
        ]


def test_pruned_key_matches_the_permutation_key():
    # every poset class on up to 6 points, under several relabelings each;
    # the oracle takes its key over all n! relabelings
    rng = random.Random(7)
    for n, level in _poset_classes(6):
        assert len(level) == POSETS[n]
        for down, _ in level:
            rel = [[bool(down[j] >> i & 1) for j in range(n)] for i in range(n)]
            want = corpus_oracle._canonical_key(rel, n)
            perms = [list(range(n)), list(reversed(range(n)))]
            perms += [rng.sample(range(n), n) for _ in range(2)]
            for perm in perms:
                moved = [0] * n
                for e in range(n):
                    moved[perm[e]] = sum(
                        1 << perm[a] for a in range(n) if down[e] >> a & 1
                    )
                key = _lex_min(tuple(moved))
                bits = tuple(bool(row >> (n - 1 - j) & 1) for row in key for j in range(n))
                assert bits == want


def test_suite_counts_every_failure():
    suite = SuiteResult("probe")
    for i in range(40):
        suite.fail(f"witness {i}")
    assert suite.failure_count == 40
    assert len(suite.failures) == 25
    assert "failure_count" not in suite.to_dict()


def test_a_law_added_to_a_mode_reaches_its_corpus_suite(monkeypatch):
    # the suites check a dual against the laws of its mode record, so a law
    # added to a record is reported by the suite that dualizes in that mode
    probe = failed("probe")
    pspa, pbs, hspa = duality.PSPA, duality.PBS, duality.HSPA
    added = {
        "PSPA": pspa.replace(verify_object=lambda s: {**pspa.verify_object(s), "probe": probe}),
        "PBS": pbs.replace(verify_object=lambda s: {**pbs.verify_object(s), "probe": probe}),
        "HSPA": hspa.replace(dual_checks=(*hspa.dual_checks, ("probe", lambda a: probe))),
    }
    for name, mode in added.items():
        monkeypatch.setattr(corpus, name, mode)
    lattices, frames = corpus_lattices(4), corpus_frames(2)
    truths = (chain_lattice(2), chain_lattice(3), diamond_lattice())
    objects = [make_lvl(t) for t in truths]
    objects = [a for base in objects for a in (base, product_algebra(base, base))]
    for suite, labels in (
        (corpus.suite_isp_roundtrip(lattices, chain_lattice(2)), lattices),
        (suite_ispi_roundtrip(frames), frames),
        (suite_lvl_duality(), objects),
    ):
        assert suite.failures == [f"{x.name}: dual space invalid: probe" for x in labels]


def test_heyting_coincidence_names_the_first_differing_pair(monkeypatch):
    # every other up-set algebra has the last pair f < g whose two
    # implications differ swapped with its mirror (g, f): the suite must
    # name and count as the pair-by-pair scan does
    build = corpus.upset_algebra
    frames = corpus_frames(4)

    def swapped(truth, frame, budget):
        algebra = build(truth, frame, budget=budget)
        if frames.index(frame) % 2 == 0:
            return algebra
        rows = [list(row) for row in algebra.implies]
        n = len(algebra)
        f, g = max((f, g) for f in range(n) for g in range(f + 1, n) if rows[f][g] != rows[g][f])
        rows[f][g], rows[g][f] = rows[g][f], rows[f][g]
        return algebra.replace(implies=tuple(map(tuple, rows)))

    monkeypatch.setattr(corpus, "upset_algebra", swapped)
    expected = SuiteResult("heyting_coincidence")
    pairs = 0
    for frame in frames:
        algebra = swapped(chain_lattice(2), frame, 4096)
        scan = ((f, g) for f in range(len(algebra)) for g in range(len(algebra)))
        for f, g in scan:
            pairs += 1
            if algebra.implies[f][g] != heyting_implies(algebra.lattice, f, g):
                expected.fail(
                    f"{frame.name}: implication differs from the relative "
                    f"pseudocomplement at ({algebra.element_name(f)}, "
                    f"{algebra.element_name(g)})"
                )
                break
    expected.counts = {"frames": len(frames), "pairs": pairs}
    suite = suite_heyting_coincidence(frames)
    assert suite.failure_count == expected.failure_count == len(frames) // 2
    assert suite.to_dict() == expected.to_dict()
    assert pairs < sum(len(build(chain_lattice(2), f, budget=4096)) ** 2 for f in frames)


def test_corpus_run_small_is_deterministic():
    a = corpus_run(max_size=4, frame_worlds=3, seed=3)
    b = corpus_run(max_size=4, frame_worlds=3, seed=3)
    assert a.to_dict() == b.to_dict()


def test_corpus_run_small_verdicts():
    report = corpus_run(max_size=4, frame_worlds=3, seed=0)
    by_name = {s.name: s for s in report.suites}
    assert by_name["spectrum_bijection"].passed
    assert by_name["prime_separation"].passed
    assert by_name["isp_roundtrip_chain2"].passed
    assert by_name["ispi_roundtrip"].passed
    assert by_name["heyting_coincidence"].passed
    assert by_name["lvl_duality"].passed
    assert by_name["axiom_ledger"].passed
    assert by_name["functoriality"].passed
    # the three-element truth lattice does not support the plain ordered
    # duality; the suite records concrete counterexamples
    assert not by_name["isp_roundtrip_chain3"].passed
    assert any("surjective" in f for f in by_name["isp_roundtrip_chain3"].failures)


def test_functoriality_pair_counts():
    suite = suite_functoriality(corpus_lattices(5), corpus_frames(3), seed=0)
    assert suite.passed
    assert suite.counts["pbs"] >= 50
    assert suite.counts["pspa"] >= 50
    assert suite.counts["hspa"] >= 50


def test_lvl_duality_suite_counts():
    suite = suite_lvl_duality()
    assert suite.passed
    assert suite.counts["objects"] == 6
    assert suite.counts["second_topology_inside_first"] == 6


def test_axiom_ledger_suite():
    suite = suite_axiom_ledger(corpus_lattices(5))
    assert suite.passed


def test_corpus_run_machine_report_is_pinned(capsys):
    args = "corpus-run --max-size 7 --frame-size 4 --seed 0 --format machine"
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == 1  # the chain3 suite is red by design
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORPUS_RUN_7_4_0_SHA256


@pytest.mark.parametrize("seed", sorted(CORPUS_RUN_7_4_SHA256_BY_SEED))
def test_corpus_run_machine_report_is_pinned_at_other_seeds(seed, capsys):
    args = f"corpus-run --max-size 7 --frame-size 4 --seed {seed} --format machine"
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == 1
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CORPUS_RUN_7_4_SHA256_BY_SEED[seed]


def test_corpus_run_machine_report_is_pinned_at_size_ten(capsys):
    args = "corpus-run --max-size 10 --frame-size 4 --seed 0 --format machine"
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORPUS_RUN_10_4_0_SHA256


def test_corpus_run_machine_report_is_pinned_at_frame_size_five(capsys):
    args = "corpus-run --max-size 7 --frame-size 5 --seed 0 --format machine"
    code = main(args.split())
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORPUS_RUN_7_5_0_SHA256


def sample_pairs_oracle(homsets, rng, want):
    """Every composable pair in a list, then a sample of the list."""
    pairs = []
    keys = sorted(homsets)
    for x, y in keys:
        for y2, z in keys:
            if y2 != y:
                continue
            for f in homsets[(x, y)]:
                for g in homsets[(y, z)]:
                    pairs.append((f, g))
    if len(pairs) > want:
        pairs = rng.sample(pairs, want)
    return pairs


def test_sample_pairs_matches_the_list_oracle(monkeypatch):
    # the hom-set pools of a functoriality run, as the suite hands them over
    pools = []
    sample = corpus._sample_pairs

    def spy(homsets, rng, want):
        pools.append(homsets)
        return sample(homsets, rng, want)

    monkeypatch.setattr(corpus, "_sample_pairs", spy)
    suite_functoriality(corpus_lattices(7), corpus_frames(4), 0)
    assert len(pools) == 5
    assert max(sum(map(len, h.values())) for h in pools) > 60
    for homsets in pools:
        for seed in range(50):
            for want in (1, 60, 10**6):
                fast, slow = random.Random(seed), random.Random(seed)
                assert sample(homsets, fast, want) == sample_pairs_oracle(
                    homsets, slow, want
                )
                assert fast.getstate() == slow.getstate()


def test_corpus_run_leaves_no_scope_cache(scope_caches, dual_map_caches):
    corpus_run(max_size=4, frame_worlds=3, seed=0)
    # every dual and every dualized hom of the run was built inside some
    # instance's scope
    for caches in (scope_caches, dual_map_caches):
        assert caches and all(c is not None for c in caches)
        assert all(c == {} for c in caches)
    assert duality._SCOPE_CACHE.get() is None


def test_every_scope_cache_earns_a_hit(monkeypatch):
    # an entry that is never read again costs a key and keeps its objects
    # alive for the whole instance, and saves nothing
    lookups, hits = Counter(), Counter()
    lookup = duality._in_scope

    def spy(key, held, build, *args):
        cache = duality._SCOPE_CACHE.get()
        lookups[build.__name__] += 1
        hits[build.__name__] += cache is not None and key in cache
        return lookup(key, held, build, *args)

    monkeypatch.setattr(duality, "_in_scope", spy)
    corpus_run(7, 4, 0)
    assert len(lookups) > 3
    assert sorted(name for name in lookups if not hits[name]) == []


def _hom_key(hom, mode):
    return id(hom.source), id(hom.target), hom.mapping, duality.as_mode(mode).name


def test_functoriality_verifies_each_dualized_hom_once(monkeypatch):
    dualized, verified = [], []
    dualize = duality.dual_map_of_hom

    def spy(hom, mode):
        dualized.append(_hom_key(hom, mode))
        return dualize(hom, mode)

    monkeypatch.setattr(duality, "dual_map_of_hom", spy)
    for name in ("PBS", "PSPA", "HSPA"):
        mode = getattr(corpus, name)

        def counted(mapping, src, dst, verify=mode.verify_morphism):
            verified.append((id(src), id(dst), mapping))
            return verify(mapping, src, dst)

        monkeypatch.setattr(corpus, name, mode.replace(verify_morphism=counted))
    suite = suite_functoriality(corpus_lattices(5), corpus_frames(3), seed=0)
    assert suite.passed
    # the suite dualizes some homs more than once (identities, repeated
    # composites), and verifies each distinct one once
    assert len(dualized) > len(set(dualized))
    assert len(verified) == len(set(dualized))


def test_functoriality_is_the_same_without_the_dual_map_cache(monkeypatch):
    lattices, frames = corpus_lattices(7), corpus_frames(4)
    cached = [suite_functoriality(lattices, frames, seed) for seed in range(4)]
    monkeypatch.setattr(
        duality,
        "dual_map_of_hom",
        lambda hom, mode: duality._dualize_hom(hom, duality.as_mode(mode)),
    )
    plain = [suite_functoriality(lattices, frames, seed) for seed in range(4)]
    assert cached == plain
    assert all(s.counts for s in plain)


def test_a_search_deeper_than_the_stack_is_a_budget_failure(shallow_stack):
    # past the recursion limit a hom search and a map search raise
    # BudgetExceeded, which a corpus instance records as a budget failure,
    # and each drops its recursive closure as a finished search does
    truth = chain_lattice(2)
    chain = make_bdl(chain_lattice(300), truth)
    target = make_bdl(truth, truth)
    searches = (
        lambda: enumerate_homs(chain, target),
        lambda: duality._map_vectors([3] * 300, (), None, truth, 10, "maps"),
    )
    probe = SuiteResult("probe")
    gc.collect()
    gc.disable()
    try:
        for run in searches:
            assert _guarded(probe, "probe", run) is None
            assert gc.collect() == 0
    finally:
        gc.enable()
    assert probe.failures == [
        "probe: budget exceeded (hom search 299 join-irreducibles deep exceeds the "
        "recursion limit)",
        "probe: budget exceeded (search of maps, 300 points deep, exceeds the recursion limit)",
    ]


def test_budget_cut_instance_leaves_no_scope_cache(scope_caches):
    # frames with more than 4 up-sets (the three-world antichain has 8)
    # exceed a budget of 4; the three-world chain frame3_4, with 4, does not
    suite = suite_ispi_roundtrip(corpus_frames(3), budget=4)
    cut = {f.split(":")[0] for f in suite.failures if "budget exceeded" in f}
    assert cut and "frame3_4" not in cut
    assert scope_caches and all(c == {} for c in scope_caches)
    assert duality._SCOPE_CACHE.get() is None
    # an instance cut after it has already built a dual
    probe = SuiteResult("probe")

    def run():
        duality.PSPA.dual(make_bdl(chain_lattice(3), chain_lattice(2)))
        assert duality._SCOPE_CACHE.get()
        raise BudgetExceeded("cut")

    _guarded(probe, "probe", run)
    assert probe.failures == ["probe: budget exceeded (cut)"]
    assert all(c == {} for c in scope_caches)
    assert duality._SCOPE_CACHE.get() is None


def _separation_witnesses(lattices, separate):
    """Every witness of the prime separation suite, from each pair's own
    re-verification of the ideal that ``separate`` returns for it."""
    out = []
    for lat in lattices:
        for x in range(len(lat)):
            for y in range(x + 1, len(lat)):
                ideal, flag = separate(lat, x, y)
                pair = f"({lat.elements[x]},{lat.elements[y]})"
                if not is_prime_ideal(lat, ideal):
                    out.append(f"{lat.name}: ideal for {pair} is not prime on re-verification")
                elif (x in ideal) != (flag == "contains-x") or (y in ideal) == (flag == "contains-x"):
                    out.append(f"{lat.name}: ideal does not separate {pair}")
    return out


def _every_witness(monkeypatch):
    """The witnesses a suite fails with, past the 25 its result keeps."""
    seen = []
    real = SuiteResult.fail

    def fail(self, witness):
        seen.append(witness)
        real(self, witness)

    monkeypatch.setattr(SuiteResult, "fail", fail)
    return seen


def test_prime_separation_reverifies_each_distinct_ideal_once(monkeypatch):
    lattices = corpus_lattices(7)
    checked = Counter()

    def spy(lattice, subset):
        checked[lattice.name, frozenset(subset)] += 1
        return is_prime_ideal(lattice, subset)

    monkeypatch.setattr(corpus, "is_prime_ideal", spy)
    suite = suite_separation(lattices)
    assert suite.passed and suite.counts == {"lattices": len(lattices), "pairs": 289}
    assert set(checked.values()) == {1}
    assert len(checked) == sum(len(lat.prime_ideals) for lat in lattices) == 76


def _drop_from_every_ideal(lattice, ideal):
    return True


def _drop_from_the_largest_ideal(lattice, ideal):
    return ideal == lattice.prime_ideals[-1]


@pytest.mark.parametrize("mutated", [_drop_from_every_ideal, _drop_from_the_largest_ideal])
def test_prime_separation_fails_every_pair_of_a_mutated_ideal(monkeypatch, mutated):
    # a mutated ideal loses its largest element: it is re-verified once,
    # every pair it is returned for still fails with the message of its own
    # check, and the pairs of the ideals left whole pass
    lattices = corpus_lattices(6)

    def dropped(lattice, x, y):
        ideal, flag = separating_prime_ideal(lattice, x, y)
        return (ideal - {max(ideal)} if mutated(lattice, ideal) else ideal), flag

    monkeypatch.setattr(corpus, "separating_prime_ideal", dropped)
    seen = _every_witness(monkeypatch)
    suite = suite_separation(lattices)
    expected = _separation_witnesses(lattices, dropped)
    assert 0 < len(expected) < suite.counts["pairs"]
    assert seen == expected and suite.failure_count == len(expected)
    assert suite.failures == expected[:25] and not suite.passed
    if mutated is _drop_from_every_ideal:
        # more failures than the result keeps; and a dropped element can be
        # x or y, and then the ideal may be prime and no longer separate
        assert len(expected) > 25
        assert any("does not separate" in w for w in expected)
