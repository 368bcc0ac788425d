import hashlib
import itertools
import random
from collections import Counter

import corpus_oracle
import pytest
from dualbench import corpus, duality
from dualbench.algebra import make_bdl
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
)
from dualbench.errors import BudgetExceeded
from dualbench.lattice import build_poset, chain_lattice, heyting_implies

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
        duality.priestley_dual(make_bdl(chain_lattice(3), chain_lattice(2)))
        assert duality._SCOPE_CACHE.get()
        raise BudgetExceeded("cut")

    _guarded(probe, "probe", run)
    assert probe.failures == ["probe: budget exceeded (cut)"]
    assert all(c == {} for c in scope_caches)
    assert duality._SCOPE_CACHE.get() is None
