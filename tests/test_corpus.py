import hashlib
import itertools

import pytest

from dualbench import duality
from dualbench.algebra import make_bdl
from dualbench.cli import main
from dualbench.corpus import (
    SuiteResult,
    _guarded,
    corpus_frames,
    corpus_lattices,
    corpus_run,
    downset_lattice,
    suite_axiom_ledger,
    suite_functoriality,
    suite_ispi_roundtrip,
    suite_lvl_duality,
)
from dualbench.errors import BudgetExceeded
from dualbench.lattice import build_poset, chain_lattice

# sha256 of the machine report of `corpus-run --max-size 7 --frame-size 4
# --seed 0`: an optimisation must keep every verdict, witness, count and
# ordering, and so this hash
CORPUS_RUN_7_4_0_SHA256 = (
    "c3f3e614e748601f5a2e6526f345ccb16e0c01fac475921dcbc897345fdc7e74"
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


def test_corpus_scan_budget():
    with pytest.raises(BudgetExceeded):
        corpus_lattices(9)


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


def test_corpus_run_leaves_no_scope_cache(scope_caches):
    corpus_run(max_size=4, frame_worlds=3, seed=0)
    # every dual of the run was built inside some instance's scope
    assert scope_caches and all(c is not None for c in scope_caches)
    assert all(c == {} for c in scope_caches)
    assert duality._SCOPE_CACHE.get() is None


def test_budget_cut_instance_leaves_no_scope_cache(scope_caches):
    # three-world frames need an 8-element power, beyond a budget of 4
    suite = suite_ispi_roundtrip(corpus_frames(3), budget=4)
    assert any("budget exceeded" in f for f in suite.failures)
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
