"""Smoke tests of the runnable experiments under scripts/."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_survey_axioms_counts_the_failures_of_both_forms(capsys):
    code = load("survey_axioms").main(["--max-size", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "two-index clause (iv) fails on 12 of 12 lattices" in out
    assert "the amended single-index form fails on 0" in out


def test_survey_axioms_exits_1_when_the_amended_form_fails(capsys, monkeypatch):
    survey = load("survey_axioms")
    real = survey.check_lvl_axioms

    def amended_fails(algebra, literal_iv=False):
        report = real(algebra, literal_iv=literal_iv)
        if not literal_iv and len(algebra) == 3:
            report.clauses["iv"] = real(algebra, literal_iv=True).clauses["iv"]
        return report

    monkeypatch.setattr(survey, "check_lvl_axioms", amended_fails)
    assert survey.main(["--max-size", "4"]) == 1
    assert "the amended single-index form fails on 1" in capsys.readouterr().out


def synthetic_rows():
    # pair 0 runs the parent first, pair 1 the change first
    rows = []
    for pair, (parent, change) in enumerate([(1.0, 0.8), (1.2, 0.9), (1.1, 1.3)]):
        for side, run_s in (("parent", parent), ("change", change)):
            rows.append(
                {
                    "workload": "corpus",
                    "pair": pair,
                    "seed": 7 + pair,
                    "side": side,
                    "position": int((side == "change") == (pair % 2 == 0)),
                    "correct": True,
                    "attempted": 10,
                    "failed": 1 if side == "change" and pair == 2 else 0,
                    "setup_s": 0.2,
                    "run_s": run_s,
                    "peak_rss_mb": 20.0 if side == "parent" else 19.5,
                    "wall_s": 1.0,
                }
            )
    return rows


def test_bench_pair_summarizes_rows_without_running_the_benchmark():
    bench = load("bench_pair")
    summary = bench.summarize(synthetic_rows())
    assert list(summary) == ["corpus"]
    run = summary["corpus"]["run_s"]
    assert run["parent_median"] == 1.1 and run["change_median"] == 0.9
    assert run["change_vs_parent"] == round(0.9 / 1.1 - 1, 4)
    # inclusive quartiles of three values sit halfway between neighbours
    assert run["parent_quartiles"] == [1.05, 1.15]
    assert run["change_quartiles"] == [0.85, 1.1]
    assert run["parent_iqr"] == 0.1
    assert (run["change_better_pairs"], run["change_worse_pairs"], run["pairs"]) == (2, 1, 3)
    setup = summary["corpus"]["setup_s"]
    assert (setup["change_better_pairs"], setup["change_worse_pairs"]) == (0, 0)
    assert summary["corpus"]["peak_rss_mb"]["change_better_pairs"] == 3
    assert summary["corpus"]["correct_all"] is True
    assert summary["corpus"]["failed_total"] == {"parent": 0, "change": 1}
    # two pairs in three is short of nine in ten
    claim = bench.claim(summary, "corpus", "run_s")
    assert claim["met"] is False and claim["change_better_pairs"] == 2
    rows = [r for r in synthetic_rows() if r["pair"] < 2]
    assert bench.claim(bench.summarize(rows), "corpus", "run_s")["met"] is True


def test_bench_pair_flags_medians_outside_the_benchmarks_bounds():
    bench = load("bench_pair")
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench.BOUNDS == {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bench.METRICS == tuple(bench.BOUNDS)
    bound = bench.BOUNDS["peak_rss_mb"]
    rows = synthetic_rows()
    summary = bench.summarize(rows)
    assert all(summary["corpus"][m]["within_bound"] for m in bench.METRICS)
    assert bench.regressions(summary) == []
    # a change median exactly at the bound is within it; a hair over is not
    for change_rss, within in ((20.0 * (1 + bound), True), (20.0 * (1 + bound) + 0.01, False)):
        for r in rows:
            if r["side"] == "change":
                r["peak_rss_mb"] = change_rss
        summary = bench.summarize(rows)
        assert summary["corpus"]["peak_rss_mb"]["within_bound"] is within
        assert summary["corpus"]["run_s"]["within_bound"] is True
    assert bench.regressions(summary) == [
        {
            "workload": "corpus",
            "metric": "peak_rss_mb",
            "bound": bound,
            "parent_median": 20.0,
            "change_median": round(change_rss, 4),
            "change_vs_parent": round(change_rss / 20.0 - 1, 4),
        }
    ]
    # a change 30% slower in every pair is past the 25% bound of run_s
    parent_run = {r["pair"]: r["run_s"] for r in rows if r["side"] == "parent"}
    for r in rows:
        if r["side"] == "change":
            r["run_s"] = parent_run[r["pair"]] * 1.3
    assert [(g["workload"], g["metric"]) for g in bench.regressions(bench.summarize(rows))] == [
        ("corpus", "run_s"), ("corpus", "peak_rss_mb")
    ]


def test_bench_pair_alternates_which_side_runs_first(monkeypatch):
    bench = load("bench_pair")
    calls = []

    def fake(tree, workload, seed):
        calls.append(tree)
        return {"correct": True, "attempted": 1, "failed": 0, "setup_s": 0.1,
                "run_s": 0.1, "peak_rss_mb": 1.0, "wall_s": 0.0}

    monkeypatch.setattr(bench, "run_bench", fake)
    trees = {"parent": "P", "change": "C"}
    rows = bench.run_pair(trees, "corpus", 0, 5) + bench.run_pair(trees, "corpus", 1, 6)
    assert calls == ["P", "C", "C", "P"]
    assert [(r["side"], r["position"], r["seed"]) for r in rows] == [
        ("parent", 0, 5), ("change", 1, 5), ("change", 0, 6), ("parent", 1, 6)
    ]


def test_bench_pair_corpus_seconds_pairs_adjacent_runs(monkeypatch):
    bench = load("bench_pair")
    calls = []
    seconds = {"P": iter([1.0, 2.0, 4.0]), "C": iter([0.5, 1.0, 3.0])}

    def fake(tree, size):
        calls.append(tree)
        return {"isp_roundtrip_chain3": next(seconds[tree]), "lvl_duality": 0.0}

    monkeypatch.setattr(bench, "run_corpus", fake)
    out = bench.corpus_seconds({"parent": "P", "change": "C"}, 10, 3)
    assert calls == ["P", "C", "C", "P", "P", "C"]
    assert out["median"] == {
        "parent": {"isp_roundtrip_chain3": 2.0, "lvl_duality": 0.0},
        "change": {"isp_roundtrip_chain3": 1.0, "lvl_duality": 0.0},
    }
    # ratios 0.5, 0.5 and 0.75; a suite the parent ran in no time has none
    assert out["change_over_parent_median_of_pairs"] == {"isp_roundtrip_chain3": 0.5}


def test_bench_pair_runs_for_the_benchmarks_run_seconds():
    bench = load("bench_pair")
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert bench.RUN_SECONDS == declared["run_seconds"]


def test_bench_pair_corpus_run_without_a_report_names_its_exit_and_stderr(monkeypatch):
    bench = load("bench_pair")
    stderr = "\n".join(f"line {i}" for i in range(30)) + "\nMemoryError\n"

    def crashed(argv, **options):
        return subprocess.CompletedProcess(argv, 137, stdout="", stderr=stderr)

    monkeypatch.setattr(bench.subprocess, "run", crashed)
    with pytest.raises(bench.CorpusRunFailed) as err:
        bench.run_corpus("T", 12)
    message = str(err.value)
    assert message.startswith("corpus-run --max-size 12 in T exited 137 with no report")
    assert message.endswith("line 29\nMemoryError")
    assert "line 20" not in message

    report = {"timings": {"suites": {"lvl_duality": {"seconds": 0.5}}, "enumerate_seconds": 0.1}}

    def failing_suites(argv, **options):
        return subprocess.CompletedProcess(argv, 1, stdout=json.dumps(report), stderr="")

    monkeypatch.setattr(bench.subprocess, "run", failing_suites)
    # a report whose suites fail exits 1 and is still read
    out = bench.run_corpus("T", 12)
    assert (out["lvl_duality"], out["enumerate"]) == (0.5, 0.1)
