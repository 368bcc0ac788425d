"""Smoke tests of the runnable experiments under scripts/, and a check
that every name the benchmark's worker and the scripts import from
dualbench exists."""

import ast
import importlib
import importlib.util
import json
import pathlib
import resource
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
WORKER = SCRIPTS.parent / "perfbench" / "worker.py"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def dualbench_imports(path):
    """(module, name) for each name the file imports from dualbench, name
    None for an import of the module itself."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "dualbench":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dualbench":
                    yield alias.name, None


def test_every_name_the_worker_and_the_scripts_import_exists():
    found = []
    for path in (WORKER, *sorted(SCRIPTS.glob("*.py"))):
        for module, name in dualbench_imports(path):
            found.append((path.name, module, name))
            package = importlib.import_module(module)
            if name is not None:
                # a name is an attribute, or a submodule of a package
                assert hasattr(package, name) or (
                    hasattr(package, "__path__")
                    and importlib.util.find_spec(f"{module}.{name}")
                ), (path.name, module, name)
    # the powers workload reads the hspa functors by name
    assert ("worker.py", "dualbench.duality", "esakia_dual") in found
    assert {path for path, *_ in found} == {"worker.py", "survey_axioms.py"}


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


def test_bench_pair_refuses_what_the_benchmark_would_refuse():
    bench = load("bench_pair")
    rows = synthetic_rows()
    summary = bench.summarize(rows)
    # the change failed one of its thirty operations, the parent none
    assert summary["corpus"]["failed_share"] == {"parent": 0.0, "change": round(1 / 30, 6)}
    assert bench.refusals(summary) == [
        "corpus: failed share 0.033333 is above the parent's 0.0"
    ]
    for r in rows:
        r["failed"] = 1
    assert bench.refusals(bench.summarize(rows)) == []
    # a claim that is not met, and one that is
    claimed = bench.claim(summary, "corpus", "run_s")
    assert bench.refusals(bench.summarize(rows), claimed) == [
        "corpus: the claim on run_s is not met"
    ]
    won = bench.summarize([r for r in rows if r["pair"] < 2])
    assert bench.refusals(won, bench.claim(won, "corpus", "run_s")) == []
    # an incorrect run on either side
    rows[0]["correct"] = False
    assert bench.refusals(bench.summarize(rows)) == ["corpus: a run was incorrect"]
    rows[0]["correct"] = True
    # a change twice as slow in every pair is past the bound of run_s
    for r in rows:
        if r["side"] == "change":
            r["run_s"] = 2.2
    assert bench.refusals(bench.summarize(rows)) == [
        "corpus: run_s median 2.2 is outside 25% of the parent's 1.1"
    ]


def test_bench_pair_exits_1_when_the_change_would_be_refused(monkeypatch, tmp_path):
    bench = load("bench_pair")

    def fake_pair(trees, workload, pair, seed):
        return [r for r in synthetic_rows() if r["pair"] == pair]

    def no_git(argv, **options):
        # git rev-parse, git archive, tar and git ls-files, none of which
        # the rows need
        return subprocess.CompletedProcess(argv, 0, stdout="" if options.get("text") else b"")

    read = []

    def machine(tree, workload, seed):
        read.append(tree)
        return {}

    monkeypatch.setattr(bench.subprocess, "run", no_git)
    monkeypatch.setattr(bench, "run_pair", fake_pair)
    monkeypatch.setattr(bench, "machine", machine)
    out = tmp_path / "bench.json"
    args = ["--parent", "HEAD", "--seed", "7", "--out", str(out)]
    # two pairs the change wins; the third adds a failed operation
    assert bench.main(args + ["--workload", "corpus=2", "--claim", "corpus:run_s"]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["refusals"] == []
    # both trees are left empty here, since no archive is unpacked and git
    # lists no file to copy; the machine is read off the change's copy
    assert record["src_lines"] == {"parent": 0, "change": 0}
    assert read[0].name == "change" and read[0].parent.name.startswith("bench-pair-")
    assert bench.main(args + ["--workload", "corpus=3"]) == 1
    assert json.loads(out.read_text(encoding="utf-8"))["refusals"] == [
        "corpus: failed share 0.033333 is above the parent's 0.0"
    ]


def test_bench_pair_copies_the_files_git_lists_and_no_leftover(tmp_path):
    bench = load("bench_pair")
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "src" / "__pycache__").mkdir(parents=True)
    files = {
        ".gitignore": "__pycache__/\n",
        "src/kept.py": "x = 1\n",  # tracked
        "src/new.py": "y = 2\n",  # not yet added
        "src/gone.py": "z = 3\n",  # tracked, then deleted
        "src/__pycache__/kept.cpython-311.pyc": "stale",  # ignored
    }
    for name, text in files.items():
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", ".gitignore", "src/kept.py", "src/gone.py"], cwd=repo, check=True)
    (repo / "src" / "gone.py").unlink()
    dest.mkdir()
    bench.copy_listed_files(repo, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "new.py").read_text() == "y = 2\n"


def test_bench_pair_counts_the_lines_of_the_package_sources(tmp_path):
    bench = load("bench_pair")
    package = tmp_path / "src" / "dualbench"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("\n\nz = 3\n")
    # neither a non-Python file nor a module outside the package counts
    (package / "notes.txt").write_text("one\ntwo\n")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("v = 5\n")
    assert bench.src_lines(tmp_path) == 5
    assert bench.src_lines(tmp_path / "missing") == 0
    assert bench.src_lines(SCRIPTS.parent) == sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SCRIPTS.parent / "src" / "dualbench").glob("*.py")
    )


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
    usage = resource.struct_rusage((0.25, 0.5) + (0,) * 14)

    def crashed(argv, cwd, env):
        return 137, "", stderr, usage

    monkeypatch.setattr(bench, "run_reaped", crashed)
    with pytest.raises(bench.CorpusRunFailed) as err:
        bench.run_corpus("T", 12)
    message = str(err.value)
    assert message.startswith("corpus-run --max-size 12 in T exited 137 with no report")
    assert message.endswith("line 29\nMemoryError")
    assert "line 20" not in message

    report = {"timings": {"suites": {"lvl_duality": {"seconds": 0.5}}, "enumerate_seconds": 0.1}}

    def failing_suites(argv, cwd, env):
        return 1, json.dumps(report), "", usage

    monkeypatch.setattr(bench, "run_reaped", failing_suites)
    # a report whose suites fail exits 1 and is still read
    out = bench.run_corpus("T", 12)
    assert (out["lvl_duality"], out["enumerate"]) == (0.5, 0.1)


def test_bench_pair_reads_each_corpus_run_and_child_on_its_own(tmp_path):
    # on Linux a child's peak starts at the resident memory of the process
    # that starts it (exec keeps the high-water mark of the memory it
    # replaces), so the calls run from a fresh interpreter, not from pytest
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import importlib.util, json, os, resource, sys\n"
        f"spec = importlib.util.spec_from_file_location('bench_pair', {str(SCRIPTS / 'bench_pair.py')!r})\n"
        "bench = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(bench)\n"
        f"corpus = bench.run_corpus({str(SCRIPTS.parent)!r}, 2)\n"
        "env = dict(os.environ)\n"
        "large = bench.run_reaped([sys.executable, '-c', "
        "'import sys; b = bytearray(48 << 20); sys.exit(3)'], '.', env)\n"
        "small = bench.run_reaped([sys.executable, '-c', "
        "'import sys; print(1); print(2, file=sys.stderr)'], '.', env)\n"
        "children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([corpus, [*large[:3], large[3].ru_maxrss], "
        "[*small[:3], small[3].ru_maxrss], children]))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(probe)], capture_output=True, text=True, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    corpus, large, small, children = json.loads(proc.stdout)
    assert {"prime_separation", "enumerate", "process_cpu_s"} <= set(corpus)
    assert corpus["process_cpu_s"] > 0 and 5 < corpus["process_peak_rss_mb"] < 100
    assert large[:3] == [3, "", ""] and small[:3] == [0, "1\n", "2\n"]
    # RUSAGE_CHILDREN keeps the largest peak of every child reaped so far;
    # os.wait4 gives the small child after the large one its own
    assert large[3] - small[3] > 40 << 10
    assert children >= large[3]
