"""Tests of the benchmark itself: inputs, reference checks and tracing.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402


def _pass(workload, seed, tmp_path, traced=False):
    workdir = tmp_path / f"{workload}-{seed}-{'t' if traced else 'u'}"
    workdir.mkdir()
    inputs = workloads.generate(workload, seed, workdir)
    inputs_path = workdir / "inputs.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    out = workdir / "out.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(inputs_path), str(out)]
    if traced:
        cmd.append(str(workdir / "spans.tsv"))
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    return inputs, json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("passes")
    return {w: _pass(w, 0, tmp) for w in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {w: _pass(w, 0, tmp, traced=True) for w in workloads.WORKLOADS}


def _problems(inputs, answers):
    return [
        (instance, problem)
        for instance, problem in workloads.check(inputs, answers, workloads.load_ledger())
        if problem is not None
    ]


# -- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def inputs(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        got = workloads.generate(workload, seed, workdir)
        docs = sorted(p.read_text(encoding="utf-8") for p in workdir.iterdir())
        for doc in got.get("documents", ()):
            doc.pop("path")
        return got, docs

    first = inputs(3, "a")
    assert inputs(3, "b") == first
    if workload != "corpus":
        assert inputs(4, "c") != first


def test_wide_duals_stay_within_the_topology_cap(tmp_path):
    from dualbench.topology import TOPOLOGY_FAMILY_LIMIT

    for seed in range(20):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        for doc in workloads.generate("wide-duals", seed, workdir)["documents"]:
            assert doc["points"] <= 13
            assert 2 ** doc["points"] <= TOPOLOGY_FAMILY_LIMIT
            assert doc["downsets"] == workloads.WIDE_DOWNSETS


def test_isomorphism_tells_a_poset_from_its_opposite():
    # a "Y": one bottom below a middle element with two maximal ones
    y = [
        [True, True, True, True],
        [False, True, True, True],
        [False, False, True, False],
        [False, False, False, True],
    ]
    relabeled = [[y[3 - i][3 - j] for j in range(4)] for i in range(4)]
    assert workloads.isomorphic(y, relabeled)
    assert not workloads.isomorphic(y, workloads.opposite(y))


def test_lattice_document_counts():
    chain = [[i <= j for j in range(3)] for i in range(3)]
    assert workloads.count_upsets(chain) == 4
    antichain = [[i == j for j in range(3)] for i in range(3)]
    assert workloads.count_upsets(antichain) == 8
    doc = workloads.lattice_document("c3", chain)
    assert "elements: d0 d1 d2 d3" in doc


# -- reference checks -------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_instance_decides_correctly(workload, passes):
    inputs, out = passes[workload]
    results = workloads.check(inputs, out["answers"], workloads.load_ledger())
    assert len(results) == workloads.instance_count(inputs)
    assert [r for r in results if r[1] is not None] == []


def test_corpus_checks_catch_wrong_verdicts(passes):
    inputs, out = passes["corpus"]
    suites = out["answers"]["report"]["suites"]

    wrong = copy.deepcopy(out["answers"])
    wrong["report"]["suites"][3]["passed"] = True  # the red three-chain suite
    assert [i for i, _ in _problems(inputs, wrong)] == ["isp_roundtrip_chain3"]

    wrong = copy.deepcopy(out["answers"])
    wrong["report"]["suites"][3]["failures"].pop()
    assert [i for i, _ in _problems(inputs, wrong)] == ["isp_roundtrip_chain3"]

    assert suites[0]["name"] == "spectrum_bijection"
    wrong = copy.deepcopy(out["answers"])
    wrong["report"]["suites"][0]["counts"]["homs"] += 1
    assert [i for i, _ in _problems(inputs, wrong)] == ["spectrum_bijection"]

    wrong = copy.deepcopy(out["answers"])
    wrong["lattices"].pop()
    assert "lattices.size7" in [i for i, _ in _problems(inputs, wrong)]


def test_powers_checks_catch_wrong_verdicts(passes):
    inputs, out = passes["powers"]
    wrong = copy.deepcopy(out["answers"])
    wrong["seeded"][0]["size"] += 1
    wrong["seeded"][1]["verdicts"]["kripke_condition"] = False
    wrong["seeded"][2] = {"error": "BudgetExceeded: power carrier too large"}
    assert [i for i, _ in _problems(inputs, wrong)] == ["seeded0", "seeded1", "seeded2"]

    wrong = copy.deepcopy(out["answers"])
    wrong["suites"][1]["counts"]["pairs"] -= 1
    assert [i for i, _ in _problems(inputs, wrong)] == ["heyting_coincidence"]


def test_wide_checks_catch_wrong_verdicts(passes):
    inputs, out = passes["wide-duals"]
    name = inputs["documents"][0]["name"]

    wrong = copy.deepcopy(out["answers"])
    dualize, _, roundtrip, _ = wrong["documents"][0]
    dualize["report"]["details"]["opens"] //= 2
    roundtrip["report"]["verdicts"]["space_surjective"] = False
    assert [i for i, _ in _problems(inputs, wrong)] == [
        f"{name}.dualize.pspa",
        f"{name}.roundtrip.pspa",
    ]

    wrong = copy.deepcopy(out["answers"])
    details = wrong["documents"][0][1]["report"]["details"]
    # the dual order turned upside down: the poset itself, not its opposite
    details["order"] = [f"{b}<={a}" for a, b in (p.split("<=") for p in details["order"])]
    assert [i for i, _ in _problems(inputs, wrong)] == [f"{name}.dualize.hspa"]

    wrong = copy.deepcopy(out["answers"])
    wrong["documents"][1][3] = {"exit": 2, "report": None}
    assert len(_problems(inputs, wrong)) == 1


# -- tracing ----------------------------------------------------------------


def test_corpus_trace_counts_at_seed_zero(traced):
    layers = traced["corpus"][1]["layers"]
    assert layers["algebra.enumerate_homs.calls"] == 1813
    assert layers["duality.dual.calls"] == 966
    assert layers["algebra.enumerate_homs.self_s"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_add_up(workload, traced):
    out = traced[workload][1]
    layers = out["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(
        out["done_cpu"] - out["started_cpu"], rel=0.10
    )


def test_traced_counts_repeat(traced, tmp_path):
    again = _pass("corpus", 0, tmp_path, traced=True)[1]["layers"]
    first = traced["corpus"][1]["layers"]
    counts = [k for k in first if not k.endswith("_s")]
    assert counts
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def test_every_per_layer_metric_is_measured(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    measured = set().union(*(out["layers"] for _, out in traced.values()))
    measured.add("trace.overhead_s")  # computed by run.py from two passes
    assert [m["name"] for m in spec["per_layer"] if m["name"] not in measured] == []


def test_every_layer_binding_is_wrapped():
    # enumerate_homs is imported by name into duality, corpus and kripke;
    # each of those bindings must see the wrapper
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer, dualbench.algebra as a, dualbench.duality as d, "
        "dualbench.corpus as c, dualbench.kripke as k\n"
        "original = a.enumerate_homs\n"
        "tracer.Tracer().install()\n"
        "assert a.enumerate_homs is not original\n"
        "assert d.enumerate_homs is c.enumerate_homs is k.enumerate_homs "
        "is a.enumerate_homs\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(BENCH), str(ROOT / "src")],
        check=True,
        timeout=60,
    )


# -- the command --------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
