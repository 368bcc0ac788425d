"""Interleaved before/after benchmark of a change against a parent commit.

Usage (from the root of a checkout):

    python3 scripts/bench_pair.py --parent COMMIT --workload corpus=10 \
        --workload powers=5 --seed 4000 --label pr20 \
        --change "what the change does" --out BENCH_pr20.json

Unpacks ``git archive COMMIT`` into a temporary directory, then runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` once in
that tree and once in the working tree for each pair, with the seed of the
pair, and alternates which side runs first. N is the ``run_seconds`` that
``BENCHMARK.json`` sets. ``--corpus-size M`` adds
``corpus-run --max-size M --frame-size 4 --seed 0 --timings`` run
``CORPUS_REPEATS`` times on each side, alternately, and records the
seconds of each suite, as the tree's ``--timings`` reports them, and the
CPU time of the process.

The output holds every row, and per workload and metric the medians, the
inclusive quartiles, the number of pairs the change won and lost and
whether the change median is within the metric's ``bound`` in
``BENCHMARK.json`` (at most the parent median times one plus the bound).
``regressions`` lists each workload and metric that is not.
Nothing under ``perfbench/`` is changed; its run records go to the
``perfbench/out/`` of each tree.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
# the end-to-end metrics, each with the share by which the change may be worse
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
METRICS = tuple(BOUNDS)
SIDES = ("parent", "change")
CLI = "import sys; from dualbench.cli import main; sys.exit(main(sys.argv[1:]))"
CORPUS_REPEATS = 10
STDERR_TAIL_LINES = 10


def quartiles(values):
    """The lower and upper quartile, inclusive method."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(rows):
    """Per workload and metric, the medians of both sides, their quartiles,
    the pairs won and lost by the change (every metric is better lower) and
    whether the change median is within the metric's bound, from rows as
    ``run_pair`` writes them."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in rows):
        mine = [r for r in rows if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in by_pair.values() if len(p) == 2]
        entry = {}
        for metric in METRICS:
            parent = [p["parent"][metric] for p in pairs]
            change = [p["change"][metric] for p in pairs]
            pm, cm = statistics.median(parent), statistics.median(change)
            pq, cq = quartiles(parent), quartiles(change)
            entry[metric] = {
                "parent_median": round(pm, 4),
                "change_median": round(cm, 4),
                "change_vs_parent": round(cm / pm - 1, 4),
                "parent_quartiles": [round(q, 4) for q in pq],
                "change_quartiles": [round(q, 4) for q in cq],
                "parent_iqr": round(pq[1] - pq[0], 4),
                "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
                "change_worse_pairs": sum(c > p for p, c in zip(parent, change)),
                "pairs": len(pairs),
                "within_bound": cm <= pm * (1 + BOUNDS[metric]),
            }
        entry["correct_all"] = all(r["correct"] for r in mine)
        entry["failed_total"] = {
            side: sum(r["failed"] for r in mine if r["side"] == side) for side in SIDES
        }
        out[workload] = entry
    return out


def regressions(summary):
    """Each workload and metric whose change median is outside its bound."""
    return [
        {"workload": workload, "metric": metric, "bound": BOUNDS[metric],
         **{k: entry[metric][k] for k in ("parent_median", "change_median", "change_vs_parent")}}
        for workload, entry in summary.items()
        for metric in METRICS
        if not entry[metric]["within_bound"]
    ]


def claim(summary, workload, metric):
    """Whether the change wins ``metric`` on ``workload``: better on at
    least nine pairs in ten, and better in the median by more than the
    parent's interquartile range."""
    s = summary[workload][metric]
    return {
        "metric": metric,
        "workload": workload,
        **{k: s[k] for k in ("parent_median", "change_median", "change_vs_parent")},
        "change_better_pairs": s["change_better_pairs"],
        "pairs": s["pairs"],
        "parent_iqr": s["parent_iqr"],
        "met": s["change_better_pairs"] * 10 >= 9 * s["pairs"]
        and s["parent_median"] - s["change_median"] > s["parent_iqr"],
    }


def run_bench(tree, workload, seed):
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {k: result[k] for k in ("correct", "attempted", "failed")}
    row.update({m: result["metrics"][m]["value"] for m in METRICS})
    row["wall_s"] = round(time.monotonic() - started, 1)
    return row


def run_pair(trees, workload, pair, seed):
    """One pair of runs, the parent first on even pairs."""
    order = SIDES if pair % 2 == 0 else SIDES[::-1]
    rows = []
    for position, side in enumerate(order):
        row = {"workload": workload, "pair": pair, "seed": seed, "side": side, "position": position}
        row.update(run_bench(trees[side], workload, seed))
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    return rows


class CorpusRunFailed(RuntimeError):
    """A ``corpus-run`` that printed no report."""


def run_corpus(tree, size):
    """Per-suite seconds of one ``corpus-run`` and the CPU time of its
    process. A run whose standard output holds no report raises
    CorpusRunFailed with its exit code and the tail of its standard error;
    a report with failing suites is a report (the run exits 1 then)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [
            sys.executable, "-c", CLI, "corpus-run", "--max-size", str(size),
            "--frame-size", "4", "--seed", "0", "--timings", "--format", "machine",
        ],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        timings = json.loads(proc.stdout)["timings"]
    except (json.JSONDecodeError, KeyError):
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL_LINES:])
        raise CorpusRunFailed(
            f"corpus-run --max-size {size} in {tree} exited {proc.returncode} "
            f"with no report; its standard error ends:\n{tail}"
        ) from None
    out = {name: s["seconds"] for name, s in timings["suites"].items()}
    out["enumerate"] = timings["enumerate_seconds"]
    out["process_cpu_s"] = round(
        after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime, 3
    )
    return out


def corpus_seconds(trees, size, repeats=CORPUS_REPEATS):
    runs = {side: [] for side in SIDES}
    for i in range(repeats):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_corpus(trees[side], size))
    medians = {
        side: {k: round(statistics.median(r[k] for r in rs), 3) for k in rs[0]}
        for side, rs in runs.items()
    }
    # the ratio within each pair of adjacent runs cancels the drift of the
    # machine's speed that the medians of each side keep
    pairs = list(zip(runs["parent"], runs["change"]))
    ratios = {
        k: round(statistics.median(c[k] / p[k] for p, c in pairs), 3)
        for k in runs["parent"][0]
        if all(p[k] for p, _ in pairs)
    }
    return {
        "max_size": size,
        "repeats": repeats,
        "median": medians,
        "change_over_parent_median_of_pairs": ratios,
        "runs": runs,
    }


def machine(tree, workload, seed):
    """The machine a run was made on, from the record perfbench keeps."""
    record = Path(tree) / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return json.loads(record.read_text(encoding="utf-8"))["machine"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument(
        "--workload", action="append", required=True, metavar="NAME=PAIRS",
        help="a perfbench workload and its number of pairs",
    )
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--corpus-size", type=int)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--label", default="")
    parser.add_argument("--change", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    parent_commit = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    scratch = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    try:
        parent_tree = scratch / "parent"
        parent_tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", parent_commit], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        rows = []
        seed = args.seed
        for spec in args.workload:
            workload, _, count = spec.partition("=")
            for pair in range(int(count or 1)):
                rows += run_pair(trees, workload, pair, seed)
                seed += 1
        scale = None
        if args.corpus_size:
            scale = corpus_seconds(trees, args.corpus_size)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(rows)
    record = {
        "label": args.label,
        "change": args.change,
        "parent_commit": parent_commit,
        "how": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS:g} "
            "--trace 0 in a git archive of the parent commit and in the working tree, "
            "alternating which side runs first in each pair (the parent first on even "
            f"pairs); seeds from {args.seed}, one per pair. setup_s and run_s are scaled "
            "CPU medians as perfbench reports them; quartiles are inclusive"
        ),
        "machine": machine(ROOT, rows[0]["workload"], rows[0]["seed"]),
        "rows": rows,
        "summary": summary,
        "regressions": regressions(summary),
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim(summary, workload, metric)
    if scale is not None:
        record["corpus_run_seconds"] = scale
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
