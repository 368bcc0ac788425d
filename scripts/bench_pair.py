"""Interleaved before/after benchmark of a change against a parent commit.

Usage (from the root of a checkout):

    python3 scripts/bench_pair.py --parent COMMIT --workload corpus=10 \
        --workload powers=5 --seed 4000 --label pr20 \
        --change "what the change does" --out BENCH_pr20.json

Unpacks ``git archive COMMIT`` into a temporary directory and copies
beside it every file of the working tree that ``git ls-files --cached
--others --exclude-standard`` lists, so that neither side runs with a
``__pycache__`` or another leftover the other lacks. It then runs
``perfbench/run.py --workload W --seed S --seconds N --trace 0`` once in
each tree for each pair, with the seed of the pair, and alternates which
side runs first. N is the ``run_seconds`` that ``BENCHMARK.json`` sets.
``--corpus-size M`` adds
``corpus-run --max-size M --frame-size 4 --seed 0 --timings`` run
``CORPUS_REPEATS`` times on each side, alternately, and records the
seconds of each suite, as the tree's ``--timings`` reports them, and the
CPU time and peak resident memory of the process, from the resource usage
that reaping it with ``os.wait4`` returns.

The output holds every row, and per workload and metric the medians, the
inclusive quartiles, the number of pairs the change won and lost and
whether the change median is within the metric's ``bound`` in
``BENCHMARK.json`` (at most the parent median times one plus the bound).
``regressions`` lists each workload and metric that is not. Per workload
it also holds each side's failed share, failed over attempted operations.
``refusals`` lists why the change would be refused: a regression, an
incorrect run, a failed share above the parent's or a ``--claim`` that is
not met. The script exits 1 when that list is not empty, and 0 otherwise.
``src_lines`` holds each side's line count of ``src/dualbench/*.py``, as
``wc -l`` counts them, so the size of a change sits beside its timings.
Nothing under ``perfbench/`` is changed; its run records go to the
``perfbench/out/`` of each temporary tree, and the record's ``machine`` is
read from the change's.
"""

from __future__ import annotations

import argparse
import json
import os
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
        entry["failed_share"] = {}
        for side in SIDES:
            attempted = sum(r["attempted"] for r in mine if r["side"] == side)
            share = entry["failed_total"][side] / attempted if attempted else 0.0
            entry["failed_share"][side] = round(share, 6)
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


def refusals(summary, claimed=None):
    """Why the benchmark would refuse the change, empty when it would not: a
    metric outside its bound, an incorrect run, a larger share of failed
    operations than the parent's, or a ``claim`` that is not met."""
    reasons = [
        f"{g['workload']}: {g['metric']} median {g['change_median']} is outside "
        f"{g['bound']:.0%} of the parent's {g['parent_median']}"
        for g in regressions(summary)
    ]
    for workload, entry in summary.items():
        if not entry["correct_all"]:
            reasons.append(f"{workload}: a run was incorrect")
        share = entry["failed_share"]
        if share["change"] > share["parent"]:
            reasons.append(
                f"{workload}: failed share {share['change']} is above the parent's "
                f"{share['parent']}"
            )
    if claimed is not None and not claimed["met"]:
        reasons.append(
            f"{claimed['workload']}: the claim on {claimed['metric']} is not met"
        )
    return reasons


def src_lines(tree):
    """The newlines in the ``src/dualbench/*.py`` files of a tree."""
    package = Path(tree) / "src" / "dualbench"
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


def copy_listed_files(root, dest):
    """Copy every file of the working tree at the path ``root`` that git
    tracks or would track (``git ls-files --cached --others
    --exclude-standard``) into the path ``dest``, paths kept. A tracked
    file deleted from the working tree is left out, as a commit of the
    tree would leave it out."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True,
    ).stdout
    for name in filter(None, listed.decode("utf-8").split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


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


def run_reaped(argv, cwd, env):
    """Run ``argv`` to its end and reap it with ``os.wait4``: its exit code,
    standard output, standard error and its own resource usage, which
    ``RUSAGE_CHILDREN`` would mix with every other child's (its
    ``ru_maxrss`` is a maximum over all of them). On Linux the child's
    peak is at least this script's resident peak when it starts the
    child, since exec keeps the high-water mark of the memory it
    replaces."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return code, out.read().decode("utf-8"), err.read().decode("utf-8"), usage


def run_corpus(tree, size):
    """Per-suite seconds of one ``corpus-run``, and the CPU time and peak
    resident memory of its process. A run whose standard output holds no
    report raises CorpusRunFailed with its exit code and the tail of its
    standard error; a report with failing suites is a report (the run
    exits 1 then)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    code, stdout, stderr, usage = run_reaped(
        [
            sys.executable, "-c", CLI, "corpus-run", "--max-size", str(size),
            "--frame-size", "4", "--seed", "0", "--timings", "--format", "machine",
        ],
        tree, env,
    )
    try:
        timings = json.loads(stdout)["timings"]
    except (json.JSONDecodeError, KeyError):
        tail = "\n".join(stderr.strip().splitlines()[-STDERR_TAIL_LINES:])
        raise CorpusRunFailed(
            f"corpus-run --max-size {size} in {tree} exited {code} "
            f"with no report; its standard error ends:\n{tail}"
        ) from None
    out = {name: s["seconds"] for name, s in timings["suites"].items()}
    out["enumerate"] = timings["enumerate_seconds"]
    out["process_cpu_s"] = round(usage.ru_utime + usage.ru_stime, 3)
    # ru_maxrss is in kilobytes on Linux, as perfbench reads it
    out["process_peak_rss_mb"] = round(usage.ru_maxrss / 1024, 2)
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
        change_tree = scratch / "change"
        change_tree.mkdir()
        copy_listed_files(ROOT, change_tree)
        trees = {"parent": parent_tree, "change": change_tree}
        lines = {side: src_lines(trees[side]) for side in SIDES}
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
        ran_on = machine(change_tree, rows[0]["workload"], rows[0]["seed"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(rows)
    record = {
        "label": args.label,
        "change": args.change,
        "parent_commit": parent_commit,
        "how": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {RUN_SECONDS:g} "
            "--trace 0 in a git archive of the parent commit and in a copy of the files "
            "of the working tree that git ls-files --cached --others --exclude-standard "
            "lists, alternating which side runs first in each pair (the parent first on even "
            f"pairs); seeds from {args.seed}, one per pair. setup_s and run_s are scaled "
            "CPU medians as perfbench reports them; quartiles are inclusive"
        ),
        "machine": ran_on,
        "rows": rows,
        "summary": summary,
        "regressions": regressions(summary),
        "src_lines": lines,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim"] = claim(summary, workload, metric)
    if scale is not None:
        record["corpus_run_seconds"] = scale
    record["refusals"] = refusals(summary, record.get("claim"))
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for reason in record["refusals"]:
        print(f"refused: {reason}", file=sys.stderr)
    return 1 if record["refusals"] else 0


if __name__ == "__main__":
    sys.exit(main())
