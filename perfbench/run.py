"""The dualbench benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then runs passes of it, each
in a fresh interpreter, until ``--seconds`` have gone by (and at least
``MIN_PASSES`` have run), and checks every pass's answers against the
references in ``workloads.py``. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count the instances
checked over all passes, and ``metrics`` holds the medians over passes of
the end-to-end metrics (``--trace 0``) or of the per-layer metrics
(``--trace 1``) named in BENCHMARK.json. End-to-end times are CPU times of
the pass process scaled by the speed of the machine during that pass, as
measured by the worker's reference work (see README.md). With ``--trace 1`` traced and
untraced passes alternate, so that ``trace.overhead_s`` compares the two.

A record of the run (machine, every pass, every problem) is written to
``perfbench/out/``, with the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 3
# CPU seconds the worker's reference work takes on the machine the baseline
# was measured on (a 2-vCPU Intel Xeon virtual machine). Pass times are
# scaled by this over the reference time of the same pass.
REFERENCE_NOMINAL_S = 0.15
# A pass still running this long after the start is killed, so that a run
# ends within its 180 s limit even when the program hangs.
RUN_DEADLINE_S = 170


def _machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
    }


def _run_pass(inputs_path, workdir, index, spans_path, deadline):
    """One pass in a fresh interpreter; None when it failed to finish."""
    out = workdir / f"pass{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(inputs_path), str(out)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"pass {index} killed at the run deadline", file=sys.stderr)
        return None
    if code != 0 or not out.is_file():
        print(f"pass {index} exited with code {code}", file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    reference = (data["reference_before"] + data["reference_after"]) / 2
    data["scale"] = REFERENCE_NOMINAL_S / reference
    # CPU time from interpreter start, less the reference work before set-up
    data["setup_cpu_s"] = data["ready_cpu"] - data["reference_before"]
    data["run_cpu_s"] = data["done_cpu"] - data["ready_cpu"]
    data["setup_s"] = data["setup_cpu_s"] * data["scale"]
    data["run_s"] = data["run_cpu_s"] * data["scale"]
    data["run_wall_s"] = data["done"] - data["ready"]
    data["peak_rss_mb"] = data["peak_rss_kb"] / 1024
    data["wall_s"] = time.monotonic() - spawned
    return data


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dualbench" / "__init__.py").is_file():
        print(f"error: no dualbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ledger = workloads.load_ledger()

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    try:
        inputs = workloads.generate(args.workload, args.seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs), encoding="utf-8")

        passes = []
        attempted = failed = 0
        problems = []
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            data = _run_pass(
                inputs_path, workdir, len(passes), spans_path if traced else None, deadline
            )
            if data is None:
                count = workloads.instance_count(inputs)
                attempted += count
                failed += count
                problems.append(f"pass {len(passes)}: did not finish")
                break
            passes.append((traced, data))
            for instance, problem in workloads.check(inputs, data["answers"], ledger):
                attempted += 1
                if problem is not None:
                    failed += 1
                    problems.append(f"pass {len(passes) - 1}: {instance}: {problem}")
            now = time.monotonic()
            enough = len(passes) >= (2 if args.trace else MIN_PASSES)
            if (now - started >= args.seconds and enough) or (
                now + 2 * data["wall_s"] >= deadline
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [d for t, d in passes if not t]
    traced_passes = [d for t, d in passes if t]
    if not plain or (args.trace and not traced_passes):
        print("error: no pass finished", file=sys.stderr)
        for line in problems[:20]:
            print(line, file=sys.stderr)
        return 1

    median = statistics.median
    if args.trace:
        # a layer a workload never calls has no spans, hence 0
        values = {
            m["name"]: median([d["layers"].get(m["name"], 0) for d in traced_passes])
            for m in wanted
        }
        values["trace.overhead_s"] = median([d["run_s"] for d in traced_passes]) - median(
            [d["run_s"] for d in plain]
        )
    else:
        values = {m["name"]: median([d[m["name"]] for d in plain]) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "samples": len(traced_passes) if args.trace else len(plain),
        "passes": [
            {
                "traced": t,
                "setup_s": d["setup_s"],
                "run_s": d["run_s"],
                "scale": d["scale"],
                "setup_cpu_s": d["setup_cpu_s"],
                "run_cpu_s": d["run_cpu_s"],
                "run_wall_s": d["run_wall_s"],
                "peak_rss_mb": d["peak_rss_mb"],
            }
            for t, d in passes
        ],
        "metrics": metrics,
        "problems": problems,
    }
    record_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for line in problems[:20]:
        print(line, file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {record['samples']} samples, "
        f"{failed}/{attempted} instances failed; record in {record_path.relative_to(ROOT)}"
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
