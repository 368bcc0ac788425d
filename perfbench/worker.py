"""One pass of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py INPUTS.json OUT.json [SPANS.tsv]

Reads the generated inputs, sets the workload up (import and any corpus
enumeration), runs it, and writes to OUT.json the process's CPU time when
set-up was done and when the run was done (``time.process_time``, which
counts from the start of the interpreter), the same two moments on the
``time.monotonic`` clock (comparable with the parent's), the CPU time of the
reference work before set-up and after the run, the peak resident memory and
the program's raw answers. Answers are summarised after ``done``, so the
timed region holds only the program's own work. With a spans path the
pass is traced: every dualbench layer is wrapped before set-up, the spans are
written to that path and per-layer metrics are added to OUT.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WIDE_COMMANDS

ROOT = Path(__file__).resolve().parents[1]

REFERENCE_BLOCKS = 50


def reference_work():
    """CPU seconds of a fixed piece of pure-Python work of the kind the
    program does (dict updates, small frozensets, a keyed sort): how fast
    the machine runs Python at this moment. It holds little memory, so it
    leaves the peak resident memory of the pass alone."""
    started = time.process_time()
    table = {}
    for block in range(REFERENCE_BLOCKS):
        sets = []
        for i in range(1000):
            table[i & 1023] = table.get((i * 7 + block) & 1023, 0) + 1
            sets.append(frozenset(range(i % 13, i % 13 + 9)))
        sets.sort(key=lambda s: (len(s), sorted(s)))
    return time.process_time() - started


def _setup_corpus(inputs):
    from dualbench.corpus import corpus_frames, corpus_lattices

    return {
        "lattices": corpus_lattices(inputs["max_size"]),
        "frames": corpus_frames(inputs["frame_worlds"]),
    }


def _run_corpus(state, inputs):
    from dualbench.corpus import corpus_run

    state["report"] = corpus_run(
        max_size=inputs["max_size"],
        frame_worlds=inputs["frame_worlds"],
        seed=inputs["seed"],
    )


def _answers_corpus(state):
    report = state["report"].to_dict()
    report.pop("seed")
    return {
        "report": report,
        "lattices": [[list(row) for row in lat.leq] for lat in state["lattices"]],
        "frames": [len(frame) for frame in state["frames"]],
    }


def _setup_powers(inputs):
    from dualbench.corpus import corpus_frames
    from dualbench.kripke import build_frame
    from dualbench.lattice import chain_lattice

    seeded = []
    for frame in inputs["frames"]:
        worlds = frame["worlds"]
        pairs = [
            (worlds[i], worlds[j])
            for i, row in enumerate(frame["leq"])
            for j, related in enumerate(row)
            if related and i != j
        ]
        seeded.append(build_frame(worlds, pairs, name=frame["name"]))
    return {
        "frames": corpus_frames(inputs["frame_worlds"]),
        "seeded": seeded,
        "truth": chain_lattice(2),
    }


def _run_powers(state, inputs):
    from dualbench.corpus import suite_heyting_coincidence, suite_ispi_roundtrip
    from dualbench.duality import (
        check_downclosure_identity,
        check_esakia_algebra_roundtrip,
        check_esakia_space_roundtrip,
        esakia_dual,
    )
    from dualbench.kripke import kripke_condition_check, upset_algebra
    from dualbench.topology import verify_hspa_object

    truth = state["truth"]
    state["suites"] = [
        suite_ispi_roundtrip(state["frames"]),
        suite_heyting_coincidence(state["frames"]),
    ]
    answers = []
    for frame in state["seeded"]:
        try:
            algebra = upset_algebra(truth, frame)
            space = esakia_dual(algebra)
            verdicts = {
                "kripke_condition": kripke_condition_check(algebra).passed,
                "hspa_object": verify_hspa_object(space).passed,
                "downclosure_identity": check_downclosure_identity(algebra).passed,
                "algebra_roundtrip": check_esakia_algebra_roundtrip(algebra).passed,
                "space_roundtrip": check_esakia_space_roundtrip(space, truth).passed,
            }
            answers.append(
                {"size": len(algebra), "points": len(space.points), "verdicts": verdicts}
            )
        except Exception as exc:  # a raising instance is a failed instance
            answers.append({"error": f"{type(exc).__name__}: {exc}"})
    state["answers"] = answers


def _answers_powers(state):
    return {
        "suites": [suite.to_dict() for suite in state["suites"]],
        "frames": [[list(row) for row in frame.leq] for frame in state["frames"]],
        "seeded": state["answers"],
    }


def _setup_wide(inputs):
    from dualbench import cli

    return {"main": cli.main}


def _run_wide(state, inputs):
    runs = []
    for doc in inputs["documents"]:
        for command, mode in WIDE_COMMANDS:
            buf = io.StringIO()
            argv = [command, "--mode", mode, "--format", "machine", doc["path"]]
            try:
                with contextlib.redirect_stdout(buf):
                    code = state["main"](argv)
            except Exception as exc:  # a raising instance is a failed instance
                code = f"{type(exc).__name__}: {exc}"
            runs.append((code, buf.getvalue()))
    state["runs"] = runs


def _answers_wide(state):
    per_doc = len(WIDE_COMMANDS)
    runs = []
    for code, text in state["runs"]:
        try:
            report = json.loads(text) if code in (0, 1) else None
        except json.JSONDecodeError:
            report = None
        runs.append({"exit": code, "report": report})
    return {
        "documents": [runs[i : i + per_doc] for i in range(0, len(runs), per_doc)]
    }


RUNNERS = {
    "corpus": (_setup_corpus, _run_corpus, _answers_corpus),
    "powers": (_setup_powers, _run_powers, _answers_powers),
    "wide-duals": (_setup_wide, _run_wide, _answers_wide),
}


def main(argv):
    inputs_path, out_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    setup, run, answers = RUNNERS[inputs["workload"]]

    reference_before = reference_work()
    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        span = tracer.span
    started_cpu = time.process_time()
    with span("trace.setup"):
        state = setup(inputs)
    ready, ready_cpu = time.monotonic(), time.process_time()
    with span("trace.run"):
        run(state, inputs)
    done, done_cpu = time.monotonic(), time.process_time()
    reference_after = reference_work()

    out = {
        "started_cpu": started_cpu,
        "ready": ready,
        "done": done,
        "ready_cpu": ready_cpu,
        "done_cpu": done_cpu,
        "reference_before": reference_before,
        "reference_after": reference_after,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "answers": answers(state),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
