#!/usr/bin/env python3
"""Run the whole verification battery over the enumerated corpus and print
a compact table, optionally dumping the machine report.

    python scripts/run_corpus.py --max-size 7 --frame-size 4 --seed 0
"""

import argparse
import json
import sys
import time

from dualbench.corpus import corpus_run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=7)
    parser.add_argument("--frame-size", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", help="also write the machine report")
    parser.add_argument(
        "--max-failures", type=int, default=4, help="failures to print per suite"
    )
    args = parser.parse_args()

    started = time.perf_counter()
    report = corpus_run(
        max_size=args.max_size, frame_worlds=args.frame_size, seed=args.seed
    )
    elapsed = time.perf_counter() - started

    width = max(len(s.name) for s in report.suites)
    for suite in report.suites:
        counts = " ".join(f"{k}={v}" for k, v in sorted(suite.counts.items()))
        print(f"{suite.name:{width}}  {'PASS' if suite.passed else 'FAIL'}  {counts}")
        for failure in suite.failures[: args.max_failures]:
            print(f"{'':{width}}    {failure}")
        if suite.failure_count > args.max_failures:
            print(f"{'':{width}}    ... {suite.failure_count - args.max_failures} more")
        for note in suite.notes:
            print(f"{'':{width}}    note: {note}")
    print(f"\n{'PASS' if report.passed else 'FAIL'} in {elapsed:.2f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"machine report written to {args.json}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
