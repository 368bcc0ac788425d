"""Command-line interface: load documents, dualize, reconstruct, verify,
and report.

Exit codes: 0 when every mathematical verdict passes, 1 when at least one
fails (a report is still produced), 2 on input or usage errors. Machine
reports are canonical JSON and contain no timings unless requested, so two
runs over identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time

from . import __version__
from .algebra import (
    check_lvl_axioms,
    enumerate_homs,
    enumerate_subalgebras,
    make_bdl,
    make_heyting,
    make_heyting_ispi,
    make_lvl,
)
from .documents import DocumentSet, parse_documents
from .duality import (
    MODES,
    PBS,
    algebra_roundtrip,
    as_mode,
    space_roundtrip,
    spectrum_correspondence,
    verification_scope,
)
from .errors import DocumentError, DualityError, LatticeError
from .kripke import DEFAULT_POWER_BUDGET, kripke_condition_check
from .lattice import chain_lattice
from .reporting import PASS, _Record, failed


class RunReport(_Record):
    _fields = ("command", "inputs", "verdicts", "witnesses", "details", "timings")

    def __init__(
        self,
        command: str,
        inputs: list | None = None,
        verdicts: dict | None = None,
        witnesses: list | None = None,
        details: dict | None = None,
        timings: dict | None = None,
    ):
        self.command = command
        self.inputs = [] if inputs is None else inputs
        self.verdicts = {} if verdicts is None else verdicts
        self.witnesses = [] if witnesses is None else witnesses
        self.details = {} if details is None else details
        self.timings = timings

    @property
    def passed(self):
        return all(self.verdicts.values())

    def record(self, check, result):
        """Fold a CheckResult into the report."""
        self.verdicts[check] = result.passed
        if not result.passed and result.witness:
            self.witnesses.append({"check": check, "witness": result.witness})

    def merge_duality(self, prefix, rep):
        for k, v in sorted(rep.verdicts.items()):
            self.verdicts[f"{prefix}{k}"] = v
        for k, w in sorted(rep.witnesses.items()):
            self.witnesses.append({"check": f"{prefix}{k}", "witness": w})
        for k, v in sorted(rep.cardinalities.items()):
            self.details[f"{prefix}{k}"] = v

    def to_dict(self):
        out = {
            "command": self.command,
            "inputs": self.inputs,
            "verdicts": dict(sorted(self.verdicts.items())),
            "witnesses": list(self.witnesses),
            "details": {k: self.details[k] for k in sorted(self.details)},
            "passed": self.passed,
        }
        if self.timings is not None:
            out["timings"] = self.timings
        return out


def _load(paths):
    docs = []
    inputs = []
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        parsed = parse_documents(data.decode("utf-8"))
        inputs.append(
            {
                "path": path,
                "sha256": hashlib.sha256(data).hexdigest(),
                "documents": [d.name for d in parsed],
            }
        )
        docs.extend(parsed)
    return DocumentSet(docs), inputs


def _first_doc(docset, kinds):
    for doc in docset.docs.values():
        if doc.kind in kinds:
            return doc
    raise DocumentError(
        "schema-violation",
        f"no document of kind {' or '.join(kinds)} among the inputs",
    )


def _load_beside(path, docset, report):
    """Load a further input file and add its documents to the command's,
    whose own documents win a clash of names."""
    extra_set, extra_inputs = _load([path])
    report.inputs.extend(extra_inputs)
    for name, d in extra_set.docs.items():
        docset.docs.setdefault(name, d)
    return extra_set


def _truth_of(args, docset, report):
    if getattr(args, "truth", None):
        doc = _first_doc(_load_beside(args.truth, docset, report), ("lattice",))
        return docset.lattice(doc.name)
    return chain_lattice(2)


def _algebra_for_mode(args, docset, mode, report):
    """The algebra a command operates on: an algebra document directly, or a
    lattice document wrapped for the requested mode, over the truth lattice
    the mode reads beside it."""
    doc = _first_doc(docset, ("algebra", "lattice"))
    if doc.kind == "algebra":
        return docset.algebra(doc.name, args.budget)
    lattice = docset.lattice(doc.name)
    truth = _truth_of(args, docset, report) if mode.space_truth is None else None
    return mode.from_lattice(lattice, truth)


def _space_for_mode(args, docset, mode, report):
    """The space a command operates on and the truth lattice to read it over."""
    space = docset.space(_first_doc(docset, ("space",)).name)
    truth = _truth_of(args, docset, report) if mode.space_truth is None else None
    return space, mode.check_space(space, truth)


def cmd_check_lattice(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("lattice",))
    try:
        lattice = docset.lattice(doc.name)
    except LatticeError as exc:
        report.record("lattice_laws", failed(str(exc)))
        report.details["violation"] = exc.code
        return report
    report.record("lattice_laws", PASS)
    report.details["elements"] = list(lattice.elements)
    report.details["bottom"] = lattice.elements[lattice.bottom]
    report.details["top"] = lattice.elements[lattice.top]
    return report


def cmd_axioms(args, report):
    docset, report.inputs[:] = _load(args.files)
    # the lattice-valued algebra a pbs dual is taken of
    algebra = _algebra_for_mode(args, docset, PBS, report)
    axioms = check_lvl_axioms(algebra, literal_iv=args.literal_iv)
    for clause, res in sorted(axioms.clauses.items()):
        report.record(f"clause_{clause}", res)
    report.details["literal_iv"] = args.literal_iv
    report.details["algebra"] = algebra.name
    return report


# the algebra of each signature on a lattice over itself
_ON_ITSELF = {
    "bdl": lambda lattice: make_bdl(lattice, lattice),
    "heyting": lambda lattice: make_heyting(lattice, lattice),
    "lvl": make_lvl,
    "isp_i": lambda lattice: make_heyting_ispi(lattice, lattice),
}


def cmd_subalgebras(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("lattice",))
    lattice = docset.lattice(doc.name)
    subs = enumerate_subalgebras(_ON_ITSELF[args.signature](lattice))
    report.record("enumeration_completed", PASS)
    report.details["signature"] = args.signature
    report.details["count"] = len(subs)
    report.details["subalgebras"] = [
        "{" + ",".join(lattice.names(s)) + "}" for s in subs
    ]
    return report


def _bdl_or_algebra(args, docset, doc, truth):
    """A lattice document as a bdl algebra over the truth lattice, or the
    algebra document."""
    if doc.kind == "lattice":
        return make_bdl(docset.lattice(doc.name), truth)
    return docset.algebra(doc.name, args.budget)


def cmd_homs(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("algebra", "lattice"))
    truth = _truth_of(args, docset, report)
    source = _bdl_or_algebra(args, docset, doc, truth)
    if args.into:
        tdoc = _first_doc(_load_beside(args.into, docset, report), ("algebra", "lattice"))
        target = _bdl_or_algebra(args, docset, tdoc, truth)
    else:
        target = _ON_ITSELF[source.signature](source.truth)
    homs = enumerate_homs(source, target)
    report.record("enumeration_completed", PASS)
    report.details["count"] = len(homs)
    report.details["homs"] = [h.describe() for h in homs]
    return report


def cmd_power(args, report, need_generators=False):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("algebra",))
    if doc.get("presentation") != "power":
        raise DocumentError(
            "schema-violation", f"algebra {doc.name!r} carries no power presentation"
        )
    if need_generators and doc.get("generators") is None:
        raise DocumentError(
            "schema-violation", f"algebra {doc.name!r} declares no generators"
        )
    algebra = docset.algebra(doc.name, args.budget)
    report.record("construction_completed", PASS)
    report.details["carrier"] = list(algebra.elements)
    report.details["size"] = len(algebra)
    report.details["worlds"] = list(algebra.presentation.frame.elements)
    return report


def cmd_generate(args, report):
    return cmd_power(args, report, need_generators=True)


def cmd_dualize(args, report):
    docset, report.inputs[:] = _load(args.files)
    mode = as_mode(args.mode)
    algebra = _algebra_for_mode(args, docset, mode, report)
    if mode.axioms is not None:
        # the dual is only meaningful over an algebra satisfying its axioms
        clauses = mode.axioms(algebra).clauses
        bad = next((k for k, r in sorted(clauses.items()) if not r.passed), None)
        report.record(
            f"{algebra.signature}_axioms",
            PASS if bad is None else failed(f"clause ({bad}): {clauses[bad].witness}"),
        )
        if bad is not None:
            return report
    space = mode.dual(algebra)[0]
    for tag, res in mode.verify_object(space).items():
        report.record(tag, res)
    for tag, check in mode.dual_checks:
        report.record(tag, check(algebra))
    report.details.update(mode.describe(space))
    return report


def cmd_reconstruct(args, report):
    docset, report.inputs[:] = _load(args.files)
    mode = as_mode(args.mode)
    space, truth = _space_for_mode(args, docset, mode, report)
    algebra = mode.reconstruct(space, truth)[0]
    if mode.axioms is None:
        report.record("construction_completed", PASS)
    else:
        for clause, res in sorted(mode.axioms(algebra).clauses.items()):
            report.record(f"clause_{clause}", res)
    report.details.update(mode.rebuilt_details(space, truth))
    report.details["carrier"] = list(algebra.elements)
    report.details["size"] = len(algebra)
    return report


def cmd_roundtrip(args, report):
    docset, report.inputs[:] = _load(args.files)
    mode = as_mode(args.mode)
    algebra = _algebra_for_mode(args, docset, mode, report)
    space = mode.dual(algebra)[0]
    report.merge_duality("algebra_", algebra_roundtrip(mode, algebra))
    report.merge_duality("space_", space_roundtrip(mode, space, algebra.truth))
    return report


def cmd_verify_space(args, report):
    docset, report.inputs[:] = _load(args.files)
    mode = as_mode(args.mode)
    space, _ = _space_for_mode(args, docset, mode, report)
    for tag, res in mode.verify_object(space).items():
        report.record(tag, res)
    report.details.update(mode.space_details(space))
    return report


def cmd_kripke_check(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("algebra",))
    algebra = docset.algebra(doc.name, args.budget)
    report.record("kripke_condition", kripke_condition_check(algebra))
    report.details["algebra"] = algebra.name
    report.details["size"] = len(algebra)
    return report


def cmd_spectrum(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("algebra", "lattice"))
    truth = _truth_of(args, docset, report)
    algebra = _bdl_or_algebra(args, docset, doc, truth)
    report.merge_duality("", spectrum_correspondence(algebra))
    return report


def cmd_corpus_run(args, report):
    # the corpus runner is loaded only by the command that runs it, so the
    # commands on single documents do not pay for its import
    from .corpus import corpus_run

    rep = corpus_run(
        max_size=args.max_size,
        frame_worlds=args.frame_size,
        seed=args.seed,
        budget=args.budget,
    )
    for suite in rep.suites:
        report.verdicts[suite.name] = suite.passed
        for f in suite.failures:
            report.witnesses.append({"check": suite.name, "witness": f})
        report.details[suite.name] = {
            "counts": dict(sorted(suite.counts.items())),
            "notes": list(suite.notes),
        }
    report.details["max_size"] = args.max_size
    report.details["frame_worlds"] = args.frame_size
    report.details["seed"] = args.seed
    if args.timings:
        # failure counts ride with the timings: the default report lists
        # at most 25 witnesses per suite and must stay byte-identical
        report.timings = {
            "enumerate_seconds": round(rep.enumerate_seconds, 3),
            "suites": {
                suite.name: {
                    "failure_count": suite.failure_count,
                    "seconds": round(suite.seconds, 3),
                }
                for suite in rep.suites
            },
        }
    return report


_HANDLERS = {
    "check-lattice": cmd_check_lattice,
    "axioms": cmd_axioms,
    "subalgebras": cmd_subalgebras,
    "homs": cmd_homs,
    "power": cmd_power,
    "generate": cmd_generate,
    "dualize": cmd_dualize,
    "reconstruct": cmd_reconstruct,
    "roundtrip": cmd_roundtrip,
    "verify-space": cmd_verify_space,
    "kripke-check": cmd_kripke_check,
    "spectrum": cmd_spectrum,
    "corpus-run": cmd_corpus_run,
}


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and building it costs more than most commands."""
    parser = argparse.ArgumentParser(
        prog="dualbench",
        description="finite duality workbench: dualize, reconstruct, verify",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", metavar="PATH", help="write a machine-readable report")
    common.add_argument(
        "--format", choices=("text", "machine"), default="text", help="stdout format"
    )
    common.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_POWER_BUDGET,
        help="size budget for power carriers, up-set families and generated subalgebras",
    )
    common.add_argument(
        "--timings",
        action="store_true",
        help="include the command's wall-clock seconds in reports (corpus-run "
        "adds enumeration and per-suite CPU seconds and per-suite failure counts)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, files=True, mode=False, truth=False, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        if files:
            p.add_argument("files", nargs="+", metavar="FILE")
        if mode:
            p.add_argument("--mode", choices=tuple(MODES), required=True)
        if truth:
            p.add_argument(
                "--truth",
                metavar="FILE",
                help="lattice document for the dualizing object (default: the two-chain)",
            )
        return p

    add("check-lattice", help="validate the lattice laws of a document")
    p = add("axioms", truth=False, help="check the lattice-valued algebra axioms")
    p.add_argument(
        "--literal-iv",
        action="store_true",
        help="check the two-index form of clause (iv) instead of the amended one",
    )
    p = add("subalgebras", help="enumerate subalgebras of a lattice document")
    p.add_argument(
        "--signature", choices=("bdl", "heyting", "lvl"), default="lvl"
    )
    p = add("homs", truth=True, help="enumerate homomorphisms")
    p.add_argument("--into", metavar="FILE", help="target algebra document")
    add("power", help="materialize a power-presented algebra")
    add("generate", help="close a generator set inside a power")
    add("dualize", mode=True, truth=True, help="compute and verify a dual space")
    add("reconstruct", mode=True, truth=True, help="rebuild an algebra from a space")
    add("roundtrip", mode=True, truth=True, help="verify both natural maps")
    add("verify-space", mode=True, truth=True, help="verify space object laws")
    add("kripke-check", help="check the intuitionistic Kripke model condition")
    add("spectrum", truth=True, help="homs against prime filters")
    p = add("corpus-run", files=False, help="run every suite over the enumerated corpus")
    p.add_argument(
        "--max-size",
        type=int,
        default=7,
        help="largest lattice carrier (every distributive lattice up to this "
        "size; 12 gives 341 lattices)",
    )
    p.add_argument("--seed", type=int, default=0, help="morphism sampling seed")
    p.add_argument(
        "--frame-size",
        type=int,
        default=4,
        help="largest frame (criteria pin lattices at 7 and frames at 4, "
        "so the bounds are separate knobs)",
    )
    return parser


def _render_text(report):
    lines = [f"command: {report.command}"]
    for inp in report.inputs:
        lines.append(
            f"input: {inp['path']} sha256={inp['sha256'][:16]}... "
            f"docs={','.join(inp['documents'])}"
        )
    for k in sorted(report.verdicts):
        lines.append(f"  {k}: {'PASS' if report.verdicts[k] else 'FAIL'}")
    for w in report.witnesses:
        lines.append(f"  witness [{w['check']}]: {w['witness']}")
    for k in sorted(report.details):
        v = report.details[k]
        if isinstance(v, list) and len(v) > 12:
            v = v[:12] + [f"... {len(v) - 12} more"]
        lines.append(f"  {k}: {v}")
    if report.timings:
        lines.append(f"  timings: {report.timings}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if os.environ.get("DUALITY_BUDGET"):
        try:
            args.budget = int(os.environ["DUALITY_BUDGET"])
        except ValueError:
            print("error: DUALITY_BUDGET is not an integer", file=sys.stderr)
            return 2
    report = RunReport(command=args.command)
    started = time.perf_counter()
    # one verification scope per command; corpus-run opens one per instance
    # itself, since a scope around the whole run would keep every dual of
    # the corpus alive until it ends
    if args.command == "corpus-run":
        scope = contextlib.nullcontext()
    else:
        scope = verification_scope()
    try:
        with scope:
            report = _HANDLERS[args.command](args, report)
    except (DualityError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        report.timings = {
            **(report.timings or {}),
            "wall_seconds": round(time.perf_counter() - started, 3),
        }
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.format == "machine":
        sys.stdout.write(payload)
    else:
        sys.stdout.write(_render_text(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
