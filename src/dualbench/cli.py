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
import importlib
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

# The SHA-256 of each input file comes from the interpreter's own module
# (_sha256 up to Python 3.11, _sha2 from 3.12), as random.py takes its
# sha512: hashlib loads OpenSSL's libcrypto, which costs every call
# megabytes and milliseconds for the same digest. Each of the two is a
# standard module of its own versions only, so both are imported by name.
for _module in ("_sha256", "_sha2"):
    try:
        sha256 = importlib.import_module(_module).sha256
        break
    except ImportError:
        pass
else:
    from hashlib import sha256


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
        parsed = parse_documents(data.decode("utf-8"), path)
        inputs.append(
            {
                "path": path,
                "sha256": sha256(data).hexdigest(),
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


def cmd_check_lattice(args, docset, report):
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


def cmd_axioms(args, docset, report):
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


def cmd_subalgebras(args, docset, report):
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


def cmd_homs(args, docset, report):
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


def cmd_power(args, docset, report, need_generators=False):
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


def cmd_generate(args, docset, report):
    return cmd_power(args, docset, report, need_generators=True)


def cmd_dualize(args, docset, report):
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


def cmd_reconstruct(args, docset, report):
    mode = as_mode(args.mode)
    space, truth = _space_for_mode(args, docset, mode, report)
    algebra = mode.reconstruct(space, truth)[0]
    if mode.axioms is None:
        report.record("construction_completed", PASS)
    else:
        for clause, res in sorted(mode.axioms(algebra).clauses.items()):
            report.record(f"clause_{clause}", res)
    report.details["carrier"] = list(algebra.elements)
    report.details["size"] = len(algebra)
    return report


def cmd_roundtrip(args, docset, report):
    mode = as_mode(args.mode)
    algebra = _algebra_for_mode(args, docset, mode, report)
    space = mode.dual(algebra)[0]
    report.merge_duality("algebra_", algebra_roundtrip(mode, algebra))
    report.merge_duality("space_", space_roundtrip(mode, space, algebra.truth))
    return report


def cmd_verify_space(args, docset, report):
    mode = as_mode(args.mode)
    space, _ = _space_for_mode(args, docset, mode, report)
    for tag, res in mode.verify_object(space).items():
        report.record(tag, res)
    report.details.update(mode.space_details(space))
    return report


def cmd_kripke_check(args, docset, report):
    doc = _first_doc(docset, ("algebra",))
    algebra = docset.algebra(doc.name, args.budget)
    report.record("kripke_condition", kripke_condition_check(algebra))
    report.details["algebra"] = algebra.name
    report.details["size"] = len(algebra)
    return report


def cmd_spectrum(args, docset, report):
    doc = _first_doc(docset, ("algebra", "lattice"))
    truth = _truth_of(args, docset, report)
    algebra = _bdl_or_algebra(args, docset, doc, truth)
    report.merge_duality("", spectrum_correspondence(algebra))
    return report


def cmd_corpus_run(args, docset, report):
    # the corpus runner reads no input files; it is loaded only by the
    # command that runs it, so the commands on single documents do not pay
    # for its import
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


def _at_least(least):
    """An argparse type: an integer of at least ``least``. corpus-run
    refuses the bounds that leave its corpus empty, over which every suite
    would pass vacuously, and every command a budget below 1, under which
    every enumeration would be reported as over budget."""

    def parse(text):
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message names it
    return parse


@functools.lru_cache(maxsize=None)
def _build_parser(command=None):
    """The argument parser of ``command``, or of every command when it is
    None, built once per process and command: parse_args keeps no state
    between calls, and building the parser of every command costs more
    than most commands. A one-command parser names every command in its
    usage line, so that its messages are the full parser's."""
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
        type=_at_least(1),
        default=DEFAULT_POWER_BUDGET,
        help="size budget for power carriers, up-set families and generated subalgebras",
    )
    common.add_argument(
        "--timings",
        action="store_true",
        help="include the command's wall-clock seconds in reports (corpus-run "
        "adds enumeration and per-suite CPU seconds and per-suite failure counts)",
    )
    # the full parser leaves the metavar unset, so that its "required" and
    # "invalid choice" errors name `command`
    metavar = None if command is None else "{" + ",".join(_HANDLERS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)

    def add(name, *, files=True, mode=False, truth=False, **kwargs):
        """The subparser of ``name``, or None when the parser is another
        command's."""
        if command not in (None, name):
            return None
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
    if p := add("axioms", help="check the lattice-valued algebra axioms"):
        p.add_argument(
            "--literal-iv",
            action="store_true",
            help="check the two-index form of clause (iv) instead of the amended one",
        )
    if p := add("subalgebras", help="enumerate subalgebras of a lattice document"):
        p.add_argument("--signature", choices=("bdl", "heyting", "lvl"), default="lvl")
    if p := add("homs", truth=True, help="enumerate homomorphisms"):
        p.add_argument("--into", metavar="FILE", help="target algebra document")
    add("power", help="materialize an algebra with a power presentation")
    add("generate", help="close a generator set inside a power")
    add("dualize", mode=True, truth=True, help="compute and verify a dual space")
    add("reconstruct", mode=True, truth=True, help="rebuild an algebra from a space")
    add("roundtrip", mode=True, truth=True, help="verify both natural maps")
    add("verify-space", mode=True, truth=True, help="verify space object laws")
    add("kripke-check", help="check the intuitionistic Kripke model condition")
    add("spectrum", truth=True, help="homs against prime filters")
    if p := add("corpus-run", files=False, help="run every suite over the enumerated corpus"):
        p.add_argument(
            "--max-size",
            type=_at_least(2),
            default=7,
            help="largest lattice carrier (every distributive lattice up to this "
            "size; 12 gives 341 lattices)",
        )
        p.add_argument("--seed", type=int, default=0, help="morphism sampling seed")
        p.add_argument(
            "--frame-size",
            type=_at_least(1),
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
    argv = sys.argv[1:] if argv is None else argv
    # a call builds the parser of its own command only; help, the version
    # and a first token that names no command go to the parser of them all
    parser = _build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    args = parser.parse_args(argv)
    if os.environ.get("DUALITY_BUDGET"):
        try:
            args.budget = _at_least(1)(os.environ["DUALITY_BUDGET"])
        except ValueError:
            parser.error("DUALITY_BUDGET is not an integer")
        except argparse.ArgumentTypeError as exc:
            parser.error(f"DUALITY_BUDGET {exc}")
    report = RunReport(command=args.command)
    started = time.perf_counter()
    # one verification scope per command; corpus-run, which reads no files,
    # opens one per instance itself, since a scope around the whole run
    # would keep every dual of the corpus alive until it ends
    corpus = args.command == "corpus-run"
    try:
        with contextlib.nullcontext() if corpus else verification_scope():
            docset = None
            if not corpus:
                docset, report.inputs[:] = _load(args.files)
            report = _HANDLERS[args.command](args, docset, report)
        if args.timings:
            report.timings = {
                **(report.timings or {}),
                "wall_seconds": round(time.perf_counter() - started, 3),
            }
        # the machine payload is built only where it is printed or written
        machine = args.format == "machine"
        if machine or args.report:
            payload = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(payload)
    except (DualityError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(payload if machine else _render_text(report))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
