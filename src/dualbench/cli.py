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
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .algebra import (
    check_lvl_axioms,
    enumerate_homs,
    make_bdl,
    make_heyting,
    make_heyting_ispi,
    make_lvl,
)
from .corpus import corpus_run
from .documents import DocumentSet, parse_documents
from .duality import (
    check_downclosure_identity,
    check_esakia_algebra_roundtrip,
    check_esakia_space_roundtrip,
    check_implication_preimage_identity,
    check_lvl_algebra_roundtrip,
    check_lvl_space_roundtrip,
    check_priestley_algebra_roundtrip,
    check_priestley_space_roundtrip,
    check_second_topology_inclusion,
    esakia_dual,
    esakia_reconstruct,
    lvl_dual,
    lvl_reconstruct,
    priestley_dual,
    priestley_reconstruct,
    spectrum_correspondence,
    verification_scope,
)
from .errors import (
    BudgetExceeded,
    DocumentError,
    DualityError,
    LatticeError,
    SpaceError,
)
from .kripke import DEFAULT_POWER_BUDGET, kripke_condition_check
from .lattice import chain_lattice, enumerate_subalgebras
from .topology import (
    OrderedSpace,
    PbsObject,
    is_pairwise_hausdorff,
    verify_hspa_object,
    verify_pbs_object,
    verify_pspa_object,
)


@dataclass
class RunReport:
    command: str
    inputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    timings: dict | None = None

    @property
    def passed(self):
        return all(self.verdicts.values())

    def record(self, check, result):
        """Fold a CheckResult (or a plain bool) into the report."""
        passed = bool(result) if isinstance(result, bool) else result.passed
        self.verdicts[check] = passed
        witness = None if isinstance(result, bool) else result.witness
        if not passed and witness:
            self.witnesses.append({"check": check, "witness": witness})

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


def _truth_of(args, docset):
    if getattr(args, "truth", None):
        truth_set, extra_inputs = _load([args.truth])
        doc = _first_doc(truth_set, ("lattice",))
        for name, d in truth_set.docs.items():
            if name not in docset.docs:
                docset.docs[name] = d
        return docset.lattice(doc.name), extra_inputs
    return chain_lattice(2), []


def _algebra_for_mode(args, docset, mode, report):
    """The algebra a command operates on: an algebra document directly, or a
    lattice document wrapped for the requested mode."""
    doc = _first_doc(docset, ("algebra", "lattice"))
    if doc.kind == "algebra":
        return docset.algebra(doc.name, args.budget)
    lattice = docset.lattice(doc.name)
    if mode == "pbs":
        return make_lvl(lattice)
    truth, extra = _truth_of(args, docset)
    report.inputs.extend(extra)
    if mode == "pspa":
        return make_bdl(lattice, truth)
    return make_heyting_ispi(lattice, truth)


def _space_for_mode(args, docset, mode, report):
    doc = _first_doc(docset, ("space",))
    space = docset.space(doc.name)
    if mode == "pbs":
        if not isinstance(space, PbsObject):
            raise DocumentError(
                "schema-violation",
                f"space {doc.name!r} carries no two-topology structure with an "
                "assignment; pbs mode needs one",
            )
        return space, None
    if not isinstance(space, OrderedSpace):
        raise DocumentError(
            "schema-violation",
            f"space {doc.name!r} is bitopological; {mode} mode needs an ordered space",
        )
    truth, extra = _truth_of(args, docset)
    report.inputs.extend(extra)
    return space, truth


def cmd_check_lattice(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("lattice",))
    try:
        lattice = docset.lattice(doc.name)
    except LatticeError as exc:
        report.record("lattice_laws", False)
        report.witnesses.append({"check": "lattice_laws", "witness": str(exc)})
        report.details["violation"] = exc.code
        return report
    report.record("lattice_laws", True)
    report.details["elements"] = list(lattice.elements)
    report.details["bottom"] = lattice.elements[lattice.bottom]
    report.details["top"] = lattice.elements[lattice.top]
    return report


def cmd_axioms(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("algebra", "lattice"))
    if doc.kind == "lattice":
        algebra = make_lvl(docset.lattice(doc.name))
    else:
        algebra = docset.algebra(doc.name, args.budget)
    axioms = check_lvl_axioms(algebra, literal_iv=args.literal_iv)
    for clause, res in sorted(axioms.clauses.items()):
        report.record(f"clause_{clause}", res)
    report.details["literal_iv"] = args.literal_iv
    report.details["algebra"] = algebra.name
    return report


def cmd_subalgebras(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("lattice",))
    lattice = docset.lattice(doc.name)
    subs = enumerate_subalgebras(lattice, args.signature)
    report.record("enumeration_completed", True)
    report.details["signature"] = args.signature
    report.details["count"] = len(subs)
    report.details["subalgebras"] = [
        "{" + ",".join(lattice.names(s)) + "}" for s in subs
    ]
    return report


def cmd_homs(args, report):
    docset, report.inputs[:] = _load(args.files)
    doc = _first_doc(docset, ("algebra", "lattice"))
    truth, extra = _truth_of(args, docset)
    report.inputs.extend(extra)
    if doc.kind == "lattice":
        source = make_bdl(docset.lattice(doc.name), truth)
    else:
        source = docset.algebra(doc.name, args.budget)
    if args.into:
        into_set, into_inputs = _load([args.into])
        report.inputs.extend(into_inputs)
        for name, d in into_set.docs.items():
            if name not in docset.docs:
                docset.docs[name] = d
        tdoc = _first_doc(into_set, ("algebra", "lattice"))
        if tdoc.kind == "lattice":
            target = make_bdl(docset.lattice(tdoc.name), truth)
        else:
            target = docset.algebra(tdoc.name, args.budget)
    else:
        t = source.truth
        target = {
            "bdl": lambda: make_bdl(t, t),
            "heyting": lambda: make_heyting(t, t),
            "lvl": lambda: make_lvl(t),
            "isp_i": lambda: make_heyting_ispi(t, t),
        }[source.signature]()
    homs = enumerate_homs(source, target)
    report.record("enumeration_completed", True)
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
    report.record("construction_completed", True)
    report.details["carrier"] = list(algebra.elements)
    report.details["size"] = len(algebra)
    report.details["worlds"] = list(algebra.presentation.frame.elements)
    return report


def cmd_generate(args, report):
    return cmd_power(args, report, need_generators=True)


def cmd_dualize(args, report):
    docset, report.inputs[:] = _load(args.files)
    algebra = _algebra_for_mode(args, docset, args.mode, report)
    if args.mode == "pbs":
        # the dual is only meaningful over an algebra satisfying its axioms
        axioms = check_lvl_axioms(algebra)
        if not axioms.passed:
            clause = next(k for k, r in sorted(axioms.clauses.items()) if not r.passed)
            report.record("lvl_axioms", False)
            report.witnesses.append(
                {
                    "check": "lvl_axioms",
                    "witness": f"clause ({clause}): {axioms.clauses[clause].witness}",
                }
            )
            return report
        report.record("lvl_axioms", True)
        obj = lvl_dual(algebra)
        for tag, res in verify_pbs_object(obj).items():
            report.record(tag, res)
        report.details["points"] = list(obj.space.points)
        report.details["opens_1"] = len(obj.space.topo1.opens)
        report.details["opens_2"] = len(obj.space.topo2.opens)
        incl = check_second_topology_inclusion(obj)
        report.details["second_topology_inside_first"] = incl.passed
        return report
    if args.mode == "pspa":
        space = priestley_dual(algebra)
        report.record("pspa_object", verify_pspa_object(space))
    else:
        space = esakia_dual(algebra)
        report.record("pspa_object", verify_pspa_object(space))
        try:
            report.record("hspa_object", verify_hspa_object(space))
        except SpaceError as exc:
            report.record("hspa_object", False)
            report.witnesses.append({"check": "hspa_object", "witness": str(exc)})
        report.record("downclosure_identity", check_downclosure_identity(algebra))
    report.details["points"] = list(space.points)
    report.details["opens"] = len(space.topo.opens)
    report.details["order"] = [
        f"{space.points[i]}<={space.points[j]}"
        for i in range(len(space.points))
        for j in range(len(space.points))
        if i != j and space.order.leq[i][j]
    ]
    return report


def cmd_reconstruct(args, report):
    docset, report.inputs[:] = _load(args.files)
    space, truth = _space_for_mode(args, docset, args.mode, report)
    if args.mode == "pbs":
        algebra = lvl_reconstruct(space)
        axioms = check_lvl_axioms(algebra)
        for clause, res in sorted(axioms.clauses.items()):
            report.record(f"clause_{clause}", res)
    elif args.mode == "pspa":
        algebra = priestley_reconstruct(space, truth)
        report.record("construction_completed", True)
    else:
        algebra = esakia_reconstruct(space, truth)
        report.record("construction_completed", True)
        claim = check_implication_preimage_identity(space, truth)
        report.details["implication_preimage_identity"] = (
            "holds" if claim.passed else claim.witness
        )
    report.details["carrier"] = list(algebra.elements)
    report.details["size"] = len(algebra)
    return report


def cmd_roundtrip(args, report):
    docset, report.inputs[:] = _load(args.files)
    algebra = _algebra_for_mode(args, docset, args.mode, report)
    if args.mode == "pbs":
        obj = lvl_dual(algebra)
        report.merge_duality("algebra_", check_lvl_algebra_roundtrip(algebra))
        report.merge_duality("space_", check_lvl_space_roundtrip(obj))
    elif args.mode == "pspa":
        space = priestley_dual(algebra)
        report.merge_duality("algebra_", check_priestley_algebra_roundtrip(algebra))
        report.merge_duality(
            "space_", check_priestley_space_roundtrip(space, algebra.truth)
        )
    else:
        space = esakia_dual(algebra)
        report.merge_duality("algebra_", check_esakia_algebra_roundtrip(algebra))
        report.merge_duality(
            "space_", check_esakia_space_roundtrip(space, algebra.truth)
        )
    return report


def cmd_verify_space(args, report):
    docset, report.inputs[:] = _load(args.files)
    space, _ = _space_for_mode(args, docset, args.mode, report)
    if args.mode == "pbs":
        for tag, res in verify_pbs_object(space).items():
            report.record(tag, res)
        report.details["hausdorff_ordered_reading"] = is_pairwise_hausdorff(
            space.space, mode="ordered"
        ).passed
        return report
    report.record("pspa_object", verify_pspa_object(space))
    if args.mode == "hspa":
        try:
            report.record("hspa_object", verify_hspa_object(space))
        except SpaceError as exc:
            report.record("hspa_object", False)
            report.witnesses.append({"check": "hspa_object", "witness": str(exc)})
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
    truth, extra = _truth_of(args, docset)
    report.inputs.extend(extra)
    if doc.kind == "lattice":
        algebra = make_bdl(docset.lattice(doc.name), truth)
    else:
        algebra = docset.algebra(doc.name, args.budget)
    report.merge_duality("", spectrum_correspondence(algebra))
    return report


def cmd_corpus_run(args, report):
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


def _build_parser():
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
        help="size budget for power carriers and enumerations",
    )
    common.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, files=True, mode=False, truth=False, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        if files:
            p.add_argument("files", nargs="+", metavar="FILE")
        if mode:
            p.add_argument("--mode", choices=("pbs", "pspa", "hspa"), required=True)
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
    p.add_argument("--max-size", type=int, default=7, help="largest lattice carrier")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except (DocumentError, OSError, UnicodeDecodeError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timings:
        report.timings = {"wall_seconds": round(time.perf_counter() - started, 3)}
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
