"""Small verdict/witness containers used by every checker in the package.

Witnesses are always rendered with user-declared element names so a report
can be checked by hand against the input documents. A report holds only
what some report or verdict reads: the CLI prints verdicts, witnesses and
cardinalities, and the corpus suites read verdicts and witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single verification; ``witness`` is None iff it passed."""

    passed: bool
    witness: str | None = None

    def __bool__(self):
        return self.passed


PASS = CheckResult(True)


def failed(witness):
    return CheckResult(False, witness)


@dataclass
class DualityReport:
    """Verdict bundle for one natural-map verification.

    ``verdicts`` maps check names to booleans, ``witnesses`` carries one
    rendered counterexample per failed check, and ``cardinalities`` the
    sizes of the objects the verification built.
    """

    verdicts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    cardinalities: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(self.verdicts.values())

    def record(self, check, result: CheckResult):
        self.verdicts[check] = result.passed
        if not result.passed and result.witness is not None:
            self.witnesses[check] = result.witness


@dataclass
class AxiomReport:
    """Per-clause verdicts for the lattice-valued algebra axioms."""

    clauses: dict = field(default_factory=dict)  # clause tag -> CheckResult

    @property
    def passed(self):
        return all(r.passed for r in self.clauses.values())
