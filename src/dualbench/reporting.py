"""Small verdict/witness containers used by every checker in the package,
and the base class of the package's records.

Witnesses are always rendered with user-declared element names so a report
can be checked by hand against the input documents. A report holds only
what some report or verdict reads: the CLI prints verdicts, witnesses and
cardinalities, and the corpus suites read verdicts and witnesses.
"""

from __future__ import annotations


class _Record:
    """A record compared by value: two records are equal when they are of
    the same class and their ``_fields`` are equal. ``_uncompared`` names
    the fields left out of equality; ``repr`` and ``replace`` use both.
    Each record writes its own ``__init__``, which takes every field under
    its own name. A record that defines ``__eq__`` does not hash; records
    that are never changed after construction derive from ``_Frozen``."""

    _fields = ()
    _uncompared = ()

    def _key(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields + self._uncompared)
        return f"{type(self).__qualname__}({shown})"

    def replace(self, **changes):
        """A new record of the same class, built by ``__init__`` from this
        one's fields with ``changes`` applied."""
        values = {f: getattr(self, f) for f in self._fields + self._uncompared}
        values.update(changes)
        return type(self)(**values)


class _Frozen(_Record):
    """A record that is never changed after construction, so it hashes by
    the value of its compared fields."""

    def __hash__(self):
        return hash(self._key())


class CheckResult(_Frozen):
    """Outcome of a single verification; ``witness`` is None iff it passed."""

    _fields = ("passed", "witness")

    def __init__(self, passed: bool, witness: str | None = None):
        self.passed = passed
        self.witness = witness

    def __bool__(self):
        return self.passed


PASS = CheckResult(True)


def failed(witness):
    return CheckResult(False, witness)


class DualityReport(_Record):
    """Verdict bundle for one natural-map verification.

    ``verdicts`` maps check names to booleans, ``witnesses`` carries one
    rendered counterexample per failed check, and ``cardinalities`` the
    sizes of the objects the verification built.
    """

    _fields = ("verdicts", "witnesses", "cardinalities")

    def __init__(
        self,
        verdicts: dict | None = None,
        witnesses: dict | None = None,
        cardinalities: dict | None = None,
    ):
        self.verdicts = {} if verdicts is None else verdicts
        self.witnesses = {} if witnesses is None else witnesses
        self.cardinalities = {} if cardinalities is None else cardinalities

    @property
    def passed(self):
        return all(self.verdicts.values())

    def record(self, check, result: CheckResult):
        self.verdicts[check] = result.passed
        if not result.passed and result.witness is not None:
            self.witnesses[check] = result.witness


class AxiomReport(_Record):
    """Per-clause verdicts for the lattice-valued algebra axioms."""

    _fields = ("clauses",)

    def __init__(self, clauses: dict | None = None):
        self.clauses = {} if clauses is None else clauses  # clause tag -> CheckResult

    @property
    def passed(self):
        return all(r.passed for r in self.clauses.values())
