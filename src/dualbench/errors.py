"""Exception types shared across the workbench."""


class DualityError(Exception):
    """Base class for every error raised by dualbench."""


class _CodedError(DualityError):
    """An error with a stable machine ``code`` and the offending
    ``witness``, if any; ``str`` gives the message."""

    def __init__(self, code, message, witness=None):
        super().__init__(message)
        self.code = code
        self.witness = witness


class LatticeError(_CodedError):
    """A lattice / poset law failed at build time.

    ``code`` is a stable machine identifier (``not-a-poset``,
    ``missing-meet``, ``missing-join``, ``not-distributive``,
    ``wrong-bounds``, ``unknown-element``, ``equal-elements``,
    ``duplicate-element``) and ``witness`` names the offending elements.
    """


class AlgebraError(_CodedError):
    """Invalid algebra construction or mismatched signatures/carriers."""


class SpaceError(_CodedError):
    """Invalid topological-space construction."""


class BudgetExceeded(DualityError):
    """An enumeration would exceed the configured size budget."""


class DocumentError(DualityError):
    """A workspace document failed to parse or validate.

    Carries the location (file, line number, field) so diagnostics point at
    the offending input, not at internal state. The file is the path the
    document was read from, when it was read from one; the reader that
    knows it may set ``path`` after the error is raised.
    """

    def __init__(self, code, message, line=None, fieldname=None, path=None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.line = line
        self.fieldname = fieldname
        self.path = path

    def __str__(self):
        if self.line is None:
            return self.message
        where = f"line {self.line}"
        if self.path is not None:
            where = f"{self.path}, {where}"
        return f"{self.message} ({where})"
