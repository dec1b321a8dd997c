"""Exception taxonomy shared across the package."""


class InputError(ValueError):
    """Bad parameters or a vector outside the required subspace."""


class ValidationError(ValueError):
    """An algebra or table violates a structural axiom."""


class TableError(ValidationError):
    """A structure-constant document is malformed; message carries the location."""


class DegeneracyError(ValueError):
    """A pairing or form that must be non-degenerate is not."""


class NotMinimalError(ValueError):
    """The supplied nilpotent does not induce a short grading with dim g(2)=1."""
