"""Exception types shared across the package, the one tolerance and integer checks, and how a message quotes input."""

import operator


def _excerpt(text) -> str:
    """str(text), or its first 40 characters and '...', so an error line stays short whatever the input."""
    text = str(text)
    return text if len(text) <= 40 else text[:40] + "..."


class ArithmeticOverflowError(OverflowError):
    """A combinatorial count does not fit the signed 64-bit or the float range it is needed in."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def _check_tol(tol: float) -> None:
    if not 0 <= tol < float("inf"):  # NaN fails too; an infinite tolerance would pass anything
        raise ValidationError("tolerance must be >= 0 and finite")


def _integer(value, what: str, low: int) -> int:
    """The one check of a caller's integer: operator.index(value), so a numpy integer is an int, and at least low."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):  # a bool is no count, order or seed
        raise ValidationError(f"{what} must be an integer, got {type(value).__name__}")
    value = operator.index(value)
    if value < low:
        raise ValidationError(f"{what} must be an integer >= {low}")
    return value


class SymmetryError(ValidationError):
    """A dense tensor failed a symmetry check.

    Carries the worst offending index tuple and its canonical (sorted)
    representative.
    """

    def __init__(self, message: str, index=None, canonical=None):
        super().__init__(message)
        self.index = index
        self.canonical = canonical


class CapacityError(ValidationError):
    """A dense tensor, a class vector or an index table would exceed its size cap."""


class UnsupportedOrderError(ValidationError):
    """The requested order lies outside the range a formula covers."""


class NotApplicableError(ValidationError):
    """The requested quantity is undefined for these inputs."""


class DecompositionError(RuntimeError):
    """A decomposer could not produce a decomposition that verify accepts."""


class DegeneratePencilError(DecompositionError):
    """The 2x2x2 slice pencil has no two distinct eigendirections.

    Carries the detected condition as a short string.
    """

    def __init__(self, condition: str):
        super().__init__(f"degenerate pencil: {condition}")
        self.condition = condition


class WorkerError(RuntimeError):
    """A Monte-Carlo worker thread raised before it returned its counts."""
