"""Exception types shared across the solver."""


class PppaError(Exception):
    """Base class for all solver errors."""


class SingularBlock(PppaError):
    """A principal submatrix failed the nonsingularity test."""


class SingularPivot(PppaError):
    """A pivot element is below the pivot tolerance."""


class NotApplicable(PppaError):
    """Input does not satisfy the preconditions of the requested routine."""


class TooLarge(PppaError):
    """Problem size exceeds the guard of an exhaustive routine."""


class PreconditionViolated(PppaError):
    """A documented precondition of a solver entry point does not hold."""


class IterationCap(PppaError):
    """Pivot count exceeded the safety cap; flags a degeneracy anomaly."""


class InvariantViolation(PppaError):
    """An internal invariant failed; usually signals misclassified input."""


class NegativeComponent(PppaError):
    """A vector required to be nonnegative has a negative component."""


class ClassificationFailed(PppaError):
    """The matrix does not belong to the class required by the solver."""


class GenerationFailed(PppaError):
    """Instance generator gave up after its rejection-sampling budget."""


class InvalidSpec(PppaError, ValueError):
    """A generator recipe names an unknown family or an out-of-range size or density."""


class RecursionCapExceeded(PppaError):
    """Requested class level k exceeds the configured recursion cap."""


class QpbError(PppaError):
    """Base class for QPB file format errors."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(QpbError):
    """Malformed QPB input."""


class DuplicateEntry(QpbError):
    """A matrix triplet appears twice in a QPB file."""


class IndexOutOfRange(QpbError):
    """A matrix triplet index is outside 1..n."""
