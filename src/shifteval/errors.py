"""Exception types raised by shifteval operations.

The CLI reports an error by its class name and message, in one structured
JSON line on stderr.
"""


class ShiftEvalError(Exception):
    """Base class for all shifteval errors."""


def prefix_message(e: ShiftEvalError, prefix: str) -> None:
    """Lead the message of ``e`` itself with ``prefix``, so the error keeps
    its class and attributes (an ``InfeasibleBalance.coordinate``) when
    re-raised."""
    e.args = (f"{prefix}: {e}",)


# dataset construction / validation
class EmptyStratum(ShiftEvalError):
    pass


class MissingnessMismatch(ShiftEvalError):
    pass


class DimensionMismatch(ShiftEvalError):
    pass


class InvalidConfig(ShiftEvalError):
    pass


class StratumTooSmall(ShiftEvalError):
    pass


# nuisance fitting
class Separation(ShiftEvalError):
    pass


class RankDeficient(ShiftEvalError):
    pass


class NoObservedOutcomes(ShiftEvalError):
    pass


class SolveFailure(ShiftEvalError):
    pass


class KernelTooLarge(ShiftEvalError):
    """A dense kernel fit would need more memory than the machine has."""


class InfeasibleBalance(ShiftEvalError):
    def __init__(self, message: str, coordinate: str | None = None):
        super().__init__(message)
        self.coordinate = coordinate


# estimation
class MissingField(ShiftEvalError):
    pass


class DegenerateDenominator(ShiftEvalError):
    pass


class MissingStratum(ShiftEvalError):
    pass


class InvalidLevel(ShiftEvalError):
    pass


class NonFiniteValue(ShiftEvalError):
    """A nuisance value or report field is NaN or infinite."""
