"""Exception hierarchy, and the two readers of scalar arguments, one for
integers and one for reals, that raise InputError.

The CLI exits with the `exit_code` of the error it catches: machine/input
problems exit 2, resource and generation failures exit 3, and every other
error (violated analysis preconditions, numerical failures) exits 1.
"""

import math
import numbers
import operator


class EmsyncError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class MachineError(EmsyncError):
    """A machine description is invalid."""

    exit_code = 2


class MachineSyntaxError(MachineError):
    """Malformed machine text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RowSumError(MachineError):
    """Some state's emission probabilities do not sum to 1."""


class DuplicateEdgeError(MachineError):
    """The same (state, symbol) carries two edges."""


class UnknownNameError(MachineError):
    """An edge references an undeclared state or symbol."""


class EdgeProbabilityError(MachineError):
    """An edge probability lies outside (0, 1]."""


class NotStronglyConnectedError(MachineError):
    """The transition graph is not strongly connected."""


class EquivalentStatesError(MachineError):
    """Two states generate identical word distributions."""


class InputError(EmsyncError):
    """An operation received an argument outside its domain."""

    exit_code = 2


def integer(value, name, low=0, high=None):
    """value as an int in [low, high] (no upper end when high is None),
    read with `operator.index` so that a float is refused rather than
    truncated; InputError unless it is one.  A bool is refused too,
    although `operator.index` reads it as 0 or 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer") from None
    if value < low or high is not None and value > high:
        bounds = f"be at least {low}" if high is None else f"lie in [{low}, {high}]"
        raise InputError(f"{name} must {bounds}")
    return value


def real(value, name):
    """value as a float; InputError unless it is a finite `numbers.Real`.
    A bool is refused, although it is a `numbers.Real`."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise InputError(f"{name} must be a finite real number")
    return float(value)


class ImpossibleWordError(InputError):
    """A word with zero probability under the given initial distribution."""


class PreconditionError(EmsyncError):
    """An analysis precondition is violated (e.g. sync rate of a non-exact
    machine); carries a human-readable witness in the message."""


class ResourceError(EmsyncError):
    """A configured budget or cap was exceeded."""

    exit_code = 3


class GenerationError(ResourceError):
    """Random machine generation gave up after too many rejections."""


class NumericalError(EmsyncError):
    """Internal numerical failure that valid inputs should never trigger."""


class ConvergenceError(NumericalError):
    """Iteration stopped before the requested accuracy; carries the narrowest
    bracket it reached, printed with enough digits to tell its ends apart."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        self.bracket = bracket
        lo, hi = bracket
        super().__init__(f"{message} (bracket [{lo!r}, {hi!r}], width {hi - lo:.3g})")
