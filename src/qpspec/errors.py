"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code it maps to: 2 config/input,
3 io, 4 range/budget, 5 numeric.
"""


class QPSpecError(Exception):
    exit_code = 1


class InvalidInputError(QPSpecError):
    exit_code = 2


class ConfigError(InvalidInputError):
    exit_code = 2


class DegenerateModelError(InvalidInputError):
    exit_code = 2


class OutputError(QPSpecError):
    exit_code = 3


class RangeError(QPSpecError):
    exit_code = 4


class BudgetError(RangeError):
    exit_code = 4


class SubsequenceError(RangeError):
    """Requested level is not in the qualifying subsequence."""

    exit_code = 4


class NumericError(QPSpecError):
    exit_code = 5


class PrecisionExhaustedError(NumericError):
    exit_code = 5


class ExcludedPhaseError(NumericError):
    """Phase lies on (a lattice translate of) a pole within the scan horizon."""

    exit_code = 5

    def __init__(self, message, pole=None, translate=None):
        super().__init__(message)
        self.pole = pole
        self.translate = translate


class PoleProximityError(NumericError):
    """Evaluation point is within the resolution floor of a pole."""

    exit_code = 5

    def __init__(self, message, dist=None):
        super().__init__(message)
        self.dist = dist


class OrbitPoleError(PoleProximityError):
    """A pole was hit along an orbit window; ``step`` is the offending index."""

    def __init__(self, message, dist=None, step=None):
        super().__init__(message, dist=dist)
        self.step = step
