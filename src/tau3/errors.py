"""Exception types shared across the library."""


class Tau3Error(Exception):
    """Base class for all library errors."""


class PrecisionSettingError(Tau3Error):
    """TAU3_PRECISION names neither a profile nor a supported bit count."""


class ParameterError(Tau3Error):
    """A numeric parameter lies outside the range the operation accepts."""


class SpecFormatError(Tau3Error):
    """A measure specification document failed to parse or validate."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SymmetryViolation(Tau3Error):
    """Atom set is not closed under negation with equal weights."""


class BudgetExceeded(Tau3Error):
    """An expansion would produce more atoms than the configured budget."""


class UnsupportedArgument(Tau3Error):
    """Argument reduction has no common rational form for the given bases."""


class NotPointwiseEvaluable(Tau3Error):
    """The measure has an infinite-mass component; no pointwise transform."""


class TailNotCertified(Tau3Error):
    """Tail factors are not eventually below the quadratic-bound threshold."""


class StepMismatch(Tau3Error):
    """Grid operands have different steps."""


class SnapError(Tau3Error):
    """An atom does not land on the grid and strict snapping was requested."""


class RangeError(Tau3Error):
    """A float evaluation was requested outside the safe argument range."""


class UndeterminedError(Tau3Error):
    """The requested classification is outside the supported catalog."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason
