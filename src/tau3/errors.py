"""Exception types and the immutable value base shared across the library.

``Value`` is the base of every value class: ``__slots__`` fields set once
in ``__init__``, so defining a class generates no code at import.
"""

from operator import attrgetter


class Value:
    """Immutable value whose public ``__slots__`` are its fields.

    Subclasses list their fields in constructor order, in ``_fields`` when
    one is a property, and set them with ``object.__setattr__``.  Equality
    and hashing follow the fields not named in ``_uncompared``; ``repr``
    shows every field.  Slots starting with ``_`` are private caches,
    outside all three.  Values can be weakly referenced.
    """

    __slots__ = ("__weakref__",)
    _uncompared = ()

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(n for n in cls.__slots__ if n[0] != "_")
        compared = [n for n in cls._fields if n not in cls._uncompared]
        cls._key = attrgetter(*compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        """Copies and pickles are rebuilt by the constructor."""
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def replace(self, **changes):
        """A copy with the named fields changed, built by the constructor."""
        fields = {n: getattr(self, n) for n in self._fields}
        return type(self)(**{**fields, **changes})


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
