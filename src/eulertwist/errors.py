"""Exception types raised on violated mathematical preconditions.

Every exception below derives from :class:`MathError`, so callers (in
particular the CLI) can distinguish a bad mathematical input from a plain
usage error.
"""


class MathError(Exception):
    """Base class for all precondition and consistency failures."""


class DivisionByZero(MathError):
    pass


class FieldMismatch(MathError):
    pass


class NotAPrimitiveEmbedding(MathError):
    pass


class PoleAtMinusOne(MathError):
    pass


class PoleAtOne(MathError):
    pass


class NonUnitConstantTerm(MathError):
    pass


class OrderTooLow(MathError):
    pass


class InvalidCharacter(MathError):
    pass


class NotSquarefree(MathError):
    pass


class OracleTooLarge(MathError):
    pass


class NotPadicallyConvergent(MathError):
    pass


class NotConverged(MathError):
    pass


class OutsideConvergence(MathError):
    pass


class OutsideDoubleRange(MathError):
    """An exact value too large for a double, where a float is needed."""
