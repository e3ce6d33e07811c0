"""Exception hierarchy shared by all modules."""


class ExactLAError(Exception):
    """Base class for all library errors."""


class DivisionByZero(ExactLAError, ZeroDivisionError):
    pass


class DimensionMismatch(ExactLAError, ValueError):
    pass


class NonSquare(ExactLAError, ValueError):
    pass


class SingularMatrix(ExactLAError, ValueError):
    pass


class Unsolvable(ExactLAError, ValueError):
    pass


class IndexOutOfRange(ExactLAError, IndexError):
    pass


class InvalidInput(ExactLAError, ValueError):
    pass


class CertificateFailed(ExactLAError):
    """A result failed a check that holds for every correct computation."""


class ZeroDenominator(ExactLAError, ZeroDivisionError):
    pass


class ZeroMatrix(ExactLAError, ValueError):
    pass


class PreconditionViolated(ExactLAError, ValueError):
    """A checker's stated precondition fails; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotLIntersecting(PreconditionViolated):
    pass


class SystemUnsolvable(ExactLAError, ValueError):
    pass


class CapExceeded(ExactLAError, ValueError):
    pass


class ScaleExceeded(ExactLAError, ValueError):
    pass


class SizeExceeded(ExactLAError, ValueError):
    pass


class MalformedInput(ExactLAError, ValueError):
    """Parse error with a 1-based line (and optional column) position."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column
