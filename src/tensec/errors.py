"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ``InputError`` -> 2 (malformed input),
``PreconditionError`` -> 3 (well-formed input violating an operation's
geometric precondition).
"""


class TensecError(Exception):
    """Base class for all package errors."""


class InputError(TensecError):
    """Malformed or ill-typed input (bad JSON, unknown ids, degree < 3...)."""


class PreconditionError(TensecError):
    """A documented geometric precondition does not hold for this input."""


class GeometryError(PreconditionError):
    """Degenerate geometric data: coincident points, zero force, and the like."""


class PointAtInfinityError(PreconditionError):
    """A placed point lies on the chart's infinity line."""


class GenericityError(PreconditionError):
    """A resolution scheme or quantization is not (weakly/strongly) generic."""


class InconsistentQuantizationError(TensecError):
    """Raised when force propagation closes a cycle with mismatched stresses.

    ``cycle`` names the offending framework cycle (tuple of vertex ids).
    """

    def __init__(self, message, cycle):
        super().__init__(message)
        self.cycle = tuple(cycle)
