"""Exception types shared across the package."""


class CircumprojError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CircumprojError):
    """Operands disagree on ambient dimension or shape."""


class InconsistentSystem(CircumprojError):
    """Right-hand side is not attainable: b lies outside range(A), or A or
    b is not finite."""


class EmptyIntersection(CircumprojError):
    """The stacked constraints of several subspaces admit no common point."""


class DegenerateSystem(CircumprojError):
    """The circumcenter system is unsolvable: no point of the affine hull is
    equidistant to all inputs, or an input is not finite (corrupted input)."""


class InvalidWeights(CircumprojError):
    """Simultaneous-projection weights violate p0 >= 0, p_i > 0, sum = 1."""


class InvalidCoherence(CircumprojError):
    """Coherence parameter outside [0, 1]."""


class MissingReference(CircumprojError):
    """Stop rule needs a known solution but the instance carries none."""


class InsufficientData(CircumprojError):
    """Not enough usable trace entries for the requested estimate."""


class NumericalBreakdown(CircumprojError):
    """An iterate stopped being finite. Carries the partial trace."""

    def __init__(self, message, trace=None, point=None):
        super().__init__(message)
        self.trace = trace
        self.point = point
