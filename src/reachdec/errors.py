"""Exception types shared by all modules.

Every error carries a ``module`` and a ``kind`` tag so that front ends can
emit a single machine-parsable line of the form ``error:<module>:<kind>``.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""

    kind = "error"
    #: errors raised while validating user input map to a different exit
    #: code than numerical failures encountered mid-computation
    category = "input"

    def __init__(self, message, module="core"):
        super().__init__(message)
        self.module = module

    def tag(self):
        return f"error:{self.module}:{self.kind}"


class DimensionError(EngineError):
    """Operands whose dimensions do not line up."""

    kind = "dimension"


class InvalidSetError(EngineError):
    """Set data that does not describe a nonempty bounded convex set."""

    kind = "invalid-set"


class UnboundedSetError(EngineError):
    """A support evaluation produced a non-finite value."""

    kind = "unbounded-set"
    category = "numerical"


class DegeneratePolygonError(EngineError):
    """Adjacent polygon constraints are too close to parallel to intersect."""

    kind = "degenerate-polygon"
    category = "numerical"


class ApproximationError(EngineError):
    """An iterative approximation did not converge within its budget."""

    kind = "no-convergence"
    category = "numerical"


class NonFiniteError(EngineError):
    """Matrix data overflowed to inf/nan."""

    kind = "non-finite"
    category = "numerical"


class ContainmentError(EngineError):
    """A set expected to contain another one does not."""

    kind = "containment"
    category = "numerical"


class InputError(EngineError):
    """Malformed user input (files, schemas, inconsistent scenario data)."""

    kind = "schema"
