"""Exception types shared across the simulation modules."""


class NodeBudgetError(RuntimeError):
    """A time sum needs more nodes than its ``max_nodes`` budget allows.

    The time sum uses a fixed rule, so the node count of a window is known
    before it is evaluated.  The error carries the value that rule gives
    all the same, together with its error estimate.
    """

    def __init__(self, message, achieved=None, error_estimate=None):
        super().__init__(message)
        self.achieved = achieved
        self.error_estimate = error_estimate


class NonFiniteResultError(ArithmeticError):
    """A computed value is NaN or infinite.

    Raised before any output is written, so that a run never reports
    success together with a non-finite number.
    """
