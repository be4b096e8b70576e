"""Exception types shared across the simulation modules."""


class SingularWindowError(ValueError):
    """An integration window touches the slit-time endpoint singularities.

    The slit-time integrand diverges like 1/sqrt(t) at t = 0 and t = tau.
    Partial windows must keep positive clearance from both endpoints; the
    full-range integral is only available through the u-domain transform,
    which removes the endpoint singularities analytically.
    """


class NodeBudgetError(RuntimeError):
    """A quadrature could not meet its accuracy target within ``max_nodes``.

    Carries the best estimate that the affordable node count produced,
    together with the error bound actually achieved.
    """

    def __init__(self, message, achieved=None, error_estimate=None):
        super().__init__(message)
        self.achieved = achieved
        self.error_estimate = error_estimate


class NonFiniteResultError(ArithmeticError):
    """A value about to be written out is NaN or infinite.

    Raised before any output is written, so that a run never reports
    success together with a non-finite number.
    """
