"""Exception hierarchy shared by all evaluators."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class PoleError(DomainError):
    """Evaluation exactly at a pole (e.g. gamma at a nonpositive integer)."""


class OverflowGuardError(ArithmeticError):
    """Argument so large that the computation would underflow everything."""


class NonconvergenceError(ArithmeticError):
    """A series or quadrature failed to converge within its budget.

    Carries the partial value and a tail estimate, where the routine has
    them, so callers can decide whether the partial result is still
    usable.
    """

    def __init__(self, msg, partial=None, tail_estimate=None):
        super().__init__(msg)
        self.partial = partial
        self.tail_estimate = tail_estimate


class PrecisionLossError(ArithmeticError):
    """Estimated relative error exceeded the loss threshold, 1e-6."""

    def __init__(self, msg, value=None, rel_error=None):
        super().__init__(msg)
        self.value = value
        self.rel_error = rel_error


class NumericalFailureError(ArithmeticError):
    """Cross-checks disagreed or an impossible value appeared (e.g. a
    negative result for a quantity known to be a square)."""
