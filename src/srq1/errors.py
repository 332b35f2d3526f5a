"""Exception types shared by the numerical modules."""


class DomainError(ValueError):
    """An argument lies outside the physical or mathematical domain."""


class ConvergenceError(RuntimeError):
    """An iterative routine stopped before reaching the requested tolerance.

    Carries the best available estimate and an error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class AmbiguousLimitError(ValueError):
    """The requested value depends on the order of a double limit.

    Raised for electron local polarization at (beta = 1, theta = pi/2),
    where the limits beta -> 1 and theta -> pi/2 do not commute.
    """


def checked(values):
    """``values``, a sequence of results of which some may be the errors their
    evaluation raised: the first such error is raised, in sequence order."""
    for value in values:
        if isinstance(value, Exception):
            raise value
    return values
