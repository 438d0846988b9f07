"""Exception types shared across the package."""

__all__ = (
    'ChbError', 'GraphMapFailure', 'SolveFailure', 'NewtonDivergence',
    'LinearSolveFailure', 'ValidationFailure', 'ConfigError',
)


class ChbError(Exception):
    """Base class for all package-specific errors."""


class GraphMapFailure(ChbError):
    """A graph map met a NaN or infinite argument, or its scalar root find
    did not converge (which indicates a bad graph scale)."""


class SolveFailure(ChbError):
    """A failure inside a time step.

    Carries the target time of the failed step, the Newton iterations
    spent on it, and the last residual norm (each None when unknown).
    """

    def __init__(self, msg, t=None, iters=None, residual=None):
        super().__init__(msg)
        self.t = t
        self.iters = iters
        self.residual = residual

    def __reduce__(self):
        # keep t/iters/residual when the error crosses a process pool
        return type(self), (str(self), self.t, self.iters, self.residual)


class NewtonDivergence(SolveFailure):
    """Newton loop failed to converge after damped retries, or a graph
    map met a non-finite iterate.

    Usually means dt is too large or lambda too small for the
    requested tolerance.
    """


class LinearSolveFailure(SolveFailure):
    """Sparse factorization or triangular solve failed inside Newton."""


class ValidationFailure(ChbError):
    """Problem data violate one of the admissibility assumptions, or an
    initial-data perturbation changes a conserved mean."""


class ConfigError(ChbError):
    """Malformed or inconsistent experiment configuration."""
