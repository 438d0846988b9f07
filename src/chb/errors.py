"""Exception types shared across the package."""

__all__ = (
    'ChbError', 'NonFiniteInput', 'RootFindFailure', 'ShapeMismatch',
    'NonzeroMean', 'SolveFailure', 'NewtonDivergence', 'LinearSolveFailure',
    'ValidationFailure', 'MeanMismatch', 'ConfigError', 'NonPositivePoint',
    'TooFewPoints',
)


class ChbError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteInput(ChbError):
    """An input value was NaN or infinite."""


class RootFindFailure(ChbError):
    """Scalar root find did not converge; indicates a bad graph scale."""


class ShapeMismatch(ChbError):
    """Field shape does not match the grid."""


class NonzeroMean(ChbError):
    """Operand of a zero-mean solve has a mean above tolerance."""


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
    """Problem data violates one of the admissibility assumptions."""


class MeanMismatch(ChbError):
    """Initial-data perturbation changes a conserved mean beyond 1e-12."""


class ConfigError(ChbError):
    """Malformed or inconsistent experiment configuration."""


class NonPositivePoint(ChbError):
    """Rate fit received a nonpositive abscissa or ordinate."""


class TooFewPoints(ChbError):
    """Rate fit needs at least three points."""
