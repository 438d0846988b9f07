"""Maximal monotone graphs, their resolvents and Yosida approximations.

The four supported graph kinds are

    Zero                beta(r) = 0
    PowerOdd(p, c)      beta(r) = c*r**p         (p odd >= 3, c > 0)
    Logarithmic(s)      beta(r) = s*ln((1+r)/(1-r))   on (-1, 1)
    DoubleObstacle(a,b) beta = subdifferential of the indicator of [a, b]

Every graph is the subdifferential of a convex primitive ``beta_hat`` with
``beta_hat(0) = 0``.  The resolvent is J_lam = (I + lam*beta)^{-1}, the
Yosida approximation is beta_lam = (I - J_lam)/lam, and the regularized
primitive is the Moreau envelope

    beta_hat_lam(r) = |r - J_lam(r)|^2 / (2*lam) + beta_hat(J_lam(r)).

All evaluation routines act elementwise on numpy arrays and return what
numpy gives: an array of the argument's shape, a numpy scalar or a 0-d
array for a scalar argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraphMapFailure

__all__ = (
    'GraphSpec', 'Perturbation', 'GrowthVerdict',
    'zero', 'power_odd', 'logarithmic', 'double_obstacle',
    'resolvent', 'yosida', 'yosida_derivative', 'primitive',
    'yosida_primitive', 'check_domination', 'check_same_growth',
)

_REL_TOL = 1e-13    # relative residual for the scalar resolvent solves
_EPS = float(np.finfo(float).eps)
_MAX_ITER = 100


@dataclass(frozen=True)
class GraphSpec:
    """Immutable description of one maximal monotone graph; its kind fixes
    the domain D(beta) (see `domain`)."""

    kind: str
    exponent: int = 3
    coefficient: float = 1.0
    scale: float = 1.0
    lower: float = -1.0
    upper: float = 1.0

    def __post_init__(self):
        if self.kind not in ('zero', 'power_odd', 'logarithmic', 'double_obstacle'):
            raise ValueError(f'unknown graph kind {self.kind!r}')
        if self.kind == 'power_odd':
            if self.exponent < 3 or self.exponent % 2 == 0:
                raise ValueError('power_odd exponent must be an odd integer >= 3')
            if not self.coefficient > 0:
                raise ValueError('power_odd coefficient must be positive')
        if self.kind == 'logarithmic' and not self.scale > 0:
            raise ValueError('logarithmic scale must be positive')
        if self.kind == 'double_obstacle':
            if not -math.inf < self.lower < self.upper < math.inf:
                raise ValueError('double_obstacle needs finite lower < upper')
            # beta_hat(0) = 0 requires 0 in D(beta)
            if not (self.lower <= 0.0 <= self.upper):
                raise ValueError('double_obstacle interval must contain 0')

    @property
    def domain(self) -> tuple:
        """D(beta) as (lower, upper, closed): the obstacle interval is
        closed, the logarithmic one open, power/zero graphs live on all of R."""
        if self.kind == 'double_obstacle':
            return self.lower, self.upper, True
        if self.kind == 'logarithmic':
            return -1.0, 1.0, False
        return -math.inf, math.inf, False

    def contains(self, r, strict_margin=0.0):
        """Elementwise test r in the interior of D(beta), optionally
        shrunk by a margin."""
        r = np.asarray(r, dtype=float)
        lo, hi, _ = self.domain
        return (r > lo + strict_margin) & (r < hi - strict_margin)


def zero() -> GraphSpec:
    return GraphSpec('zero')


def power_odd(exponent: int = 3, coefficient: float = 1.0) -> GraphSpec:
    return GraphSpec('power_odd', exponent=int(exponent), coefficient=float(coefficient))


def logarithmic(scale: float = 1.0) -> GraphSpec:
    return GraphSpec('logarithmic', scale=float(scale))


def double_obstacle(lower: float = -1.0, upper: float = 1.0) -> GraphSpec:
    return GraphSpec('double_obstacle', lower=float(lower), upper=float(upper))


def _as_array(r):
    arr = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise GraphMapFailure('non-finite graph argument')
    return arr


def _power(x, p):
    """x**p for an integer p >= 1 by repeated squaring: numpy's power with
    an exponent other than 2 takes over 100 times as long as a square."""
    out = None
    while True:
        if p & 1:
            out = x if out is None else out * x
        p >>= 1
        if not p:
            return out
        x = x * x


def resolvent(spec: GraphSpec, r, lam: float):
    """Resolvent J_lam(r) = (I + lam*beta)^{-1}(r).

    Parameters
    ----------
    spec : GraphSpec
    r : array_like
    lam : float
        Must be positive.

    Returns
    -------
    ndarray
        The unique x with x + lam*beta(x) containing r.  Closed form for
        the zero, obstacle and cubic graphs; the cubic's is within about
        an ulp of the root, so beta_lam = (r - x)/lam is off by about one
        ulp of x over lam (9.4e-15 at r = 0.2289, lam = 1e-3).  Guarded
        Newton for odd powers >= 5 and the logarithmic graph, with
        relative residual <= 1e-13.

    Notes
    -----
    The map is monotone and nonexpansive in r.  For the logarithmic graph
    the scalar equation is solved in transformed coordinates x = tanh(y),
    where it reads tanh(y) + 2*lam*scale*y = r; this stays well
    conditioned arbitrarily close to the domain endpoints, where a direct
    bracket in x cannot represent the root.
    """
    if not lam > 0:
        raise ValueError('lam must be positive')
    arr = _as_array(r)
    if spec.kind == 'zero':
        return arr.copy()
    if spec.kind == 'double_obstacle':
        return np.clip(arr, spec.lower, spec.upper)
    if spec.kind == 'power_odd':
        return _resolvent_power(spec, arr, lam)
    # keep the output strictly inside the open domain
    return np.clip(np.tanh(_log_resolvent_y(spec, arr, lam)),
                   np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0))


def _resolvent_power(spec, arr, lam):
    # Solve x + k*x^p = a for a = |r| >= 0 and k = lam*c, then restore the
    # sign: in closed form for the cubic, else by Newton.  g is convex
    # increasing on [0, inf); Newton from an upper bound of the root
    # decreases monotonically onto it.
    p, k = spec.exponent, lam * spec.coefficient
    a = np.abs(arr)
    if p == 3:
        return np.copysign(_cubic_root(a, k), arr)

    def step(x):
        xp = k * _power(x, p - 1)
        return x + xp * x - a, 1.0 + p * xp
    return np.copysign(_newton(spec, step, np.minimum(a, (a / k) ** (1.0 / p)), a), arr)


def _newton(spec, step, z, a):
    """Newton z <- z - g/g' elementwise on (g, g') = step(z), a kind's scalar
    resolvent equation, until |g| <= 1e-13*max(1, a) everywhere."""
    tol = _REL_TOL * np.maximum(1.0, a)
    for _ in range(_MAX_ITER):
        g, slope = step(z)
        if np.all(np.abs(g) <= tol):
            return z
        z = z - g / slope
    raise GraphMapFailure(f'{spec.kind} resolvent did not converge')


def _cubic_root(a, k):
    """The root x >= 0 of x + k*x**3 = a for a >= 0 and 0 < k <= 1e300.

    With s = sqrt(3k) and y = 1.5*s*a the triple-angle identity of sinh
    gives x = (2/s)*sinh(arsinh(y)/3).  For y <= 1 that form, refined by
    one step of x <- a - k*x**3 (a contraction there, by 3*k*x**2 <= 4/9),
    is within about an ulp of the root.  For y > 1 the root is written
    x = 3a/(t**2 + 1 + t**-2) with t**3 = y + sqrt(1 + y**2), which has no
    cancellation, and with y scaled by 4s it has no overflow either.
    Where k*a**2 < eps the root is a to within an ulp, and a is returned.
    """
    s = math.sqrt(3.0 * k)
    a_big = 1.0 / (1.5 * s)         # y = 1
    x = (2.0 / s) * np.sinh(np.arcsinh((1.5 * s) * np.minimum(a, a_big)) / 3.0)
    # k*x first, so that no x**3 overflows or underflows; an array for scalar a
    x = np.asarray(a - k * x * x * x)
    big = a > a_big
    if big.any():
        ab = a[big]
        t = np.cbrt(4.0 * s) * np.cbrt(0.375 * ab + np.hypot(0.25 / s, 0.375 * ab))
        t *= t
        x[big] = ab / (t + 1.0 + 1.0 / t) * 3.0     # 3*ab could overflow
    np.copyto(x, a, where=a < math.sqrt(_EPS / k))
    return x


def _log_resolvent_y(spec, arr, lam):
    # tanh(y) + 2*lam*s*y = a, a = |r|; concave increasing in y >= 0, so
    # Newton from y=0 (where h = -a <= 0) increases monotonically to the root.
    two_ls = 2.0 * lam * spec.scale
    a = np.abs(arr)

    def step(y):
        t = np.tanh(y)
        return t + two_ls * y - a, (1.0 - t * t) + two_ls
    return np.sign(arr) * _newton(spec, step, np.zeros_like(a), a)


def yosida(spec: GraphSpec, r, lam: float):
    """Yosida approximation beta_lam(r) = (r - J_lam(r))/lam.

    Monotone, Lipschitz with constant 1/lam, and |beta_lam(r)| <= |beta°(r)|
    on D(beta).
    """
    x = resolvent(spec, r, lam)      # checks r
    return (np.asarray(r, dtype=float) - x) / lam


def yosida_derivative(spec: GraphSpec, r, lam: float):
    """A.e. derivative of beta_lam, used as the Newton slope, read at the
    resolvent point x = J_lam(r).

    Equals beta'(x) / (1 + lam*beta'(x)) where beta is differentiable; for
    the obstacle graph the piecewise-constant slope is 0 inside
    [lower, upper] and 1/lam where x sits on an end, which the clip gives
    exactly for r at or past it: 1/lam at the kinks (semismooth convention).
    """
    x = resolvent(spec, r, lam)      # checks lam and r
    if spec.kind == 'zero':
        return np.zeros_like(x)
    if spec.kind == 'double_obstacle':
        return np.where((x == spec.lower) | (x == spec.upper), 1.0 / lam, 0.0)
    if spec.kind == 'power_odd':
        bp = spec.coefficient * spec.exponent * _power(x, spec.exponent - 1)
        return bp / (1.0 + lam * bp)
    # 1/beta'(x) = (1 - x^2)/(2*s); J_lam keeps |x| < 1
    return 1.0 / ((1.0 - x * x) / (2.0 * spec.scale) + lam)


def primitive(spec: GraphSpec, r):
    """Convex primitive beta_hat(r), extended-real valued.

    Nonnegative, beta_hat(0) = 0, and +inf outside the closure of the
    domain of the primitive (which may include endpoints excluded from
    D(beta): the logarithmic primitive is finite on the closed interval).
    """
    return _primitive(spec, _as_array(r))


def _primitive(spec, arr):
    """`primitive` of a float array already checked for finite values."""
    if spec.kind == 'zero':
        return np.zeros_like(arr)
    if spec.kind == 'power_odd':
        q = spec.exponent + 1
        return spec.coefficient * _power(arr, q) / q
    if spec.kind == 'logarithmic':
        inside = np.abs(arr) <= 1.0
        ar = np.where(inside, arr, 0.0)
        # imported here: scipy.special costs every run ~60 ms of start-up
        from scipy.special import xlogy
        val = spec.scale * (xlogy(1.0 + ar, 1.0 + ar) + xlogy(1.0 - ar, 1.0 - ar))
        return np.where(inside, val, np.inf)
    return np.where((arr >= spec.lower) & (arr <= spec.upper), 0.0, np.inf)


def yosida_primitive(spec: GraphSpec, r, lam: float):
    """Moreau envelope beta_hat_lam(r) = |r - J_lam(r)|^2/(2 lam) + beta_hat(J_lam(r)).

    Finite for every real r and squeezed between 0 and beta_hat(r).
    """
    x = resolvent(spec, r, lam)      # checks r
    return (np.asarray(r, dtype=float) - x) ** 2 / (2.0 * lam) + _primitive(spec, x)


# ---------------------------------------------------------------------------
# growth hypotheses


@dataclass(frozen=True)
class GrowthVerdict:
    """Whether the graph pair satisfies one growth hypothesis, and why."""
    feasible: bool
    reason: str


def _domain_contains(outer: GraphSpec, inner: GraphSpec) -> bool:
    """Structural interval check D(inner) subseteq D(outer)."""
    (olo, ohi, oc), (ilo, ihi, ic) = outer.domain, inner.domain
    ends_ok = oc or not ic       # a shared end must be closed in D(outer) if in D(inner)
    return (olo < ilo or (olo == ilo and ends_ok)) and (ohi > ihi or (ohi == ihi and ends_ok))


def _order_at_infinity(spec: GraphSpec) -> int:
    """Growth order of beta° at infinity for the kinds with D(beta) = R."""
    return 0 if spec.kind == 'zero' else spec.exponent


def check_domination(bulk: GraphSpec, boundary: GraphSpec) -> GrowthVerdict:
    """Domination: D(beta_Gamma) subseteq D(beta) and
    |beta°| <= rho*|beta_Gamma°| + c on D(beta_Gamma), decided from the kinds.

    A bounded D(beta_Gamma) (obstacle or logarithmic) inside D(beta) keeps
    beta° bounded there, unless both graphs are logarithmic, where
    rho = s/s_Gamma.  On D(beta_Gamma) = R both graphs are zero or odd
    powers, and the bulk order at infinity must not exceed the boundary's.
    """
    if not _domain_contains(bulk, boundary):
        return GrowthVerdict(False, 'D(beta_Gamma) is not contained in D(beta)')
    if boundary.kind == 'logarithmic' and bulk.kind == 'logarithmic':
        return GrowthVerdict(True, f'both graphs are logarithmic: rho = '
                                   f'{bulk.scale / boundary.scale:g}')
    if boundary.kind in ('double_obstacle', 'logarithmic'):
        return GrowthVerdict(True, 'beta° is bounded on the bounded D(beta_Gamma)')
    q, p = _order_at_infinity(bulk), _order_at_infinity(boundary)
    if q > p:
        return GrowthVerdict(False, f'beta° grows with order {q} at infinity, '
                                    f'beta_Gamma° with order {p}')
    return GrowthVerdict(True, f'order {q} of beta° at infinity is at most '
                               f'order {p} of beta_Gamma°')


def check_same_growth(bulk: GraphSpec, boundary: GraphSpec) -> GrowthVerdict:
    """Same growth: D(beta) = D(beta_Gamma) and
    (1/M)|beta_Gamma°| - M <= |beta°| <= M(|beta_Gamma°| + 1), decided from
    the kinds: it holds iff the domains are equal and the kinds, and for
    odd powers the exponents, agree.  Coefficients and log scales only
    set M.
    """
    if bulk.domain != boundary.domain:
        return GrowthVerdict(False, 'D(beta) and D(beta_Gamma) differ')
    if bulk.kind != boundary.kind:
        return GrowthVerdict(False, f'the kinds differ: {bulk.kind} and {boundary.kind}')
    if bulk.kind == 'power_odd' and bulk.exponent != boundary.exponent:
        return GrowthVerdict(False, f'the exponents differ: {bulk.exponent} '
                                    f'and {boundary.exponent}')
    return GrowthVerdict(True, f'both graphs are {bulk.kind} on the same domain')


# ---------------------------------------------------------------------------
# Lipschitz perturbations


@dataclass(frozen=True)
class Perturbation:
    """Globally Lipschitz perturbation pi (or pi_Gamma).

    Either ``linear`` with a fixed slope or ``tabulated`` with piecewise
    linear interpolation between sample points (constant continuation
    outside the table, which preserves the global Lipschitz constant).
    """

    kind: str
    slope: float = 0.0
    xs: tuple = ()
    ys: tuple = ()

    def __post_init__(self):
        if self.kind not in ('linear', 'tabulated'):
            raise ValueError(f'unknown perturbation kind {self.kind!r}')
        if self.kind == 'tabulated':
            xs = np.asarray(self.xs, float)
            ys = np.asarray(self.ys, float)
            if xs.size < 2 or xs.size != ys.size:
                raise ValueError('tabulated perturbation needs >= 2 matching samples')
            if not np.all(np.diff(xs) > 0):
                raise ValueError('tabulated sample points must be strictly increasing')
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
                raise ValueError('tabulated samples must be finite')

    @property
    def lipschitz_constant(self) -> float:
        """|slope|, or the steepest slope of the table."""
        if self.kind == 'linear':
            return abs(self.slope)
        return float(np.max(np.abs(np.diff(self.ys) / np.diff(self.xs))))

    @staticmethod
    def linear(slope: float = 0.0) -> 'Perturbation':
        return Perturbation('linear', slope=float(slope))

    @staticmethod
    def tabulated(xs, ys) -> 'Perturbation':
        return Perturbation('tabulated', xs=tuple(float(x) for x in xs),
                            ys=tuple(float(y) for y in ys))

    def __call__(self, r):
        arr = _as_array(r)
        if self.kind == 'linear':
            return self.slope * arr
        return np.interp(arr, self.xs, self.ys)

    def primitive(self, r):
        """pi_hat(r) = integral of pi from 0 to r (exact for both kinds)."""
        arr = _as_array(r)
        if self.kind == 'linear':
            return 0.5 * self.slope * arr * arr
        return self._antiderivative(arr) - self._antiderivative(np.zeros(()))

    def _antiderivative(self, arr):
        # exact antiderivative of the piecewise-linear interpolant,
        # normalized to vanish at the first knot
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        knot_int = np.concatenate([[0.0], np.cumsum(0.5 * (ys[:-1] + ys[1:]) * np.diff(xs))])
        idx = np.clip(np.searchsorted(xs, arr, side='right') - 1, 0, xs.size - 2)
        x0, x1 = xs[idx], xs[idx + 1]
        y0, y1 = ys[idx], ys[idx + 1]
        t = arr - x0
        seg = knot_int[idx] + y0 * t + 0.5 * (y1 - y0) / (x1 - x0) * t * t
        below = ys[0] * (arr - xs[0])
        above = knot_int[-1] + ys[-1] * (arr - xs[-1])
        return np.where(arr < xs[0], below, np.where(arr > xs[-1], above, seg))

