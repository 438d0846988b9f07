"""Independent references for the monotone graphs, written from their
definitions and sharing no code with `chb.monotone_graphs`: the minimal
section beta°, the domain D(beta), and bisection roots of the resolvent
equations.  Every function works elementwise on scalars and arrays."""

from __future__ import annotations

import numpy as np


def minimal_section(spec, r):
    """beta°(r) for r in D(beta): 0 for the zero graph and the obstacle
    (0 lies in the normal cone at the closed ends too), c*r**p for an odd
    power, 2*s*artanh(r) for the logarithmic graph."""
    r = np.asarray(r, dtype=float)
    if spec.kind == 'power_odd':
        return spec.coefficient * r ** spec.exponent
    if spec.kind == 'logarithmic':
        return 2.0 * spec.scale * np.arctanh(r)
    return np.zeros_like(r)


def in_domain(spec, r):
    """r in D(beta): the open interval (-1, 1) for the logarithmic graph,
    the closed [lower, upper] for the obstacle, all of R otherwise."""
    r = np.asarray(r, dtype=float)
    if spec.kind == 'logarithmic':
        return np.abs(r) < 1.0
    if spec.kind == 'double_obstacle':
        return (r >= spec.lower) & (r <= spec.upper)
    return np.ones_like(r, dtype=bool)


def bisect_power_resolvent(r, lam, p, c, iters=200):
    """Root of x + lam*c*x**p = r by bisection (monotone scalar equation)."""
    a = np.abs(r)
    lo, hi = np.zeros_like(a), a
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = mid + lam * c * mid ** p < a
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.copysign(0.5 * (lo + hi), r)


def bisect_log_y(r, lam, s, iters=200):
    """Root y of tanh(y) + 2*lam*s*y = r, the y-parametrization x = tanh(y)
    of x + 2*lam*s*artanh(x) = r."""
    a = np.abs(r)
    lo, hi = np.zeros_like(a), a / (2.0 * lam * s) + 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = np.tanh(mid) + 2.0 * lam * s * mid < a
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.copysign(0.5 * (lo + hi), r)
