"""Monotone graph machinery: resolvents, Yosida maps, envelopes, growth checks.

Root-found resolvents are cross-checked against plain bisection oracles;
envelopes against adaptive quadrature of the Yosida map.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from chb import harness
from chb import monotone_graphs as mg
from chb.errors import GraphMapFailure
from graph_oracles import bisect_log_y, bisect_power_resolvent, minimal_section


GRAPHS = {
    'zero': mg.zero(),
    'power3': mg.power_odd(3, 1.0),
    'power5': mg.power_odd(5, 0.5),
    'log': mg.logarithmic(1.0),
    'log_half': mg.logarithmic(0.5),
    'obstacle': mg.double_obstacle(-1.0, 1.0),
}


# ---------------------------------------------------------------------------
# closed forms

def test_zero_graph_resolvent_is_identity():
    r = np.linspace(-40, 40, 101)
    assert np.array_equal(mg.resolvent(GRAPHS['zero'], r, 0.37), r)
    assert np.array_equal(mg.yosida(GRAPHS['zero'], r, 0.37), np.zeros_like(r))


def test_obstacle_resolvent_is_clip():
    r = np.linspace(-5, 5, 201)
    for lam in (1e-4, 1e-2, 1.0):
        x = mg.resolvent(GRAPHS['obstacle'], r, lam)
        assert np.array_equal(x, np.clip(r, -1.0, 1.0))
        y = mg.yosida(GRAPHS['obstacle'], r, lam)
        assert np.array_equal(y, (r - np.clip(r, -1.0, 1.0)) / lam)


def test_power_resolvent_against_bisection():
    rng = np.random.default_rng(7)
    for name, (p, c) in (('power3', (3, 1.0)), ('power5', (5, 0.5))):
        spec = GRAPHS[name]
        for _ in range(50):
            r = float(rng.uniform(-30, 30))
            lam = float(10.0 ** rng.uniform(-6, 0))
            x = float(mg.resolvent(spec, r, lam))
            x_ref = bisect_power_resolvent(r, lam, p, c)
            assert abs(x - x_ref) <= 1e-11 * max(1.0, abs(r))


@pytest.mark.parametrize('lam', [1e-3, 1e-4])
def test_cubic_yosida_against_bisection(lam):
    # beta_lam(r) = beta(J_lam(r)), which the bisection root gives to a few
    # ulps; (r - J)/lam carries J's last bits over lam, so 1e-12 is about
    # two ulps of J at lam = 1e-4.  The last input is a level of the cubic
    # benchmark solve, where a scalar Newton stopped at |g| <= 1e-13 is off
    # by 9.9e-11 at lam = 1e-3.
    u = np.r_[np.linspace(-0.5, 0.5, 41), 0.22888235901190995]
    beta = bisect_power_resolvent(u, lam, 3, 1.0) ** 3
    assert np.max(np.abs(mg.yosida(GRAPHS['power3'], u, lam) - beta)) <= 1e-12


@pytest.mark.parametrize('lam', [1e-3, 1e-4])
def test_quintic_yosida_against_bisection(lam):
    # beta_lam(r) = beta(J_lam(r)) against c*x**5 of the bisection root.  The
    # guarded Newton loop stops at a relative residual of 1e-13, which moves
    # J by up to 1e-13*max(1, |r|) and beta_lam by that over lam; 1e-12 more
    # covers the round-off of (r - J)/lam, as in the cubic's check.  Inputs
    # up to |r| = 30 make k*x**5 the larger term of the resolvent equation.
    u = np.r_[np.linspace(-0.5, 0.5, 41), np.linspace(-30.0, 30.0, 41), 0.22888235901190995]
    spec = GRAPHS['power5']
    beta = spec.coefficient * bisect_power_resolvent(u, lam, 5, spec.coefficient) ** 5
    bound = 1e-13 * np.maximum(1.0, np.abs(u)) / lam + 1e-12
    assert np.all(np.abs(mg.yosida(spec, u, lam) - beta) <= bound)


# |r| from zero through the subnormals to the largest float, and lam*c from
# 1e-303 to 1e300
_CUBIC_R = np.array([0.0, 5e-324, 1e-310, 1e-200, 1e-150, 1e-100, 1e-50, 1e-20, 1e-8,
                     1e-3, 0.22888235901190995, 1.0, 37.0, 1e3, 1e8, 1e20, 1e50, 1e100,
                     1e150, 1e200, 1e250, 1e300, np.finfo(float).max])


@pytest.mark.parametrize('lam, c', [(lam, 10.0 ** e) for lam in (1.0, 1e-3)
                                    for e in range(-300, 301, 50)])
def test_cubic_resolvent_at_extreme_inputs(lam, c):
    # finite, odd, monotone and free of floating-point warnings; the
    # residual of x + k*x**3 = r (k = lam*c), computed exactly, within
    # 1e-14 of |r|; and J(r) = r wherever k*r**2 < eps, where r is the
    # root to within an ulp
    r = np.r_[-_CUBIC_R[::-1], _CUBIC_R]
    with warnings.catch_warnings(), np.errstate(over='raise', divide='raise',
                                                invalid='raise'):
        warnings.simplefilter('error')
        x = np.asarray(mg.resolvent(mg.power_odd(3, c), r, lam))
    assert np.all(np.isfinite(x))
    assert np.array_equal(x[::-1], -x)
    assert np.all(np.diff(x) >= 0)
    k, eps = Fraction(lam * c), Fraction(np.finfo(float).eps)
    for ri, xi in zip(map(Fraction, r), map(Fraction, x)):
        assert abs(xi + k * xi ** 3 - ri) <= Fraction(1e-14) * abs(ri)
        if k * ri * ri < eps:
            assert xi == ri


def test_log_resolvent_against_bisection():
    spec = GRAPHS['log']
    rng = np.random.default_rng(11)
    for _ in range(50):
        r = float(rng.uniform(-20, 20))
        lam = float(10.0 ** rng.uniform(-5, 0))
        y_ref = bisect_log_y(r, lam, 1.0)
        x_ref = math.tanh(y_ref)
        x = float(mg.resolvent(spec, r, lam))
        beta = float(mg.yosida(spec, r, lam))
        if abs(x_ref) < 1.0 - 1e-12:
            # representable root: compare in x
            assert abs(x - x_ref) <= 1e-11
        # the Yosida value 2*s*y is exact in either case
        assert abs(beta - 2.0 * y_ref) <= 1e-9 * max(1.0, abs(2.0 * y_ref))


@pytest.mark.parametrize('name', ['power5', 'log'])
def test_root_found_resolvent_reports_no_convergence(monkeypatch, name):
    # the quintic and logarithmic resolvents are root-found by one guarded
    # Newton loop; a single iteration cannot reach its tolerance
    monkeypatch.setattr(mg, '_MAX_ITER', 1)
    spec = GRAPHS[name]
    with pytest.raises(GraphMapFailure, match=f'^{spec.kind} resolvent did not converge$'):
        mg.resolvent(spec, np.array([0.3, 2.0]), 0.1)


def test_log_yosida_matches_minimal_section_in_the_limit():
    # beta_lam -> beta pointwise as lam -> 0 on the interior
    spec = GRAPHS['log']
    r = np.linspace(-0.9, 0.9, 19)
    exact = minimal_section(spec, r)
    for lam, tol in ((1e-4, 2e-2), (1e-7, 2e-5)):
        approx = mg.yosida(spec, r, lam)
        assert np.max(np.abs(approx - exact)) < tol


# ---------------------------------------------------------------------------
# primitives and envelopes

def primitive(spec, r):
    return mg._primitive(spec, np.asarray(r, dtype=float))


def test_power_primitive_closed_form():
    spec = mg.power_odd(3, 2.0)
    r = np.linspace(-2, 2, 41)
    assert np.allclose(primitive(spec, r), 2.0 * r ** 4 / 4.0, rtol=1e-14, atol=0)


def test_log_primitive_value():
    # (1+r)log(1+r) + (1-r)log(1-r) at r = 0.9, unit scale
    val = float(primitive(mg.logarithmic(1.0), 0.9))
    ref = 1.9 * math.log(1.9) + 0.1 * math.log(0.1)
    assert abs(val - ref) < 1e-14
    assert abs(val - 0.9892638744281455) < 1e-12


def test_log_primitive_against_quadrature():
    spec = mg.logarithmic(0.7)
    for r in (0.3, -0.55, 0.85):
        ref, err = quad(lambda s: float(minimal_section(spec, s)), 0.0, r,
                        epsabs=1e-13, epsrel=1e-13)
        assert abs(float(primitive(spec, r)) - ref) < 1e-10


def test_primitive_infinite_outside_domain():
    assert math.isinf(float(primitive(GRAPHS['obstacle'], 1.5)))
    assert math.isinf(float(primitive(GRAPHS['log'], 1.5)))
    assert float(primitive(GRAPHS['obstacle'], 0.5)) == 0.0


def test_yosida_primitive_against_quadrature():
    # the envelope is the antiderivative of the Yosida map vanishing at 0
    for name in ('power3', 'log', 'obstacle'):
        spec = GRAPHS[name]
        lam = 0.05
        for r in (0.4, -0.9, 1.7, -2.3):
            ref, err = quad(lambda s: float(mg.yosida(spec, s, lam)), 0.0, r,
                            epsabs=1e-12, epsrel=1e-12)
            val = float(mg.yosida_primitive(spec, r, lam))
            assert abs(val - ref) < 1e-9, (name, r)


def test_envelope_bounds():
    r = np.linspace(-3, 3, 601)
    for name, spec in GRAPHS.items():
        for lam in (1e-3, 0.1, 1.0):
            env = np.asarray(mg.yosida_primitive(spec, r, lam))
            assert np.all(env >= -1e-15), name
            full = np.asarray(primitive(spec, r))
            assert np.all(env <= full + 1e-12), name


def test_yosida_below_minimal_section():
    # |beta_lam(r)| <= |beta°(r)| on the domain
    cases = {
        'power3': np.linspace(-10, 10, 101),
        'log': np.linspace(-0.99, 0.99, 99),
        'obstacle': np.linspace(-1.0, 1.0, 81),
    }
    for name, r in cases.items():
        spec = GRAPHS[name]
        b0 = np.abs(minimal_section(spec, r))
        for lam in (1e-4, 1e-2, 0.5):
            bl = np.abs(np.asarray(mg.yosida(spec, r, lam)))
            assert np.all(bl <= b0 + 1e-12), name


# ---------------------------------------------------------------------------
# property tests

_lam = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
_r = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@settings(deadline=None, max_examples=150, derandomize=True, database=None)
@given(r1=_r, r2=_r, lam=_lam)
@pytest.mark.parametrize('name', sorted(GRAPHS))
def test_resolvent_nonexpansive(name, r1, r2, lam):
    spec = GRAPHS[name]
    x1 = float(mg.resolvent(spec, r1, lam))
    x2 = float(mg.resolvent(spec, r2, lam))
    assert abs(x1 - x2) <= abs(r1 - r2) * (1 + 1e-12) + 1e-13


@settings(deadline=None, max_examples=150, derandomize=True, database=None)
@given(r1=_r, r2=_r, lam=_lam)
@pytest.mark.parametrize('name', sorted(GRAPHS))
def test_yosida_lipschitz_and_monotone(name, r1, r2, lam):
    spec = GRAPHS[name]
    y1 = float(mg.yosida(spec, r1, lam))
    y2 = float(mg.yosida(spec, r2, lam))
    scale = max(1.0, abs(y1), abs(y2))
    assert (y1 - y2) * (r1 - r2) >= -1e-12 * scale * max(1.0, abs(r1 - r2))
    assert abs(y1 - y2) <= abs(r1 - r2) / lam * (1 + 1e-10) + 1e-12 / lam


@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(r=_r, lam=_lam)
@pytest.mark.parametrize('name', sorted(GRAPHS))
def test_resolvent_stays_in_domain_and_contracts(name, r, lam):
    spec = GRAPHS[name]
    x = float(mg.resolvent(spec, r, lam))
    lower, upper, _ = spec.domain
    assert lower <= x <= upper
    # 0 in beta(0) for every kind here, so the resolvent contracts toward 0
    assert abs(x) <= abs(r) * (1 + 1e-12) + 1e-300


@settings(deadline=None, max_examples=100, derandomize=True, database=None)
@given(r=_r, lam=_lam)
@pytest.mark.parametrize('name', sorted(GRAPHS))
def test_yosida_derivative_is_the_slope(name, r, lam):
    spec = GRAPHS[name]
    d = float(mg.yosida_derivative(spec, r, lam))
    assert 0.0 <= d <= 1.0 / lam
    # beta_lam is odd and convex on r >= 0, so its slope lies between the
    # one-sided difference quotients: the central difference, their mean, is
    # off by at most half their spread, plus round-off (under 1e-4 of
    # max(1, d) on 2.5e5 draws with lam down to 1e-6)
    h = 1e-6 * max(1.0, abs(r))
    ym, y0, yp = (float(mg.yosida(spec, s, lam)) for s in (r - h, r, r + h))
    left, right = (y0 - ym) / h, (yp - y0) / h
    assert abs(d - (left + right) / 2) <= abs(right - left) / 2 + 1e-3 * max(1.0, d)
    if spec.kind == 'double_obstacle':
        # 1/lam at the kinks themselves, by convention, also at a signed zero
        assert d == (0.0 if abs(r) < 1.0 else 1.0 / lam)
        ends = [0.0, -0.0, math.nextafter(0.0, 1.0), math.nextafter(0.0, -1.0)]
        slopes = mg.yosida_derivative(mg.double_obstacle(-1.0, 0.0), ends, lam)
        assert slopes.tolist() == [1.0 / lam] * 3 + [0.0]


# ---------------------------------------------------------------------------
# growth hypotheses

# Verdicts for every ordered pair, from the paper's definitions.  Rows are
# the bulk graph beta, columns the boundary graph beta_Gamma.
#   domination:  D(beta_Gamma) ⊆ D(beta) and |beta°| <= rho*|beta_Gamma°| + c
#                on D(beta_Gamma);
#   same growth: D(beta) = D(beta_Gamma) and
#                (1/M)|beta_Gamma°| - M <= |beta°| <= M(|beta_Gamma°| + 1).
# 'S' marks both, 'D' domination alone, '.' neither.
TABLE_GRAPHS = {
    'zero': mg.zero(),
    'pow3': mg.power_odd(3, 1.0),
    'pow3x4': mg.power_odd(3, 4.0),
    'pow5': mg.power_odd(5, 1.0),
    'log.5': mg.logarithmic(0.5),
    'log1': mg.logarithmic(1.0),
    'obs1': mg.double_obstacle(-1.0, 1.0),
    'obs.5': mg.double_obstacle(-0.5, 0.5),
}
GROWTH_TABLE = """
        zero  pow3  pow3x4  pow5  log.5  log1  obs1  obs.5
zero     S     D     D       D     D      D     D     D
pow3     .     S     S       D     D      D     D     D
pow3x4   .     S     S       D     D      D     D     D
pow5     .     .     .       S     D      D     D     D
log.5    .     .     .       .     S      S     .     D
log1     .     .     .       .     S      S     .     D
obs1     .     .     .       .     D      D     S     D
obs.5    .     .     .       .     .      .     .     S
"""
_header, *_rows = (line.split() for line in GROWTH_TABLE.strip().splitlines())
EXPECTED_GROWTH = {(row[0], col): mark
                   for row in _rows for col, mark in zip(_header, row[1:])}


@pytest.mark.parametrize('bulk,boundary', sorted(EXPECTED_GROWTH),
                         ids=lambda name: name)
def test_growth_hypotheses_follow_the_kind_table(bulk, boundary):
    mark = EXPECTED_GROWTH[bulk, boundary]
    dom = mg.check_domination(TABLE_GRAPHS[bulk], TABLE_GRAPHS[boundary])
    growth = mg.check_same_growth(TABLE_GRAPHS[bulk], TABLE_GRAPHS[boundary])
    assert (dom.feasible, growth.feasible) == (mark != '.', mark == 'S')
    assert dom.reason and growth.reason


# ---------------------------------------------------------------------------
# domains, errors, serialization

def test_graph_spec_validation():
    with pytest.raises(ValueError):
        mg.power_odd(4)            # even exponent
    with pytest.raises(ValueError):
        mg.power_odd(3, -1.0)      # negative coefficient
    with pytest.raises(ValueError):
        mg.logarithmic(0.0)
    with pytest.raises(ValueError):
        mg.double_obstacle(0.5, 2.0)   # must contain 0
    with pytest.raises(ValueError):
        mg.double_obstacle(-math.inf, 1.0)   # a double obstacle is bounded
    with pytest.raises(ValueError, match="unknown graph kind 'cubic'"):
        mg.GraphSpec('cubic')
    with pytest.raises(ValueError, match="unknown perturbation kind 'quadratic'"):
        mg.Perturbation('quadratic')
    # every Yosida map solves through the resolvent, which needs lam > 0
    for f in (mg.resolvent, mg.yosida, mg.yosida_derivative, mg.yosida_primitive):
        for lam in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match='lam must be positive'):
                f(GRAPHS['power3'], 0.5, lam)


def test_spec_built_directly_has_the_domain_of_its_kind():
    # the domain follows the kind, also without the factory functions
    assert not mg.GraphSpec('logarithmic', scale=0.5).contains(2.0)
    assert not mg.GraphSpec('double_obstacle', lower=-0.5, upper=0.5).contains(0.9)
    assert mg.GraphSpec('double_obstacle', lower=-0.5, upper=0.5).domain == (-0.5, 0.5, True)
    assert mg.GraphSpec('logarithmic', scale=0.5) == mg.logarithmic(0.5)


# config object -> graph it must parse to, every kind with and without its
# parameters (the defaults) and every graph of GRAPHS
GRAPH_JSON_TABLE = [
    ({'kind': 'zero'}, mg.zero()),
    ({'kind': 'power_odd'}, mg.power_odd(3, 1.0)),
    ({'kind': 'power_odd', 'exponent': 3, 'coefficient': 1.0}, GRAPHS['power3']),
    ({'kind': 'power_odd', 'exponent': 5, 'coefficient': 0.5}, GRAPHS['power5']),
    ({'kind': 'logarithmic'}, mg.logarithmic(1.0)),
    ({'kind': 'logarithmic', 'scale': 1.0}, GRAPHS['log']),
    ({'kind': 'logarithmic', 'scale': 0.5}, GRAPHS['log_half']),
    ({'kind': 'double_obstacle'}, GRAPHS['obstacle']),
    ({'kind': 'double_obstacle', 'lower': -0.5, 'upper': 2.0}, mg.double_obstacle(-0.5, 2.0)),
]


def read_problem(**problem):
    """The problem section as the config reader reads it, with zero graphs
    and a zero u0 unless given."""
    zero = {'kind': 'zero'}
    spec = dict({'bulk_graph': zero, 'boundary_graph': zero, 'u0': {}}, **problem)
    return harness.ExperimentConfig.from_dict({'experiment': 'graph_check',
                                               'problem': spec}).problem


def test_graph_from_json_table():
    for d, spec in GRAPH_JSON_TABLE:
        assert read_problem(bulk_graph=d).bulk_graph == spec, d
        assert read_problem(boundary_graph=d).boundary_graph == spec, d
    assert {spec.kind for _, spec in GRAPH_JSON_TABLE} == {
        'zero', 'power_odd', 'logarithmic', 'double_obstacle'}
    assert {spec for _, spec in GRAPH_JSON_TABLE} >= set(GRAPHS.values())


def test_perturbation_linear_and_tabulated():
    lin = mg.Perturbation.linear(-2.0)
    r = np.linspace(-3, 3, 13)
    assert np.allclose(lin(r), -2.0 * r, rtol=0, atol=0)
    assert np.allclose(lin.primitive(r), -r ** 2, rtol=1e-15, atol=1e-15)
    assert lin.lipschitz_constant == 2.0

    xs = (-1.0, 0.0, 1.0, 2.0)
    ys = (1.0, 0.0, -0.5, -0.5)
    tab = mg.Perturbation.tabulated(xs, ys)
    assert tab.lipschitz_constant == 1.0
    assert float(tab(0.5)) == -0.25
    # primitive is exact for the piecewise-linear interpolant
    for r in (-0.5, 0.7, 1.5, 3.0):
        ref, _ = quad(lambda s: float(tab(s)), 0.0, r, epsabs=1e-13)
        assert abs(float(tab.primitive(r)) - ref) < 1e-10


def test_perturbation_from_json_table():
    table = [
        ({'kind': 'linear'}, mg.Perturbation.linear(0.0)),
        ({'kind': 'linear', 'slope': -1.0}, mg.Perturbation.linear(-1.0)),
        # the Lipschitz constant is the steepest table slope
        ({'kind': 'tabulated', 'xs': [0.0, 1.0], 'ys': [0.0, -1.0]},
         mg.Perturbation.tabulated((0.0, 1.0), (0.0, -1.0))),
        ({'kind': 'tabulated', 'xs': [-1, 0, 2], 'ys': [1, 0, 0]},
         mg.Perturbation('tabulated', xs=(-1.0, 0.0, 2.0), ys=(1.0, 0.0, 0.0))),
    ]
    for d, p in table:
        assert read_problem(pi=d).pi == p, d
        assert read_problem(pi_gamma=d).pi_gamma == p, d
    assert [p.lipschitz_constant for _, p in table] == [0.0, 1.0, 1.0, 1.0]
