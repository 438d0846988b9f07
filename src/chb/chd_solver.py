"""Backward-Euler time integration of the viscous Cahn-Hilliard system
with a dynamic Cahn-Hilliard-type boundary condition on the unit disk.

The paper's unknowns are the sextuplet (u, mu, xi, v, w, eta).  With
the Yosida approximation the selections xi = beta_lam(u) and
eta = beta_Gamma_lam(v) are functions of the state, so Newton solves for
(u, mu, v, w) only and a time level stores those four.  One step solves

    (u' - u)/dt = Lap mu',                         zero flux on mu',
    mu' = lam*(u'-u)/dt - Lap u' + beta_lam(u') + pi(u) - f(t'),
    (v' - v)/dt = Lap_Gamma w',
    w'  = lam*(v'-v)/dt + dnu u' - delta*Lap_Gamma v'
          + beta_Gamma_lam(v') + pi_Gamma(v) - g(t'),

with u'|_Gamma = v' by unknown identification.  Monotone terms are
implicit, the Lipschitz perturbations explicit (convex-concave
splitting), which makes the discrete energy nonincreasing for autonomous
data and conserves both means exactly (conservative stencils).

Newton uses the a.e. derivative of the Yosida terms and starts each step
(from the third on) at the linear extrapolation of the last two levels.
A factorization is kept across iterations and steps.  For the
piecewise-linear graphs (zero, double obstacle) each slope is 0 or 1/lam,
so the Jacobian at an iterate's own slopes differs from the kept one only
where the active set moved; whenever that is a low-rank update, each
iteration takes it, which makes the iteration semismooth Newton, the
primal-dual active-set method (Hintermueller, Ito & Kunisch, SIAM J.
Optim. 13, 2002; Blank, Butz & Garcke, ESAIM COCV 17, 2011, for the
obstacle Cahn-Hilliard system).  Otherwise Newton is a chord method, its
factorization refreshed only when the residual stalls.  When the slopes are
constant on every ring and on the circle the Jacobian does not depend on
theta, and it is factorized exactly in theta-Fourier modes
(`disk_grid.ThetaModes`); else SuperLU factorizes it in the row order
that makes it symmetric quasi-definite.  Smooth graphs' slopes vary in
theta, and their chord runs on a Fourier base at the slopes' ring means
(a few ms to build at 64x128, against 57 ms for SuperLU) until it fails;
then the step goes over to the exact Jacobian.  A refresh that changes
few slopes (an obstacle's moving active set) updates the kept LU through
a small capacitance matrix instead of factorizing again.  Convergence is
always judged on the true nonlinear residual, so the reuse and the mean
slopes are a pure economy.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from . import disk_grid as dg
from . import monotone_graphs as mg
from .errors import (GraphMapFailure, LinearSolveFailure, NewtonDivergence,
                     SolveFailure, ValidationFailure)

__all__ = (
    'SolverConfig', 'ProblemData', 'StepSolution', 'DiagnosticsRow',
    'Diagnostics', 'RunRecord', 'RunResult', 'NewtonStepper',
    'validate', 'run', 'energy', 'initial_state',
    'harmonic', 'preset_problem', 'PRESET_NAMES', 'TIME_KINDS',
)


# ---------------------------------------------------------------------------
# sources and analytic profiles

TIME_KINDS = ('constant', 'exp', 'cos')


def harmonic(grid: dg.DiskGrid, amplitude: float, mode: int, phase: float = 0.0,
             offset: float = 0.0, trace: bool = False) -> np.ndarray:
    """offset + amplitude*r^mode*cos(mode*theta + phase) on the bulk cells,
    or its trace at r = 1 on the circle."""
    if trace:
        return offset + amplitude * np.cos(mode * grid.theta + phase)
    rm = grid.r[:, None] ** mode
    return offset + amplitude * rm * np.cos(mode * grid.theta[None, :] + phase)


@dataclass(frozen=True)
class _Source:
    """Time-dependent source: zero, separable profile*T(t), tabulated
    frames, or the sum of two sources.

    Picklable (plain data only) so runs can be farmed out to worker
    processes by the harness.
    """

    shape: tuple
    kind: str = 'zero'
    spatial: np.ndarray | None = None
    time_kind: str = 'constant'
    rate: float = 0.0
    omega: float = 0.0
    times: tuple = ()
    frames: np.ndarray | None = None
    parts: tuple = ()

    def __post_init__(self):
        if self.kind == 'tabulated' and (sorted(self.times) != list(self.times)
                                         or not 0 < len(self.times) == len(self.frames)):
            raise ValueError('a tabulated source needs increasing times, one frame each')

    def __call__(self, t: float) -> np.ndarray:
        if self.kind == 'zero':
            return np.zeros(self.shape)
        if self.kind == 'sum':
            return self.parts[0](t) + self.parts[1](t)
        if self.kind == 'separable':
            if self.time_kind == 'constant':
                factor = 1.0
            elif self.time_kind == 'exp':
                factor = math.exp(self.rate * t)
            else:
                factor = math.cos(self.omega * t)
            return factor * self.spatial
        # tabulated: linear interpolation in t, constant continuation
        ts = np.asarray(self.times)
        idx = np.searchsorted(ts, t)
        if idx == 0:
            return self.frames[0].copy()
        if idx >= ts.size:
            return self.frames[-1].copy()
        t0, t1 = ts[idx - 1], ts[idx]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self.frames[idx - 1] + lam * self.frames[idx]

    def __add__(self, other: '_Source') -> '_Source':
        if self.kind == 'zero':
            return other
        if other.kind == 'zero':
            return self
        return _Source(self.shape, 'sum', parts=(self, other))


# ---------------------------------------------------------------------------
# problem data and configuration

@dataclass
class ProblemData:
    """Sources, initial data, graphs, and perturbations for one run."""

    grid: dg.DiskGrid
    bulk_graph: mg.GraphSpec
    boundary_graph: mg.GraphSpec
    pi: mg.Perturbation
    pi_gamma: mg.Perturbation
    f: _Source
    g: _Source
    u0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=float)
        self.v0 = np.asarray(self.v0, dtype=float)
        g = self.grid
        if self.u0.shape != (g.n_r, g.n_theta):
            raise ValueError('u0 shape does not match the grid')
        if self.v0.shape != (g.n_theta,):
            raise ValueError('v0 shape does not match the grid')


@dataclass
class SolverConfig:
    delta: float
    lam: float
    dt: float
    t_end: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError('delta must lie in [0, 1]')
        if not 0.0 < self.lam <= 1.0:
            raise ValueError('lambda must lie in (0, 1]')
        if not self.dt > 0:
            raise ValueError('dt must be positive')
        if not self.t_end > 0:
            raise ValueError('t_end must be positive')
        if not self.newton_tol > 0:
            raise ValueError('newton_tol must be positive')
        if self.newton_max_iter < 1:
            raise ValueError('newton_max_iter must be at least 1')


PRESET_NAMES = ('cubic', 'logarithmic', 'obstacle', 'backward')


def preset_problem(preset: str, grid: dg.DiskGrid, amplitude: float = 0.2,
                   mode: int = 2, offset: float = 0.05) -> ProblemData:
    """Named problem families with compatible smooth initial data.

    u0 = offset + amplitude*r^mode*cos(mode*theta) with the matching trace
    ring; f = g = 0; beta = beta_Gamma and pi = pi_Gamma.  The logarithmic
    family has scale 0.5 and pi = -2r.
    """
    if preset == 'cubic':
        graph, slope = mg.power_odd(3, 1.0), -1.0
    elif preset == 'logarithmic':
        graph, slope = mg.logarithmic(0.5), -2.0
    elif preset == 'obstacle':
        graph, slope = mg.double_obstacle(-1.0, 1.0), -1.0
    elif preset == 'backward':
        graph, slope = mg.zero(), -1.0
    else:
        raise ValueError(f'unknown preset {preset!r}; choose from {PRESET_NAMES}')
    u0 = harmonic(grid, amplitude, mode, offset=offset)
    v0 = harmonic(grid, amplitude, mode, offset=offset, trace=True)
    pi = mg.Perturbation.linear(slope)
    return ProblemData(grid, graph, graph, pi, pi, _Source((grid.n_r, grid.n_theta)),
                       _Source((grid.n_theta,)), u0, v0)


# ---------------------------------------------------------------------------
# validation

def validate(problem: ProblemData, config: SolverConfig) -> list:
    """Check the admissibility assumptions; returns the list of failures
    (empty when the data are admissible), never raises.

    Verifies trace compatibility of (u0, v0) with the one-sided boundary
    stencil, initial ranges strictly inside the graph domains, and
    domination of the bulk graph by the boundary graph.  Same growth is
    not checked here: only the delta-sweep's rate claim needs it.
    """
    failures = []
    g = problem.grid
    u0, v0 = problem.u0, problem.v0

    if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(v0))):
        failures.append('NonFiniteData: initial data contains non-finite values')

    # trace compatibility: linear extrapolation from the last two rings to r=1
    ext = u0[-1, :] + 0.5 * (u0[-1, :] - u0[-2, :])
    compat_error = float(np.max(np.abs(ext - v0)))
    scale = max(1.0, float(np.max(np.abs(u0))), float(np.max(np.abs(v0))))
    compat_tol = 25.0 * g.dr ** 2 * scale
    if compat_error > compat_tol:
        failures.append(f'TraceIncompatibility: |u0 ring extrapolation - v0| = '
                        f'{compat_error:.3e} exceeds {compat_tol:.3e}')

    if not np.all(problem.bulk_graph.contains(u0, strict_margin=1e-12)):
        failures.append('IncompatibleRange: essential range of u0 not inside int D(beta)')
    if not np.all(problem.boundary_graph.contains(v0, strict_margin=1e-12)):
        failures.append('IncompatibleRange: range of v0 not inside int D(beta_Gamma)')

    domination = mg.check_domination(problem.bulk_graph, problem.boundary_graph)
    if not domination.feasible:
        failures.append(f'DominationViolation: {domination.reason}')

    dt_lip = config.dt * (problem.pi.lipschitz_constant
                          + problem.pi_gamma.lipschitz_constant)
    if dt_lip > 0.5:
        warnings.warn(f'dt*(L + L_Gamma) = {dt_lip:.3g} exceeds 0.5; the explicit '
                      'perturbation treatment may be inaccurate', stacklevel=2)

    return failures


# ---------------------------------------------------------------------------
# states, diagnostics

@dataclass
class StepSolution:
    """What Newton solves for at one time level, (u, mu, v, w).

    Bulk arrays u, mu have shape (n_r, n_theta); boundary arrays v, w have
    shape (n_theta,).  The selections xi = beta_lam(u) and
    eta = beta_Gamma_lam(v) are not stored; `mg.yosida` gives them.
    """
    t: float
    u: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    w: np.ndarray


@dataclass
class DiagnosticsRow:
    t: float
    mass_bulk: float
    mass_trace: float
    energy: float
    d_energy: float
    grad_mu: float
    grad_w: float
    overshoot: float
    delta_h1v: float
    newton_iters: int


@dataclass
class Diagnostics:
    rows: list = field(default_factory=list)


@dataclass
class RunRecord:
    """What a run did, counted by every stepper of the run: the Newton
    iterations of its converged steps, the Jacobian refreshes served by a
    new LU and by a low-rank update of the kept one, the largest L+U nnz
    (of the mode matrix for a Fourier base), the line search's halvings of
    a step and the full steps taken as non-monotone fallbacks; these two
    count as they happen, so a step that then fails shows its work too.
    The new LUs are split by base: theta-Fourier (a smooth run's mean
    chord among them) or SuperLU."""
    newton_iters: int = 0
    lu_factorizations: int = 0
    lu_updates: int = 0
    lu_nnz: int = 0
    line_search_halvings: int = 0
    nonmonotone_steps: int = 0
    fourier_factorizations: int = 0
    superlu_factorizations: int = 0


@dataclass
class RunResult:
    diagnostics: Diagnostics
    error: SolveFailure | None
    wall_time: float
    record: RunRecord


def _overshoot(values: np.ndarray, spec: mg.GraphSpec) -> float:
    """Max distance of the values beyond the (bounded) graph domain."""
    lo, hi, _ = spec.domain
    return max(0.0, float(np.max(values - hi)), float(np.max(lo - values)))


def energy(state: StepSolution, problem: ProblemData, config: SolverConfig,
           trace_seminorm: float) -> float:
    """Discrete Lyapunov functional at a time level (sources at state.t);
    `trace_seminorm` is |v|_{H^1(Gamma)}, which the caller already has."""
    g = problem.grid
    t, u, v = state.t, state.u, state.v
    lam = config.lam
    grad2 = dg.h1_seminorm_bulk(g, u, v) ** 2
    wv = g.weights
    bw = g.boundary_weights
    bulk = np.sum(wv * (mg.yosida_primitive(problem.bulk_graph, u, lam)
                        + problem.pi.primitive(u) - problem.f(t) * u))
    surf = np.sum(bw * (mg.yosida_primitive(problem.boundary_graph, v, lam)
                        + problem.pi_gamma.primitive(v) - problem.g(t) * v))
    surf_grad2 = trace_seminorm ** 2
    return float(0.5 * grad2 + bulk + 0.5 * config.delta * surf_grad2 + surf)


# ---------------------------------------------------------------------------
# the Newton stepper

# A refresh that changes at most this many Yosida slopes against the kept
# factorization is served by a capacitance update instead of a new LU.  The
# break-even is the SuperLU base's, the one a factorization at
# theta-varying slopes gets: on the 128x256 obstacle Jacobian (66,048
# unknowns, 2 cores) SuperLU takes about 0.95 s to factorize and 13 ms per
# new column of Z, so about 70 new columns cost as much as one
# factorization.  On the theta-Fourier base an update costs one solve per
# distinct line among the changed slopes, and each updated solve one more
# solve, so there the budget is not a break-even.
# On small grids the budget is half the slopes: an update of nearly full
# rank is no cheaper than a new LU.
UPDATE_BUDGET = 64


def _splu_modes(modes):
    """SuperLU of a theta-mode matrix with a one-column panel: its diagonal
    blocks hold 2*n_r + 2 rows each, too few for wider supernode panels to
    pay for their rows x panel work arrays.  `splu` is looked up at call
    time, so a wrapper set on this module sees the factorization."""
    return splu(modes, panel_size=1)


class _SuperLUBase:
    """SuperLU factor of the Jacobian with its equations in the order
    (mu-eq, u-eq, w-eq, v-eq): scaled by the quadrature weights the rows
    are then symmetric, so minimum degree on A+A^T with diagonal pivots
    is stable.  Solves take and return the natural order.

    Like `dg.ThetaModes` it answers `inverse_block` and `solve_sparse`,
    but from dense columns of the inverse that it keeps: a second
    SuperLU solve costs more than a product with them."""

    def __init__(self, jac, rows):
        self._rows = rows
        self._lu = splu(jac[rows], permc_spec='MMD_AT_PLUS_A', diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
        self.nnz = self._lu.nnz
        self._z_cols = np.empty(0, dtype=int)
        self._z = np.empty((0, rows.size))

    def solve(self, b):
        return self._lu.solve(b[self._rows])

    def _columns(self, cols):
        """The inverse's columns `cols` (ascending), transposed.  Each is
        solved once and kept while its index stays among the columns
        asked for."""
        if not np.array_equal(cols, self._z_cols):
            hit = np.isin(cols, self._z_cols)
            z = np.empty((cols.size, self._rows.size))
            z[hit] = self._z[np.searchsorted(self._z_cols, cols[hit])]
            new = cols[~hit]
            if new.size:
                b = np.zeros((self._rows.size, new.size))
                b[new, np.arange(new.size)] = 1.0
                z[~hit] = self.solve(b).T
            self._z, self._z_cols = z, cols
        return self._z

    def inverse_block(self, rows, cols):
        return self._columns(cols)[:, rows].T

    def solve_sparse(self, cols, c):
        return c @ self._columns(cols)


class NewtonStepper:
    """One backward-Euler step for fixed (problem, config, dt).

    The step's equations are written once: x = (u, mu, v, w) has the
    residual x + T L x + c - beta(x), L the constant coupling, T its rows'
    time-step factors, c the step's data (summed once per step) and beta
    the Yosida terms, which the slope map puts in the mu-eq of each u_i
    and the w-eq of each v_j.  The Jacobian I + T L - P(d) holds the a.e.
    slopes d at the same positions.

    :meth:`jacobian_at` assembles the whole Jacobian at an iterate, the
    reference that the factorized solves are checked against.  A step
    factorizes it (in theta-Fourier modes when its slopes are constant on
    every ring and on the circle, else with SuperLU in the symmetric row
    order) and refreshes it once an iteration cuts the residual by less
    than 4.  It counts its work into `record`, a fresh `RunRecord` unless
    one is given.

    When a graph is piecewise-linear, every iteration that is not due that
    refresh takes the slopes at its iterate, and if they differ from the
    served ones in at most the update budget against the base, solves at
    them through a capacitance update: the primal-dual active-set method
    (module docstring).  A change past the budget keeps the chord until
    it stalls.

    When neither graph is piecewise-linear, each step starts on the mean
    chord: a refresh factorizes the Jacobian at the ring means of the
    slopes (one per ring and one for the circle), a Fourier base, and the
    line search tries the full step only.  The chord fails when a full
    step is rejected, or when a fresh mean base (refreshed at the last
    iteration) does not cut the residual by 4; the step then refreshes at
    the iterate's own slopes, with SuperLU, and stays on that exact path,
    with its damped retries, for the rest of the step.  The mean chord's
    first iteration of a step is not judged: it cuts the predictor's error
    by only about 2, on a kept base and a fresh one alike, and the next
    ones by about 50 (cubic, amplitude 0.9, 32x64).

    A rejected step refreshes at the same iterate and retries; at a fresh
    Jacobian it takes the full step anyway, once per new lowest residual
    on every graph (the obstacle's kinks, or round-off noise on a smooth one).
    """

    def __init__(self, problem: ProblemData, config: SolverConfig, dt: float,
                 record: RunRecord | None = None):
        self.problem = problem
        self.config = config
        self.dt = float(dt)
        self.record = RunRecord() if record is None else record
        g = problem.grid
        n, nt = g.size, g.n_theta
        self.n, self.nt = n, nt
        self.visc = visc = config.lam / self.dt
        # L: the Jacobian at zero slopes less its unit main diagonal, and with
        # the u-eq and v-eq rows' factor dt kept apart in T = diag(row_dt):
        # scaling the Laplacians' entries would round away their exact zero
        # row sums, which conserve both means.  Columns (u, mu, v, w), rows
        # (u-eq, mu-eq, v-eq, w-eq).
        a_dir, b_dir = dg.dirichlet_laplacian_matrices(g)
        lap_gamma = dg.circle_laplacian_matrix(g)
        self._lin = sps.bmat(
            [[None, -dg.neumann_laplacian_matrix(g), None, None],
             [-visc * sps.identity(n) + a_dir, None, b_dir, None],
             [None, None, None, -lap_gamma],
             [(2.0 / g.dr) * sps.eye(nt, n, n - nt), None,
              -(visc + 2.0 / g.dr) * sps.identity(nt) + config.delta * lap_gamma, None]],
            format='csc')
        self._row_dt = np.repeat([self.dt, 1.0, self.dt, 1.0], [n, n, nt, nt])
        # the quadrature weight of each equation
        self.weights = np.concatenate([g.weights.ravel()] * 2 + [g.boundary_weights] * 2)
        # the equations in the order (mu-eq, u-eq, w-eq, v-eq): the Jacobian's
        # rows then make it symmetric once scaled by the quadrature weights
        self._rows = np.r_[n:2 * n, :n, 2 * n + nt:2 * (n + nt), 2 * n:2 * n + nt]
        # the slope map's equations and unknowns as slices, graph by graph
        self._beta_at = ((slice(n, 2 * n), slice(0, n), problem.bulk_graph),
                         (slice(2 * n + nt, None), slice(2 * n, 2 * n + nt),
                          problem.boundary_graph))
        # neither graph piecewise-linear: no kinks, and a chord at the slopes'
        # ring means until it fails (class docstring)
        self._mean_chord = not {problem.bulk_graph.kind, problem.boundary_graph.kind} \
            & {'zero', 'double_obstacle'}
        self._exact = not self._mean_chord   # refreshes take the iterate's own slopes
        self._base = None          # dg.ThetaModes or _SuperLUBase at slopes _base_d
        self._base_d = None
        self._d = None             # slopes of the Jacobian that _solve serves
        self._eqs = np.empty(0, dtype=int)   # U's rows: the equations of the slopes K
        self._unknowns = None      # V's rows: the unknowns of the slopes K
        self._cap = None           # (I - D V^T J_base^-1 U)^-1 D

    # -- assembly ----------------------------------------------------------

    def _yosida(self, fn, u, v):
        """fn (`mg.yosida`, or `mg.yosida_derivative` for the a.e. slopes) of
        the bulk graph at u, then of the boundary graph at v."""
        lam = self.config.lam
        return np.concatenate([fn(self.problem.bulk_graph, u.ravel(), lam),
                               fn(self.problem.boundary_graph, v, lam)])

    def _slope_map(self, k=None):
        """(equation row, unknown column) of the slopes k, all by default:
        the slope of u_i (k = i) sits in the mu-eq of u_i, that of v_j
        (k = n + j) in the w-eq of v_j."""
        k = np.arange(self.n + self.nt) if k is None else k
        return k + self.n + self.nt * (k >= self.n), k + self.n * (k >= self.n)

    def jacobian_at(self, u: np.ndarray, v: np.ndarray) -> sps.csc_matrix:
        """4-block Jacobian with the a.e. Yosida slopes at (u, v)."""
        return self._jacobian(self._yosida(mg.yosida_derivative, u, v))

    def _jacobian(self, d, rows=None):
        """(I + T L - P(d))[rows], all rows by default, P holding the slopes d
        at their map positions.  Only the units and slopes that lie in the
        rows are placed, so a few rows cost no assembly of the whole."""
        size = self._lin.shape[0]
        lin, rows = (self._lin, np.arange(size)) if rows is None else (self._lin[rows], rows)
        at = np.full(size, -1)        # the position of each equation among the rows
        at[rows] = np.arange(rows.size)
        eqs, unknowns = self._slope_map()
        hit = at[eqs] >= 0
        scaled = sps.csc_matrix((lin.data * self._row_dt[rows][lin.indices], lin.indices,
                                 lin.indptr), shape=lin.shape)
        return scaled + sps.csc_matrix(
            (np.r_[np.ones(rows.size), -d[hit]],
             (np.r_[np.arange(rows.size), at[eqs[hit]]], np.r_[rows, unknowns[hit]])),
            shape=lin.shape)

    def _refresh_lu(self, u, v, factorize=True):
        """Make `_solve` serve the Jacobian at (u, v), or at the ring means
        of its slopes off the exact path; False when it already does, to a
        relative 1e-8 in each slope: below the round-off floor, where each
        iterate moves the slopes by a few ulps, a new factorization would
        change nothing that the chord's test can see.  With `factorize`
        False only an update is made, and a refresh that needs a new LU
        returns False."""
        d = self._yosida(mg.yosida_derivative, u, v)
        if not self._exact:
            d = np.repeat(d.reshape(-1, self.nt).mean(axis=1), self.nt)
        if self._d is not None and np.all(np.abs(d - self._d) <= 1e-8 * np.abs(d)):
            return False
        changed = None if self._base is None else np.flatnonzero(d != self._base_d)
        if changed is None or changed.size > min(UPDATE_BUDGET, d.size // 2):
            if not factorize:
                return False
            self._factorize(d)
        else:
            self._update(changed, d)
        self._d = d
        return True

    def _factorize(self, d):
        # release the kept factorization first, so two never coexist
        self._base = self._cap = None
        self._eqs = np.empty(0, dtype=int)
        lines = d.reshape(-1, self.nt)   # the slopes on each ring, then on the circle
        try:
            if np.all(lines == lines[:, :1]):
                # the theta-index-0 row of each line of equations: the u-eq
                # and mu-eq rings, then the v-eq and w-eq circles
                first = np.arange(0, 2 * d.size, self.nt)
                self._base = dg.ThetaModes(self._jacobian(d, first), self.nt, _splu_modes)
            else:
                self._base = _SuperLUBase(self._jacobian(d), self._rows)
        except RuntimeError as exc:
            raise LinearSolveFailure(f'sparse factorization failed: {exc}') from exc
        self._base_d = d
        superlu = isinstance(self._base, _SuperLUBase)
        self.record.lu_factorizations += 1
        self.record.superlu_factorizations += superlu
        self.record.fourier_factorizations += not superlu
        self.record.lu_nnz = max(self.record.lu_nnz, self._base.nnz)

    def _update(self, changed, d):
        """Serve J = J_base - U diag(d - d_base) V^T, U and V picking the
        slope map's rows and columns of the changed slopes K, through its
        capacitance matrix (Woodbury): J^-1 b = y + J_base^-1 U c for
        y = J_base^-1 b and c = (I - D V^T J_base^-1 U)^-1 D V^T y.  Only
        the |K|x|K| block V^T J_base^-1 U is asked of the base."""
        self.record.lu_updates += 1
        self._eqs, self._unknowns = self._slope_map(changed)
        try:
            block = self._base.inverse_block(self._unknowns, self._eqs)
        except RuntimeError as exc:
            raise LinearSolveFailure(f'triangular solve failed: {exc}') from exc
        scale = d[changed] - self._base_d[changed]
        try:
            inv = np.linalg.inv(np.eye(changed.size) - scale[:, None] * block)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f'singular capacitance matrix: {exc}') from exc
        if not np.all(np.isfinite(inv)):
            raise LinearSolveFailure('non-finite capacitance matrix')
        self._cap = inv * scale

    def _solve(self, b):
        """J^-1 b for the Jacobian that the last refresh set up."""
        try:
            y = self._base.solve(b)
            if not self._eqs.size:
                return y
            c = self._cap @ y[self._unknowns]
            if not np.all(np.isfinite(c)):
                raise LinearSolveFailure('non-finite capacitance solve')
            return y + self._base.solve_sparse(self._eqs, c)
        except RuntimeError as exc:
            raise LinearSolveFailure(f'triangular solve failed: {exc}') from exc

    # -- residual ------------------------------------------------------------

    def _data(self, t1, u0, v0):
        """The data of the step from (u0, v0) to t1 in each block of
        equations, term by term."""
        prob, u0 = self.problem, u0.ravel()
        return ((-u0,), (self.visc * u0, -prob.pi(u0), prob.f(t1).ravel()),
                (-v0,), (self.visc * v0, -prob.pi_gamma(v0), prob.g(t1)))

    def _constant(self, t1, u0, v0):
        """The step's constant vector c: each equation's sum of `_data`'s terms."""
        return np.concatenate([sum(terms) for terms in self._data(t1, u0, v0)])

    def _residual(self, x, c):
        """x + T L x + c, less the Yosida terms; c from `_constant`."""
        r = x + c + self._row_dt * (self._lin @ x)
        for eqs, unknowns, graph in self._beta_at:
            r[eqs] -= mg.yosida(graph, x[unknowns], self.config.lam)
        return r

    def _floor_note(self, x, t1, u0, v0):
        """'' when `newton_tol` is above the round-off floor of
        `_res_norm(_residual(x, c))`, else a clause that names the floor:
        machine epsilon times the weighted norm of each equation's sum of
        absolute terms (T |L| |x| for the matrix term T L x)."""
        a = np.abs(x)
        m = a + self._row_dt * (abs(self._lin) @ a) + np.concatenate(
            [sum(map(np.abs, terms)) for terms in self._data(t1, u0, v0)])
        for eqs, unknowns, graph in self._beta_at:
            m[eqs] += np.abs(mg.yosida(graph, x[unknowns], self.config.lam))
        floor = np.finfo(float).eps * self._res_norm(m)
        tol = self.config.newton_tol
        return '' if tol >= floor else (f'; newton_tol {tol:.3e} is below the '
                                        f'residual\'s estimated round-off floor {floor:.3e}')

    def _res_norm(self, r):
        return math.sqrt(self.weights @ r ** 2)

    # -- the step ------------------------------------------------------------

    def step(self, t0: float, u0, v0, start: StepSolution):
        """Advance from t0 to t0+dt; returns (u, mu, v, w, iters, residual).

        Newton starts at the level `start` (its t is not read): the
        previous level, or `run()`'s extrapolation of the last two.
        Raises a SolveFailure with the target time t0+dt on any failure.
        """
        cfg = self.config
        n, nt = self.n, self.nt
        t1 = t0 + self.dt
        iters, res = 0, math.nan
        try:
            c = self._constant(t1, u0, v0)
            x = np.concatenate([start.u.ravel(), start.mu.ravel(), start.v, start.w])
            r = self._residual(x, c)
            res = self._res_norm(r)
            prev_res = math.inf
            best_res = res
            fallback_left = True        # one non-monotone step per new lowest residual
            self._exact = not self._mean_chord
            fresh_mean = False          # the last iteration refreshed a mean base

            while res > cfg.newton_tol:
                if iters >= cfg.newton_max_iter:
                    raise NewtonDivergence(
                        f'no convergence in {iters} iterations (residual {res:.3e})'
                        f'{self._floor_note(x, t1, u0, v0)}',
                        t=t1, iters=iters, residual=res)
                # refresh once the residual falls by less than 4, but not after
                # the mean chord's first iteration (class docstring)
                refresh = self._base is None or \
                    res > 0.25 * prev_res and (self._exact or iters > 1)
                self._exact |= refresh and fresh_mean   # a fresh mean base failed
                u, v = x[:n], x[2 * n:2 * n + nt]
                if refresh or not self._mean_chord:
                    # piecewise-linear graphs take the iterate's own slopes at
                    # every iteration when they are an update of the base (the
                    # active-set step, class docstring); smooth ones only in a
                    # refresh
                    self._refresh_lu(u, v, factorize=refresh)
                fresh_mean = refresh and not self._exact
                dx = self._solve(-r)
                accepted = False
                alpha, full = 1.0, None
                # the full step, then 8 damped retries on the exact path
                for retry in range(9 if self._exact else 1):
                    if retry:
                        alpha *= 0.5
                        self.record.line_search_halvings += 1
                    x_try = x + alpha * dx
                    r_try = self._residual(x_try, c)
                    res_try = self._res_norm(r_try)
                    if full is None:
                        full = x_try, r_try, res_try
                    if res_try <= cfg.newton_tol or res_try < res * (1.0 - 1e-4):
                        accepted = True
                        break
                iters += 1
                if not accepted:
                    self._exact = True    # a rejected step ends the mean chord
                    if self._refresh_lu(u, v):
                        continue  # retry with a fresh Jacobian at the same iterate
                    # Fresh Jacobian and no damped step decreases the merit: the
                    # Newton direction crosses an active-set kink where |R| rises
                    # transiently.  Take the full step anyway, once per new lowest
                    # residual; for the piecewise-linear obstacle system the next
                    # fresh solve is exact once the active set settles.
                    if not fallback_left:
                        raise NewtonDivergence(
                            f'damped Newton stalled at residual {res:.3e}'
                            f'{self._floor_note(x, t1, u0, v0)}',
                            t=t1, iters=iters, residual=res)
                    fallback_left = False
                    self.record.nonmonotone_steps += 1
                    x_try, r_try, res_try = full
                x, r, prev_res, res = x_try, r_try, res, res_try
                if res < best_res:
                    best_res = res
                    fallback_left = True
        except GraphMapFailure as exc:
            raise NewtonDivergence(f'graph map failed on a Newton iterate: {exc}',
                                   t=t1, iters=iters, residual=res) from exc
        except LinearSolveFailure as exc:
            exc.t, exc.iters, exc.residual = t1, iters, res
            raise

        # NaN compares False against the tolerance and would end the loop
        # as if converged.
        if not math.isfinite(res):
            raise NewtonDivergence(f'non-finite residual {res} after {iters} iterations',
                                   t=t1, iters=iters, residual=res)
        self.record.newton_iters += iters
        return x[:n].reshape(u0.shape), x[n:2 * n].reshape(u0.shape), \
            x[2 * n:2 * n + nt], x[2 * n + nt:], iters, res


def initial_state(problem: ProblemData) -> StepSolution:
    """Time-zero StepSolution; mu and w are not defined by the scheme at t=0
    and are stored as zeros."""
    g = problem.grid
    return StepSolution(0.0, problem.u0.copy(), np.zeros((g.n_r, g.n_theta)),
                        problem.v0.copy(), np.zeros(g.n_theta))


def _diag_row(problem, config, state: StepSolution, iters: int, prev: DiagnosticsRow | None):
    g = problem.grid
    h1v = dg.h1_seminorm_trace(g, state.v)
    e = energy(state, problem, config, h1v)
    return DiagnosticsRow(
        t=state.t,
        mass_bulk=dg.mean_bulk(g, state.u),
        mass_trace=dg.mean_trace(g, state.v),
        energy=e,
        d_energy=0.0 if prev is None else e - prev.energy,
        grad_mu=dg.h1_seminorm_bulk(g, state.mu),
        grad_w=dg.h1_seminorm_trace(g, state.w),
        overshoot=_overshoot(state.v, problem.boundary_graph),
        delta_h1v=config.delta * h1v,
        newton_iters=iters,
    )


def run(problem: ProblemData, config: SolverConfig, observe=lambda level: None) -> RunResult:
    """Validate the data, then integrate from 0 to t_end, passing each
    level to `observe` as it is made, t=0 first; keeps only the last two.

    Inadmissible data raise ValidationFailure before the first step.  A
    trailing partial step is taken when t_end is not a multiple of dt.
    On a SolveFailure the run ends at the last good level, and the result
    carries the error.
    """
    failures = validate(problem, config)
    if failures:
        raise ValidationFailure('; '.join(failures))

    t_start = time.perf_counter()
    n_full = int(math.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_full * config.dt
    if remainder < 1e-12 * config.t_end:
        remainder = 0.0

    diag = Diagnostics()
    state = prev = initial_state(problem)
    diag.rows.append(_diag_row(problem, config, state, 0, None))
    observe(state)
    error = None

    record = RunRecord()
    stepper = NewtonStepper(problem, config, config.dt, record)
    plan = [config.dt] * n_full + ([remainder] if remainder else [])
    for k, dt_k in enumerate(plan):
        if dt_k != stepper.dt:
            stepper = NewtonStepper(problem, config, dt_k, record)
        # Newton starts at the linear extrapolation of the last two levels,
        # scaled to this step's length; the first two steps start at the
        # previous level, since level 0's mu and w are placeholder zeros
        start = state if k < 2 else StepSolution(state.t + dt_k, *(
            x + dt_k / plan[k - 1] * (x - x_prev) for x, x_prev in
            ((state.u, prev.u), (state.mu, prev.mu), (state.v, prev.v), (state.w, prev.w))))
        try:
            u, mu, v, w, iters, _ = stepper.step(state.t, state.u, state.v, start)
        except SolveFailure as exc:
            error = exc
            break
        prev, state = state, StepSolution(state.t + dt_k, u, mu, v, w)
        diag.rows.append(_diag_row(problem, config, state, iters, diag.rows[-1]))
        observe(state)

    return RunResult(diag, error, time.perf_counter() - t_start, record)
