"""Coupled implicit stepper: stationarity, conservation, dissipation,
linear exactness against a dense solve, validation, and failure modes."""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from chb import chd_solver as cs
from chb import cli
from chb import disk_grid as dg
from chb import dual_norms as dn
from chb import harness
from chb import monotone_graphs as mg
from chb.errors import (LinearSolveFailure, NewtonDivergence, SolveFailure,
                        ValidationFailure)


def small_grid():
    return dg.DiskGrid(12, 24)


def config(**kw):
    base = dict(delta=0.5, lam=1e-2, dt=1e-3, t_end=5e-3)
    base.update(kw)
    return cs.SolverConfig(**base)


def read_source(grid, spec, trace=False):
    """The bulk source (`f`) or trace source (`g`) that the config reader
    builds from a JSON spec."""
    zero = {'kind': 'zero'}
    raw = {'experiment': 'graph_check', 'grid': {'n_r': grid.n_r, 'n_theta': grid.n_theta},
           'problem': {'bulk_graph': zero, 'boundary_graph': zero, 'u0': {},
                       'g' if trace else 'f': spec}}
    problem = harness.ExperimentConfig.from_dict(raw).problem
    return problem.g if trace else problem.f


# ---------------------------------------------------------------------------
# stationarity, conservation, dissipation

def test_constant_state_is_stationary():
    g = small_grid()
    p = cs.preset_problem('backward', g, amplitude=0.0, offset=0.3)
    levels = []
    res = cs.run(p, config(), levels.append)
    for s, row in zip(levels, res.diagnostics.rows, strict=True):
        assert np.max(np.abs(s.u - 0.3)) < 1e-12
        assert np.max(np.abs(s.v - 0.3)) < 1e-12
        assert row.newton_iters <= 1
    # pi(0.3) = -0.3 shifts both potentials by the same constant
    mu_vals = levels[-1].mu
    assert np.max(np.abs(mu_vals - mu_vals.mean())) < 1e-10


@pytest.mark.parametrize('preset', cs.PRESET_NAMES)
def test_masses_conserved(preset):
    g = small_grid()
    p = cs.preset_problem(preset, g)
    res = cs.run(p, config(t_end=1e-2))
    assert res.error is None
    rows = res.diagnostics.rows
    m0, mg0 = rows[0].mass_bulk, rows[0].mass_trace
    for r in rows:
        assert abs(r.mass_bulk - m0) < 1e-13
        assert abs(r.mass_trace - mg0) < 1e-13


@pytest.mark.parametrize('preset', cs.PRESET_NAMES)
def test_energy_dissipates(preset):
    g = small_grid()
    p = cs.preset_problem(preset, g)
    cfg = config(t_end=1e-2)
    res = cs.run(p, cfg)
    for r in res.diagnostics.rows[1:]:
        assert r.d_energy <= 10.0 * cfg.newton_tol


_KINDS = {'zero': mg.zero(), 'cubic': mg.power_odd(3), 'quintic': mg.power_odd(5),
          'logarithmic': mg.logarithmic(0.5), 'obstacle': mg.double_obstacle(-1.0, 1.0)}
DOMINATED_PAIRS = [(bulk, boundary) for bulk in _KINDS for boundary in _KINDS
                   if mg.check_domination(_KINDS[bulk], _KINDS[boundary]).feasible]


@settings(deadline=None, max_examples=3, derandomize=True, database=None)
@given(n_r=st.integers(8, 16), lam=st.sampled_from([1e-2, 1e-3, 1e-4]),
       dt=st.sampled_from([1e-3, 1e-2]), delta=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
       amplitude=st.floats(0.1, 0.9), offset=st.floats(-0.05, 0.05),
       forcing=st.sampled_from([0.0, 4.0]))
@pytest.mark.parametrize('bulk, boundary', DOMINATED_PAIRS,
                         ids=[f'{b}-{g}' for b, g in DOMINATED_PAIRS])
def test_invariants_hold_on_every_dominated_pair(bulk, boundary, n_r, lam, dt, delta,
                                                 amplitude, offset, forcing):
    # bounds fixed before the first run: convergence, both means to 1e-11,
    # and for autonomous data no energy increment above 1e-9
    assert len(DOMINATED_PAIRS) == 15
    g = dg.DiskGrid(n_r, 2 * n_r)
    problem = dataclasses.replace(
        cs.preset_problem('cubic', g, amplitude=amplitude, offset=offset),
        bulk_graph=_KINDS[bulk], boundary_graph=_KINDS[boundary],
        f=cs._Source((g.n_r, g.n_theta), ((cs.harmonic(g, forcing, 2), 'constant', 0.0, 0.0),)),
        g=cs._Source((g.n_theta,),
                     ((cs.harmonic(g, forcing, 2, trace=True), 'constant', 0.0, 0.0),)))
    result = cs.run(problem, config(delta=delta, lam=lam, dt=dt, t_end=0.03))
    assert result.error is None
    rows = result.diagnostics.rows
    assert len(rows) == round(0.03 / dt) + 1
    for r in rows:
        assert abs(r.mass_bulk - rows[0].mass_bulk) <= 1e-11
        assert abs(r.mass_trace - rows[0].mass_trace) <= 1e-11
        assert forcing or r.d_energy <= 1e-9


def test_diagnostics_columns_and_initial_row():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    res = cs.run(p, config())
    row = res.diagnostics.rows[0]
    assert row.t == 0.0 and row.newton_iters == 0 and row.d_energy == 0.0
    assert len(dataclasses.fields(cs.DiagnosticsRow)) == 10


# ---------------------------------------------------------------------------
# linear propagator against a dense direct solve

def test_one_step_matches_dense_solve_for_linear_problem():
    g = dg.DiskGrid(8, 16)
    p = cs.preset_problem('backward', g)   # beta = beta_Gamma = Zero
    cfg = config(delta=0.25, lam=5e-3, dt=2e-3, t_end=2e-3)

    stepper = cs.NewtonStepper(p, cfg, cfg.dt)
    state0 = cs.initial_state(p)
    u, mu, v, w, *_ = stepper.step(state0.t, state0.u, state0.v, state0)

    # assemble the same linear system densely: J x = J x0 - R(x0)
    n, nt = g.size, g.n_theta
    x0 = np.concatenate([p.u0.ravel(), np.zeros(n), p.v0, np.zeros(nt)])
    J = stepper.jacobian_at(p.u0.ravel(), p.v0).toarray()
    r0 = stepper._residual(x0, stepper._constant(cfg.dt, p.u0, p.v0))
    x_dense = np.linalg.solve(J, J @ x0 - r0)

    got = np.concatenate([u.ravel(), mu.ravel(), v, w])
    scale = np.max(np.abs(x_dense))
    assert np.max(np.abs(got - x_dense)) < 1e-8 * max(1.0, scale)


def test_linear_homogeneity_of_one_step():
    # zero graphs: doubling the initial data doubles the step exactly
    g = dg.DiskGrid(8, 16)
    p1 = cs.preset_problem('backward', g, amplitude=0.1, offset=0.0)
    p2 = cs.preset_problem('backward', g, amplitude=0.2, offset=0.0)
    cfg = config(t_end=1e-3)
    l1, l2 = [], []
    cs.run(p1, cfg, l1.append)
    cs.run(p2, cfg, l2.append)
    s1, s2 = l1[-1], l2[-1]
    assert np.max(np.abs(2.0 * s1.u - s2.u)) < 1e-11


# ---------------------------------------------------------------------------
# LU reuse: low-rank updates of the kept factorization

OBSTACLE = {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0}


def forced_obstacle_raw(n_r=16, n_theta=32):
    """Acceptance check 9's forced double-obstacle data as a config."""
    return {'experiment': 'single', 'grid': {'n_r': n_r, 'n_theta': n_theta}, 'problem': {
        'bulk_graph': OBSTACLE, 'boundary_graph': OBSTACLE,
        'pi': {'kind': 'linear', 'slope': -1.0}, 'pi_gamma': {'kind': 'linear', 'slope': -1.0},
        'u0': {'kind': 'harmonic', 'amplitude': 0.95, 'mode': 2, 'offset': 0.0},
        'f': {'kind': 'separable',
              'spatial': {'kind': 'harmonic', 'amplitude': 4.0, 'mode': 2}},
        'g': {'kind': 'separable',
              'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 2}}},
        'solver': {'delta': 0.5, 'lambda': 1e-3, 'dt': 1e-3, 't_end': 0.1}}


def forced_obstacle(n_r=16, n_theta=32):
    cfg = harness.ExperimentConfig.from_dict(forced_obstacle_raw(n_r, n_theta))
    return cfg.problem, cfg.solver


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the factorizations the solver asks for."""
    calls = []
    factorize = cs.splu

    def counting(matrix, **options):
        calls.append(matrix.shape)
        return factorize(matrix, **options)
    monkeypatch.setattr(cs, 'splu', counting)
    return calls


def _contact(problem, k):
    """(u, v) with the first k of every third bulk cell and every fourth
    boundary node pushed past the upper obstacle: k slopes of 1/lambda."""
    g = problem.grid
    u, v = problem.u0.copy().ravel(), problem.v0.copy()
    n_bdry = min(k // 4, g.n_theta // 4)
    u[3 * np.arange(k - n_bdry)] = 1.5
    v[4 * np.arange(n_bdry)] = 1.5
    return u.reshape(problem.u0.shape), v


@pytest.mark.parametrize('k, base_contacts', [
    (k, contacts) for contacts in (0, 2) for k in (0, 1, 8)],
    ids=['0', '1', '8', 'contacts-0', 'contacts-1', 'contacts-8'])
def test_updated_solve_matches_fresh_factorization(splu_calls, k, base_contacts):
    problem, solver = forced_obstacle()
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    # the base: zero slopes, or two contacts that make the slopes vary in
    # theta, served as an update of the Fourier base at each line's most
    # frequent slope
    assert stepper._refresh_lu(*_contact(problem, base_contacts))
    assert isinstance(stepper._base, dg.ThetaModes)
    assert not stepper._base_d.any() and stepper.record.lu_updates == (base_contacts > 0)
    # four contacts first, then the k-set; k = 0 goes back to the initial slopes
    target = _contact(problem, k) if k else (problem.u0, problem.v0)
    b = np.random.default_rng(k).standard_normal(2 * (stepper.n + stepper.nt))
    for u, v in (_contact(problem, 4), target):
        assert stepper._refresh_lu(u, v)
        fresh = splu(stepper.jacobian_at(u, v)).solve(b)
        assert np.linalg.norm(stepper._solve(b) - fresh) <= 1e-10 * np.linalg.norm(fresh)
    assert len(splu_calls) == 1 == stepper.record.lu_factorizations
    assert stepper.record.lu_updates == 2 + (base_contacts > 0)


class _CountingFactor:
    """Proxy for a SuperLU factor that records the columns of each solve."""

    def __init__(self, lu):
        self._lu, self.columns = lu, []

    def solve(self, b):
        self.columns.append(b.shape[1])
        return self._lu.solve(b)


def test_fourier_inverse_block_matches_solves_of_unit_vectors():
    problem, solver = forced_obstacle()
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    stepper._refresh_lu(problem.u0, problem.v0)
    assert isinstance(stepper._base, dg.ThetaModes)
    n, nt = stepper.n, stepper.nt
    # the mu-eq rows of rings 3 and 15 and the w-eq rows, at theta-indices
    # from 0 to nt - 1: three distinct lines, and the base's solve for each
    # of their unit vectors
    j = np.array([0, 1, 7, nt - 1])
    eqs = np.concatenate([n + 3 * nt + j, n + 15 * nt + j[::3], 2 * n + nt + j])
    want = []
    for row in eqs:
        e = np.zeros(2 * (n + nt))
        e[row] = 1.0
        want.append(stepper._base.solve(e))
    # the block at the unknowns on the same lines and theta-indices, a
    # u-ring and the v-line among them
    unknowns = np.concatenate([eqs[eqs < 2 * n] - n, eqs[eqs >= 2 * n] - nt])
    factor = stepper._base._lu = _CountingFactor(stepper._base._lu)
    block = stepper._base.inverse_block(unknowns, eqs)
    # one solve, whose right-hand sides are the real and imaginary parts
    # of one column per line
    assert factor.columns == [2 * 3]
    assert block.shape == (unknowns.size, eqs.size)
    # each entry within 1e-12 of its solve, relative to the solve's scale:
    # entries far from the unit vector's cell sit at the FFT's round-off
    for col, x in zip(block.T, want, strict=True):
        assert np.max(np.abs(col - x[unknowns])) <= 1e-12 * np.max(np.abs(x))


def test_fourier_update_keeps_no_column_of_z():
    # Z = J_base^-1 U would be 32 N-vectors (N unknowns); the update and an
    # updated solve must stay under 16 of them
    problem, solver = forced_obstacle(64, 128)
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    stepper._refresh_lu(problem.u0, problem.v0)
    assert isinstance(stepper._base, dg.ThetaModes)
    u, v = _contact(problem, 32)
    b = np.random.default_rng(5).standard_normal(2 * (stepper.n + stepper.nt))
    tracemalloc.start()
    try:
        assert stepper._refresh_lu(u, v)
        x = stepper._solve(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stepper.record.lu_updates == 1 and stepper.record.lu_factorizations == 1
    assert stepper._eqs.size == 32
    assert peak < 16 * b.nbytes
    fresh = splu(stepper.jacobian_at(u, v)).solve(b)
    assert np.linalg.norm(x - fresh) <= 1e-10 * np.linalg.norm(fresh)


def test_fourier_base_assembles_no_whole_jacobian():
    # assembling the whole Jacobian (N unknowns) and slicing its rows peaks
    # at 20 N-vectors here, 22.5 with a CSR copy of it; the base assembles
    # only its theta-index-0 rows and must stay under 16.  SuperLU's own workspace is allocated in C, where tracemalloc does
    # not see it, so this bounds the Python side only.
    problem, solver = forced_obstacle(64, 128)
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    d = stepper._yosida(mg.yosida_derivative, problem.u0, problem.v0)
    assert not d.any()
    tracemalloc.start()
    try:
        stepper._factorize(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(stepper._base, dg.ThetaModes)
    assert peak < 16 * np.empty(2 * (stepper.n + stepper.nt)).nbytes


def test_stepper_construction_peak_memory():
    # the bound was fixed before the first run: the blocks, L's block rows
    # and L itself, about 16 N-vectors (N unknowns) at 64x128 in all.  The
    # COO assembly of L through `sps.bmat` peaks at 28 N-vectors from cached
    # grid matrices and at 39 with their assembly.
    problem, solver = forced_obstacle(64, 128)
    tracemalloc.start()
    try:
        stepper = cs.NewtonStepper(problem, solver, solver.dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * np.empty(2 * (stepper.n + stepper.nt)).nbytes


def test_theta_modes_solve_peak_memory():
    # bounds fixed before the first run: the rfft, its real and imaginary
    # parts, SuperLU's copy of them and the irfft's complex input hold about
    # one N-vector per column each, but never all at once.  The concatenate
    # and transpose copies peaked at 6 N-vectors for one column and 15 for 3.
    problem, solver = forced_obstacle(64, 128)
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    stepper._refresh_lu(problem.u0, problem.v0)
    assert isinstance(stepper._base, dg.ThetaModes)
    n_vector = np.empty(2 * (stepper.n + stepper.nt)).nbytes
    rng = np.random.default_rng(6)
    for shape, bound in (((n_vector // 8,), 4.5), ((n_vector // 8, 3), 10)):
        b = rng.standard_normal(shape)
        tracemalloc.start()
        try:
            stepper._base.solve(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * n_vector, shape


# The solver's operator as it was assembled through COO, and the theta-mode
# code with its concatenate and transpose copies: the CSR build and the
# copy-free solve must give the same bits.

def _coo_lin(stepper):
    """L through `sps.bmat` with None for the empty blocks, in CSC."""
    g, n, nt, visc = stepper.problem.grid, stepper.n, stepper.nt, stepper.visc
    a_dir, b_dir = dg.dirichlet_laplacian_matrices(g, dg.neumann_laplacian_matrix(g))
    lap_gamma = dg.circle_laplacian_matrix(g)
    return sps.bmat(
        [[None, -dg.neumann_laplacian_matrix(g), None, None],
         [-visc * sps.identity(n) + a_dir, None, b_dir, None],
         [None, None, None, -lap_gamma],
         [(2.0 / g.dr) * sps.eye(nt, n, n - nt), None,
          -(visc + 2.0 / g.dr) * sps.identity(nt) + stepper.config.delta * lap_gamma, None]],
        format='csc')


def _csc_jacobian(stepper, lin, d, rows=None):
    """`_jacobian` on the CSC L: its rows scaled through the column indices."""
    size = lin.shape[0]
    lin, rows = (lin, np.arange(size)) if rows is None else (lin[rows], rows)
    at = np.full(size, -1)
    at[rows] = np.arange(rows.size)
    eqs, unknowns = stepper._slope_map()
    hit = at[eqs] >= 0
    scaled = sps.csc_matrix((lin.data * stepper._row_dt[rows][lin.indices], lin.indices,
                             lin.indptr), shape=lin.shape)
    return scaled + sps.csc_matrix(
        (np.r_[np.ones(rows.size), -d[hit]],
         (np.r_[np.arange(rows.size), at[eqs[hit]]], np.r_[rows, unknowns[hit]])),
        shape=lin.shape)


def _copying_solve(modes, b):
    """`ThetaModes.solve` with a concatenated right-hand side and transposes."""
    lines = b.reshape(modes._lines, modes._nt, -1)
    m = lines.shape[2]
    bh = np.fft.rfft(lines, axis=1).transpose(1, 0, 2)
    rhs = np.concatenate([bh.real, bh.imag], axis=2).reshape(-1, 2 * m)
    xh = modes._lu.solve(rhs).reshape(-1, modes._lines, 2 * m)
    x = np.fft.irfft(xh[..., :m] + 1j * xh[..., m:], n=modes._nt, axis=0)
    return x.transpose(1, 0, 2).reshape(b.shape)


def _same_csc(a, b):
    return (a.format == b.format == 'csc' and a.shape == b.shape
            and all(np.array_equal(x, y) for x, y in
                    ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr))))


BIT_CASES = [((16, 32), 0.5, 'obstacle'), ((12, 24), 0.0, 'obstacle'),
             ((64, 128), 0.5, 'obstacle'), ((16, 32), 0.0, 'cubic')]


def _bit_case(grid, delta, preset):
    if preset == 'obstacle':
        problem, solver = forced_obstacle(*grid)
        solver = dataclasses.replace(solver, delta=delta)
    else:
        problem, solver = cs.preset_problem(preset, dg.DiskGrid(*grid)), config(delta=delta)
    return problem, cs.NewtonStepper(problem, solver, solver.dt)


@pytest.mark.parametrize('grid, delta, preset', BIT_CASES)
def test_csr_operator_matches_the_coo_assembly_bit_for_bit(grid, delta, preset):
    problem, stepper = _bit_case(grid, delta, preset)
    lin = _coo_lin(stepper)
    assert stepper._lin.format == 'csr'
    assert _same_csc(stepper._lin.tocsc(), lin)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(lin.shape[0])
    assert np.array_equal(stepper._lin @ x, lin @ x)
    assert np.array_equal(abs(stepper._lin) @ np.abs(x), abs(lin) @ np.abs(x))
    # the Fourier base's first rows, and the SuperLU base's permuted Jacobian
    # as splu reads it (canonical CSC), at theta-varying slopes
    d = stepper._yosida(mg.yosida_derivative, problem.u0, problem.v0)
    first = np.arange(0, 2 * d.size, stepper.nt)
    assert _same_csc(stepper._jacobian(d, first), _csc_jacobian(stepper, lin, d, first))
    d = np.where(rng.random(d.size) < 0.3, 1.0 / stepper.config.lam, 0.0)
    want = _csc_jacobian(stepper, lin, d)[stepper._rows]
    want.sum_duplicates()
    assert _same_csc(stepper._jacobian(d, stepper._rows), want)
    assert _same_csc(stepper.jacobian_at(problem.u0, problem.v0),
                     _csc_jacobian(stepper, lin, stepper._yosida(
                         mg.yosida_derivative, problem.u0, problem.v0)))


@pytest.mark.parametrize('grid, delta, preset', BIT_CASES)
def test_theta_modes_match_the_copying_solve_bit_for_bit(grid, delta, preset):
    problem, stepper = _bit_case(grid, delta, preset)
    d = stepper._yosida(mg.yosida_derivative, problem.u0, problem.v0)
    first = np.arange(0, 2 * d.size, stepper.nt)
    newton = dg.ThetaModes(stepper._jacobian(d, first), stepper.nt, cs._splu_modes)
    toolkit = dn.NormToolkit(problem.grid)
    g = problem.grid
    rng = np.random.default_rng(8)
    for modes, size in ((newton, 2 * (stepper.n + stepper.nt)), (toolkit._modes, g.size)):
        for shape in ((size,), (size, 1), (size, 3)):
            b = rng.standard_normal(shape)
            x = modes.solve(b)
            assert x.shape == b.shape
            assert np.array_equal(x, _copying_solve(modes, b))


def test_update_past_the_budget_refactorizes(monkeypatch, splu_calls):
    # a budget of 64 slopes, set before the stepper reads it
    monkeypatch.setattr(cs, 'UPDATE_BUDGET', 64)
    problem, solver = forced_obstacle()
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    stepper._refresh_lu(problem.u0, problem.v0)
    stepper._refresh_lu(*_contact(problem, 64))
    assert len(splu_calls) == 1 and stepper.record.lu_updates == 1
    # 65 contacts, none a line's most frequent slope: past the budget against
    # the new Fourier base too, so SuperLU factorizes them
    stepper._refresh_lu(*_contact(problem, 65))
    assert len(splu_calls) == 2 and stepper.record.superlu_factorizations == 1
    assert stepper.record.lu_updates == 1
    # a SuperLU base is never updated: 8 contacts refactorize, on a Fourier
    # base with the contacts as its update
    u, v = _contact(problem, 8)
    assert stepper._refresh_lu(u, v)
    assert len(splu_calls) == 3 and stepper.record.fourier_factorizations == 2
    assert stepper.record.lu_updates == 2
    b = np.random.default_rng(9).standard_normal(2 * (stepper.n + stepper.nt))
    fresh = splu(stepper.jacobian_at(u, v)).solve(b)
    assert np.linalg.norm(stepper._solve(b) - fresh) <= 1e-10 * np.linalg.norm(fresh)


def test_forced_obstacle_run_factorizes_once(splu_calls):
    problem, solver = forced_obstacle()
    result = cs.run(problem, solver)
    assert result.error is None
    assert len(splu_calls) == 1 == result.record.lu_factorizations
    assert result.record.lu_updates > 0


def test_forced_obstacle_at_large_lambda_converges_without_damping():
    # check 9's forced data at lambda 1e-2: the chord at stale slopes took
    # 536 iterations and a halving here; Newton at the iterate's own slopes
    # (the active-set method) converges in a few iterations a step
    problem, solver = forced_obstacle(32, 64)
    solver = dataclasses.replace(solver, delta=0.1, lam=1e-2)
    levels = []
    result = cs.run(problem, solver, levels.append)
    assert result.error is None and len(levels) == 101
    assert result.record.newton_iters <= 150
    assert result.record.line_search_halvings == 0


def test_forced_obstacle_at_delta_zero_keeps_one_fourier_base():
    # check 9's forced data at lambda 1e-2 and delta 0; bounds fixed before
    # the first run.  With 64 slopes as the update budget, 489 of its 524
    # iterations declined the update and ran the chord at stale slopes.
    problem, solver = forced_obstacle(32, 64)
    solver = dataclasses.replace(solver, delta=0.0, lam=1e-2)
    result = cs.run(problem, solver)
    assert result.error is None
    record = result.record
    assert (record.lu_factorizations, record.fourier_factorizations) == (1, 1)
    assert record.newton_iters <= 150


def test_obstacle_solves_serve_the_iterates_own_slopes(monkeypatch):
    # each solve's iterate is read back from the residual it negates; when
    # its slopes differ from the base's in at most the update budget, the
    # solve must serve exactly them
    problem, solver = forced_obstacle()
    residual, solve = cs.NewtonStepper._residual, cs.NewtonStepper._solve
    iterates = {}                         # residual bytes -> its point
    served = []                           # slopes changed against the base

    def spy_residual(self, x, c):
        r = residual(self, x, c)
        iterates[r.tobytes()] = x.copy()
        return r

    def spy_solve(self, b):
        x = iterates[(-b).tobytes()]
        d = self._yosida(mg.yosida_derivative, x[:self.n], x[2 * self.n:2 * self.n + self.nt])
        changed = np.count_nonzero(d != self._base_d)
        if changed <= min(cs.UPDATE_BUDGET, d.size // 2):
            np.testing.assert_array_equal(self._d, d)
            served.append(changed)
        return solve(self, b)
    monkeypatch.setattr(cs.NewtonStepper, '_residual', spy_residual)
    monkeypatch.setattr(cs.NewtonStepper, '_solve', spy_solve)
    result = cs.run(problem, solver)
    assert result.error is None
    assert len(served) == result.record.newton_iters and max(served) > 0


def test_cubic_run_takes_slopes_only_inside_refreshes(monkeypatch):
    # smooth graphs never take the active-set step: their slopes are
    # evaluated only by a refresh, once per refresh (bulk and boundary).
    # At amplitude 3 the mean chord fails, so both kinds of refresh run.
    problem = cs.preset_problem('cubic', dg.DiskGrid(16, 32), amplitude=3.0)
    derivative, refresh = mg.yosida_derivative, cs.NewtonStepper._refresh_lu
    inside, calls = [False], {'inside': 0, 'outside': 0, 'refresh': 0}

    def spy_derivative(*args):
        calls['inside' if inside[0] else 'outside'] += 1
        return derivative(*args)

    def spy_refresh(self, *args, **kwargs):
        calls['refresh'] += 1
        inside[0] = True
        try:
            return refresh(self, *args, **kwargs)
        finally:
            inside[0] = False
    monkeypatch.setattr(mg, 'yosida_derivative', spy_derivative)
    monkeypatch.setattr(cs.NewtonStepper, '_refresh_lu', spy_refresh)
    result = cs.run(problem, config(lam=1e-2, dt=1e-2, t_end=4e-2))
    assert result.error is None and result.record.superlu_factorizations > 0
    assert calls['outside'] == 0
    assert calls['inside'] == 2 * calls['refresh'] > 0


@pytest.mark.parametrize('case', ['cubic', 'forced_obstacle'])
def test_one_record_spans_a_trailing_partial_step(monkeypatch, case):
    # t_end is not a multiple of dt, so run() takes its last step with a
    # second stepper; both count into the run's one record
    if case == 'cubic':
        problem = cs.preset_problem('cubic', dg.DiskGrid(8, 16), amplitude=0.8)
        solver = config(lam=1e-3, dt=1e-2, t_end=4.5e-2)
    else:
        problem, solver = forced_obstacle(8, 16)
        solver = dataclasses.replace(solver, t_end=3.05e-2)
    calls = {'__init__': 0, '_factorize': 0, '_update': 0}
    nnz = []
    for name in calls:
        def spy(self, *args, _name=name, _method=getattr(cs.NewtonStepper, name)):
            calls[_name] += 1
            _method(self, *args)
            if _name == '_factorize':
                nnz.append(self._base.nnz)
        monkeypatch.setattr(cs.NewtonStepper, name, spy)
    result = cs.run(problem, solver)
    assert result.error is None and calls['__init__'] == 2
    record = result.record
    # each stepper factorizes at least once; only the obstacle's contacts
    # move few enough slopes for an update
    assert record.lu_factorizations == calls['_factorize'] >= 2
    assert record.lu_updates == calls['_update']
    assert (record.lu_updates > 0) == (case == 'forced_obstacle')
    assert record.lu_nnz == max(nnz)
    assert record.newton_iters == sum(r.newton_iters for r in result.diagnostics.rows)


@pytest.mark.parametrize('grid, lam', [((16, 32), 1e-2), ((6, 12), 1e-3), ((5, 10), 1e-3)],
                         ids=['16x32', '6x12', '5x10'])
def test_cubic_run_never_takes_the_update_path(splu_calls, grid, lam):
    # smooth slopes move nearly everywhere between refreshes, and so do
    # their ring means; at 5x10 all 60 of them are fewer than
    # UPDATE_BUDGET, and the refresh still refactorizes.  At amplitude 3
    # the mean chord fails, so the runs refresh on both bases.
    problem = cs.preset_problem('cubic', dg.DiskGrid(*grid), amplitude=3.0)
    result = cs.run(problem, config(lam=lam, dt=1e-2, t_end=4e-2))
    assert result.error is None
    record = result.record
    assert len(splu_calls) == record.lu_factorizations > 1
    assert record.fourier_factorizations > 0 and record.superlu_factorizations > 0
    assert record.fourier_factorizations + record.superlu_factorizations \
        == record.lu_factorizations
    assert record.lu_updates == 0


# ---------------------------------------------------------------------------
# the factorization: rows in the symmetric order, diagonal pivots

def _jacobian_case(preset, amplitude, delta):
    """A 16x32 stepper and a state at its initial data; past the obstacle
    (1.5 times the data) for the obstacle preset, so slopes reach 1/lambda."""
    problem = cs.preset_problem(preset, dg.DiskGrid(16, 32), amplitude=amplitude)
    stepper = cs.NewtonStepper(problem, config(delta=delta, lam=1e-3), 1e-3)
    scale = 1.5 if preset == 'obstacle' else 1.0
    u, v = scale * problem.u0, scale * problem.v0
    if preset == 'obstacle':
        assert np.max(stepper._yosida(mg.yosida_derivative, u, v)) == 1e3
    return stepper, u, v


JACOBIAN_CASES = pytest.mark.parametrize('preset, amplitude, delta', [
    (preset, amplitude, delta) for preset, amplitude in
    (('cubic', 0.2), ('logarithmic', 0.9), ('obstacle', 0.9)) for delta in (0.0, 0.5)])


@JACOBIAN_CASES
def test_row_permuted_jacobian_is_weighted_symmetric(preset, amplitude, delta):
    # rows (mu-eq, u-eq, w-eq, v-eq) scaled by the quadrature weights
    stepper, u, v = _jacobian_case(preset, amplitude, delta)
    a = sps.diags(stepper.weights) @ stepper.jacobian_at(u, v)[stepper._rows]
    assert abs(a - a.T).max() <= 1e-14 * abs(a).max()


def _served_slopes(stepper, u, v):
    """The slopes of the Jacobian that a refresh at (u, v) makes `_solve`
    serve: for the smooth presets' mean chord their mean on each ring and
    on the circle, for the obstacle the a.e. slopes themselves."""
    d = stepper._yosida(mg.yosida_derivative, u, v)
    if stepper.problem.bulk_graph.kind == 'double_obstacle':
        return d
    return np.repeat(d.reshape(-1, stepper.nt).mean(axis=1), stepper.nt)


@JACOBIAN_CASES
def test_solve_has_small_residual_against_the_jacobian(preset, amplitude, delta):
    stepper, u, v = _jacobian_case(preset, amplitude, delta)
    assert stepper._refresh_lu(u, v)
    d = _served_slopes(stepper, u, v)
    np.testing.assert_array_equal(stepper._d, d)
    b = np.random.default_rng(1).standard_normal(2 * (stepper.n + stepper.nt))
    r = stepper._jacobian(d) @ stepper._solve(b) - b
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


@JACOBIAN_CASES
def test_jacobian_is_the_residual_derivative(preset, amplitude, delta):
    # J(x) h against the central difference of the residual at an iterate
    # with random mu and w; the obstacle's iterate and both trial points
    # lie on the same side of every kink
    stepper, u, v = _jacobian_case(preset, amplitude, delta)
    n, nt = stepper.n, stepper.nt
    rng = np.random.default_rng(2)
    x = np.concatenate([u.ravel(), rng.standard_normal(n), v, rng.standard_normal(nt)])
    h, eps = rng.standard_normal(x.size), 1e-6
    p = stepper.problem
    c = stepper._constant(stepper.dt, p.u0, p.v0)
    plus, minus = x + eps * h, x - eps * h
    if preset == 'obstacle':
        jacobians = [stepper.jacobian_at(y[:n].reshape(u.shape), y[2 * n:2 * n + nt])
                     for y in (plus, minus)]
        assert (jacobians[0] != jacobians[1]).nnz == 0
    diff = (stepper._residual(plus, c) - stepper._residual(minus, c)) / (2 * eps)
    jh = stepper.jacobian_at(u, v) @ h
    assert np.max(np.abs(diff - jh)) <= 1e-9 * np.max(np.abs(jh))


@pytest.mark.parametrize('preset, scale, radial', [
    ('cubic', 0.9, True), ('logarithmic', 0.9, True), ('obstacle', 1.5, True),
    ('cubic', 0.9, False)], ids=['cubic', 'logarithmic', 'obstacle', 'theta-varying'])
def test_fourier_base_rows_are_the_jacobians_first_rows(monkeypatch, preset, scale, radial):
    # the Fourier base reads its symbols from the theta-index-0 rows that
    # `_jacobian` assembles alone; they must be the same rows, bit for bit,
    # as those of the whole Jacobian at the slopes the base serves.  A
    # radial state (scale * r^2 on the rings, scale on the circle) gives
    # slopes constant on every line, past the obstacle on the outer rings;
    # the preset's u0 gives slopes that vary in theta, and the mean chord
    # serves their ring means.
    g = dg.DiskGrid(16, 32)
    problem = cs.preset_problem(preset, g, amplitude=0.9)
    stepper = cs.NewtonStepper(problem, config(lam=1e-3), 1e-3)
    if radial:
        u, v = np.repeat(scale * g.r[:, None] ** 2, g.n_theta, axis=1), np.full(g.n_theta, scale)
    else:
        u, v = problem.u0, problem.v0
    built, theta_modes = [], dg.ThetaModes
    monkeypatch.setattr(dg, 'ThetaModes',
                        lambda rows, *args: built.append(rows) or theta_modes(rows, *args))
    assert stepper._refresh_lu(u, v)
    first = np.arange(2 * g.n_r + 2) * g.n_theta
    assert len(set(stepper._yosida(mg.yosida_derivative, u, v))) > 1
    d = _served_slopes(stepper, u, v)
    np.testing.assert_array_equal(stepper._d, d)
    assert len(built) == 1
    want = stepper._jacobian(d).tocsr()[first]
    for rows in built + [stepper._jacobian(d, first)]:
        got = rows.tocsr()
        assert got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.indptr, want.indptr)


def test_symmetric_order_factor_has_less_fill():
    # the cubic's own slopes vary in theta, so the exact path's base is
    # SuperLU's
    problem = cs.preset_problem('cubic', dg.DiskGrid(32, 64), amplitude=0.8)
    stepper = cs.NewtonStepper(problem, config(), 1e-3)
    u, v = problem.u0, problem.v0
    stepper._exact = True
    stepper._refresh_lu(u, v)
    assert stepper.record.superlu_factorizations == 1
    default = splu(stepper.jacobian_at(u, v))
    assert stepper.record.lu_nnz == stepper._base.nnz <= 0.6 * default.nnz


# ---------------------------------------------------------------------------
# globalization: a refresh-and-retry, and the non-monotone fallback

class _NegatedSolve:
    """Base-solver stand-in whose solves point the wrong way."""

    def __init__(self, base):
        self._base, self.nnz = base, base.nnz

    def solve(self, b):
        return -self._base.solve(b)


def test_rejected_direction_refreshes_and_retries_at_the_same_iterate():
    # a base kept from slopes 1/lambda everywhere, whose solves are negated;
    # the zero slopes of the initial data differ from it in every slope,
    # past the update budget (at most half of them).  No step length
    # decreases the residual, so the step refactorizes at the same iterate
    # and goes on as a fresh stepper does
    problem, solver = forced_obstacle()
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    u, v = np.full_like(problem.u0, 1.5), np.full_like(problem.v0, 1.5)
    assert stepper._refresh_lu(u, v) and stepper.record.lu_factorizations == 1
    stepper._base = _NegatedSolve(stepper._base)
    state = cs.initial_state(problem)
    got = stepper.step(state.t, state.u, state.v, state)
    want = cs.NewtonStepper(problem, solver, solver.dt).step(state.t, state.u, state.v, state)
    assert stepper.record.lu_factorizations == 2 and stepper.record.lu_updates == 0
    assert got[4] == want[4] + 1
    for a, b in zip(got[:4], want[:4], strict=True):
        np.testing.assert_array_equal(a, b)


def test_non_monotone_fallback_takes_a_rising_step_and_converges():
    # the forced obstacle at dt 1e-2: the second step's Newton direction
    # crosses active-set kinks where no step length lowers the residual,
    # and the full step is taken anyway
    problem, solver = forced_obstacle()
    cfg = dataclasses.replace(solver, dt=1e-2, t_end=1e-2)
    levels = []
    cs.run(problem, cfg, levels.append)
    level = levels[1]
    stepper = cs.NewtonStepper(problem, cfg, cfg.dt)
    norms, solve = [], stepper._solve

    def recording_solve(b):   # b = -R at each iterate
        norms.append(stepper._res_norm(b))
        return solve(b)
    stepper._solve = recording_solve
    *_, iters, res = stepper.step(level.t, level.u, level.v, level)
    assert res <= cfg.newton_tol and iters == len(norms)
    assert any(b > a for a, b in zip(norms, norms[1:]))


# ---------------------------------------------------------------------------
# the mean chord: smooth graphs start each step on a Fourier base at the
# slopes' ring means, and go over to SuperLU when it fails

def _base_kinds(monkeypatch):
    """The kind of each base that the steppers factorize, in order."""
    kinds, factorize = [], cs.NewtonStepper._factorize

    def spy(self, d):
        factorize(self, d)
        kinds.append('superlu' if isinstance(self._base, cs._SuperLUBase) else 'fourier')
    monkeypatch.setattr(cs.NewtonStepper, '_factorize', spy)
    return kinds


def _smooth_step_case():
    problem = cs.preset_problem('cubic', dg.DiskGrid(16, 32), amplitude=0.8)
    cfg = config(delta=0.1, lam=1e-3)
    return problem, cfg, cs.NewtonStepper(problem, cfg, cfg.dt), cs.initial_state(problem)


def test_rejected_mean_chord_step_goes_over_to_superlu_at_the_same_iterate(monkeypatch):
    # a kept mean base whose solves are negated: its full step is rejected
    # without a halving, and the step factorizes the exact Jacobian at the
    # same iterate and converges on it
    problem, cfg, stepper, state = _smooth_step_case()
    kinds = _base_kinds(monkeypatch)
    assert stepper._refresh_lu(state.u, state.v)
    stepper._base = _NegatedSolve(stepper._base)
    norms, solve = [], stepper._solve

    def recording_solve(b):   # b = -R at each iterate
        norms.append(stepper._res_norm(b))
        return solve(b)
    stepper._solve = recording_solve
    *_, iters, res = stepper.step(state.t, state.u, state.v, state)
    assert res <= cfg.newton_tol and iters == len(norms) > 2
    assert norms[1] == norms[0]
    assert kinds == ['fourier', 'superlu']
    record = stepper.record
    assert (record.fourier_factorizations, record.superlu_factorizations,
            record.lu_factorizations) == (1, 1, 2)
    assert record.line_search_halvings == 0 and record.nonmonotone_steps == 0


class _HalfSolve:
    """Fourier base stand-in whose solves are half the base's, so that a
    full step cuts the residual by about 2 only."""

    def __init__(self, base):
        self._base, self.nnz = base, base.nnz

    def solve(self, b):
        return 0.5 * self._base.solve(b)


def test_fresh_mean_base_that_cuts_by_less_than_4_goes_over_to_superlu(monkeypatch):
    # every mean base halves its solves: the kept one serves iterations 1
    # and 2 (the first is not judged); the step's mean refresh builds a
    # fresh one for iteration 3, which cuts by 2 only, so the refresh at
    # iteration 4 takes SuperLU, and the step stays on it
    problem, cfg, stepper, state = _smooth_step_case()
    kinds = _base_kinds(monkeypatch)
    theta_modes = dg.ThetaModes
    monkeypatch.setattr(dg, 'ThetaModes', lambda *args: _HalfSolve(theta_modes(*args)))
    assert stepper._refresh_lu(state.u, state.v)
    *_, iters, res = stepper.step(state.t, state.u, state.v, state)
    assert res <= cfg.newton_tol
    assert kinds == ['fourier', 'fourier', 'superlu']
    record = stepper.record
    assert (record.fourier_factorizations, record.superlu_factorizations,
            record.lu_factorizations) == (2, 1, 3)
    assert record.line_search_halvings == 0 and iters == record.newton_iters > 4


def test_mean_chord_keeps_one_base_across_steps():
    # the first iteration of each step cuts the predictor's error by about
    # 2 only, on any base; judged, it would refresh the mean base at each
    # of the 20 steps (19 factorizations)
    problem = cs.preset_problem('cubic', dg.DiskGrid(16, 32), amplitude=0.9)
    result = cs.run(problem, config(delta=0.1, lam=1e-3, t_end=2e-2))
    assert result.error is None
    record = result.record
    assert (record.fourier_factorizations, record.superlu_factorizations) == (1, 0)


@pytest.mark.parametrize('bulk, boundary', [
    (mg.power_odd(3), mg.logarithmic(0.5)),
    (mg.power_odd(3), mg.double_obstacle(-1.0, 1.0)),
    (mg.zero(), mg.power_odd(3))], ids=['smooth', 'obstacle', 'zero'])
def test_each_graph_keeps_its_own_slope_policy(bulk, boundary):
    # off the exact path a refresh serves a smooth graph's slopes at their
    # ring means and a piecewise-linear graph's as they are, on a Fourier
    # base; 1.5 times the cubic's v0 puts part of the circle past the
    # obstacle, whose slopes then vary in theta and are served as an update.
    # A smooth graph on the circle alone (zero/cubic) has 16 slopes, within
    # the budget of 72: they are its own too, served as an update
    problem = dataclasses.replace(cs.preset_problem('cubic', dg.DiskGrid(8, 16), amplitude=0.8),
                                  bulk_graph=bulk, boundary_graph=boundary)
    stepper = cs.NewtonStepper(problem, config(), 1e-3)
    u, v = problem.u0, 1.5 * problem.v0
    assert stepper._refresh_lu(u, v)
    assert isinstance(stepper._base, dg.ThetaModes)
    d = stepper._yosida(mg.yosida_derivative, u, v)
    means = np.repeat(d.reshape(-1, stepper.nt).mean(axis=1), stepper.nt)
    smooth = np.repeat([bulk.kind == 'power_odd', boundary.kind == 'logarithmic'],
                       [stepper.n, stepper.nt])
    np.testing.assert_array_equal(stepper._d, np.where(smooth, means, d))
    assert stepper.record.lu_updates == (not smooth.all())
    b = np.random.default_rng(10).standard_normal(2 * (stepper.n + stepper.nt))
    r = stepper._jacobian(stepper._d) @ stepper._solve(b) - b
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


def test_smooth_circle_alone_takes_newton_on_one_fourier_base(monkeypatch):
    # zero in the bulk, the cubic on the boundary, g = 4 cos 3theta: the
    # circle's 32 slopes fit the budget, so every iteration serves them as
    # an update.  Their ring mean, a linear chord, took 696 iterations; the
    # bound was fixed before the first run
    g = dg.DiskGrid(16, 32)
    problem = dataclasses.replace(
        cs.preset_problem('cubic', g, amplitude=0.9), bulk_graph=mg.zero(),
        g=cs._Source((g.n_theta,), ((cs.harmonic(g, 4.0, 3, trace=True), 'constant', 0.0, 0.0),)))
    kinds = _base_kinds(monkeypatch)
    result = cs.run(problem, config(delta=0.1, lam=1e-3, t_end=0.1))
    assert result.error is None
    assert result.record.newton_iters <= 250
    assert 'superlu' not in kinds and result.record.superlu_factorizations == 0


def test_mixed_pair_updates_its_obstacle_on_a_fourier_base(monkeypatch):
    # the cubic in the bulk, the obstacle on the boundary, and g = 4 cos 3theta,
    # which drives part of the circle into contact.  Bounds fixed before the
    # first run: the whole pair once went to SuperLU at its first iteration;
    # now its first base is a Fourier one, the obstacle's contacts are
    # updates of it, and SuperLU stays rare
    g = dg.DiskGrid(16, 32)
    problem = dataclasses.replace(
        cs.preset_problem('cubic', g, amplitude=0.9), boundary_graph=mg.double_obstacle(),
        g=cs._Source((g.n_theta,), ((cs.harmonic(g, 4.0, 3, trace=True), 'constant', 0.0, 0.0),)))
    solver = config(delta=0.1, lam=1e-3, t_end=0.05)
    kinds = _base_kinds(monkeypatch)
    result = cs.run(problem, solver)
    assert result.error is None
    record = result.record
    assert kinds[0] == 'fourier' and record.lu_updates > 0
    assert record.superlu_factorizations <= 10


# ---------------------------------------------------------------------------
# the Fourier base: slopes constant on every ring and on the circle

def _ring_and_circle_contact(problem):
    """(u, v) with the outermost ring and the whole circle past the upper
    obstacle: slopes 1/lambda there, 0 elsewhere."""
    u, v = problem.u0.copy(), np.full_like(problem.v0, 1.5)
    u[-1] = 1.5
    return u, v


@pytest.mark.parametrize('delta', [0.0, 0.5])
@pytest.mark.parametrize('state', ['zero_slopes', 'ring_and_circle'])
@pytest.mark.parametrize('columns', [None, 8], ids=['vector', '8_columns'])
def test_fourier_base_matches_a_fresh_factorization(delta, state, columns):
    problem, solver = forced_obstacle()
    stepper = cs.NewtonStepper(problem, config(delta=delta, lam=solver.lam), solver.dt)
    u, v = (problem.u0, problem.v0) if state == 'zero_slopes' \
        else _ring_and_circle_contact(problem)
    assert stepper._refresh_lu(u, v)
    assert isinstance(stepper._base, dg.ThetaModes)
    if state == 'ring_and_circle':
        assert set(stepper._yosida(mg.yosida_derivative, u, v)) == {0.0, 1.0 / solver.lam}
    shape = 2 * (stepper.n + stepper.nt) if columns is None \
        else (2 * (stepper.n + stepper.nt), columns)
    b = np.random.default_rng(3).standard_normal(shape)
    fresh = splu(stepper.jacobian_at(u, v)).solve(b)
    x = stepper._base.solve(b)
    assert x.shape == b.shape
    assert np.linalg.norm(x - fresh) <= 1e-10 * np.linalg.norm(fresh)


def test_base_is_fourier_only_for_slopes_constant_on_rings(splu_calls):
    problem, solver = forced_obstacle()
    stepper = cs.NewtonStepper(problem, solver, solver.dt)
    stepper._refresh_lu(problem.u0, problem.v0)
    g = problem.grid
    assert isinstance(stepper._base, dg.ThetaModes)
    assert splu_calls == [((g.n_theta // 2 + 1) * (2 * g.n_r + 2),) * 2]

    # the cubic's slopes vary in theta: their ring means get a Fourier
    # base, and the exact path, at the slopes themselves, a SuperLU one
    cubic = cs.preset_problem('cubic', g, amplitude=0.8)
    stepper = cs.NewtonStepper(cubic, config(), 1e-3)
    assert stepper._refresh_lu(cubic.u0, cubic.v0)
    assert isinstance(stepper._base, dg.ThetaModes)
    stepper._exact = True
    assert stepper._refresh_lu(cubic.u0, cubic.v0)
    assert isinstance(stepper._base, cs._SuperLUBase)
    symmetric = splu(stepper.jacobian_at(cubic.u0, cubic.v0)[stepper._rows],
                     permc_spec='MMD_AT_PLUS_A', diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))
    assert stepper.record.lu_nnz == symmetric.nnz
    assert (stepper.record.fourier_factorizations, stepper.record.superlu_factorizations) \
        == (1, 1)
    b = np.random.default_rng(4).standard_normal(2 * (stepper.n + stepper.nt))
    r = stepper.jacobian_at(cubic.u0, cubic.v0) @ stepper._solve(b) - b
    assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b)


class _BadColumns:
    """Base-solver stand-in whose inverse block V^T J_base^-1 U makes the
    capacitance matrix I - D V^T J_base^-1 U non-finite, or zero for a
    first contact at slope 1/lambda."""

    def __init__(self, base, kind, lam, stepper):
        self._base, self._kind, self._lam, self.nnz = base, kind, lam, base.nnz
        self._n, self._nt = stepper.n, stepper.nt

    def solve(self, b):
        return self._base.solve(b)

    def inverse_block(self, rows, cols):
        if self._kind == 'nan':
            return np.full((rows.size, cols.size), np.nan)
        # the mu-eq of u_i (col n+i) and the w-eq of v_j (col 2n+nt+j) put
        # lambda where V^T picks u_i and v_j
        picked = np.where(cols < 2 * self._n, cols - self._n, cols - self._nt)
        return self._lam * (rows[:, None] == picked).astype(float)


@pytest.mark.parametrize('kind, message', [('nan', 'non-finite capacitance'),
                                           ('singular', 'singular capacitance')])
def test_capacitance_failure_is_linear_solve_failure(monkeypatch, tmp_path, kind, message):
    problem, solver = forced_obstacle()
    factorize = cs.NewtonStepper._factorize

    solve = cs.NewtonStepper._solve
    bases, solves = [], []

    def bad_base(stepper, d):
        factorize(stepper, d)
        bases.append(type(stepper._base))
        stepper._base = _BadColumns(stepper._base, kind, solver.lam, stepper)

    def counting_solve(stepper, b):
        x = solve(stepper, b)
        solves.append(b.size)
        return x
    monkeypatch.setattr(cs.NewtonStepper, '_factorize', bad_base)
    monkeypatch.setattr(cs.NewtonStepper, '_solve', counting_solve)
    levels = []
    result = cs.run(problem, solver, levels.append)
    assert bases == [dg.ThetaModes]
    err = result.error
    assert isinstance(err, LinearSolveFailure)
    assert message in str(err)
    # every iteration makes one solve, so the failing step's completed
    # iterations are the solves that the converged steps did not count
    assert err.t == levels[-1].t + solver.dt
    assert err.iters == len(solves) - result.record.newton_iters
    assert math.isfinite(err.residual) and err.residual > solver.newton_tol
    assert len(levels) > 1 and all(np.all(np.isfinite(s.u)) for s in levels)

    raw = forced_obstacle_raw()
    path = tmp_path / 'forced.json'
    path.write_text(json.dumps(raw))
    assert cli.main(['solve', str(path), '--out', str(tmp_path / 'o')]) == 3
    summary = json.loads((tmp_path / 'o' / 'summary.json').read_text())
    assert summary['steps'] == len(levels) - 1
    assert message in summary['solver_error']


class _FailingBase:
    """Base-solver stand-in whose `method` raises as a failed SuperLU
    solve does; everything else is the base's."""

    def __init__(self, base, method):
        self._base, self._method, self.nnz = base, method, base.nnz

    def __getattr__(self, name):
        if name != self._method:
            return getattr(self._base, name)

        def fail(*args):
            raise RuntimeError('stand-in solve failure')
        return fail


def _failing_splu(monkeypatch):
    def fail(matrix, **options):
        raise RuntimeError('stand-in factorization failure')
    monkeypatch.setattr(cs, 'splu', fail)


def _failing_base(method):
    def install(monkeypatch):
        factorize = cs.NewtonStepper._factorize

        def failing(stepper, d):
            factorize(stepper, d)
            stepper._base = _FailingBase(stepper._base, method)
        monkeypatch.setattr(cs.NewtonStepper, '_factorize', failing)
    return install


def _non_finite_capacitance_solve(monkeypatch):
    update = cs.NewtonStepper._update

    def nan_update(stepper, changed, d):
        update(stepper, changed, d)
        stepper._cap = np.full_like(stepper._cap, np.nan)
    monkeypatch.setattr(cs.NewtonStepper, '_update', nan_update)


@pytest.mark.parametrize('install, message, first_step', [
    (_failing_splu, 'sparse factorization failed: stand-in factorization failure', True),
    (_failing_base('solve'), 'triangular solve failed: stand-in solve failure', True),
    (_failing_base('inverse_block'), 'triangular solve failed: stand-in solve failure', False),
    (_non_finite_capacitance_solve, 'non-finite capacitance solve', False),
], ids=['splu', 'solve', 'inverse_block', 'capacitance_solve'])
def test_cli_linear_solve_failure_is_exit_3(monkeypatch, tmp_path, capsys, install, message,
                                            first_step):
    # the factorization and the solves fail in step 1; the updates, which
    # the forced obstacle first asks for in a later step, fail there
    install(monkeypatch)
    path = tmp_path / 'forced.json'
    path.write_text(json.dumps(forced_obstacle_raw()))
    assert cli.main(['solve', str(path), '--out', str(tmp_path / 'o')]) == 3
    assert f'solver failure: {message} (failed step target time' in capsys.readouterr().err
    summary = json.loads((tmp_path / 'o' / 'summary.json').read_text())
    assert summary['solver_error'] == message
    assert (summary['steps'] == 0) == first_step


def test_failing_update_inside_a_factorization_is_exit_3(monkeypatch, tmp_path):
    # the mixed pair at 8x16, delta 0, lambda 1e-2: its second Fourier base
    # is built when the obstacle is in contact, and serves the contacts as
    # an update inside `_factorize`; that base's inverse block fails
    raw = {'experiment': 'single', 'grid': {'n_r': 8, 'n_theta': 16}, 'problem': {
        'bulk_graph': {'kind': 'power_odd', 'exponent': 3}, 'boundary_graph': OBSTACLE,
        'pi': {'kind': 'linear', 'slope': -1.0}, 'pi_gamma': {'kind': 'linear', 'slope': -1.0},
        'u0': {'kind': 'harmonic', 'amplitude': 0.9, 'mode': 2, 'offset': 0.05},
        'g': {'kind': 'separable', 'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 3}}},
        'solver': {'delta': 0.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 0.05}}
    theta_modes, built = dg.ThetaModes, []

    def second_fails(*args):
        built.append(theta_modes(*args))
        return built[-1] if len(built) == 1 else _FailingBase(built[-1], 'inverse_block')
    monkeypatch.setattr(dg, 'ThetaModes', second_fails)
    cfg = harness.ExperimentConfig.from_dict(raw)
    levels = []
    result = cs.run(cfg.problem, cfg.solver, levels.append)
    err = result.error
    assert isinstance(err, LinearSolveFailure) and len(built) == 2
    assert str(err) == 'triangular solve failed: stand-in solve failure'
    frames, tb = [], err.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert frames[-2:] == ['_factorize', '_update']
    assert err.t == levels[-1].t + cfg.solver.dt and len(levels) > 1

    path = tmp_path / 'mixed.json'
    path.write_text(json.dumps(raw))
    built.clear()
    assert cli.main(['solve', str(path), '--out', str(tmp_path / 'o')]) == 3
    summary = json.loads((tmp_path / 'o' / 'summary.json').read_text())
    assert summary['steps'] == len(levels) - 1
    assert summary['solver_error'] == str(err)


# ---------------------------------------------------------------------------
# sextuplet consistency

def _field_levels(path, shape):
    """(times, values) of a field CSV, values shaped (levels, *shape);
    %.17g round-trips every double exactly."""
    data = np.loadtxt(path, delimiter=',', skiprows=1, ndmin=2)
    cells = math.prod(shape)
    return data[::cells, 0], data[:, -1].reshape((-1,) + shape)


def test_selection_fields_match_definition(tmp_path):
    # xi.csv / eta.csv hold beta_lam(u) / beta_Gamma_lam(v) of every written
    # level, bit for bit
    g = small_grid()
    shapes = {'u': (g.n_r, g.n_theta), 'v': (g.n_theta,)}
    for preset in ('cubic', 'logarithmic'):
        raw = {'experiment': 'single', 'grid': {'n_r': g.n_r, 'n_theta': g.n_theta},
               'problem': {'preset': preset},
               'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 5e-3},
               'output': {'dir': str(tmp_path / preset), 'stride': 2}}
        (tmp_path / f'{preset}.json').write_text(json.dumps(raw))
        cfg = harness.load_config(tmp_path / f'{preset}.json')
        harness.run_single(cfg)
        p, lam = cfg.problem, cfg.solver.lam
        for state, sel, graph in (('u', 'xi', p.bulk_graph), ('v', 'eta', p.boundary_graph)):
            ts, values = _field_levels(tmp_path / preset / f'{state}.csv', shapes[state])
            ts_sel, selections = _field_levels(tmp_path / preset / f'{sel}.csv', shapes[state])
            assert np.array_equal(ts, ts_sel) and np.allclose(ts, [0.0, 2e-3, 4e-3, 5e-3])
            for level, selection in zip(values, selections):
                assert np.array_equal(selection, mg.yosida(graph, level, lam))


def test_chemical_potential_equation_residual():
    # mu = lam*du/dt + s*du - Lap u + beta_lam(u) + pi(u_old) - f holds at
    # the converged step (weak/flux form, interior rows)
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    cfg = config(t_end=1e-3)
    levels = []
    cs.run(p, cfg, levels.append)
    s0, s1 = levels[0], levels[1]
    A, B = dg.dirichlet_laplacian_matrices(g, dg.neumann_laplacian_matrix(g))
    lap_u = (A @ s1.u.ravel() + B @ s1.v).reshape(s1.u.shape)
    lhs = s1.mu
    rhs = (cfg.lam / cfg.dt) * (s1.u - s0.u) - lap_u \
        + mg.yosida(p.bulk_graph, s1.u, cfg.lam) + np.asarray(p.pi(s0.u))
    assert np.max(np.abs(lhs - rhs)) < 1e-7


def test_mass_flux_equation_residual():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    cfg = config(t_end=1e-3)
    levels = []
    cs.run(p, cfg, levels.append)
    s0, s1 = levels[0], levels[1]
    lap_mu = (dg.neumann_laplacian_matrix(g) @ s1.mu.ravel()).reshape(s1.mu.shape)
    lhs = (s1.u - s0.u) / cfg.dt
    assert np.max(np.abs(lhs - lap_mu)) < 1e-6


# ---------------------------------------------------------------------------
# order in time and space

def test_backward_euler_is_first_order_in_time():
    # successive differences at t_end in L2(Omega) + L2(Gamma) as dt halves
    g = dg.DiskGrid(16, 32)
    p = cs.preset_problem('cubic', g, amplitude=0.4)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4):
        levels = []
        res = cs.run(p, config(delta=0.1, lam=1e-3, dt=dt, t_end=0.04, newton_tol=1e-12),
                     levels.append)
        assert res.error is None and abs(levels[-1].t - 0.04) < 1e-12
        finals.append(levels[-1])
    errors = [dg.l2_norm_bulk(g, a.u - b.u) + dg.l2_norm_trace(g, a.v - b.v)
              for a, b in zip(finals, finals[1:])]
    orders = [math.log2(e / e_next) for e, e_next in zip(errors, errors[1:])]
    assert len(orders) == 3 and min(orders) >= 0.9


def test_scheme_is_second_order_in_space():
    # successive differences at t_end in L2(Omega) + L2(Gamma) as both grid
    # counts double; the finer u is restricted by cell-area averages and the
    # finer v by averaging pairs of nodes
    finals = []
    for n_r in (8, 16, 32):
        g = dg.DiskGrid(n_r, 2 * n_r)
        p = cs.preset_problem('cubic', g, amplitude=0.4)
        levels = []
        res = cs.run(p, config(delta=0.1, lam=1e-3, dt=1e-3, t_end=0.04, newton_tol=1e-10),
                     levels.append)
        assert res.error is None and abs(levels[-1].t - 0.04) < 1e-12
        finals.append((g, levels[-1]))
    errors = []
    for (g, coarse), (fine_grid, fine) in zip(finals, finals[1:]):
        blocks = (g.n_r, 2, g.n_theta, 2)
        w = fine_grid.weights.reshape(blocks)
        u = (w * fine.u.reshape(blocks)).sum(axis=(1, 3)) / w.sum(axis=(1, 3))
        v = fine.v.reshape(-1, 2).mean(axis=1)
        errors.append(dg.l2_norm_bulk(g, coarse.u - u) + dg.l2_norm_trace(g, coarse.v - v))
    assert math.log2(errors[0] / errors[1]) >= 1.8


def _exact(grid, m=2, s=-1.0, lam=1e-2, delta=0.1):
    """A manufactured solution on the zero graphs with pi = pi_Gamma = s*r:
    u = e^-t r^m cos(m theta), v = e^-t cos(m theta), mu solving Lap mu = u_t
    with zero flux, w = v/m^2 (Lap_Gamma w = v_t), and the sources f, g that
    close the two chemical-potential equations.  Returns the problem and
    the profiles of (u, mu, v), each to be scaled by e^-t."""
    r = grid.r[:, None]
    u = cs.harmonic(grid, 1.0, m)
    mu = -(r ** (m + 2) / (4 * (m + 1)) - (m + 2) * r ** m / (4 * m * (m + 1))) \
        * np.cos(m * grid.theta)
    v = cs.harmonic(grid, 1.0, m, trace=True)
    f = cs._Source(u.shape, (((s - lam) * u - mu, 'exp', -1.0, 0.0),))
    g = cs._Source(v.shape, (((s - lam + m + delta * m ** 2 - 1 / m ** 2) * v, 'exp', -1.0, 0.0),))
    pi = mg.Perturbation.linear(s)
    return cs.ProblemData(grid, mg.zero(), mg.zero(), pi, pi, f, g, u, v), (u, mu, v)


def _on_the_cubic(problem, u, v, lam, dt, t_end):
    """The manufactured problem with the cubic on both graphs: f and g gain
    beta_lam(u) and beta_Gamma_lam(v) of the exact solution as frames at the
    step times (accumulated as `run()` accumulates them), where backward
    Euler evaluates them exactly."""
    cubic, times = mg.power_odd(3), [0.0]
    for _ in range(round(t_end / dt)):
        times.append(times[-1] + dt)

    def framed(source, profile):
        return dataclasses.replace(source, times=tuple(times), frames=np.array(
            [mg.yosida(cubic, math.exp(-t) * profile, lam) for t in times]))
    return dataclasses.replace(problem, bulk_graph=cubic, boundary_graph=cubic,
                               f=framed(problem.f, u), g=framed(problem.g, v))


def _exact_errors(grid, dt, t_end, cubic=False):
    """The L2 errors of u, mu (bulk quadrature) and v (circle) at t_end
    against the manufactured solution at the cell centres and nodes, on
    the zero graphs or on the cubic."""
    problem, (u, mu, v) = _exact(grid)
    if cubic:
        problem = _on_the_cubic(problem, u, v, 1e-2, dt, t_end)
    levels = []
    res = cs.run(problem, config(delta=0.1, lam=1e-2, dt=dt, t_end=t_end, newton_tol=1e-12),
                 levels.append)
    last = levels[-1]
    assert res.error is None and abs(last.t - t_end) < 1e-12
    decay = math.exp(-t_end)
    return np.array([dg.l2_norm_bulk(grid, last.u - decay * u),
                     dg.l2_norm_bulk(grid, last.mu - decay * mu),
                     dg.l2_norm_trace(grid, last.v - decay * v)])


def test_exact_solution_is_second_order_in_space():
    # dt small enough that the error in time stays far below the spatial one
    errors = [_exact_errors(dg.DiskGrid(n_r, 2 * n_r), 1e-5, 1e-3) for n_r in (8, 16, 32)]
    orders = [np.log2(e / e_next) for e, e_next in zip(errors, errors[1:])]
    assert np.min(orders) >= 1.8, orders


def test_exact_solution_is_first_order_in_time():
    # the error at dt less the error at a fine dt leaves the error in time
    grid = dg.DiskGrid(32, 64)
    floor = _exact_errors(grid, 1e-4, 0.1)
    errors = [_exact_errors(grid, dt, 0.1) - floor for dt in (0.02, 0.01, 0.005, 0.0025)]
    orders = [np.log2(e / e_next) for e, e_next in zip(errors, errors[1:])]
    assert np.min(orders) >= 0.9, orders


def test_nonlinear_exact_solution_is_second_order_in_space():
    # the Yosida terms inside the scheme, not only the operators
    errors = [_exact_errors(dg.DiskGrid(n_r, 2 * n_r), 1e-5, 1e-3, cubic=True)
              for n_r in (8, 16, 32)]
    orders = [np.log2(e / e_next) for e, e_next in zip(errors, errors[1:])]
    assert np.min(orders) >= 1.8, orders


def test_nonlinear_exact_solution_is_first_order_in_time():
    grid = dg.DiskGrid(32, 64)
    floor = _exact_errors(grid, 1e-4, 0.1, cubic=True)
    errors = [_exact_errors(grid, dt, 0.1, cubic=True) - floor
              for dt in (0.02, 0.01, 0.005, 0.0025)]
    orders = [np.log2(e / e_next) for e, e_next in zip(errors, errors[1:])]
    assert np.min(orders) >= 0.9, orders


def test_delta_rate_holds_for_a_fine_angular_mode(tmp_path):
    # the paper's delta -> 0 rate (p = 1/2) for u0 at angular mode 8, whose
    # fitted slope sits below mode 2's on the standard ladder; on the ladder
    # scaled by (2/8)^2, where delta*m^2 spans mode 2's values, the slope is
    # near 1 (README, the delta-rate and the mode of u0)
    for scale, bound in ((1.0, 0.45), ((2 / 8) ** 2, 0.9)):
        raw = {'experiment': 'sweep_delta', 'grid': {'n_r': 16, 'n_theta': 32},
               'problem': {'preset': 'cubic', 'mode': 8},
               'solver': {'delta': 0.1, 'lambda': 1e-3, 'dt': 1e-3, 't_end': 0.25},
               'sweep_delta': {'deltas': [scale * d for d in (0.1, 0.05, 0.025, 0.0125)],
                               'reference': 'delta_zero'},
               'output': {'dir': str(tmp_path / str(scale))}}
        report = harness.sweep_delta(harness.ExperimentConfig.from_dict(raw))
        assert all(r.status == 'ok' and r.in_fit for r in report.rows)
        assert report.rate_claimed and report.slope >= bound, (scale, report.slope)


def test_delta_rate_holds_on_the_double_obstacle(tmp_path):
    # the paper's nonsmooth case: acceptance check 9's forced data, which
    # reach the obstacle (the obstacle preset's data stay inside it)
    obstacle = {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0}
    raw = {'experiment': 'sweep_delta', 'grid': {'n_r': 16, 'n_theta': 32}, 'problem': {
        'bulk_graph': obstacle, 'boundary_graph': obstacle,
        'pi': {'kind': 'linear', 'slope': -1.0}, 'pi_gamma': {'kind': 'linear', 'slope': -1.0},
        'u0': {'kind': 'harmonic', 'amplitude': 0.95, 'mode': 2, 'offset': 0.0},
        'f': {'kind': 'separable',
              'spatial': {'kind': 'harmonic', 'amplitude': 4.0, 'mode': 2},
              'time': {'kind': 'constant'}},
        'g': {'kind': 'separable',
              'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 2},
              'time': {'kind': 'constant'}}},
           'solver': {'delta': 0.1, 'lambda': 1e-3, 'dt': 1e-3, 't_end': 0.1},
           'sweep_delta': {'deltas': [0.1, 0.05, 0.025, 0.0125], 'reference': 'delta_zero'},
           'output': {'dir': str(tmp_path)}}
    report = harness.sweep_delta(harness.ExperimentConfig.from_dict(raw))
    assert all(r.status == 'ok' and r.in_fit for r in report.rows)
    assert report.rate_claimed and report.slope >= 0.45


# ---------------------------------------------------------------------------
# time stepping mechanics

def test_partial_final_step(monkeypatch):
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    starts = []
    step = cs.NewtonStepper.step

    def recording_step(self, t0, u0, v0, start):
        starts.append(start)
        return step(self, t0, u0, v0, start)

    monkeypatch.setattr(cs.NewtonStepper, 'step', recording_step)
    levels = []
    res = cs.run(p, config(dt=1e-3, t_end=3.5e-3), levels.append)
    ts = [s.t for s in levels]
    assert len(ts) == 5
    assert abs(ts[-1] - 3.5e-3) < 1e-15
    assert abs(ts[-2] - 3.0e-3) < 1e-15
    # steps 1 and 2 start at the previous level; the half-length remainder
    # starts at the extrapolation scaled by 1/2, and converges from there
    assert starts[0] is levels[0] and starts[1] is levels[1]
    assert res.error is None and res.diagnostics.rows[-1].newton_iters >= 1
    prev, last, final = levels[-3:]
    for name in ('u', 'mu', 'v', 'w'):
        x, x_prev = getattr(last, name), getattr(prev, name)
        np.testing.assert_allclose(getattr(starts[-1], name), x + 0.5 * (x - x_prev),
                                   rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(starts[-1].u - final.u)) < np.max(np.abs(last.u - final.u))


@pytest.mark.parametrize('t_end, lengths', [(5e-4, [5e-4]), (2.5e-3, [1e-3, 5e-4]),
                                             (3e-3, [1e-3])],
                         ids=['shorter_than_dt', 'trailing_half_step', 'multiple_of_dt'])
def test_run_builds_a_stepper_per_step_length_it_takes(monkeypatch, t_end, lengths):
    # each stepper is built when a step first needs its length, so a run
    # shorter than dt assembles no operator at dt
    built = []
    init = cs.NewtonStepper.__init__

    def spy(self, problem, config, dt, record=None):
        built.append(dt)
        init(self, problem, config, dt, record)
    monkeypatch.setattr(cs.NewtonStepper, '__init__', spy)
    result = cs.run(cs.preset_problem('cubic', dg.DiskGrid(8, 16)), config(t_end=t_end))
    assert result.error is None and len(result.diagnostics.rows) == 1 + math.ceil(t_end / 1e-3)
    assert built == pytest.approx(lengths, rel=1e-9)


def test_extrapolated_start_gives_the_same_levels_in_fewer_iterations():
    p = cs.preset_problem('cubic', dg.DiskGrid(16, 32))
    cfg = config(delta=0.1, lam=1e-3, t_end=2e-2)
    levels = []
    res = cs.run(p, cfg, levels.append)
    assert res.error is None and len(levels) == 21
    # the same steps, each started at the previous level
    stepper = cs.NewtonStepper(p, cfg, cfg.dt)
    state, iters = cs.initial_state(p), 0
    for level in levels[1:]:
        u, mu, v, w, k, _ = stepper.step(state.t, state.u, state.v, state)
        state, iters = cs.StepSolution(level.t, u, mu, v, w), iters + k
        for name in ('u', 'mu', 'v', 'w'):
            assert np.max(np.abs(getattr(state, name) - getattr(level, name))) \
                <= 10 * cfg.newton_tol
    assert sum(r.newton_iters for r in res.diagnostics.rows) < iters


def test_tolerance_below_the_round_off_floor_is_named():
    # the weighted residual's round-off floor grows with the grid: at 64x128
    # 1e-12 is out of reach, and the stall says so
    p = cs.preset_problem('cubic', dg.DiskGrid(64, 128), amplitude=0.4)
    cfg = config(delta=0.1, lam=1e-3, t_end=1e-3, newton_tol=1e-12)
    levels = []
    res = cs.run(p, cfg, levels.append)
    assert isinstance(res.error, NewtonDivergence) and len(levels) == 1
    message = str(res.error)
    assert message.startswith('damped Newton stalled at residual ')
    head, floor = message.split("; newton_tol 1.000e-12 is below the residual's "
                                'estimated round-off floor ')
    assert float(floor) > cfg.newton_tol


def test_iteration_cap_below_the_round_off_floor_names_it():
    # at 8x16 a tolerance under the floor ends on the iteration cap, and
    # the cap's message names the floor too; 5 iterations reach the cap
    # while the residual still falls, before any damped retry, so no walk
    # below the floor decides how the step ends
    p = cs.preset_problem('cubic', dg.DiskGrid(8, 16), amplitude=0.4)
    cfg = config(delta=0.1, lam=1e-3, t_end=1e-3, newton_tol=1e-15, newton_max_iter=5)
    res = cs.run(p, cfg)
    assert isinstance(res.error, NewtonDivergence) and res.error.iters == 5
    assert res.record.line_search_halvings == 0
    head, floor = str(res.error).split("; newton_tol 1.000e-15 is below the residual's "
                                       'estimated round-off floor ')
    assert head.startswith('no convergence in 5 iterations (residual ')
    assert float(floor) > cfg.newton_tol


def test_whole_number_of_steps():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    levels = []
    cs.run(p, config(dt=1e-3, t_end=4e-3), levels.append)
    assert len(levels) == 5
    assert abs(levels[-1].t - 4e-3) < 1e-15


def test_newton_divergence_is_captured():
    g = small_grid()
    p = cs.preset_problem('cubic', g, amplitude=0.4)
    cfg = config(newton_max_iter=1, t_end=5e-3)
    levels = []
    res = cs.run(p, cfg, levels.append)
    assert isinstance(res.error, NewtonDivergence)
    assert res.error.t is not None and res.error.residual > 0
    assert len(levels) >= 1             # trajectory up to the failure

    state = cs.initial_state(p)
    with pytest.raises(NewtonDivergence):
        cs.NewtonStepper(p, cfg, cfg.dt).step(state.t, state.u, state.v, state)


def test_non_finite_residual_is_newton_divergence():
    # NaN compares False against the tolerance; the step must not take the
    # unchanged iterate for a converged one
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    cfg = config()
    state = cs.initial_state(p)
    state.mu[3, 5] = math.nan
    with pytest.raises(NewtonDivergence) as info:
        cs.NewtonStepper(p, cfg, cfg.dt).step(state.t, state.u, state.v, state)
    assert info.value.iters == 0 and math.isnan(info.value.residual)
    assert abs(info.value.t - cfg.dt) < 1e-15


def test_non_finite_iterate_is_solve_failure():
    # the graph maps reject a NaN argument; inside a step that is a solver
    # failure with the step's target time, also after crossing a process pool
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    cfg = config()
    state = cs.initial_state(p)
    state.u[3, 5] = math.nan
    with pytest.raises(SolveFailure) as info:
        cs.NewtonStepper(p, cfg, cfg.dt).step(state.t, state.u, state.v, state)
    assert isinstance(info.value, NewtonDivergence)
    assert abs(info.value.t - cfg.dt) < 1e-15 and info.value.iters == 0
    copy = pickle.loads(pickle.dumps(info.value))
    assert (copy.t, copy.iters, str(copy)) == (info.value.t, 0, str(info.value))


def test_run_keeps_trajectory_before_non_finite_residual():
    # the tabulated source turns NaN from t = 3e-3 on: two good steps
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    shape = (g.n_r, g.n_theta)
    f = read_source(g, {'kind': 'tabulated', 'times': [0.0, 2.5e-3, 2.6e-3],
                        'frames': [np.zeros(shape).tolist(), np.zeros(shape).tolist(),
                                   np.full(shape, math.nan).tolist()]})
    p_nan = cs.ProblemData(g, p.bulk_graph, p.boundary_graph, p.pi, p.pi_gamma,
                           f, p.g, p.u0, p.v0)
    levels = []
    res = cs.run(p_nan, config(t_end=5e-3), levels.append)
    assert isinstance(res.error, NewtonDivergence)
    assert abs(res.error.t - 3e-3) < 1e-15 and math.isnan(res.error.residual)
    assert len(levels) == 3 and len(res.diagnostics.rows) == 3
    assert all(np.all(np.isfinite(s.u)) for s in levels)


def test_run_returns_wall_time():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    res = cs.run(p, config())
    assert res.wall_time > 0


# ---------------------------------------------------------------------------
# validation

def test_validate_accepts_presets():
    g = small_grid()
    for preset in cs.PRESET_NAMES:
        p = cs.preset_problem(preset, g)
        failures = cs.validate(p, config())
        assert failures == [], failures


def test_validate_rejects_trace_mismatch():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    v_bad = p.v0 + 0.5
    p_bad = cs.ProblemData(g, p.bulk_graph, p.boundary_graph, p.pi, p.pi_gamma,
                           p.f, p.g, p.u0, v_bad)
    failures = cs.validate(p_bad, config())
    assert failures
    assert any('TraceIncompatibility' in f for f in failures)
    with pytest.raises(ValidationFailure):
        cs.run(p_bad, config())


def test_validate_rejects_domination_violation():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    p_bad = cs.ProblemData(g, mg.power_odd(5, 1.0), mg.power_odd(3, 1.0),
                           p.pi, p.pi_gamma, p.f, p.g, p.u0, p.v0)
    failures = cs.validate(p_bad, config())
    assert failures
    assert any('DominationViolation' in f for f in failures)


def test_validate_rejects_out_of_domain_data():
    g = small_grid()
    u0 = np.full((g.n_r, g.n_theta), 1.2)
    v0 = np.full(g.n_theta, 1.2)
    p_bad = cs.ProblemData(g, mg.logarithmic(1.0), mg.logarithmic(1.0),
                           mg.Perturbation.linear(0.0), mg.Perturbation.linear(0.0),
                           cs._Source((g.n_r, g.n_theta)), cs._Source((g.n_theta,)),
                           u0, v0)
    failures = cs.validate(p_bad, config())
    assert failures
    assert any('IncompatibleRange' in f for f in failures)


def test_validate_warns_on_large_dt_lipschitz():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    with pytest.warns(UserWarning, match='exceeds 0.5'):
        cs.validate(p, config(dt=0.5, t_end=1.0))


def test_problem_data_shape_checks():
    g = small_grid()
    p = cs.preset_problem('cubic', g)
    with pytest.raises(ValueError, match='u0 shape does not match the grid'):
        cs.ProblemData(g, p.bulk_graph, p.boundary_graph, p.pi, p.pi_gamma,
                       p.f, p.g, p.u0[:-1], p.v0)
    with pytest.raises(ValueError, match='v0 shape does not match the grid'):
        cs.ProblemData(g, p.bulk_graph, p.boundary_graph, p.pi, p.pi_gamma,
                       p.f, p.g, p.u0, p.v0[:-1])


# ---------------------------------------------------------------------------
# sources and presets

def test_separable_source_time_profiles():
    g = small_grid()
    spatial = {'kind': 'constant', 'value': 2.0}
    exp_src = read_source(g, {'kind': 'separable', 'spatial': spatial,
                              'time': {'kind': 'exp', 'rate': -1.0}})
    assert abs(exp_src(1.0)[0, 0] - 2.0 * math.exp(-1.0)) < 1e-15
    cos_src = read_source(g, {'kind': 'separable',
                              'spatial': {'kind': 'constant', 'value': 1.0},
                              'time': {'kind': 'cos', 'omega': 2.0}}, trace=True)
    assert abs(cos_src(0.25)[0] - math.cos(0.5)) < 1e-15


def test_tabulated_source_interpolates():
    g = small_grid()
    frames = [np.zeros((g.n_r, g.n_theta)), np.ones((g.n_r, g.n_theta))]
    src = read_source(g, {'kind': 'tabulated', 'times': [0.0, 1.0],
                          'frames': [f.tolist() for f in frames]})
    assert np.allclose(src(0.25), 0.25)
    assert np.allclose(src(2.0), 1.0)     # constant continuation
    assert np.allclose(src(-1.0), 0.0)


def test_source_of_a_term_and_frames_sums_and_pickles():
    # a read term and read frames held in one source sum as the two read
    # sources do, also in the copy that a worker process gets
    g = small_grid()
    shape = (g.n_r, g.n_theta)
    a = read_source(g, {'kind': 'separable',
                        'spatial': {'kind': 'constant', 'value': 2.0},
                        'time': {'kind': 'exp', 'rate': -1.0}})
    b = read_source(g, {'kind': 'tabulated', 'times': [0.0, 1.0],
                        'frames': [np.zeros(shape).tolist(), np.ones(shape).tolist()]})
    total = pickle.loads(pickle.dumps(dataclasses.replace(b, terms=a.terms)))
    assert [f.name for f in dataclasses.fields(total)] == ['shape', 'terms', 'times', 'frames']
    assert np.array_equal(total(0.25), a(0.25) + b(0.25))


def test_source_terms_and_frames_sum_bit_for_bit():
    # T1*p1 + T2*p2; and a term plus frames is the sum that a separable
    # source and a tabulated one made (IEEE addition commutes): T*p plus
    # the frames' linear interpolation in t, held constant outside the times
    g = small_grid()
    p1, p2 = cs.harmonic(g, 0.7, 2), cs.harmonic(g, -0.3, 3, offset=0.1)
    fr = np.stack([cs.harmonic(g, c, 1) for c in (0.0, 1.0, 0.5)])
    two = cs._Source(p1.shape, ((p1, 'exp', -2.0, 0.0), (p2, 'cos', 0.0, 3.0)))
    framed = cs._Source(p1.shape, ((p1, 'cos', 0.0, 3.0),), (0.0, 0.01, 0.02), fr)
    for t in (0.0, 0.004, 0.013, 0.5):
        assert two(t).tobytes() == (math.exp(-2.0 * t) * p1 + math.cos(3.0 * t) * p2).tobytes()
    frames = {0.0: fr[0], 0.004: (1.0 - 0.004 / 0.01) * fr[0] + 0.004 / 0.01 * fr[1],
              0.013: (1.0 - (0.013 - 0.01) / (0.02 - 0.01)) * fr[1]
              + (0.013 - 0.01) / (0.02 - 0.01) * fr[2], 0.5: fr[2]}
    for t, frame in frames.items():
        assert framed(t).tobytes() == (math.cos(3.0 * t) * p1 + frame).tobytes()
    assert cs._Source(p2.shape, ((p2, 'constant', 0.0, 0.0),))(0.3).tobytes() == p2.tobytes()
    assert np.array_equal(cs._Source(p1.shape)(0.3), np.zeros(p1.shape))


def test_preset_rejects_unknown_name():
    with pytest.raises(ValueError):
        cs.preset_problem('quartic', small_grid())


def test_backward_scenario_completes_at_small_delta():
    # the boundary subsystem alone would be a forward-backward equation;
    # coupled to the bulk it runs to completion
    g = small_grid()
    p = cs.preset_problem('backward', g)
    res = cs.run(p, config(delta=0.05, t_end=2e-2))
    assert res.error is None
    rows = res.diagnostics.rows
    assert abs(rows[-1].mass_trace - rows[0].mass_trace) < 1e-12


def test_obstacle_overshoot_bounded_by_lambda():
    # Yosida relaxation lets the state exceed [-1,1] by O(lambda)
    g = small_grid()
    over = []
    for lam in (1e-2, 1e-3):
        p = cs.preset_problem('obstacle', g, amplitude=0.95, offset=0.0)
        f = read_source(g, {'kind': 'separable',
                            'spatial': {'kind': 'harmonic', 'amplitude': 4.0, 'mode': 2},
                            'time': {'kind': 'constant'}})
        gg = read_source(g, {'kind': 'separable',
                             'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 2},
                             'time': {'kind': 'constant'}}, trace=True)
        p = cs.ProblemData(g, p.bulk_graph, p.boundary_graph, p.pi, p.pi_gamma,
                           f, gg, p.u0, p.v0)
        res = cs.run(p, cs.SolverConfig(delta=0.5, lam=lam, dt=1e-3, t_end=5e-2))
        assert res.error is None
        over.append(max(r.overshoot for r in res.diagnostics.rows))
    assert over[0] > 0
    assert over[1] <= over[0]


# ---------------------------------------------------------------------------
# the run record's line-search counts against a replay of the loop

def _line_searches(monkeypatch):
    """Spies that log, by residual norm, what each Newton step did: the
    iterate at each solve, every step length tried, and the iterate the
    step ended at (raised or returned).  The replay reads each solve's
    tries off the log; a line search that tried all 9 lengths and moved
    the iterate to the full step's point was a non-monotone step."""
    log = []
    solve, residual, step = (cs.NewtonStepper._solve, cs.NewtonStepper._residual,
                             cs.NewtonStepper.step)

    def spy_solve(self, b):               # b = -R at the iterate
        log.append(('solve', self._res_norm(b)))
        return solve(self, b)

    def spy_residual(self, x, c):
        r = residual(self, x, c)
        log.append(('try', self._res_norm(r)))
        return r

    def spy_step(self, *args):
        log.append(('step', None))
        try:
            out = step(self, *args)
        except NewtonDivergence as exc:
            log.append(('end', exc.residual))
            raise
        log.append(('end', out[5]))
        return out
    for name, spy in (('_solve', spy_solve), ('_residual', spy_residual), ('step', spy_step)):
        monkeypatch.setattr(cs.NewtonStepper, name, spy)

    def replay():
        halvings = nonmonotone = 0
        for kind, value in log:
            if kind == 'step':
                at, tries = [], [[]]      # tries[0]: the starting residual
            elif kind == 'try':
                tries[-1].append(value)
            elif kind == 'solve':
                at.append(value)
                tries.append([])
            else:                         # the residual the step ended at
                moved_to = at[1:] + [value]
                for j, t in enumerate(tries[1:]):
                    halvings += len(t) - 1
                    nonmonotone += len(t) == 9 and moved_to[j] == t[0] != at[j]
        return halvings, nonmonotone
    return replay


@pytest.mark.parametrize('case', ['logarithmic_below_the_floor', 'forced_obstacle',
                                  'forced_obstacle_32x64_lambda_1e-4'])
def test_record_counts_the_line_search_as_the_loop_ran_it(monkeypatch, case):
    if case == 'logarithmic_below_the_floor':
        # the tolerance is under the residual's round-off floor: the first
        # step halves, falls back and fails, and its work still counts
        problem = cs.preset_problem('logarithmic', dg.DiskGrid(8, 16), amplitude=0.4)
        solver = config(delta=0.1, lam=1e-3, t_end=1e-2, newton_tol=1e-15)
    elif case == 'forced_obstacle':
        problem, solver = forced_obstacle()
        solver = dataclasses.replace(solver, dt=1e-2, t_end=5e-2)
    else:
        # one fallback per new lowest residual carries this run through
        # its kinks (a budget of 5 gave the same counts)
        problem, solver = forced_obstacle(32, 64)
        solver = dataclasses.replace(solver, delta=0.0, lam=1e-4, dt=1e-2, t_end=0.1)
    replay = _line_searches(monkeypatch)
    result = cs.run(problem, solver)
    halvings, nonmonotone = replay()
    assert result.record.line_search_halvings == halvings > 0
    assert result.record.nonmonotone_steps == nonmonotone > 0
    assert (result.error is None) == case.startswith('forced_obstacle')
