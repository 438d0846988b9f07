"""Desk-scale acceptance gate.

Every numbered check prints one PASS/FAIL line (written past the capture
plugin so it always shows up in the pytest log) and then asserts at the
stated tolerance.  Expensive trajectories are shared through module-scoped
fixtures; the whole file runs in about a minute.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.linalg

from chb import chd_solver as cs
from chb import disk_grid as dg
from chb import dual_norms as dn
from chb import harness
from chb import monotone_graphs as mg
from graph_oracles import (bisect_log_y, bisect_power_resolvent, in_domain,
                           minimal_section)


@pytest.fixture
def verdict(capsys):
    """One always-visible PASS/FAIL line per criterion, then the assert."""
    def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _verdict


# ---------------------------------------------------------------------------
# shared trajectories

PRESET_GRID = (64, 128)
PRESET_SOLVER = dict(delta=0.5, lam=1e-3, dt=1e-3, t_end=0.25, newton_tol=1e-10)


@pytest.fixture(scope='module')
def preset_runs():
    grid = dg.DiskGrid(*PRESET_GRID)
    out = {}
    for name in cs.PRESET_NAMES:
        problem = cs.preset_problem(name, grid)
        result = cs.run(problem, cs.SolverConfig(**PRESET_SOLVER))
        assert result.error is None, f'{name}: {result.error}'
        out[name] = result
    return out


@pytest.fixture(scope='module')
def delta_sweep(tmp_path_factory):
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 64, 'n_theta': 128},
        'problem': {'preset': 'cubic'},
        'solver': {'delta': 0.1, 'lambda': 1e-3, 'dt': 1e-3, 't_end': 0.25},
        'sweep_delta': {'deltas': [0.1, 0.05, 0.025, 0.0125],
                        'reference': 'delta_zero'},
        'output': {'dir': str(tmp_path_factory.mktemp('sweep'))},
    }
    t0 = time.perf_counter()
    report = harness.sweep_delta(harness.ExperimentConfig.from_dict(raw))
    return report, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1 + 2: conservation and energy decay on the preset runs

def test_criterion_1_conservation(preset_runs, verdict):
    tol = 1e-11
    worst = 0.0
    ok = True
    details = []
    for name, result in preset_runs.items():
        rows = result.diagnostics.rows
        db = max(abs(r.mass_bulk - rows[0].mass_bulk) for r in rows)
        dt_ = max(abs(r.mass_trace - rows[0].mass_trace) for r in rows)
        worst = max(worst, db, dt_)
        ok = ok and db <= tol and dt_ <= tol and result.wall_time < 120.0
        details.append(f'{name} {max(db, dt_):.2e}/{result.wall_time:.1f}s')
    verdict(1, 'mass conservation', ok,
            f'max drift {worst:.3e} <= {tol:.0e}; ' + ', '.join(details))


def test_criterion_2_energy_dissipation(preset_runs, verdict):
    bound = 10.0 * PRESET_SOLVER['newton_tol']
    worst = -np.inf
    ok = True
    for name, result in preset_runs.items():
        inc = max(r.d_energy for r in result.diagnostics.rows[1:])
        worst = max(worst, inc)
        ok = ok and inc <= bound
    verdict(2, 'energy decay', ok,
            f'max energy increment {worst:.3e} <= {bound:.0e}')


# ---------------------------------------------------------------------------
# 3: regularized-graph property suite

SUITE = {
    'zero': (mg.zero(), 50.0),
    'power3': (mg.power_odd(3, 1.0), 3.0),
    'power5': (mg.power_odd(5, 0.5), 3.0),
    'log': (mg.logarithmic(1.0), 2.0),
    'log_half': (mg.logarithmic(0.5), 2.0),
    'obstacle': (mg.double_obstacle(-1.0, 1.0), 3.0),
}


def test_criterion_3_regularization_suite(verdict):
    rng = np.random.default_rng(2024)
    lams = 10.0 ** rng.uniform(-4, 0, 100)
    oracle_worst = 0.0
    closed_ok = True
    pairs = 0
    for name, (spec, span) in SUITE.items():
        rs = np.sort(rng.uniform(-span, span, 100))
        dom = in_domain(spec, rs)
        beta0 = minimal_section(spec, np.where(dom, rs, 0.0))
        for lam in lams:
            x = np.asarray(mg.resolvent(spec, rs, lam))
            y = np.asarray(mg.yosida(spec, rs, lam))
            env = np.asarray(mg.yosida_primitive(spec, rs, lam))
            pairs += rs.size

            # identities that every maximal monotone regularization satisfies
            assert np.all(y == (rs - x) / lam) or np.allclose(
                y, (rs - x) / lam, rtol=0, atol=1e-12 / lam)
            dx = np.diff(x)
            dr = np.diff(rs)
            assert np.all(dx >= -1e-12)                       # monotone
            assert np.all(dx <= dr * (1 + 1e-12) + 1e-12)     # nonexpansive
            dy = np.diff(y)
            assert np.all(dy >= -1e-9 / lam)                  # monotone
            assert np.all(dy <= dr / lam + 1e-9 / lam)        # 1/lam-Lipschitz
            assert np.all(env >= 0.0)
            if name != 'zero':
                prim = mg._primitive(spec, rs[dom])
                assert np.all(env[dom] <= prim + 1e-10 * (1.0 + prim))
            sel = np.abs(beta0[dom])
            assert np.all(np.abs(y[dom]) <= sel + 1e-10 * (1.0 + sel))

            # closed forms
            if name == 'zero':
                closed_ok = closed_ok and np.array_equal(x, rs) \
                    and not np.any(y)
            elif name == 'obstacle':
                clip = np.clip(rs, -1.0, 1.0)
                closed_ok = closed_ok and np.array_equal(x, clip) \
                    and np.array_equal(y, (rs - clip) / lam)
            # root-found cases against bisection
            elif spec.kind == 'power_odd':
                ref = bisect_power_resolvent(rs, lam, spec.exponent, spec.coefficient)
                oracle_worst = max(oracle_worst, float(np.max(np.abs(x - ref))))
            else:
                ref = np.tanh(bisect_log_y(rs, lam, spec.scale))
                oracle_worst = max(oracle_worst, float(np.max(np.abs(x - ref))))
    ok = closed_ok and oracle_worst <= 1e-11
    verdict(3, 'regularized graphs', ok,
            f'{pairs} pairs per property; closed forms exact: {closed_ok}; '
            f'bisection gap {oracle_worst:.2e} <= 1e-11')


# ---------------------------------------------------------------------------
# 4: dual norms against dense oracles

def test_criterion_4_dual_norm_oracles(verdict):
    grid = dg.DiskGrid(8, 16)
    toolkit = dn.NormToolkit(grid)
    S = dg.stiffness_matrix_bulk(grid).toarray()
    w = grid.weights.ravel()
    sig, phi = scipy.linalg.eigh(S, np.diag(w))

    eig_worst = 0.0
    for k in range(1, grid.size):
        vec = phi[:, k]
        vec = vec - (w @ vec) / w.sum()
        z = vec.reshape(grid.n_r, grid.n_theta)
        l2 = np.sqrt(float(np.sum(w * vec ** 2)))
        ref = l2 / np.sqrt(sig[k])
        gap = abs(toolkit.dual_norm_bulk(z) - ref) / max(1.0, ref)
        eig_worst = max(eig_worst, gap)

    trace_worst = 0.0
    for k in range(1, grid.n_theta // 4 + 1):
        z = np.cos(k * grid.theta)
        trace_worst = max(
            trace_worst,
            abs(toolkit.dual_norm_trace(z) - np.sqrt(np.pi) / k),
            abs(toolkit.h_half_norm_trace(z) - np.sqrt((1.0 + k) * np.pi)))

    ok = eig_worst <= 1e-9 and trace_worst <= 1e-12
    verdict(4, 'dual-norm oracles', ok,
            f'eigen gap {eig_worst:.2e} <= 1e-9; '
            f'Fourier gap {trace_worst:.2e} <= 1e-12')


# ---------------------------------------------------------------------------
# 5: one linear step against a dense direct solve

def test_criterion_5_linear_propagator(verdict):
    grid = dg.DiskGrid(8, 16)
    problem = cs.preset_problem('backward', grid)
    cfg = cs.SolverConfig(delta=0.25, lam=5e-3, dt=2e-3, t_end=2e-3)

    stepper = cs.NewtonStepper(problem, cfg, cfg.dt)
    state = cs.initial_state(problem)
    u, mu, v, w, *_ = stepper.step(state.t, state.u, state.v, state)

    n, nt = grid.size, grid.n_theta
    x0 = np.concatenate([problem.u0.ravel(), np.zeros(n),
                         problem.v0, np.zeros(nt)])
    J = stepper.jacobian_at(problem.u0.ravel(), problem.v0).toarray()
    r0 = stepper._residual(x0, stepper._constant(cfg.dt, problem.u0, problem.v0))
    dense = np.linalg.solve(J, J @ x0 - r0)
    got = np.concatenate([u.ravel(), mu.ravel(), v, w])
    rel = float(np.max(np.abs(got - dense)) / np.max(np.abs(dense)))
    verdict(5, 'linear propagator', rel <= 1e-8,
            f'relative gap {rel:.2e} <= 1e-8')


# ---------------------------------------------------------------------------
# 6: vanishing-surface-diffusion sweep (rows reused by 8 below)

def test_criterion_6_error_rate(delta_sweep, verdict):
    report, elapsed = delta_sweep
    ok = (report.slope is not None and report.slope >= 0.45
          and report.r2 >= 0.98 and not report.zero_error
          and all(r.status == 'ok' for r in report.rows)
          and elapsed < 900.0)
    slope = float('nan') if report.slope is None else report.slope
    r2 = float('nan') if report.r2 is None else report.r2
    verdict(6, 'half-order rate', ok,
            f'slope {slope:.4f} >= 0.45, R^2 {r2:.6f} >= 0.98, '
            f'{elapsed:.0f}s')


# ---------------------------------------------------------------------------
# 7: continuous dependence across forcing amplitudes

def test_criterion_7_continuous_dependence(tmp_path, verdict):
    bands = {}
    ok = True
    linear_gap = None
    for preset in cs.PRESET_NAMES:
        raw = {
            'experiment': 'stability',
            'grid': {'n_r': 32, 'n_theta': 64},
            'problem': {'preset': preset},
            'solver': {'delta': 0.5, 'lambda': 1e-3, 'dt': 1e-3, 't_end': 0.1},
            'stability': {'amplitudes': [1e-3, 1e-2, 1e-1], 'target': 'f',
                          'band': 3.0},
            'output': {'dir': str(tmp_path / preset)},
        }
        report = harness.stability_experiment(harness.ExperimentConfig.from_dict(raw))
        bands[preset] = report.band
        ok = ok and report.band_ok and report.band < 3.0
        if preset == 'backward':
            ratios = [r.sup_ratio for r in report.rows]
            linear_gap = max(abs(r - ratios[0]) for r in ratios[1:]) \
                / abs(ratios[0])
            ok = ok and linear_gap <= 1e-8
    shown = ', '.join(f'{k} {v:.6f}' for k, v in bands.items())
    verdict(7, 'continuous dependence', ok,
            f'ratio bands [{shown}] < 3; linear spread {linear_gap:.2e} <= 1e-8')


def test_criterion_8_gradient_damping(delta_sweep, verdict):
    report, _ = delta_sweep
    seq = [r.delta_sup_gradv for r in report.rows]
    ok = (all(s is not None for s in seq)
          and all(b <= a for a, b in zip(seq[:-1], seq[1:]))
          and seq[-1] <= 0.25 * seq[0])
    shown = ', '.join(f'{s:.3e}' for s in seq)
    verdict(8, 'boundary-gradient damping', ok,
            f'delta*sup|grad v| = [{shown}]; tail/head '
            f'{seq[-1] / seq[0]:.3f} <= 0.25')


# ---------------------------------------------------------------------------
# 9: obstacle overshoot along the viscosity ladder

def test_criterion_9_obstacle_overshoot(verdict):
    # the obstacle preset at amplitude 0.95 and offset 0, forced through f and g
    obstacle = {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0}
    raw = {'experiment': 'graph_check', 'grid': {'n_r': 24, 'n_theta': 48}, 'problem': {
        'bulk_graph': obstacle, 'boundary_graph': obstacle,
        'pi': {'kind': 'linear', 'slope': -1.0}, 'pi_gamma': {'kind': 'linear', 'slope': -1.0},
        'u0': {'kind': 'harmonic', 'amplitude': 0.95, 'mode': 2, 'offset': 0.0},
        'f': {'kind': 'separable',
              'spatial': {'kind': 'harmonic', 'amplitude': 4.0, 'mode': 2},
              'time': {'kind': 'constant'}},
        'g': {'kind': 'separable',
              'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 2},
              'time': {'kind': 'constant'}}}}
    problem = harness.ExperimentConfig.from_dict(raw).problem
    overshoots = []
    for lam in (1e-2, 1e-3, 1e-4):
        result = cs.run(problem, cs.SolverConfig(delta=0.5, lam=lam,
                                                 dt=1e-3, t_end=0.1))
        assert result.error is None, result.error
        overshoots.append(max(r.overshoot for r in result.diagnostics.rows))
    ok = overshoots[0] > 0 and all(
        b <= a for a, b in zip(overshoots[:-1], overshoots[1:]))
    shown = ', '.join(f'{o:.3e}' for o in overshoots)
    verdict(9, 'obstacle overshoot', ok, f'relaxation excess [{shown}] nonincreasing')
