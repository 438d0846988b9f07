"""Experiment orchestration: single runs, the vanishing-surface-diffusion
sweep with its rate fit, the paired continuous-dependence experiment, and
viscosity sweeps.  CSV files are the canonical artifacts; SVG charts are
optional.

All reports are deterministic: runs are assembled in configured order
(also under a process pool), floats are printed with 17 significant
digits, and nothing here draws random numbers.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import chd_solver as cs
from . import disk_grid as dg
from . import dual_norms as dn
from . import monotone_graphs as mg
from . import svg_plots
from .errors import ConfigError, MeanMismatch, NonPositivePoint, TooFewPoints

__all__ = (
    'ExperimentConfig', 'SweepRow', 'SweepReport', 'StabilityRow',
    'StabilityReport', 'LambdaReport', 'fit_rate', 'run_single',
    'sweep_delta', 'stability_experiment', 'sweep_lambda',
    'load_config', 'problem_from_config', 'solver_from_config',
)


# ---------------------------------------------------------------------------
# report writing

def _fmt(x) -> str:
    return format(float(x), '.17g')


def _write_csv(path, header, rows):
    """Every CSV artifact goes through here: csv's default dialect (CRLF)."""
    with open(path, 'w', newline='') as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj):
    with open(path, 'w') as fh:
        json.dump(obj, fh, indent=2)
        fh.write('\n')


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    experiment: str
    grid: dg.DiskGrid
    problem_spec: dict
    solver_spec: dict
    sweep_delta: dict = field(default_factory=dict)
    stability: dict = field(default_factory=dict)
    sweep_lambda: dict = field(default_factory=dict)
    out_dir: str = 'chb-out'
    stride: int = 1
    plots: bool = False
    workers: int = 1

    @staticmethod
    def from_dict(raw: dict) -> 'ExperimentConfig':
        try:
            experiment = raw['experiment']
        except KeyError:
            raise ConfigError("config is missing the 'experiment' key")
        kinds = ('single', 'sweep_delta', 'stability', 'sweep_lambda', 'graph_check')
        if experiment not in kinds:
            raise ConfigError(f'experiment must be one of {kinds}, got {experiment!r}')
        gspec = raw.get('grid', {})
        try:
            grid = dg.DiskGrid(int(gspec.get('n_r', 32)), int(gspec.get('n_theta', 64)))
        except ValueError as exc:
            raise ConfigError(f'bad grid: {exc}') from exc
        out = raw.get('output', {})
        try:
            stride, workers = int(out.get('stride', 1)), int(out.get('workers', 1))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f'bad output section: {exc}') from exc
        plots = out.get('plots', False)
        if not isinstance(plots, bool):
            raise ConfigError(f'output.plots must be true or false, got {plots!r}')
        cfg = ExperimentConfig(
            experiment=experiment,
            grid=grid,
            problem_spec=raw.get('problem', {}),
            solver_spec=raw.get('solver', {}),
            sweep_delta=raw.get('sweep_delta', {}),
            stability=raw.get('stability', {}),
            sweep_lambda=raw.get('sweep_lambda', {}),
            out_dir=str(out.get('dir', 'chb-out')),
            stride=stride,
            plots=plots,
            workers=workers,
        )
        cfg._check_lists()
        return cfg

    def _check_lists(self):
        if self.experiment == 'sweep_delta':
            deltas = self.sweep_delta.get('deltas')
            if not deltas:
                raise ConfigError('sweep_delta.deltas is required')
            dl = _floats(deltas, 'deltas')
            if any(not 0.0 < d <= 1.0 for d in dl):
                raise ConfigError('deltas must lie in (0, 1]')
            if sorted(dl, reverse=True) != dl or len(set(dl)) != len(dl):
                raise ConfigError('deltas must be strictly decreasing')
            ref = self.sweep_delta.get('reference', 'delta_zero')
            if ref not in ('delta_zero', 'finest'):
                raise ConfigError("reference must be 'delta_zero' or 'finest'")
            _floats([v for k, v in self.sweep_delta.items() if k.startswith('assert_')],
                    'assert_slope and assert_r2')
        if self.experiment == 'stability':
            amps = self.stability.get('amplitudes')
            if not amps:
                raise ConfigError('stability.amplitudes is required')
            if any(a <= 0 for a in _floats(amps, 'amplitudes')):
                raise ConfigError('amplitudes must be positive')
            _floats([self.stability.get('band', 3.0)], 'band')
            if self.stability.get('target', 'f') not in ('f', 'g', 'both', 'initial'):
                raise ConfigError("target must be 'f', 'g', 'both' or 'initial'")
        if self.experiment == 'sweep_lambda':
            lams = self.sweep_lambda.get('lambdas')
            if lams is None or len(lams) < 2:
                raise ConfigError('sweep_lambda.lambdas needs at least two values')
            ll = _floats(lams, 'lambdas')
            if sorted(ll, reverse=True) != ll or len(set(ll)) != len(ll):
                raise ConfigError('lambdas must be strictly decreasing')
        if self.stride < 1:
            raise ConfigError('stride must be >= 1')
        if self.workers < 1:
            raise ConfigError('workers must be >= 1')


def _floats(values, what: str) -> list:
    try:
        return [float(x) for x in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f'{what} must be numeric: {exc}') from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f'cannot read config {path}: {exc}') from exc
    if not isinstance(raw, dict):
        raise ConfigError('config root must be a JSON object')
    return ExperimentConfig.from_dict(raw)


_PRESET_KNOBS = ('amplitude', 'mode', 'offset', 'log_scale', 'anti_slope_c')
_SOLVER_KEYS = ('delta', 'lambda', 'lam', 'dt', 't_end', 'newton_tol', 'newton_max_iter',
                'stabilization')


def _check_section(spec: dict, keys, what: str):
    """Reject a key the section does not read: a misspelled one would
    otherwise silently take its default."""
    extra = sorted(set(spec) - set(keys))
    if extra:
        raise ValueError(f'unknown {what} key(s) {extra}')


def problem_from_config(cfg: ExperimentConfig) -> cs.ProblemData:
    spec = cfg.problem_spec
    grid = cfg.grid
    try:
        compat = None if spec.get('compat_tol') is None else float(spec['compat_tol'])
        if 'preset' in spec:
            _check_section(spec, ('preset', 'compat_tol') + _PRESET_KNOBS, 'preset')
            return cs.preset_problem(spec['preset'], grid, compat_tol=compat,
                                     **{k: spec[k] for k in _PRESET_KNOBS if k in spec})
        _check_section(spec, ('bulk_graph', 'boundary_graph', 'pi', 'pi_gamma', 'u0', 'v0',
                              'f', 'g', 'compat_tol'), 'problem')
        bulk_graph = mg.graph_from_json(spec['bulk_graph'])
        boundary_graph = mg.graph_from_json(spec['boundary_graph'])
        pi = mg.perturbation_from_json(spec.get('pi', {'kind': 'linear', 'slope': 0.0}))
        pi_gamma = mg.perturbation_from_json(
            spec.get('pi_gamma', {'kind': 'linear', 'slope': 0.0}))
        u0_spec = spec['u0']
        u0 = cs.bulk_profile(grid, u0_spec)
        if 'v0' in spec:
            v0 = cs.trace_profile(grid, spec['v0'])
        elif u0_spec.get('kind') in ('constant', 'harmonic'):
            v0 = cs.trace_profile(grid, dict(u0_spec, kind='mode')
                                  if u0_spec.get('kind') == 'harmonic' else u0_spec)
        else:
            raise ConfigError('v0 is required when u0 is tabulated')
        f = cs.make_bulk_source(grid, spec.get('f'))
        g = cs.make_trace_source(grid, spec.get('g'))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f'bad problem spec: {exc}') from exc
    return cs.ProblemData(grid, bulk_graph, boundary_graph, pi, pi_gamma,
                          f, g, u0, v0, compat_tol=compat)


def solver_from_config(cfg: ExperimentConfig, **overrides) -> cs.SolverConfig:
    try:
        spec = dict(cfg.solver_spec, **overrides)
        _check_section(spec, _SOLVER_KEYS, 'solver')
        return cs.SolverConfig(
            delta=float(spec.get('delta', 0.0)),
            lam=float(spec.get('lambda', spec.get('lam', 1e-3))),
            dt=float(spec['dt']),
            t_end=float(spec['t_end']),
            newton_tol=float(spec.get('newton_tol', 1e-10)),
            newton_max_iter=int(spec.get('newton_max_iter', 50)),
            stabilization=float(spec.get('stabilization', 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f'bad solver spec: {exc}') from exc


# ---------------------------------------------------------------------------
# rate fitting

def fit_rate(points) -> tuple:
    """OLS fit of log e = p log delta + b; returns (slope, intercept, r2)."""
    pts = list(points)
    if len(pts) < 3:
        raise TooFewPoints(f'need at least 3 points for a rate fit, got {len(pts)}')
    deltas = np.array([p[0] for p in pts], dtype=float)
    errs = np.array([p[1] for p in pts], dtype=float)
    if np.any(deltas <= 0) or np.any(errs <= 0) or not np.all(np.isfinite(errs)):
        raise NonPositivePoint('rate fit requires positive (delta, e) pairs')
    L, E = np.log(deltas), np.log(errs)
    A = np.vstack([L, np.ones_like(L)]).T
    coef, *_ = np.linalg.lstsq(A, E, rcond=None)
    resid = E - A @ coef
    ss_tot = float(np.sum((E - E.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# error composites between two trajectories

def _trajectory_norms(toolkit, steps_a, steps_b):
    """Per-level difference norms between two step lists on a common grid.

    Returns dict of arrays: dual_bulk, dual_trace, v_bulk, h_half, t.
    """
    n = min(len(steps_a), len(steps_b))
    out = {k: np.zeros(n) for k in ('dual_bulk', 'dual_trace', 'v_bulk', 'h_half')}
    ts = np.zeros(n)
    for k in range(n):
        sa, sb = steps_a[k], steps_b[k]
        ts[k] = sa.t
        du = sa.u - sb.u
        dv = sa.v - sb.v
        out['dual_bulk'][k] = toolkit.dual_norm_bulk(du)
        out['dual_trace'][k] = toolkit.dual_norm_trace(dv)
        out['v_bulk'][k] = dn.v_norm_bulk(toolkit.grid, du, dv)
        out['h_half'][k] = toolkit.h_half_norm_trace(dv)
    out['t'] = ts
    return out


def _left_rule(ts, values_sq):
    """Left-endpoint rectangle rule of values_sq over the step partition."""
    dt = np.diff(ts)
    return float(np.sum(dt * values_sq[:-1]))


def _combined_error(norms) -> tuple:
    """(e, components) with the four terms of the sweep error functional."""
    sup_dual_bulk = float(np.max(norms['dual_bulk']))
    sup_dual_trace = float(np.max(norms['dual_trace']))
    l2_v = math.sqrt(_left_rule(norms['t'], norms['v_bulk'] ** 2))
    l2_h = math.sqrt(_left_rule(norms['t'], norms['h_half'] ** 2))
    e = sup_dual_bulk + l2_v + sup_dual_trace + l2_h
    return e, (sup_dual_bulk, l2_v, sup_dual_trace, l2_h)


# ---------------------------------------------------------------------------
# run execution (picklable for worker pools)

def _execute_run(task):
    problem, config = task
    return cs.run(problem, config)


def _run_many(tasks, workers: int):
    """Run (problem, config) tasks preserving input order."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_execute_run, tasks))
    return [_execute_run(t) for t in tasks]


# ---------------------------------------------------------------------------
# single run artifacts

def _levels(steps, stride):
    """(level, formatted t) for every stride-th level and the last one."""
    idx = sorted(set(range(0, len(steps), stride)) | {len(steps) - 1})
    return [(steps[k], _fmt(steps[k].t)) for k in idx]


def _write_field_csv(path, header, steps, values_of, stride):
    """The bytes `_write_csv` gives for (t, cell index..., value) rows in C
    order, with `values_of(level)` the array of a kept level: one %-format
    per level of a row template whose NUL is t."""
    rows = None
    with open(path, 'w', newline='') as fh:
        fh.write(','.join(header) + '\r\n')
        for s, t_s in _levels(steps, stride):
            values = values_of(s)
            rows = rows or ''.join('\0,' + ','.join(map(str, ix)) + ',%.17g\r\n'
                                   for ix in np.ndindex(values.shape))
            fh.write(rows.replace('\0', t_s) % tuple(values.ravel().tolist()))


def _write_bulk_csv(path, steps, values_of, stride):
    _write_field_csv(path, ('t', 'i', 'j', 'value'), steps, values_of, stride)


def _write_trace_csv(path, steps, values_of, stride):
    _write_field_csv(path, ('t', 'j', 'value'), steps, values_of, stride)


def _write_diagnostics_csv(path, diag):
    _write_csv(path, cs.DIAGNOSTIC_COLUMNS,
               ([_fmt(getattr(r, c)) for c in cs.DIAGNOSTIC_COLUMNS] for r in diag.rows))


def run_single(cfg: ExperimentConfig) -> dict:
    """Run one trajectory and write trajectory/diagnostics/summary artifacts.

    Raises ValidationFailure (caller exit 2) or SolveFailure-family errors
    (caller exit 3); returns the summary dict on success.
    """
    problem, solver = problem_from_config(cfg), solver_from_config(cfg)
    result = cs.run(problem, solver)
    os.makedirs(cfg.out_dir, exist_ok=True)
    # xi = beta_lam(u) and eta = beta_Gamma_lam(v) of the written levels only,
    # each from a whole level array
    fields = {'u': attrgetter('u'), 'mu': attrgetter('mu'),
              'xi': lambda s: mg.yosida(problem.bulk_graph, s.u, solver.lam),
              'v': attrgetter('v'), 'w': attrgetter('w'),
              'eta': lambda s: mg.yosida(problem.boundary_graph, s.v, solver.lam)}
    for name, values_of in fields.items():
        write = _write_bulk_csv if name in ('u', 'mu', 'xi') else _write_trace_csv
        write(os.path.join(cfg.out_dir, f'{name}.csv'), result.steps, values_of, cfg.stride)
    _write_diagnostics_csv(os.path.join(cfg.out_dir, 'diagnostics.csv'),
                           result.diagnostics)

    rows = result.diagnostics.rows
    summary = {
        'steps': len(result.steps) - 1,
        'final_time': rows[-1].t,
        'final_mass_bulk': rows[-1].mass_bulk,
        'final_mass_trace': rows[-1].mass_trace,
        'mass_drift_bulk': max(abs(r.mass_bulk - rows[0].mass_bulk) for r in rows),
        'mass_drift_trace': max(abs(r.mass_trace - rows[0].mass_trace) for r in rows),
        'energy_initial': rows[0].energy,
        'energy_final': rows[-1].energy,
        'energy_drop': rows[0].energy - rows[-1].energy,
        'max_energy_increment': max(r.d_energy for r in rows[1:]) if len(rows) > 1 else 0.0,
        'newton_iters_max': max(r.newton_iters for r in rows),
        'wall_time': result.wall_time,
        'solver_error': None if result.error is None else str(result.error),
    }
    _write_json(os.path.join(cfg.out_dir, 'summary.json'), summary)

    if cfg.plots:
        ts = [r.t for r in rows]
        svg_plots.write_chart(
            os.path.join(cfg.out_dir, 'energy.svg'),
            [('energy', ts, [r.energy for r in rows])],
            title='energy', xlabel='t', ylabel='E')
        svg_plots.write_chart(
            os.path.join(cfg.out_dir, 'masses.svg'),
            [('bulk mean', ts, [r.mass_bulk for r in rows]),
             ('trace mean', ts, [r.mass_trace for r in rows])],
            title='conserved means', xlabel='t', ylabel='mean')

    if result.error is not None:
        raise result.error
    return summary


# ---------------------------------------------------------------------------
# delta sweep

@dataclass
class SweepRow:
    delta: float
    error: float | None
    components: tuple | None
    delta_sup_gradv: float | None
    status: str
    in_fit: bool


@dataclass
class SweepReport:
    rows: list
    slope: float | None
    intercept: float | None
    r2: float | None
    zero_error: bool
    rate_claimed: bool
    same_growth: mg.SameGrowthReport | None
    reference: str
    message: str = ''


def sweep_delta(cfg: ExperimentConfig) -> SweepReport:
    """Run the surface-diffusion sweep against a shared reference trajectory.

    Each delta reuses identical data, grid, dt, and viscosity; the error
    functional combines the four norms of the difference trajectory and
    a log-log OLS fit estimates the rate.  Rows of failed runs are
    flagged and excluded from the fit; a failed reference run raises its
    SolveFailure.
    """
    problem = problem_from_config(cfg)
    deltas = [float(d) for d in cfg.sweep_delta['deltas']]
    ref_mode = cfg.sweep_delta.get('reference', 'delta_zero')
    ref_delta = 0.0 if ref_mode == 'delta_zero' else deltas[-1]
    sweep_deltas = deltas if ref_mode == 'delta_zero' else deltas[:-1]

    tasks = [(problem, solver_from_config(cfg, delta=ref_delta))]
    tasks += [(problem, solver_from_config(cfg, delta=d)) for d in sweep_deltas]
    results = _run_many(tasks, cfg.workers)
    ref_result, run_results = results[0], results[1:]
    if ref_result.error is not None:
        raise ref_result.error

    # the runs validated the data, so the graph checks cannot fail here
    same_growth = cs.graph_reports(problem)[1]
    rate_claimed = same_growth.feasible
    message = '' if rate_claimed else (
        'same-growth condition not satisfied on the sample grid; '
        'rate fit reported without a rate claim')

    toolkit = dn.NormToolkit(cfg.grid)
    rows = []
    for d, res in zip(sweep_deltas, run_results):
        if res.error is not None:
            rows.append(SweepRow(d, None, None, None, f'failed: {res.error}', False))
            continue
        norms = _trajectory_norms(toolkit, res.steps, ref_result.steps)
        e, comps = _combined_error(norms)
        sup_gradv = max(dg.h1_seminorm_trace(cfg.grid, s.v) for s in res.steps)
        rows.append(SweepRow(d, e, comps, d * sup_gradv, 'ok', False))

    zero_error = all(r.error == 0.0 for r in rows if r.status == 'ok') \
        and any(r.status == 'ok' for r in rows)
    slope = intercept = r2 = None
    if zero_error:
        message = (message + '; ' if message else '') + \
            'all errors are exactly zero (ZeroErrorFlag); fit refused'
    else:
        fit_pts = [(r.delta, r.error) for r in rows
                   if r.status == 'ok' and r.error is not None and r.error > 0.0]
        if len(fit_pts) >= 3:
            slope, intercept, r2 = fit_rate(fit_pts)
            for r in rows:
                r.in_fit = r.status == 'ok' and r.error > 0.0
        else:
            message = (message + '; ' if message else '') + \
                f'only {len(fit_pts)} usable rows; fit refused'

    report = SweepReport(rows, slope, intercept, r2, zero_error,
                         rate_claimed and slope is not None,
                         same_growth, ref_mode, message)
    _write_sweep_artifacts(cfg, report)
    return report


def _write_sweep_artifacts(cfg, report: SweepReport):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, 'sweep_delta.csv'),
               ('delta', 'e', 'sup_dual_bulk', 'l2_v', 'sup_dual_trace',
                'l2_h_half', 'delta_sup_gradv', 'status', 'in_fit'),
               ([_fmt(r.delta)]
                + ['' if v is None else _fmt(v)
                   for v in (r.error, *(r.components or (None,) * 4), r.delta_sup_gradv)]
                + [r.status, int(r.in_fit)] for r in report.rows))
    fit_meta = {
        'slope': report.slope, 'intercept': report.intercept, 'r2': report.r2,
        'zero_error': report.zero_error, 'rate_claimed': report.rate_claimed,
        'reference': report.reference, 'message': report.message,
        'same_growth_feasible': None if report.same_growth is None
        else report.same_growth.feasible,
        'same_growth_m': None if report.same_growth is None
        else report.same_growth.m_value,
    }
    _write_json(os.path.join(cfg.out_dir, 'sweep_delta_fit.json'), fit_meta)
    if cfg.plots:
        pts = [(r.delta, r.error) for r in report.rows
               if r.status == 'ok' and r.error and r.error > 0]
        series = [('e(delta)', [p[0] for p in pts], [p[1] for p in pts])]
        if report.slope is not None and pts:
            xs = [min(p[0] for p in pts), max(p[0] for p in pts)]
            ys = [math.exp(report.intercept + report.slope * math.log(x)) for x in xs]
            series.append((f'fit p={report.slope:.3f}', xs, ys))
        svg_plots.write_chart(os.path.join(cfg.out_dir, 'sweep_delta.svg'),
                              series, title='combined error vs delta',
                              xlabel='delta', ylabel='e', loglog=True)


# ---------------------------------------------------------------------------
# continuous-dependence experiment

@dataclass
class StabilityRow:
    amplitude: float
    sup_ratio: float
    lhs_final: float
    rhs_final: float
    status: str


@dataclass
class StabilityReport:
    rows: list
    band: float | None          # max ratio / min ratio across amplitudes
    band_limit: float
    band_ok: bool
    target: str


def _perturbation_sources(cfg, problem, amplitude):
    """Perturbed copies of (f, g, u0, v0) for one amplitude."""
    st = cfg.stability
    target = st.get('target', 'f')
    shape = st.get('shape', {'kind': 'harmonic', 'amplitude': 1.0, 'mode': 2})
    trace_shape = st.get('trace_shape', {'kind': 'mode', 'amplitude': 1.0, 'mode': 2})
    tspec = st.get('time', {'kind': 'constant'})
    grid = cfg.grid
    f, g, u0, v0 = problem.f, problem.g, problem.u0, problem.v0
    if target in ('f', 'both'):
        extra = cs.make_bulk_source(grid, {'kind': 'separable', 'spatial': shape,
                                           'time': tspec}).scaled(amplitude)
        f = f + extra
    if target in ('g', 'both'):
        extra = cs.make_trace_source(grid, {'kind': 'separable', 'spatial': trace_shape,
                                            'time': tspec}).scaled(amplitude)
        g = g + extra
    if target == 'initial':
        bump = cs.bulk_profile(grid, shape)
        bump = bump - dg.mean_bulk(grid, bump)
        tbump = cs.trace_profile(grid, trace_shape)
        tbump = tbump - dg.mean_trace(grid, tbump)
        u0 = u0 + amplitude * bump
        v0 = v0 + amplitude * tbump
        scale = max(1.0, float(np.max(np.abs(u0))))
        if abs(dg.mean_bulk(grid, u0) - problem.m0) > 1e-12 * scale \
                or abs(dg.mean_trace(grid, v0) - problem.m_gamma0) > 1e-12 * scale:
            raise MeanMismatch('mean-corrected initial perturbation still '
                               'changes a conserved mean beyond 1e-12')
    return f, g, u0, v0


def stability_experiment(cfg: ExperimentConfig) -> StabilityReport:
    """Paired-run continuous-dependence ratios across perturbation sizes.

    For each amplitude a the base and perturbed trajectories are compared
    through LHS(t) = |du(t)|_*^2 + |dv(t)|_{G,*}^2 + int_0^t |du|_V^2
    + int_0^t |dv|_{Z}^2 and RHS(t) = |du_0|_*^2 + |dv_0|_{G,*}^2
    + int_0^t |df|^2 + int_0^t |dg|^2; the report carries sup_t LHS/RHS
    per amplitude and checks that the ratios stay within a fixed band.
    """
    problem = problem_from_config(cfg)
    amps = [float(a) for a in cfg.stability['amplitudes']]
    band_limit = float(cfg.stability.get('band', 3.0))
    target = cfg.stability.get('target', 'f')
    solver = solver_from_config(cfg)

    tasks = [(problem, solver)]
    pert_data = []
    for a in amps:
        f, g, u0, v0 = _perturbation_sources(cfg, problem, a)
        p2 = cs.ProblemData(cfg.grid, problem.bulk_graph, problem.boundary_graph,
                            problem.pi, problem.pi_gamma, f, g, u0, v0,
                            compat_tol=problem.compat_tol)
        pert_data.append(p2)
        tasks.append((p2, solver))
    results = _run_many(tasks, cfg.workers)
    base, pert_results = results[0], results[1:]
    if base.error is not None:
        raise base.error

    toolkit = dn.NormToolkit(cfg.grid)
    rows = []
    for a, p2, res in zip(amps, pert_data, pert_results):
        if res.error is not None:
            rows.append(StabilityRow(a, math.nan, math.nan, math.nan,
                                     f'failed: {res.error}'))
            continue
        rows.append(_stability_row(toolkit, a, problem, p2, base.steps, res.steps))

    ratios = [r.sup_ratio for r in rows if r.status == 'ok' and np.isfinite(r.sup_ratio)]
    if len(ratios) >= 2:
        if min(ratios) > 0:
            band = max(ratios) / min(ratios)
        else:
            band = 1.0 if max(ratios) == 0.0 else math.inf
        band_ok = band < band_limit
    else:
        band = None
        band_ok = all(r.status == 'ok' for r in rows)  # nothing to compare
    report = StabilityReport(rows, band, band_limit, band_ok, target)
    _write_stability_artifacts(cfg, report)
    return report


def _stability_row(toolkit, amplitude, prob_a, prob_b, steps_a, steps_b):
    norms = _trajectory_norms(toolkit, steps_b, steps_a)
    ts = norms['t']
    n = ts.size
    wv, bw = toolkit.grid.weights, toolkit.grid.boundary_weights

    df_sq = np.zeros(n)
    dg_sq = np.zeros(n)
    for k in range(n):
        df = prob_b.f(ts[k]) - prob_a.f(ts[k])
        dgv = prob_b.g(ts[k]) - prob_a.g(ts[k])
        df_sq[k] = float(np.sum(wv * df ** 2))
        dg_sq[k] = float(np.sum(bw * dgv ** 2))

    dts = np.diff(ts)
    int_v = np.concatenate([[0.0], np.cumsum(dts * norms['v_bulk'][:-1] ** 2)])
    int_h = np.concatenate([[0.0], np.cumsum(dts * norms['h_half'][:-1] ** 2)])
    int_f = np.concatenate([[0.0], np.cumsum(dts * df_sq[:-1])])
    int_g = np.concatenate([[0.0], np.cumsum(dts * dg_sq[:-1])])

    lhs = norms['dual_bulk'] ** 2 + norms['dual_trace'] ** 2 + int_v + int_h
    rhs = (norms['dual_bulk'][0] ** 2 + norms['dual_trace'][0] ** 2) + int_f + int_g

    floor = 1e-14 * rhs[-1] if rhs[-1] > 0 else 0.0
    valid = rhs > floor
    if not np.any(valid):
        sup_ratio = 0.0 if lhs[-1] == 0.0 else math.inf
    else:
        sup_ratio = float(np.max(lhs[valid] / rhs[valid]))
    return StabilityRow(amplitude, sup_ratio, float(lhs[-1]), float(rhs[-1]), 'ok')


def _write_stability_artifacts(cfg, report: StabilityReport):
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, 'stability.csv'),
               ('amplitude', 'sup_ratio', 'lhs_final', 'rhs_final', 'status'),
               ([_fmt(r.amplitude), _fmt(r.sup_ratio), _fmt(r.lhs_final),
                 _fmt(r.rhs_final), r.status] for r in report.rows))
    _write_json(os.path.join(cfg.out_dir, 'stability.json'),
                {'band': report.band, 'band_limit': report.band_limit,
                 'band_ok': report.band_ok, 'target': report.target})
    if cfg.plots:
        ok = [r for r in report.rows if r.status == 'ok']
        svg_plots.write_chart(
            os.path.join(cfg.out_dir, 'stability.svg'),
            [('sup ratio', [r.amplitude for r in ok], [r.sup_ratio for r in ok])],
            title='continuous-dependence ratio', xlabel='amplitude',
            ylabel='sup LHS/RHS', loglog=True)


# ---------------------------------------------------------------------------
# viscosity sweep

@dataclass
class LambdaReport:
    lambdas: list
    diff_bulk: list     # L2(0,T;V) of consecutive differences
    diff_trace: list    # L2(0,T;H_Gamma)
    monotone: bool


def sweep_lambda(cfg: ExperimentConfig) -> LambdaReport:
    """Successive-difference norms along a decreasing viscosity ladder."""
    problem = problem_from_config(cfg)
    lams = [float(x) for x in cfg.sweep_lambda['lambdas']]
    tasks = [(problem, solver_from_config(cfg, **{'lambda': lam})) for lam in lams]
    results = _run_many(tasks, cfg.workers)
    for res in results:
        if res.error is not None:
            raise res.error

    grid = cfg.grid
    diff_bulk, diff_trace = [], []
    for a, b in zip(results[:-1], results[1:]):
        n = min(len(a.steps), len(b.steps))
        ts = np.array([a.steps[k].t for k in range(n)])
        vb = np.zeros(n)
        lt = np.zeros(n)
        for k in range(n):
            du = a.steps[k].u - b.steps[k].u
            dv = a.steps[k].v - b.steps[k].v
            vb[k] = dn.v_norm_bulk(grid, du, dv)
            lt[k] = dg.l2_norm_trace(grid, dv)
        diff_bulk.append(math.sqrt(_left_rule(ts, vb ** 2)))
        diff_trace.append(math.sqrt(_left_rule(ts, lt ** 2)))

    monotone = all(b <= a for a, b in zip(diff_bulk[:-1], diff_bulk[1:])) and \
        all(b <= a for a, b in zip(diff_trace[:-1], diff_trace[1:]))
    report = LambdaReport(lams, diff_bulk, diff_trace, monotone)

    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, 'sweep_lambda.csv'),
               ('lambda_high', 'lambda_low', 'diff_bulk_l2v', 'diff_trace_l2h'),
               ([_fmt(x) for x in row]
                for row in zip(lams[:-1], lams[1:], diff_bulk, diff_trace)))
    if cfg.plots:
        mids = lams[1:]
        svg_plots.write_chart(
            os.path.join(cfg.out_dir, 'sweep_lambda.svg'),
            [('bulk L2(0,T;V)', mids, diff_bulk),
             ('trace L2(0,T;H)', mids, diff_trace)],
            title='successive differences along lambda', xlabel='lambda',
            ylabel='difference norm', loglog=True)
    return report
