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
import resource
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from operator import attrgetter
from types import SimpleNamespace

import numpy as np

from . import chd_solver as cs
from . import disk_grid as dg
from . import dual_norms as dn
from . import monotone_graphs as mg
from . import svg_plots
from .errors import ConfigError, ValidationFailure

__all__ = (
    'ExperimentConfig', 'SweepRow', 'SweepReport', 'StabilityRow',
    'StabilityReport', 'LambdaRow', 'LambdaReport', 'fit_rate', 'run_single',
    'sweep_delta', 'stability_experiment', 'sweep_lambda',
    'section', 'load_config', 'problem_from_config', 'solver_from_config',
)


# ---------------------------------------------------------------------------
# report writing: a CSV's columns are the fields of its row dataclass, a
# JSON report's keys the other fields of its report dataclass

def _fmt(x) -> str:
    return format(float(x), '.17g')


def _cell(x) -> str:
    """None empty, a string as it is, a bool 0 or 1, a number %.17g."""
    if x is None or isinstance(x, str):
        return x or ''
    return str(int(x)) if isinstance(x, bool) else _fmt(x)


def _write_csv(path, row_type, rows):
    """Every CSV artifact but the field CSVs goes through here: one column
    per field of the dataclass row_type, csv's default dialect (CRLF)."""
    names = [f.name for f in fields(row_type)]
    with open(path, 'w', newline='') as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([_cell(getattr(r, name)) for name in names] for r in rows)


def _write_json(path, obj):
    """Every JSON report goes through here and ends with `peak_rss_mb`: the
    peak resident memory of the largest single process so far, the writing
    one or a reaped child such as a pool worker, in 10^6 bytes."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) * 1024 / 1e6
    with open(path, 'w') as fh:
        json.dump({**obj, 'peak_rss_mb': peak}, fh, indent=2)
        fh.write('\n')


def _write_report(cfg, name, row_type, report, json_name, chart):
    """An experiment's artifacts: `name`.csv of report.rows, `json_name` of
    the report's other fields and, with plots, `name`.svg of chart =
    (series, title, xlabel, ylabel) on log-log axes."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, f'{name}.csv'), row_type, report.rows)
    _write_json(os.path.join(cfg.out_dir, json_name),
                {k: v for k, v in asdict(report).items() if k != 'rows'})
    if cfg.plots:
        series, title, xlabel, ylabel = chart
        svg_plots.write_chart(os.path.join(cfg.out_dir, f'{name}.svg'), series, title=title,
                              xlabel=xlabel, ylabel=ylabel, loglog=True)


# ---------------------------------------------------------------------------
# configuration: one reader, `section`; a schema maps each key to (convert,
# default), where convert(value, 'section.key') returns the typed value

_REQUIRED = object()
EXPERIMENTS = ('single', 'sweep_delta', 'stability', 'sweep_lambda', 'graph_check')


def section(spec, schema: dict, what: str) -> SimpleNamespace:
    """Read one JSON object of a config: reject a non-object and any key
    outside `schema` (a misspelled key would otherwise take its default),
    convert each value, fill each missing or null key with its default
    (`_REQUIRED`: it must be given; None: left out).  Raises ConfigError."""
    if not isinstance(spec, dict):
        raise ConfigError(f'{what or "the config"} must be a JSON object, got {spec!r:.60}')
    unknown = sorted(set(spec) - set(schema))
    if unknown:
        raise ConfigError(f'unknown {what or "top-level"} key(s) {unknown}')
    out = {}
    for key, (convert, default) in schema.items():
        name = f'{what}.{key}'.lstrip('.')
        value = default if spec.get(key) is None else spec[key]
        if value is _REQUIRED:
            raise ConfigError(f'{name} is required')
        try:
            out[key] = None if value is None else convert(value, name)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f'bad {name}: {exc}') from exc
    return SimpleNamespace(**out)


def _given(spec) -> dict:
    """A read section as keyword arguments, less None values and `kind`."""
    return {k: v for k, v in vars(spec).items() if v is not None and k != 'kind'}


def _check(ok, make, expected: str):
    """Converter of the values for which ok(value) holds, to make(value)."""
    def convert(x, what):
        if not ok(x):
            raise TypeError(f'expected {expected}, got {x!r:.60}')
        return make(x)
    return convert


_keep = _check(lambda x: True, lambda x: x, '')
_str = _check(lambda x: isinstance(x, str), str, 'a string')
_bool = _check(lambda x: isinstance(x, bool), bool, 'true or false')
_float = _check(lambda x: not isinstance(x, bool), float, 'a number')
_int = _check(lambda x: not isinstance(x, bool) and (not isinstance(x, float) or x.is_integer()),
               int, 'an integer')
_count = _check(lambda x: _int(x, '') >= 1, int, 'an integer >= 1')
_array = _check(lambda x: isinstance(x, list), lambda x: np.array(x, dtype=float),
                'a JSON array')


def _one_of(*choices):
    return _check(lambda x: x in choices, lambda x: x, f'one of {choices}')


def _numbers(ok=lambda v: True, expected='a JSON array of numbers'):
    """Converter of the JSON arrays of numbers v for which ok(v) holds."""
    return _check(lambda x: isinstance(x, list) and ok([_float(a, '') for a in x]),
                  lambda x: [float(a) for a in x], expected)


def _ladder(n: int):
    return _numbers(lambda v: len(v) >= n and sorted(set(v), reverse=True) == v
                    and 0 < v[-1] <= v[0] <= 1,
                    f'{n} or more strictly decreasing numbers in (0, 1]')


_amplitudes = _numbers(lambda v: v and not any(a <= 0 for a in v), 'positive numbers')


def _object(schema: dict, build=None):
    """Converter of a nested object: build(**values), or the section itself."""
    def convert(x, what):
        spec = section(x, schema, what)
        return spec if build is None else build(**_given(spec))
    return convert


def _kind(kinds: dict, default=_REQUIRED):
    """Converter of an object whose `kind` picks its (build, schema) in `kinds`."""
    def convert(x, what):
        given = x.get('kind') if isinstance(x, dict) else x
        kind = default if given is None else given
        if kind not in tuple(kinds):
            raise ValueError(f'kind must be one of {tuple(kinds)}, got {given!r:.60}')
        build, schema = kinds[kind]
        return _object({'kind': (_keep, kind), **schema}, build)(x, what)
    return convert


_GRAPH = _kind({
    'zero': (mg.zero, {}),
    'power_odd': (mg.power_odd, {'exponent': (_int, None), 'coefficient': (_float, None)}),
    'logarithmic': (mg.logarithmic, {'scale': (_float, None)}),
    'double_obstacle': (mg.double_obstacle, {'lower': (_float, None), 'upper': (_float, None)}),
})
_PERTURBATION = _kind({
    'linear': (mg.Perturbation.linear, {'slope': (_float, None)}),
    'tabulated': (mg.Perturbation.tabulated, {'xs': (_numbers(), _REQUIRED),
                                              'ys': (_numbers(), _REQUIRED)}),
})
# profiles and sources stay sections until `_profile`/`_source` put them on the grid
_HARMONIC = {'amplitude': (_float, 1.0), 'mode': (_int, 1), 'phase': (_float, 0.0),
             'offset': (_float, 0.0)}
_PROFILES = {'constant': (None, {'value': (_float, 0.0)}),
             'harmonic': (None, _HARMONIC),
             'tabulated': (None, {'values': (_array, _REQUIRED)})}
_BULK_PROFILE = _kind(_PROFILES, 'constant')
_TRACE_PROFILE = _kind(dict(_PROFILES, mode=(None, _HARMONIC)), 'constant')
_TIME = {'kind': (_one_of(*cs.TIME_KINDS), 'constant'), 'rate': (_float, 0.0),
         'omega': (_float, 0.0)}


def _source_kind(profile):
    return _kind({
        'zero': (None, {}),
        'separable': (None, {'spatial': (profile, {'kind': 'constant', 'value': 1.0}),
                             'time': (_object(_TIME), {})}),
        'tabulated': (None, {'times': (_numbers(), _REQUIRED), 'frames': (_array, _REQUIRED)}),
    }, 'zero')


_PRESET = {
    'preset': (_one_of(*cs.PRESET_NAMES), _REQUIRED),
    'amplitude': (_float, None),
    'mode': (_int, None),
    'offset': (_float, None),
    'compat_tol': (_float, None),
}
_EXPLICIT = {
    'bulk_graph': (_GRAPH, _REQUIRED),
    'boundary_graph': (_GRAPH, _REQUIRED),
    'pi': (_PERTURBATION, {'kind': 'linear'}),
    'pi_gamma': (_PERTURBATION, {'kind': 'linear'}),
    'u0': (_BULK_PROFILE, _REQUIRED),
    'v0': (_TRACE_PROFILE, None),       # the trace of u0 unless u0 is tabulated
    'f': (_source_kind(_BULK_PROFILE), {}),
    'g': (_source_kind(_TRACE_PROFILE), {}),
    'compat_tol': (_float, None),
}
_SOLVER = {
    'delta': (_float, 0.0),
    'lambda': (_float, 1e-3),
    'lam': (_float, None),              # another name for lambda
    'dt': (_float, _REQUIRED),
    't_end': (_float, _REQUIRED),
    'newton_tol': (_float, None),
    'newton_max_iter': (_int, None),
    'stabilization': (_float, None),
}


def _problem(x, what):
    return section(x, _PRESET if isinstance(x, dict) and 'preset' in x else _EXPLICIT, what)


def _solver(x, what):
    s = section(x, _SOLVER, what)
    if s.lam is not None and x.get('lambda') is not None:
        raise ValueError('lambda and lam name the same value; give one of them')
    lam = vars(s).pop('lambda')
    s.lam = lam if s.lam is None else s.lam
    return s


_CONFIG = {
    'experiment': (_one_of(*EXPERIMENTS), _REQUIRED),
    'grid': (_object({'n_r': (_int, 32), 'n_theta': (_int, 64)}, dg.DiskGrid), {}),
    'problem': (_problem, _REQUIRED),
    'solver': (_solver, None),
    'sweep_delta': (_object({
        'deltas': (_ladder(1), _REQUIRED),
        'reference': (_one_of('delta_zero', 'finest'), 'delta_zero'),
        'assert_slope': (_float, None),
        'assert_r2': (_float, None),
    }), None),
    'stability': (_object({
        'amplitudes': (_amplitudes, _REQUIRED),
        'target': (_one_of('f', 'g', 'both', 'initial'), 'f'),
        'band': (_check(lambda x: _float(x, '') > 1, float, 'a number > 1'), 3.0),
        'shape': (_BULK_PROFILE, {'kind': 'harmonic', 'amplitude': 1.0, 'mode': 2}),
        'trace_shape': (_TRACE_PROFILE, {'kind': 'mode', 'amplitude': 1.0, 'mode': 2}),
        'time': (_object(_TIME), {}),
    }), None),
    'sweep_lambda': (_object({'lambdas': (_ladder(2), _REQUIRED)}), None),
    'output': (_object({
        'dir': (_str, 'chb-out'),
        'stride': (_count, 1),
        'plots': (_bool, False),
        'workers': (_count, 1),
        'seed': (_keep, None),          # no longer read; old configs still load
    }), {}),
}


class ExperimentConfig(SimpleNamespace):
    """A read config: the values of `_CONFIG` (an absent optional section is
    None), with the output entries as `out_dir`, `stride`, `plots`, `workers`."""

    @staticmethod
    def from_dict(raw) -> 'ExperimentConfig':
        c = vars(section(raw, _CONFIG, ''))
        out = c.pop('output')
        cfg = ExperimentConfig(**c, out_dir=out.dir, stride=out.stride, plots=out.plots,
                               workers=out.workers)
        if cfg.experiment in ('sweep_delta', 'stability', 'sweep_lambda'):
            cfg.needs(cfg.experiment)
        return cfg

    def needs(self, name: str) -> SimpleNamespace:
        """The section `name`; ConfigError when the config has none."""
        if getattr(self, name) is None:
            raise ConfigError(f'the config has no {name} section')
        return getattr(self, name)


def load_config(path: str, **output) -> ExperimentConfig:
    """Read a config file; the `output` values that are not None (the
    command-line flags) replace the file's output entries."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f'cannot read config {path}: {exc}') from exc
    out = raw.get('output') if isinstance(raw, dict) else None
    if isinstance(raw, dict) and (out is None or isinstance(out, dict)):
        raw['output'] = dict(out or {}, **{k: v for k, v in output.items() if v is not None})
    return ExperimentConfig.from_dict(raw)


def _profile(grid: dg.DiskGrid, p, trace: bool = False) -> np.ndarray:
    """The array of a read profile on the bulk cells or on the circle."""
    shape = (grid.n_theta,) if trace else (grid.n_r, grid.n_theta)
    if p.kind == 'constant':
        return np.full(shape, p.value)
    if p.kind != 'tabulated':
        return cs.harmonic(grid, p.amplitude, p.mode, p.phase, p.offset, trace)
    if p.values.size != math.prod(shape):
        raise ConfigError(f'a tabulated profile needs {math.prod(shape)} values')
    return p.values.reshape(shape)


def _source(grid: dg.DiskGrid, trace=False, kind='zero', spatial=None, time=None,
            times=None, frames=None):
    """The source of a read `f` or `g` section, given as keywords."""
    shape = (grid.n_theta,) if trace else (grid.n_r, grid.n_theta)
    if kind == 'separable':
        return cs._Source(shape, 'separable', _profile(grid, spatial, trace), time.kind,
                          time.rate, time.omega)
    if kind == 'tabulated':
        return cs._Source(shape, 'tabulated', times=tuple(times),
                          frames=frames.reshape((len(frames),) + shape))
    return cs._Source(shape)


def problem_from_config(cfg: ExperimentConfig) -> cs.ProblemData:
    p, grid = cfg.problem, cfg.grid
    try:
        if hasattr(p, 'preset'):
            return cs.preset_problem(grid=grid, **_given(p))
        if p.v0 is None and p.u0.kind == 'tabulated':
            raise ConfigError('v0 is required when u0 is tabulated')
        return cs.ProblemData(grid, p.bulk_graph, p.boundary_graph, p.pi, p.pi_gamma,
                              _source(grid, **vars(p.f)), _source(grid, True, **vars(p.g)),
                              _profile(grid, p.u0),
                              _profile(grid, p.u0 if p.v0 is None else p.v0, trace=True),
                              compat_tol=p.compat_tol)
    except ValueError as exc:
        raise ConfigError(f'bad problem spec: {exc}') from exc


def solver_from_config(cfg: ExperimentConfig, **overrides) -> cs.SolverConfig:
    """The run's SolverConfig; `overrides` (delta, lam) vary it across a sweep."""
    try:
        return cs.SolverConfig(**{**_given(cfg.needs('solver')), **overrides})
    except ValueError as exc:
        raise ConfigError(f'bad solver spec: {exc}') from exc


# ---------------------------------------------------------------------------
# rate fitting

def fit_rate(points) -> tuple:
    """OLS fit of log e = p log delta + b; returns (slope, intercept, r2)."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError(f'need at least 3 points for a rate fit, got {len(pts)}')
    deltas = np.array([p[0] for p in pts], dtype=float)
    errs = np.array([p[1] for p in pts], dtype=float)
    if np.any(deltas <= 0) or np.any(errs <= 0) or not np.all(np.isfinite(errs)):
        raise ValueError('rate fit requires positive (delta, e) pairs')
    L, E = np.log(deltas), np.log(errs)
    A = np.vstack([L, np.ones_like(L)]).T
    coef, *_ = np.linalg.lstsq(A, E, rcond=None)
    resid = E - A @ coef
    ss_tot = float(np.sum((E - E.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# error composites between two trajectories

def _trajectory_norms(steps_a, steps_b, norms: dict) -> dict:
    """Per-level norms of the difference of two trajectories on a common
    grid: `norms` maps a name to norm(du, dv), and the result maps it to
    the array over the common levels, and 't' to their times (from
    steps_a).  Only one level's difference is held at a time."""
    n = min(len(steps_a), len(steps_b))
    out = {name: np.zeros(n) for name in norms}
    out['t'] = np.array([s.t for s in steps_a[:n]])
    for k, (sa, sb) in enumerate(zip(steps_a, steps_b)):
        du, dv = sa.u - sb.u, sa.v - sb.v
        for name, norm in norms.items():
            out[name][k] = norm(du, dv)
    return out


def _four_norms(toolkit) -> dict:
    """The norms of the sweep error functional and of the continuous-
    dependence estimate: |du|_*, |dv|_{Gamma,*}, |(du, dv)|_V, |dv|_{H^1/2}."""
    return {'dual_bulk': lambda du, dv: toolkit.dual_norm_bulk(du),
            'dual_trace': lambda du, dv: toolkit.dual_norm_trace(dv),
            'v_bulk': lambda du, dv: dn.v_norm_bulk(toolkit.grid, du, dv),
            'h_half': lambda du, dv: toolkit.h_half_norm_trace(dv)}


def _left_rule(ts, values_sq):
    """Left-endpoint rectangle rule of values_sq over the step partition."""
    dt = np.diff(ts)
    return float(np.sum(dt * values_sq[:-1]))


def _running_left_rule(ts, values_sq):
    """The left rule from ts[0] to every level (0 at ts[0])."""
    return np.concatenate([[0.0], np.cumsum(np.diff(ts) * values_sq[:-1])])


def _combined_error(norms) -> tuple:
    """The sweep error functional e and its four terms: (e, sup_dual_bulk,
    l2_v, sup_dual_trace, l2_h_half)."""
    sup_dual_bulk = float(np.max(norms['dual_bulk']))
    sup_dual_trace = float(np.max(norms['dual_trace']))
    l2_v = math.sqrt(_left_rule(norms['t'], norms['v_bulk'] ** 2))
    l2_h = math.sqrt(_left_rule(norms['t'], norms['h_half'] ** 2))
    e = sup_dual_bulk + l2_v + sup_dual_trace + l2_h
    return e, sup_dual_bulk, l2_v, sup_dual_trace, l2_h


# ---------------------------------------------------------------------------
# run execution (picklable for worker pools)

def _execute_run(task):
    """cs.run of a (problem, config) task, each level cut down to copies of
    the t, u and v that `_trajectory_norms` reads (a view would keep the
    level's whole Newton vector alive): a worker pickles half a level."""
    problem, config = task
    result = cs.run(problem, config)
    return replace(result, steps=[SimpleNamespace(t=s.t, u=s.u.copy(), v=s.v.copy())
                                  for s in result.steps])


def _run_many(tasks, workers: int):
    """Run (problem, config) tasks preserving input order."""
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_execute_run, tasks))
    return [_execute_run(t) for t in tasks]


def _compare(cfg, tasks, norms, against):
    """Run the tasks and compare them: (results, compared).  A failure of
    task 0, the reference, is raised; compared[k - 1] is run k's failure or
    the per-level `norms` of run k less run against(k)."""
    results = _run_many(tasks, cfg.workers)
    if results[0].error is not None:
        raise results[0].error
    return results, [_trajectory_norms(res.steps, results[against(k)].steps, norms)
                     if res.error is None else res.error
                     for k, res in enumerate(results[1:], 1)]


# ---------------------------------------------------------------------------
# single run artifacts

def _levels(steps, stride):
    """(level, formatted t) for every stride-th level and the last one."""
    idx = sorted(set(range(0, len(steps), stride)) | {len(steps) - 1})
    return [(steps[k], _fmt(steps[k].t)) for k in idx]


@lru_cache(maxsize=None)
def _row_template(shape):
    """The rows of one level of a field of this shape ((n_theta,) or
    (n_r, n_theta)) in C order, with NUL for t and %.17g for the value."""
    tails = ['', *(f',{j},%.17g\r\n' for j in range(shape[-1]))]
    prefixes = ['\0'] if len(shape) == 1 else [f'\0,{i}' for i in range(shape[0])]
    return ''.join(prefix.join(tails) for prefix in prefixes)


def _write_field_csv(path, header, steps, values_of, stride):
    """The bytes `_write_csv` gives for (t, cell index..., value) rows in C
    order, with `values_of(level)` the array of a kept level: one %-format
    per level of the shape's row template."""
    with open(path, 'w', newline='') as fh:
        fh.write(','.join(header) + '\r\n')
        for s, t_s in _levels(steps, stride):
            values = values_of(s)
            fh.write(_row_template(values.shape).replace('\0', t_s)
                     % tuple(values.ravel().tolist()))


def _write_bulk_csv(path, steps, values_of, stride):
    _write_field_csv(path, ('t', 'i', 'j', 'value'), steps, values_of, stride)


def _write_trace_csv(path, steps, values_of, stride):
    _write_field_csv(path, ('t', 'j', 'value'), steps, values_of, stride)


def _write_diagnostics_csv(path, diag):
    _write_csv(path, cs.DiagnosticsRow, diag.rows)


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
        **vars(result.record),
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
    e: float | None
    sup_dual_bulk: float | None
    l2_v: float | None
    sup_dual_trace: float | None
    l2_h_half: float | None
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
    reference: str
    message: str
    runs: list               # each run's cs.RunRecord, the reference run first
    same_growth_feasible: bool


def sweep_delta(cfg: ExperimentConfig) -> SweepReport:
    """Run the surface-diffusion sweep against a shared reference trajectory.

    Each delta reuses identical data, grid, dt, and viscosity; the error
    functional combines the four norms of the difference trajectory and
    a log-log OLS fit estimates the rate.  Rows of failed runs are
    flagged and excluded from the fit; a failed reference run raises its
    SolveFailure.
    """
    problem = problem_from_config(cfg)
    sd = cfg.needs('sweep_delta')
    deltas, ref_mode = sd.deltas, sd.reference
    ref_delta = 0.0 if ref_mode == 'delta_zero' else deltas[-1]
    sweep_deltas = deltas if ref_mode == 'delta_zero' else deltas[:-1]
    if not sweep_deltas:
        raise ConfigError('a finest ladder needs at least two deltas')

    tasks = [(problem, solver_from_config(cfg, delta=d)) for d in [ref_delta, *sweep_deltas]]
    results, compared = _compare(cfg, tasks, _four_norms(dn.NormToolkit(cfg.grid)),
                                 lambda k: 0)
    rows = []
    for d, res, c in zip(sweep_deltas, results[1:], compared):
        if res.error is not None:
            rows.append(SweepRow(d, *[None] * 6, f'failed: {c}', False))
        else:
            rows.append(SweepRow(d, *_combined_error(c),
                                 max(r.delta_h1v for r in res.diagnostics.rows), 'ok', False))

    same_growth = mg.check_same_growth(problem.bulk_graph, problem.boundary_graph)
    notes = [] if same_growth.feasible else [
        f'same-growth condition not satisfied ({same_growth.reason}); '
        'rate fit reported without a rate claim']
    ok = [r for r in rows if r.status == 'ok']
    usable = _usable(rows)
    zero_error = bool(ok) and all(r.e == 0.0 for r in ok)
    slope = intercept = r2 = None
    if zero_error:
        notes.append('all errors are exactly zero (ZeroErrorFlag); fit refused')
    elif len(usable) >= 3:
        slope, intercept, r2 = fit_rate([(r.delta, r.e) for r in usable])
        for r in usable:
            r.in_fit = True
    else:
        notes.append(f'only {len(usable)} usable rows; fit refused')

    report = SweepReport(rows, slope, intercept, r2, zero_error,
                         same_growth.feasible and slope is not None, ref_mode,
                         '; '.join(notes), [r.record for r in results], same_growth.feasible)
    _write_sweep_artifacts(cfg, report)
    return report


def _usable(rows) -> list:
    """The rows a rate fit can take: run ok and a positive error."""
    return [r for r in rows if r.status == 'ok' and r.e > 0.0]


def _write_sweep_artifacts(cfg, report: SweepReport):
    usable = _usable(report.rows)
    ds = [r.delta for r in usable]
    series = [('e(delta)', ds, [r.e for r in usable])]
    if report.slope is not None:        # fitted to the usable rows
        xs = [min(ds), max(ds)]
        ys = [math.exp(report.intercept + report.slope * math.log(x)) for x in xs]
        series.append((f'fit p={report.slope:.3f}', xs, ys))
    _write_report(cfg, 'sweep_delta', SweepRow, report, 'sweep_delta_fit.json',
                  (series, 'combined error vs delta', 'delta', 'e'))


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
    runs: list                  # each run's cs.RunRecord, the base run first


def _perturbation_sources(cfg, problem, amplitude):
    """The problem with (f, g, u0, v0) perturbed at one amplitude."""
    st, grid = cfg.stability, cfg.grid
    f, g, u0, v0 = problem.f, problem.g, problem.u0, problem.v0
    if st.target in ('f', 'both'):
        f_bump = _source(grid, False, 'separable', st.shape, st.time)
        f = f + replace(f_bump, spatial=amplitude * f_bump.spatial)
    if st.target in ('g', 'both'):
        g_bump = _source(grid, True, 'separable', st.trace_shape, st.time)
        g = g + replace(g_bump, spatial=amplitude * g_bump.spatial)
    if st.target == 'initial':
        bump = _profile(grid, st.shape)
        bump = bump - dg.mean_bulk(grid, bump)
        tbump = _profile(grid, st.trace_shape, trace=True)
        tbump = tbump - dg.mean_trace(grid, tbump)
        u0 = u0 + amplitude * bump
        v0 = v0 + amplitude * tbump
        scale = max(1.0, float(np.max(np.abs(u0))))
        if abs(dg.mean_bulk(grid, u0) - dg.mean_bulk(grid, problem.u0)) > 1e-12 * scale \
                or abs(dg.mean_trace(grid, v0) - dg.mean_trace(grid, problem.v0)) > 1e-12 * scale:
            raise ValidationFailure('mean-corrected initial perturbation still '
                                    'changes a conserved mean beyond 1e-12')
    return replace(problem, f=f, g=g, u0=u0, v0=v0)


def stability_experiment(cfg: ExperimentConfig) -> StabilityReport:
    """Paired-run continuous-dependence ratios across perturbation sizes.

    For each amplitude a the base and perturbed trajectories are compared
    through LHS(t) = |du(t)|_*^2 + |dv(t)|_{G,*}^2 + int_0^t |du|_V^2
    + int_0^t |dv|_{Z}^2 and RHS(t) = |du_0|_*^2 + |dv_0|_{G,*}^2
    + int_0^t |df|^2 + int_0^t |dg|^2; the report carries sup_t LHS/RHS
    per amplitude and checks that the ratios stay within a fixed band.
    """
    problem = problem_from_config(cfg)
    st = cfg.needs('stability')
    solver = solver_from_config(cfg)

    pert_data = [_perturbation_sources(cfg, problem, a) for a in st.amplitudes]
    results, compared = _compare(cfg, [(p, solver) for p in [problem] + pert_data],
                                 _four_norms(dn.NormToolkit(cfg.grid)), lambda k: 0)
    rows = [_stability_row(cfg.grid, a, problem, p2, c) if res.error is None
            else StabilityRow(a, math.nan, math.nan, math.nan, f'failed: {c}')
            for a, p2, res, c in zip(st.amplitudes, pert_data, results[1:], compared)]

    ratios = [r.sup_ratio for r in rows if r.status == 'ok' and np.isfinite(r.sup_ratio)]
    if len(ratios) >= 2:
        if min(ratios) > 0:
            band = max(ratios) / min(ratios)
        else:
            band = 1.0 if max(ratios) == 0.0 else math.inf
        band_ok = band < st.band
    else:
        band = None
        band_ok = all(r.status == 'ok' for r in rows)  # nothing to compare
    report = StabilityReport(rows, band, st.band, band_ok, st.target,
                             [r.record for r in results])
    ok = [r for r in rows if r.status == 'ok']
    _write_report(cfg, 'stability', StabilityRow, report, 'stability.json',
                  ([('sup ratio', [r.amplitude for r in ok], [r.sup_ratio for r in ok])],
                   'continuous-dependence ratio', 'amplitude', 'sup LHS/RHS'))
    return report


def _stability_row(grid, amplitude, prob_a, prob_b, norms):
    """The row of prob_b's run, from the per-level norms of its difference from prob_a's."""
    ts = norms['t']
    wv, bw = grid.weights, grid.boundary_weights
    df_sq = np.array([float(np.sum(wv * (prob_b.f(t) - prob_a.f(t)) ** 2)) for t in ts])
    dg_sq = np.array([float(np.sum(bw * (prob_b.g(t) - prob_a.g(t)) ** 2)) for t in ts])

    lhs = (norms['dual_bulk'] ** 2 + norms['dual_trace'] ** 2
           + _running_left_rule(ts, norms['v_bulk'] ** 2)
           + _running_left_rule(ts, norms['h_half'] ** 2))
    rhs = (norms['dual_bulk'][0] ** 2 + norms['dual_trace'][0] ** 2) \
        + _running_left_rule(ts, df_sq) + _running_left_rule(ts, dg_sq)

    floor = 1e-14 * rhs[-1] if rhs[-1] > 0 else 0.0
    valid = rhs > floor
    if not np.any(valid):
        sup_ratio = 0.0 if lhs[-1] == 0.0 else math.inf
    else:
        sup_ratio = float(np.max(lhs[valid] / rhs[valid]))
    return StabilityRow(amplitude, sup_ratio, float(lhs[-1]), float(rhs[-1]), 'ok')


# ---------------------------------------------------------------------------
# viscosity sweep

@dataclass
class LambdaRow:
    lambda_high: float
    lambda_low: float
    diff_bulk_l2v: float      # L2(0,T;V) of the difference of the two runs
    diff_trace_l2h: float     # L2(0,T;H_Gamma)


@dataclass
class LambdaReport:
    rows: list
    monotone: bool
    runs: list                # each run's cs.RunRecord, in the order of lambdas


def sweep_lambda(cfg: ExperimentConfig) -> LambdaReport:
    """Successive-difference norms along a decreasing viscosity ladder; the
    first failed run raises its SolveFailure."""
    problem = problem_from_config(cfg)
    lams = cfg.needs('sweep_lambda').lambdas
    grid = cfg.grid
    norms = {'v_bulk': lambda du, dv: dn.v_norm_bulk(grid, du, dv),
             'l2_trace': lambda du, dv: dg.l2_norm_trace(grid, dv)}
    results, compared = _compare(cfg, [(problem, solver_from_config(cfg, lam=lam))
                                       for lam in lams], norms, lambda k: k - 1)
    rows = []
    for hi, lo, res, d in zip(lams, lams[1:], results[1:], compared):
        if res.error is not None:
            raise d
        rows.append(LambdaRow(hi, lo, math.sqrt(_left_rule(d['t'], d['v_bulk'] ** 2)),
                              math.sqrt(_left_rule(d['t'], d['l2_trace'] ** 2))))

    monotone = all(b.diff_bulk_l2v <= a.diff_bulk_l2v and b.diff_trace_l2h <= a.diff_trace_l2h
                   for a, b in zip(rows, rows[1:]))
    report = LambdaReport(rows, monotone, [r.record for r in results])
    lows = [r.lambda_low for r in rows]
    _write_report(cfg, 'sweep_lambda', LambdaRow, report, 'sweep_lambda.json',
                  ([('bulk L2(0,T;V)', lows, [r.diff_bulk_l2v for r in rows]),
                    ('trace L2(0,T;H)', lows, [r.diff_trace_l2h for r in rows])],
                   'successive differences along lambda', 'lambda', 'difference norm'))
    return report
