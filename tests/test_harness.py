"""Experiment harness: rate fitting, sweeps, stability ratios, artifact
determinism, and the command-line front end (exit codes included)."""

from __future__ import annotations

import copy
import csv
import dataclasses
import functools
import importlib.util
import io
import json
import math
import operator
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chb
from chb import chd_solver as cs
from chb import cli, errors, harness, svg_plots
from chb import disk_grid as dg
from chb.errors import ConfigError, NewtonDivergence


# ---------------------------------------------------------------------------
# rate fitting

def test_fit_rate_exact_line():
    deltas = [0.1, 0.05, 0.025, 0.0125]
    slope, intercept, r2 = harness.fit_rate([(d, d) for d in deltas])
    assert abs(slope - 1.0) < 1e-12
    assert abs(intercept) < 1e-12
    assert r2 == 1.0


def test_fit_rate_half_power_with_prefactor():
    deltas = [0.2, 0.1, 0.05, 0.025]
    slope, intercept, r2 = harness.fit_rate([(d, 3.0 * math.sqrt(d)) for d in deltas])
    assert abs(slope - 0.5) < 1e-12
    assert abs(intercept - math.log(3.0)) < 1e-12
    assert r2 > 1.0 - 1e-12


def test_fit_rate_noisy_half_power():
    rng = np.random.default_rng(7)
    deltas = np.logspace(-1, -3, 8)
    pts = [(d, math.sqrt(d) * (1.0 + 0.01 * rng.standard_normal())) for d in deltas]
    slope, _, r2 = harness.fit_rate(pts)
    assert 0.48 < slope < 0.52
    assert r2 > 0.99


def test_fit_rate_input_guards():
    with pytest.raises(ValueError, match='at least 3 points'):
        harness.fit_rate([(0.1, 0.1), (0.05, 0.05)])
    with pytest.raises(ValueError, match='positive'):
        harness.fit_rate([(0.1, 0.1), (0.05, 0.0), (0.025, 0.025)])


# ---------------------------------------------------------------------------
# config parsing

def make_cfg(tmp_path, raw, name='config.json'):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


BASE_SINGLE = {
    'experiment': 'single',
    'grid': {'n_r': 8, 'n_theta': 16},
    'problem': {'preset': 'backward', 'amplitude': 0.1},
    'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3},
}


def test_load_config_round_trip(tmp_path):
    cfg = harness.load_config(make_cfg(tmp_path, BASE_SINGLE))
    assert cfg.experiment == 'single'
    assert cfg.grid.n_r == 8 and cfg.grid.n_theta == 16
    assert cfg.stride == 1 and cfg.workers == 1 and not cfg.plots


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / 'broken.json'
    path.write_text('{not json')
    with pytest.raises(ConfigError):
        harness.load_config(path)
    with pytest.raises(ConfigError):
        harness.load_config(tmp_path / 'missing.json')


@pytest.mark.parametrize('mutate, exp', [
    (lambda r: r.pop('experiment'), 'single'),
    (lambda r: r.update(experiment='unknown'), None),
    (lambda r: r.update(experiment='sweep_delta'), None),
    (lambda r: r.update(experiment='sweep_delta',
                        sweep_delta={'deltas': [0.1, 0.2]}), None),
    (lambda r: r.update(experiment='sweep_delta',
                        sweep_delta={'deltas': [0.1, 0.05],
                                     'reference': 'coarsest'}), None),
    (lambda r: r.update(experiment='stability', stability={'amplitudes': [-1.0]}), None),
    (lambda r: r.update(experiment='sweep_lambda',
                        sweep_lambda={'lambdas': [1e-3, 1e-2]}), None),
    (lambda r: r.update(grid={'n_r': 1, 'n_theta': 16}), None),
])
def test_config_validation_failures(tmp_path, mutate, exp):
    raw = json.loads(json.dumps(BASE_SINGLE))
    mutate(raw)
    with pytest.raises(ConfigError):
        harness.load_config(make_cfg(tmp_path, raw))


def test_section_checks_keys_converts_and_fills_defaults():
    schema = {'n': (harness._int, 3), 'x': (harness._float, harness._REQUIRED),
              'xs': (harness._numbers(), None)}
    got = harness.section({'x': '0.5', 'xs': [1, 2.5]}, schema, 'demo')
    assert (got.n, got.x, got.xs) == (3, 0.5, [1.0, 2.5])
    assert harness.section({'x': 1, 'n': 4.0, 'xs': None}, schema, 'demo').xs is None
    assert type(harness.section({'x': 1, 'n': 4.0}, schema, 'demo').n) is int
    for spec, message in (([1], 'must be a JSON object'), ({}, 'demo.x is required'),
                          ({'x': 1, 'm': 2}, "unknown demo key(s) ['m']"),
                          ({'x': None}, 'demo.x is required'),
                          ({'x': 1, 'n': 2.5}, 'bad demo.n'), ({'x': 1, 'n': True}, 'bad demo.n'),
                          ({'x': True}, 'bad demo.x'), ({'x': 1, 'xs': '12'}, 'bad demo.xs')):
        with pytest.raises(ConfigError, match=re.escape(message)):
            harness.section(spec, schema, 'demo')


def test_integral_floats_read_as_integers(tmp_path):
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw['grid'] = {'n_r': 8.0, 'n_theta': 16.0}
    raw['problem'] = {'preset': 'cubic', 'mode': 2.0}
    raw['solver']['newton_max_iter'] = 20.0
    raw['output'] = {'stride': 2.0, 'workers': 1.0}
    cfg = harness.load_config(make_cfg(tmp_path, raw))
    mode = harness.section(raw['problem'], harness._PRESET, 'problem').mode
    values = (cfg.grid.n_r, cfg.grid.n_theta, mode, cfg.stride, cfg.workers,
              cfg.solver.newton_max_iter)
    assert values == (8, 16, 2, 2, 1, 20) and all(type(v) is int for v in values)


def test_explicit_problem_spec(tmp_path):
    raw = dict(BASE_SINGLE)
    raw['problem'] = {
        'bulk_graph': {'kind': 'power_odd', 'exponent': 3, 'coefficient': 1.0},
        'boundary_graph': {'kind': 'power_odd', 'exponent': 3, 'coefficient': 1.0},
        'pi': {'kind': 'linear', 'slope': -1.0},
        'u0': {'kind': 'harmonic', 'amplitude': 0.2, 'mode': 2, 'offset': 0.05},
    }
    problem = harness.load_config(make_cfg(tmp_path, raw)).problem
    # v0 defaults to the trace of the harmonic profile
    assert np.max(np.abs(problem.v0 - problem.u0[-1] * problem.grid.r[-1] ** 0
                         )) < 0.25   # same mode family, nearby values
    assert dg.mean_bulk(problem.grid, problem.u0) != 0.0


def test_tabulated_u0_requires_v0(tmp_path):
    raw = dict(BASE_SINGLE)
    raw['problem'] = {
        'bulk_graph': {'kind': 'zero'},
        'boundary_graph': {'kind': 'zero'},
        'u0': {'kind': 'tabulated', 'values': [[0.0] * 16] * 8},
    }
    with pytest.raises(ConfigError, match='v0 is required when u0 is tabulated'):
        harness.load_config(make_cfg(tmp_path, raw))


# ---------------------------------------------------------------------------
# single-run artifacts

def run_single_cfg(tmp_path, sub='out', **extra):
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw.update(extra)
    raw.setdefault('output', {})['dir'] = str(tmp_path / sub)
    return harness.load_config(make_cfg(tmp_path, raw, name=f'{sub}.json'))


def test_run_single_writes_artifacts(tmp_path):
    cfg = run_single_cfg(tmp_path)
    summary = harness.run_single(cfg)
    names = sorted(os.listdir(cfg.out_dir))
    assert names == ['diagnostics.csv', 'eta.csv', 'mu.csv', 'summary.json',
                     'u.csv', 'v.csv', 'w.csv', 'xi.csv']
    assert summary['steps'] == 3
    assert summary['mass_drift_bulk'] < 1e-13
    on_disk = json.loads((tmp_path / 'out' / 'summary.json').read_text())
    assert on_disk['steps'] == 3


_TRACING = Path(__file__).resolve().parent.parent / 'perfbench' / 'tracing.py'


def _tracing():
    spec = importlib.util.spec_from_file_location('perfbench_tracing', _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize('problem', [
    {'preset': 'cubic', 'amplitude': 3.0},
    {'bulk_graph': {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0},
     'boundary_graph': {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0},
     'u0': {'kind': 'harmonic', 'amplitude': 0.95, 'mode': 2},
     'f': {'kind': 'separable', 'spatial': {'kind': 'harmonic', 'amplitude': 4.0, 'mode': 2}},
     'g': {'kind': 'separable', 'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 2}}},
], ids=['cubic', 'forced_obstacle'])
def test_summary_lu_counts_match_the_tracer(tmp_path, problem):
    tracing = _tracing()
    cfg = run_single_cfg(tmp_path, grid={'n_r': 12, 'n_theta': 24}, problem=problem,
                         solver={'delta': 0.5, 'lambda': 1e-3, 'dt': 1e-2, 't_end': 5e-2})
    with tracing.Tracer() as tracer:
        summary = harness.run_single(cfg)
    counts = tracing.layer_metrics(tracer, 0)['counts']
    assert summary['lu_factorizations'] == counts['chd_solver.lu_factorizations']
    assert summary['lu_nnz'] == counts['chd_solver.lu_nnz'] > 0
    assert summary['newton_iters'] == counts['chd_solver.newton_iters'] > 0
    refreshes = summary['lu_factorizations'] + summary['lu_updates']
    assert refreshes > 1 and (summary['lu_updates'] > 0) == ('preset' not in problem)
    # the cubic's mean chord fails at amplitude 3, so both bases are counted
    bases = summary['fourier_factorizations'], summary['superlu_factorizations']
    assert sum(bases) == summary['lu_factorizations']
    assert min(bases) > 0 or 'preset' not in problem


def test_run_single_is_deterministic(tmp_path):
    cfg1 = run_single_cfg(tmp_path, sub='a')
    cfg2 = run_single_cfg(tmp_path, sub='b')
    harness.run_single(cfg1)
    harness.run_single(cfg2)
    for name in ('u.csv', 'diagnostics.csv', 'v.csv'):
        b1 = (tmp_path / 'a' / name).read_bytes()
        b2 = (tmp_path / 'b' / name).read_bytes()
        assert b1 == b2


def test_stride_thins_trajectory_but_keeps_final(tmp_path):
    cfg = run_single_cfg(tmp_path, sub='s')
    cfg.stride = 2
    harness.run_single(cfg)
    with open(tmp_path / 's' / 'v.csv') as fh:
        header = fh.readline()
        ts = sorted({float(line.split(',')[0]) for line in fh})
    assert header.startswith('t,')
    assert ts == [0.0, 2e-3, 3e-3]


def test_plots_written_when_requested(tmp_path):
    cfg = run_single_cfg(tmp_path, sub='p')
    cfg.plots = True
    harness.run_single(cfg)
    svg = (tmp_path / 'p' / 'energy.svg').read_text()
    assert svg.startswith('<svg') and 'polyline' in svg


# Degenerate charts: (series, loglog, polyline points, tick labels).  With no
# point to draw the axes centre on (1, 1); a single point is centred; log
# axes drop the points with a non-positive coordinate.
DEGENERATE_CHARTS = {
    'empty': ([], False, [], ['0.45', '0.725', '1', '1.28', '1.55',
                              '0.42', '0.71', '1', '1.29', '1.58']),
    'no_points': ([('a', [], [])], False, [], ['0.45', '0.725', '1', '1.28', '1.55',
                                               '0.42', '0.71', '1', '1.29', '1.58']),
    'one_point': ([('a', [2.0], [3.0])], False, ['347.00,233.00'],
                  ['1.45', '1.72', '2', '2.27', '2.55', '2.42', '2.71', '3', '3.29', '3.58']),
    'log_non_positive': ([('a', [0.0, 1.0, 1.0, 10.0], [1.0, -1.0, 1.0, 100.0])], True,
                         ['102.45,397.66 591.55,68.34'], ['1', '10', '1', '10', '100']),
}


@pytest.mark.parametrize('name', sorted(DEGENERATE_CHARTS))
def test_degenerate_chart(name):
    series, loglog, points, ticks = DEGENERATE_CHARTS[name]
    svg = svg_plots.line_chart(series, loglog=loglog)
    assert svg.startswith('<svg') and svg.endswith('</svg>\n')
    assert re.findall(r'points="([^"]*)"', svg) == points
    assert re.findall(r'anchor="(?:middle|end)">([-.e\d]+)<', svg) == ticks


# Every value class the field dumps must print exactly, and every branch of
# the array formatter: signed zeros (also in runs), nan, both infinities,
# the smallest subnormal, the largest float, a value that needs 17 digits,
# integral ones (1e16 the widest in fixed notation), exponent notation with
# two- and three-digit exponents, both notation switches and an exact
# 17-digit tie (2**-25 rounds half to even).
GOLDEN_VALUES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                 1.7976931348623157e308, 0.1, 2.0, -1.0 / 3.0, 1e16, 1e17,
                 -1.2345e-7, 6.02214076e23, 1e-100, 2.0 ** -25, 1e-4, -1e-5,
                 0.0, 0.0, -0.0, -0.0, 0.0]


def _golden_steps(n_levels):
    """Levels k = 0..n_levels-1 at t = k*1e-3 with a (3, 700) bulk field `u`
    and a (23,) trace field `v`, both rotations of GOLDEN_VALUES.  The
    writer formats `u` in chunks of two and one θ rows."""
    steps = []
    for k in range(n_levels):
        vals = np.roll(GOLDEN_VALUES, k)
        steps.append(SimpleNamespace(t=k * 1e-3, u=np.resize(vals, (3, 700)), v=vals))
    return steps


def _reference_csv(steps, name, keep):
    """csv.writer + format(x, '.17g') bytes: the writer the block format replaces."""
    buf = io.StringIO(newline='')
    writer = csv.writer(buf)
    writer.writerow(('t', 'i', 'j', 'value') if name == 'u' else ('t', 'j', 'value'))
    for k in keep:
        t_s = format(steps[k].t, '.17g')
        field = getattr(steps[k], name).tolist()
        if name == 'u':
            writer.writerows((t_s, i, j, format(x, '.17g'))
                             for i, row in enumerate(field) for j, x in enumerate(row))
        else:
            writer.writerows((t_s, j, format(x, '.17g')) for j, x in enumerate(field))
    return buf.getvalue().encode()


@pytest.mark.parametrize('n_levels, keep', [
    (8, [0, 3, 6, 7]),        # every third level plus the last
    (1, [0]),                 # a run that failed its first step
], ids=['stride3', 'one_level'])
@pytest.mark.parametrize('name', ['u', 'v'])
def test_field_csv_golden_bytes(tmp_path, n_levels, keep, name):
    steps = _golden_steps(n_levels)
    write = harness._write_bulk_csv if name == 'u' else harness._write_trace_csv
    with open(tmp_path / 'f.csv', 'w', newline='') as fh:
        for k in keep:
            write(fh, k, steps[k].t, getattr(steps[k], name))
    data = (tmp_path / 'f.csv').read_bytes()
    assert data == _reference_csv(steps, name, keep)
    assert data.count(b'\r\n') == 1 + len(keep) * getattr(steps[0], name).size
    for text in (b'nan', b'-inf', b'4.9406564584124654e-324', b'10000000000000000', b'1e+17',
                 b'1e-100', b'2.9802322387695312e-08'):
        assert text in data


# ---------------------------------------------------------------------------
# the field CSVs' array formatter: format(x, '.17g') of every entry

def _g17(values) -> list:
    return [text.decode() for text in harness._format_17g(np.asarray(values, dtype=float))]


@settings(deadline=None, max_examples=200, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_format_17g_is_format(xs):
    assert _g17(xs) == [format(x, '.17g') for x in xs]


# exact 17-digit ties at k = -8..15, either way to even: m / 2**n, whose
# decimal m * 5**n / 10**n has 18 significant digits, the last a 5
TIES = [m / 2 ** n for n in range(2, 26)
        for m in range(-(-10 ** 17 // 5 ** n) | 1, 10 ** 18 // 5 ** n, 2)[:3]]


@pytest.mark.parametrize('values', [
    [float(f'1e{k}') for k in range(-300, 301)],
    [2.0 ** -n for n in range(1075)],
    TIES,
    [1e-5, 1e-4, 1e16, 1e17, 0.0, 5e-324, sys.float_info.max],
], ids=['powers_of_ten', 'powers_of_two', 'ties', 'switches_and_ends'])
def test_format_17g_with_neighbours_and_signs(values):
    x = np.array(values)
    with np.errstate(over='ignore'):        # past the largest float is inf
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)])
    x = np.concatenate([x, -x])
    assert _g17(x) == [format(v, '.17g') for v in x.tolist()]


def test_format_17g_hands_inexact_near_ties_to_format(monkeypatch):
    # 2**-25 is a tie at k = -8, where 10**24 is not a double; 2**-24 is no
    # tie there, and TIES[0] is a tie at k = 15, where 10 is exact
    seen = []
    monkeypatch.setattr(harness, 'format', lambda x, spec: seen.append(x) or format(x, spec),
                        raising=False)
    values = [0.1, TIES[0], 2.0 ** -24, 2.0 ** -25]
    assert _g17(values) == [format(x, '.17g') for x in values]
    assert seen == [2.0 ** -25]


def test_format_17g_spellings():
    assert _g17([2.0 ** -25, 99999999999999992.0, 1e16, -0.0, 0.0, 1e-5]) == [
        '2.9802322387695312e-08', '1e+17', '10000000000000000', '-0', '0',
        '1.0000000000000001e-05']


# Handmade rows through the report writers: every cell kind (None, both
# bools, nan, -0, inf, a quoted status, floats that need 17 digits and
# integral ones), the header of a report without rows, and the JSON keys in
# their order.  The literals are the bytes of the writers that each spelled
# out its columns and keys by hand.
GOLDEN_RUNS = [cs.RunRecord(7, 1, 2, 345, 3, 1, 1, 0), cs.RunRecord(9, 2, 0, 345, 0, 0, 1, 1)]
GOLDEN_REPORT_FILES = {
    'diagnostics.csv':
        b't,mass_bulk,mass_trace,energy,d_energy,grad_mu,grad_w,overshoot,delta_h1v,'
        b'newton_iters\r\n0.30000000000000004,0.33333333333333331,-0,nan,inf,1e-300,'
        b'4.9406564584124654e-324,2.4999999999999999e-07,0,12\r\n',
    'sweep_delta.csv':
        b'delta,e,sup_dual_bulk,l2_v,sup_dual_trace,l2_h_half,delta_sup_gradv,status,in_fit\r\n'
        b'0.40000000000000002,0.30000000000000004,0.33333333333333331,2.4999999999999999e-07,'
        b'0,1e-300,0.125,ok,1\r\n'
        b'0.20000000000000001,,,,,,,"failed: Newton, ""stalled"" at t=0.001",0\r\n'
        b'0.10000000000000001,4.9406564584124654e-324,nan,-0,inf,2,7,ok,0\r\n',
    'stability.csv':
        b'amplitude,sup_ratio,lhs_final,rhs_final,status\r\n'
        b'0.01,0.30000000000000004,0.33333333333333331,3,ok\r\n'
        b'0.10000000000000001,nan,nan,nan,failed: stand-in\r\n',
    'sweep_lambda.csv':
        b'lambda_high,lambda_low,diff_bulk_l2v,diff_trace_l2h\r\n'
        b'1,0.30000000000000004,0.33333333333333331,nan\r\n'
        b'0.30000000000000004,0.0001,2,0.25\r\n',
    'empty.csv': b'lambda_high,lambda_low,diff_bulk_l2v,diff_trace_l2h\r\n',
}
GOLDEN_RUN_DICTS = [{'newton_iters': 7, 'lu_factorizations': 1, 'lu_updates': 2, 'lu_nnz': 345,
                     'line_search_halvings': 3, 'nonmonotone_steps': 1,
                     'fourier_factorizations': 1, 'superlu_factorizations': 0},
                    {'newton_iters': 9, 'lu_factorizations': 2, 'lu_updates': 0, 'lu_nnz': 345,
                     'line_search_halvings': 0, 'nonmonotone_steps': 0,
                     'fourier_factorizations': 1, 'superlu_factorizations': 1}]
GOLDEN_REPORT_JSON = {
    'sweep_delta_fit.json': {'slope': 0.9425, 'intercept': -1.5, 'r2': 0.999695,
                             'zero_error': False, 'rate_claimed': True,
                             'reference': 'delta_zero',
                             'message': 'only 2 usable rows; fit refused',
                             'runs': GOLDEN_RUN_DICTS, 'same_growth_feasible': True},
    'stability.json': {'band': None, 'band_limit': 3.0, 'band_ok': True, 'target': 'both',
                       'runs': GOLDEN_RUN_DICTS},
    'sweep_lambda.json': {'monotone': False, 'runs': GOLDEN_RUN_DICTS},
}


def test_report_writers_golden_bytes(tmp_path):
    third = 1 / 3
    cfg = SimpleNamespace(out_dir=str(tmp_path), plots=False)
    harness._write_diagnostics_csv(tmp_path / 'diagnostics.csv', cs.Diagnostics([
        cs.DiagnosticsRow(0.1 + 0.2, third, -0.0, math.nan, math.inf, 1e-300, 5e-324, 2.5e-7,
                          0.0, 12)]))
    harness._write_sweep_artifacts(cfg, harness.SweepReport([
        harness.SweepRow(0.4, 0.1 + 0.2, third, 2.5e-7, 0.0, 1e-300, 0.125, 'ok', True),
        harness.SweepRow(0.2, *[None] * 6, 'failed: Newton, "stalled" at t=0.001', False),
        harness.SweepRow(0.1, 5e-324, math.nan, -0.0, math.inf, 2.0, 7.0, 'ok', False),
    ], 0.9425, -1.5, 0.999695, False, True, 'delta_zero', 'only 2 usable rows; fit refused',
        GOLDEN_RUNS, True))
    harness._write_report(cfg, 'stability', harness.StabilityRow, harness.StabilityReport([
        harness.StabilityRow(1e-2, 0.1 + 0.2, third, 3.0, 'ok'),
        harness.StabilityRow(1e-1, math.nan, math.nan, math.nan, 'failed: stand-in'),
    ], None, 3.0, True, 'both', GOLDEN_RUNS), 'stability.json', None)
    harness._write_report(cfg, 'sweep_lambda', harness.LambdaRow, harness.LambdaReport([
        harness.LambdaRow(1.0, 0.1 + 0.2, third, math.nan),
        harness.LambdaRow(0.1 + 0.2, 1e-4, 2.0, 0.25),
    ], False, GOLDEN_RUNS), 'sweep_lambda.json', None)
    harness._write_csv(tmp_path / 'empty.csv', harness.LambdaRow, [])
    for name, data in GOLDEN_REPORT_FILES.items():
        assert (tmp_path / name).read_bytes() == data, name
    for name, want in GOLDEN_REPORT_JSON.items():
        got = json.loads((tmp_path / name).read_text())
        assert list(got) == [*want, 'peak_rss_mb'], name
        assert {k: v for k, v in got.items() if k != 'peak_rss_mb'} == want, name


# ---------------------------------------------------------------------------
# delta sweep

def sweep_cfg(tmp_path, sub='sw', workers=1, preset='backward', t_end=5e-3, amplitude=0.1,
              **sweep_extra):
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': preset, 'amplitude': amplitude},
        'solver': {'delta': 1.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': t_end},
        'sweep_delta': dict({'deltas': [0.4, 0.2, 0.1, 0.05]}, **sweep_extra),
        'output': {'dir': str(tmp_path / sub), 'workers': workers},
    }
    return harness.load_config(make_cfg(tmp_path, raw, name=f'{sub}.json'))


def test_sweep_delta_decreasing_error_and_fit(tmp_path):
    report = harness.sweep_delta(sweep_cfg(tmp_path))
    errs = [row.e for row in report.rows]
    assert all(e > 0 for e in errs)
    assert errs == sorted(errs, reverse=True)
    assert report.slope is not None and report.r2 > 0.9
    assert not report.zero_error
    assert report.rate_claimed
    data = json.loads((tmp_path / 'sw' / 'sweep_delta_fit.json').read_text())
    assert abs(data['slope'] - report.slope) < 1e-15
    lines = (tmp_path / 'sw' / 'sweep_delta.csv').read_text().splitlines()
    assert len(lines) == 5      # header + one row per delta


def test_sweep_fit_newton_iters_match_the_tracer(tmp_path):
    tracing = _tracing()
    cfg = sweep_cfg(tmp_path, sub='it', preset='cubic', amplitude=0.8)
    with tracing.Tracer() as tracer:
        report = harness.sweep_delta(cfg)
    data = json.loads((tmp_path / 'it' / 'sweep_delta_fit.json').read_text())
    assert data['runs'] == [vars(r) for r in report.runs]
    iters = [r['newton_iters'] for r in data['runs']]
    assert sum(iters) == tracer.newton_iters
    # one record per run: the reference (delta 0) first, then the deltas in order
    per_run = []
    for delta in (0.0, *cfg.sweep_delta.deltas):
        with tracing.Tracer() as tracer:
            cs.run(cfg.problem, dataclasses.replace(cfg.solver, delta=delta))
        per_run.append(tracer.newton_iters)
    assert iters == per_run and len(set(per_run)) > 1


def test_sweep_delta_delta_gradient_column_decreases(tmp_path):
    report = harness.sweep_delta(sweep_cfg(tmp_path, sub='sg'))
    damp = [row.delta_sup_gradv for row in report.rows]
    assert all(d >= 0 for d in damp)
    assert damp[-1] <= damp[0]


WORKER_RUNS = {
    'sweep_delta': (harness.sweep_delta, 'sweep_delta.csv',
                    {'sweep_delta': {'deltas': [0.4, 0.2, 0.1, 0.05]}}),
    'stability': (harness.stability_experiment, 'stability.csv',
                  {'stability': {'amplitudes': [1e-3, 1e-2, 1e-1], 'target': 'both'}}),
    'sweep_lambda': (harness.sweep_lambda, 'sweep_lambda.csv',
                     {'sweep_lambda': {'lambdas': [1e-2, 1e-3, 1e-4]}}),
}


@pytest.mark.parametrize('experiment', sorted(WORKER_RUNS))
def test_workers_do_not_change_bytes(tmp_path, experiment):
    run, artifact, section = WORKER_RUNS[experiment]
    out = []
    for workers in (1, 2):
        raw = dict(BASE_SINGLE, experiment=experiment, **section,
                   output={'dir': str(tmp_path / f'w{workers}'), 'workers': workers})
        run(harness.load_config(make_cfg(tmp_path, raw, name=f'w{workers}.json')))
        out.append((tmp_path / f'w{workers}' / artifact).read_bytes())
    assert out[0] == out[1]


def test_pool_asks_for_no_more_workers_than_tasks(monkeypatch):
    # under the fork start method a pool forks every worker it is asked for
    # at its first map; a serial stand-in records the count and forks none
    asked = []

    class Serial:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(harness, 'ProcessPoolExecutor', Serial)
    monkeypatch.setattr(harness, '_execute_run', lambda task: -task)
    assert harness._run_many([1, 2, 3], 64) == [-1, -2, -3]
    assert harness._run_many([1, 2, 3, 4, 5], 2) == [-1, -2, -3, -4, -5]
    assert harness._run_many([1], 64) == [-1]          # one task runs in-process
    assert asked == [3, 2]


@pytest.mark.parametrize('experiment', sorted(WORKER_RUNS))
def test_cli_plots_comparison_on_decade_ticks(tmp_path, experiment):
    _, artifact, section = WORKER_RUNS[experiment]
    path = cli_cfg(tmp_path, dict(BASE_SINGLE, experiment=experiment, **section), 'p.json')
    assert cli.main([experiment.replace('_', '-'), path, '--out', str(tmp_path / 'p'),
                     '--plots', '--workers', '1']) == 0
    svg = (tmp_path / 'p' / artifact.replace('.csv', '.svg')).read_text()
    assert svg.startswith('<svg') and 'polyline' in svg
    # numeric labels of the x ticks (centred) and the y ticks (right-aligned)
    xs = re.findall(r'text-anchor="middle">([-.e\d]+)</text>', svg)
    ys = re.findall(r'text-anchor="end">([-.e\d]+)</text>', svg)
    assert xs and all(math.log10(float(t)).is_integer() for t in xs + ys), (xs, ys)


def test_sweep_delta_takes_each_trace_seminorm_once_per_level(tmp_path, monkeypatch):
    # 4 runs (three deltas and the delta = 0 reference) of 11 levels: the
    # diagnostics need |v| and |w| in H^1(Gamma) once each per level
    calls = []
    seminorm = dg.h1_seminorm_trace

    def counting(grid, v):
        calls.append(v.shape)
        return seminorm(grid, v)
    monkeypatch.setattr(dg, 'h1_seminorm_trace', counting)
    harness.sweep_delta(sweep_cfg(tmp_path, sub='once', t_end=1e-2, deltas=[0.4, 0.2, 0.1]))
    assert len(calls) == 88


def test_sweep_delta_finest_reference(tmp_path):
    report = harness.sweep_delta(sweep_cfg(tmp_path, sub='fin',
                                           reference='finest'))
    assert report.reference == 'finest'
    assert len(report.rows) == 3        # finest consumed as reference
    errs = [row.e for row in report.rows]
    assert errs == sorted(errs, reverse=True)


def test_cli_one_entry_finest_ladder_is_exit_2(tmp_path, capsys):
    # the reference would consume the only delta and leave nothing to compare
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw.update(experiment='sweep_delta', sweep_delta={'deltas': [0.4], 'reference': 'finest'})
    path = cli_cfg(tmp_path, raw, 'finest.json')
    assert cli.main(['sweep-delta', path, '--out', str(tmp_path / 'fo')]) == 2
    assert 'error: a finest ladder needs at least two deltas' in capsys.readouterr().err
    assert not (tmp_path / 'fo').exists()


def test_sweep_delta_zero_data_sets_zero_error_flag(tmp_path):
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {
            'bulk_graph': {'kind': 'zero'},
            'boundary_graph': {'kind': 'zero'},
            'u0': {'kind': 'constant', 'value': 0.0},
        },
        'solver': {'delta': 1.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3},
        'sweep_delta': {'deltas': [0.4, 0.2, 0.1]},
        'output': {'dir': str(tmp_path / 'z')},
    }
    report = harness.sweep_delta(harness.load_config(make_cfg(tmp_path, raw)))
    assert report.zero_error
    assert report.slope is None
    assert all(row.e == 0.0 for row in report.rows)


def test_cli_sweep_delta_prints_the_zero_error_note_once(tmp_path, capsys):
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                    'u0': {'kind': 'constant', 'value': 0.0}},
        'solver': {'delta': 1.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3},
        'sweep_delta': {'deltas': [0.4, 0.2, 0.1]},
    }
    assert cli.main(['sweep-delta', cli_cfg(tmp_path, raw, 'zn.json'),
                     '--out', str(tmp_path / 'zn')]) == 0
    out = capsys.readouterr().out
    assert out.count('ZeroErrorFlag') == 1 and 'fit refused' in out


def test_sweep_delta_mismatched_growth_drops_rate_claim(tmp_path):
    # closed bulk obstacle vs open-domain boundary log: domination holds
    # (D(beta_Gamma) inside D(beta)) so the runs proceed, but the growth
    # comparison fails on the unequal domains and the rate claim is withheld
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {
            'bulk_graph': {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0},
            'boundary_graph': {'kind': 'logarithmic', 'scale': 1.0},
            'pi': {'kind': 'linear', 'slope': -1.0},
            'pi_gamma': {'kind': 'linear', 'slope': -2.0},
            'u0': {'kind': 'harmonic', 'amplitude': 0.2, 'mode': 2, 'offset': 0.05},
        },
        'solver': {'delta': 1.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3},
        'sweep_delta': {'deltas': [0.4, 0.2, 0.1]},
        'output': {'dir': str(tmp_path / 'ng')},
    }
    report = harness.sweep_delta(harness.load_config(make_cfg(tmp_path, raw)))
    assert not report.rate_claimed
    assert 'same-growth' in report.message
    assert report.slope is not None


def test_sweep_delta_zero_bulk_under_cubic_boundary_claims_no_rate(tmp_path, capsys):
    # the pair shares D = R but not the growth (order 0 against 3), so the
    # slope is reported without a rate claim whatever the data's amplitude
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {
            'bulk_graph': {'kind': 'zero'},
            'boundary_graph': {'kind': 'power_odd', 'exponent': 3},
            'pi': {'kind': 'linear', 'slope': -1.0},
            'pi_gamma': {'kind': 'linear', 'slope': -1.0},
            'u0': {'kind': 'harmonic', 'amplitude': 0.2, 'mode': 2},
        },
        'solver': {'delta': 0.1, 'lambda': 1e-3, 'dt': 1e-3, 't_end': 0.02},
        'sweep_delta': {'deltas': [0.1, 0.05, 0.025, 0.0125], 'reference': 'delta_zero'},
        'output': {'dir': str(tmp_path / 'zc')},
    }
    assert cli.main(['sweep-delta', cli_cfg(tmp_path, raw, 'zc.json')]) == 0
    out = capsys.readouterr().out
    # the caveat is the sweep's message, printed once
    assert out.count('same-growth condition not satisfied') == 1
    data = json.loads((tmp_path / 'zc' / 'sweep_delta_fit.json').read_text())
    assert data['slope'] is not None and data['r2'] is not None
    assert data['rate_claimed'] is False
    assert data['same_growth_feasible'] is False
    assert 'same_growth_m' not in data


# ---------------------------------------------------------------------------
# stability and lambda sweep

def test_stability_linear_preset_ratios_coincide(tmp_path):
    raw = {
        'experiment': 'stability',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'backward', 'amplitude': 0.1},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 5e-3},
        'stability': {'amplitudes': [1e-3, 1e-2, 1e-1], 'target': 'f'},
        'output': {'dir': str(tmp_path / 'st')},
    }
    report = harness.stability_experiment(harness.load_config(make_cfg(tmp_path, raw)))
    ratios = [r.sup_ratio for r in report.rows]
    assert report.band_ok and report.band < 3.0
    for r in ratios[1:]:
        assert abs(r - ratios[0]) <= 1e-8 * abs(ratios[0])
    assert (tmp_path / 'st' / 'stability.csv').exists()


def test_json_reports_record_the_peak_memory(tmp_path):
    harness.run_single(run_single_cfg(tmp_path, sub='pk'))
    harness.sweep_delta(sweep_cfg(tmp_path, sub='pw'))
    raw = {
        'experiment': 'stability',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'backward', 'amplitude': 0.1},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 2e-3},
        'stability': {'amplitudes': [1e-2, 1e-1], 'target': 'f'},
        'output': {'dir': str(tmp_path / 'ps')},
    }
    harness.stability_experiment(harness.load_config(make_cfg(tmp_path, raw)))
    for report in ('pk/summary.json', 'pw/sweep_delta_fit.json', 'ps/stability.json'):
        assert json.loads((tmp_path / report).read_text())['peak_rss_mb'] > 0, report


@pytest.mark.parametrize('self_kb, children_kb', [(90_000, 110_000), (110_000, 90_000)],
                         ids=['a_worker_is_larger', 'the_writer_is_larger'])
def test_peak_memory_is_that_of_the_largest_process(tmp_path, monkeypatch, self_kb,
                                                    children_kb):
    # RUSAGE_CHILDREN: the largest reaped child, e.g. a pool worker
    maxrss = {harness.resource.RUSAGE_SELF: self_kb,
              harness.resource.RUSAGE_CHILDREN: children_kb}
    monkeypatch.setattr(harness.resource, 'getrusage',
                        lambda who: SimpleNamespace(ru_maxrss=maxrss[who]))
    harness._write_json(tmp_path / 'r.json', {'steps': 3})
    assert json.loads((tmp_path / 'r.json').read_text()) == {
        'steps': 3, 'peak_rss_mb': 110_000 * 1024 / 1e6}


def test_comparison_run_keeps_t_u_and_v_of_each_level(tmp_path):
    # the level file holds [t, u, v] of every observed level bit for bit;
    # the result holds no level, so a worker pickles less than one
    problem = cs.preset_problem('cubic', dg.DiskGrid(16, 32), amplitude=0.4)
    config = cs.SolverConfig(delta=0.1, lam=1e-3, dt=1e-3, t_end=1e-2)
    levels = []
    full = cs.run(problem, config, levels.append)
    kept = harness._execute_run((problem, config, tmp_path / 'run.levels'))
    stored = np.fromfile(tmp_path / 'run.levels').reshape(len(levels), -1)
    assert len(levels) == 11
    for row, s in zip(stored, levels, strict=True):
        assert row.tobytes() == np.concatenate(([s.t], s.u.ravel(), s.v)).tobytes()
    assert kept.diagnostics == full.diagnostics and kept.record == full.record
    assert [f.name for f in dataclasses.fields(kept)] == [
        'diagnostics', 'error', 'wall_time', 'record']
    assert len(pickle.dumps(kept)) < levels[0].u.nbytes


def test_stability_initial_target_mean_corrects(tmp_path):
    raw = {
        'experiment': 'stability',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'cubic', 'amplitude': 0.2},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3},
        'stability': {'amplitudes': [1e-2], 'target': 'initial'},
        'output': {'dir': str(tmp_path / 'si')},
    }
    report = harness.stability_experiment(harness.load_config(make_cfg(tmp_path, raw)))
    assert report.rows[0].status == 'ok'
    assert math.isfinite(report.rows[0].sup_ratio)


def test_cli_tabulated_profile_of_the_wrong_length_is_exit_2(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw['problem'] = {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                      'u0': {'kind': 'tabulated', 'values': [0.0] * 127},
                      'v0': {'kind': 'constant', 'value': 0.0}}
    path = cli_cfg(tmp_path, raw, 'short.json')
    assert cli.main(['solve', path, '--out', str(tmp_path / 'so')]) == 2
    assert 'error: a tabulated profile needs 128 values' in capsys.readouterr().err


def test_sweep_lambda_monotone_differences(tmp_path):
    raw = {
        'experiment': 'sweep_lambda',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'cubic', 'amplitude': 0.2},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 5e-3},
        'sweep_lambda': {'lambdas': [1e-2, 1e-3, 1e-4]},
        'output': {'dir': str(tmp_path / 'sl')},
    }
    report = harness.sweep_lambda(harness.load_config(make_cfg(tmp_path, raw)))
    assert len(report.rows) == 2
    assert report.monotone
    lines = (tmp_path / 'sl' / 'sweep_lambda.csv').read_text().splitlines()
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# command line

def cli_cfg(tmp_path, raw, name):
    return str(make_cfg(tmp_path, raw, name=name))


def test_cli_solve_ok(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_SINGLE))
    path = cli_cfg(tmp_path, raw, 'solve.json')
    rc = cli.main(['solve', path, '--out', str(tmp_path / 'o')])
    assert rc == 0
    out = capsys.readouterr().out
    assert 'mass_drift_bulk' in out and 'max_energy_increment' in out
    assert (tmp_path / 'o' / 'summary.json').exists()


def test_cli_rejects_malformed_config(tmp_path, capsys):
    path = tmp_path / 'bad.json'
    path.write_text('{oops')
    assert cli.main(['solve', str(path)]) == 2
    assert 'error:' in capsys.readouterr().err


def test_cli_validation_failure_is_exit_2(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw['problem'] = {
        'bulk_graph': {'kind': 'logarithmic', 'scale': 1.0},
        'boundary_graph': {'kind': 'logarithmic', 'scale': 1.0},
        'u0': {'kind': 'constant', 'value': 1.5},
    }
    path = cli_cfg(tmp_path, raw, 'val.json')
    assert cli.main(['solve', path, '--out', str(tmp_path / 'vo')]) == 2


def test_cli_newton_divergence_is_exit_3(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw['problem'] = {'preset': 'cubic', 'amplitude': 0.4}
    raw['solver'] = dict(raw['solver'], newton_max_iter=1)
    path = cli_cfg(tmp_path, raw, 'div.json')
    assert cli.main(['solve', path, '--out', str(tmp_path / 'do')]) == 3
    assert 'failed step target time' in capsys.readouterr().err


def test_cli_sweep_delta_reference_failure_is_exit_3(tmp_path, capsys):
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'cubic', 'amplitude': 0.4},
        'solver': {'delta': 1.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3,
                   'newton_max_iter': 1},
        'sweep_delta': {'deltas': [0.4, 0.2, 0.1]},
    }
    path = cli_cfg(tmp_path, raw, 'sdf.json')
    assert cli.main(['sweep-delta', path, '--out', str(tmp_path / 'sdf'),
                     '--workers', '2']) == 3
    assert 'failed step target time 0.001' in capsys.readouterr().err


def test_cli_sweep_delta_assertion_gate(tmp_path, capsys):
    raw = {
        'experiment': 'sweep_delta',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'backward', 'amplitude': 0.1},
        'solver': {'delta': 1.0, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 5e-3},
        'sweep_delta': {'deltas': [0.4, 0.2, 0.1], 'assert_slope': 10.0},
    }
    path = cli_cfg(tmp_path, raw, 'sd.json')
    rc = cli.main(['sweep-delta', path, '--out', str(tmp_path / 'sdo')])
    assert rc == 4
    out = capsys.readouterr().out
    assert 'slope' in out


def test_cli_increasing_lambdas_exit_2(tmp_path):
    raw = {
        'experiment': 'sweep_lambda',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'backward', 'amplitude': 0.1},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 2e-3},
        'sweep_lambda': {'lambdas': [1e-4, 1e-3]},
    }
    path = cli_cfg(tmp_path, raw, 'il.json')
    assert cli.main(['sweep-lambda', path]) == 2


def test_cli_graph_check(tmp_path, capsys):
    ok_raw = {
        'experiment': 'graph_check',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'cubic'},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 1e-3},
    }
    path = cli_cfg(tmp_path, ok_raw, 'gc.json')
    assert cli.main(['graph-check', path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report['domination']['feasible']

    bad_raw = json.loads(json.dumps(ok_raw))
    bad_raw['problem'] = {
        'bulk_graph': {'kind': 'power_odd', 'exponent': 5, 'coefficient': 1.0},
        'boundary_graph': {'kind': 'power_odd', 'exponent': 3, 'coefficient': 1.0},
        'u0': {'kind': 'constant', 'value': 0.1},
    }
    path = cli_cfg(tmp_path, bad_raw, 'gc_bad.json')
    assert cli.main(['graph-check', path]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report['domination']['feasible']
    assert 'order 5' in report['domination']['reason']

    # cubic bulk under a quintic boundary: the verdicts ignore the data
    pair_raw = json.loads(json.dumps(bad_raw))
    pair_raw['problem']['bulk_graph']['exponent'] = 3
    pair_raw['problem']['boundary_graph']['exponent'] = 5
    for amplitude in (0.05, 2.0):
        pair_raw['problem']['u0'] = {'kind': 'harmonic', 'amplitude': amplitude, 'mode': 2}
        path = cli_cfg(tmp_path, pair_raw, f'gc_pair_{amplitude}.json')
        assert cli.main(['graph-check', path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report['domination']['feasible']
        assert not report['same_growth']['feasible']
        assert 'exponents differ' in report['same_growth']['reason']


def test_cli_stability_pass(tmp_path, capsys):
    raw = {
        'experiment': 'stability',
        'grid': {'n_r': 8, 'n_theta': 16},
        'problem': {'preset': 'backward', 'amplitude': 0.1},
        'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3},
        'stability': {'amplitudes': [1e-2, 1e-1]},
    }
    path = cli_cfg(tmp_path, raw, 'stc.json')
    assert cli.main(['stability', path, '--out', str(tmp_path / 'sto')]) == 0
    assert 'band' in capsys.readouterr().out


def _peak_bytes(call) -> int:
    """The tracemalloc peak of call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize('experiment', ['single', 'sweep_delta'])
def test_peak_memory_does_not_grow_with_steps(tmp_path, experiment):
    # one level's (u, v) at 16x32 is 4,352 bytes: a run, writer or
    # comparison that kept its levels would grow by at least that per step
    raw = {'experiment': experiment, 'grid': {'n_r': 16, 'n_theta': 32},
           'problem': {'preset': 'cubic'}, 'sweep_delta': {'deltas': [0.1, 0.05, 0.025]}}
    run = harness.run_single if experiment == 'single' else harness.sweep_delta

    def peak(n_steps):
        raw['solver'] = {'delta': 0.1, 'lambda': 1e-3, 'dt': 1e-3, 't_end': n_steps * 1e-3}
        raw['output'] = {'dir': str(tmp_path / str(n_steps))}
        cfg = harness.ExperimentConfig.from_dict(raw)
        return _peak_bytes(lambda: run(cfg))

    peak(2)                             # first-call caches
    growth = (peak(40) - peak(10)) / 30
    assert growth < (16 * 32 + 32) * 8, growth


def test_field_writer_peak_memory_is_one_chunk(tmp_path):
    # a writer that formats a 128x256 level whole holds the text of all
    # 32,768 values at once, 3.96 MB by this measure; one chunk of 2,048
    # values stays under 1 MB
    level = np.random.default_rng(5).standard_normal((128, 256))
    with open(tmp_path / 'u.csv', 'w', newline='') as fh:
        harness._write_bulk_csv(fh, 0, 0.0, level)       # first-call caches
        peak = _peak_bytes(lambda: harness._write_bulk_csv(fh, 1, 1e-3, level))
    assert peak < 2_000_000, peak


# ---------------------------------------------------------------------------
# failed runs and failed assertions of the comparison experiments

def _fail_run(monkeypatch, k):
    """Make run k (0 the reference) of the next experiment on 1 worker a
    NewtonDivergence at its first step."""
    execute, calls = harness._execute_run, []

    def stand_in(task):
        calls.append(task)
        result = execute(task)
        if len(calls) != k + 1:
            return result
        return dataclasses.replace(result, error=NewtonDivergence('stand-in divergence', t=1e-3))
    monkeypatch.setattr(harness, '_execute_run', stand_in)


def _csv_rows(path):
    with open(path, newline='') as fh:
        return list(csv.DictReader(fh))


def test_failed_sweep_run_is_flagged_and_left_out_of_the_fit(tmp_path, monkeypatch):
    _fail_run(monkeypatch, 2)               # delta 0.2
    harness.sweep_delta(sweep_cfg(tmp_path, sub='fr'))
    rows = _csv_rows(tmp_path / 'fr' / 'sweep_delta.csv')
    failed = rows.pop(1)
    assert failed['delta'] == '0.20000000000000001' and failed['in_fit'] == '0'
    assert failed['status'] == 'failed: stand-in divergence'
    assert [failed[c] for c in ('e', 'sup_dual_bulk', 'l2_v', 'sup_dual_trace', 'l2_h_half',
                                'delta_sup_gradv')] == [''] * 6
    assert all(r['status'] == 'ok' and r['in_fit'] == '1' for r in rows)
    fit = json.loads((tmp_path / 'fr' / 'sweep_delta_fit.json').read_text())
    slope, intercept, r2 = harness.fit_rate([(float(r['delta']), float(r['e'])) for r in rows])
    assert (fit['slope'], fit['intercept'], fit['r2']) == (slope, intercept, r2)
    assert fit['rate_claimed'] and len(fit['runs']) == 5


def test_sweep_with_two_usable_rows_refuses_the_fit(tmp_path, monkeypatch):
    _fail_run(monkeypatch, 1)               # delta 0.4 of three
    harness.sweep_delta(sweep_cfg(tmp_path, sub='tu', deltas=[0.4, 0.2, 0.1]))
    fit = json.loads((tmp_path / 'tu' / 'sweep_delta_fit.json').read_text())
    assert fit['message'] == 'only 2 usable rows; fit refused'
    assert fit['slope'] is None and not fit['rate_claimed']
    assert [r['in_fit'] for r in _csv_rows(tmp_path / 'tu' / 'sweep_delta.csv')] == ['0'] * 3


STABILITY_RAW = {
    'experiment': 'stability',
    'grid': {'n_r': 8, 'n_theta': 16},
    'problem': {'preset': 'cubic', 'amplitude': 0.3},
    'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 5e-3},
    'stability': {'amplitudes': [1e-3, 1e-2, 1e-1]},
}


def test_failed_stability_run_is_flagged_and_left_out_of_the_band(tmp_path, monkeypatch):
    _fail_run(monkeypatch, 2)               # amplitude 1e-2
    raw = dict(STABILITY_RAW, output={'dir': str(tmp_path / 'fs')})
    harness.stability_experiment(harness.load_config(make_cfg(tmp_path, raw)))
    rows = _csv_rows(tmp_path / 'fs' / 'stability.csv')
    failed = rows.pop(1)
    assert failed == {'amplitude': '0.01', 'sup_ratio': 'nan', 'lhs_final': 'nan',
                      'rhs_final': 'nan', 'status': 'failed: stand-in divergence'}
    ratios = [float(r['sup_ratio']) for r in rows]
    report = json.loads((tmp_path / 'fs' / 'stability.json').read_text())
    assert report['band'] == max(ratios) / min(ratios) and report['band_ok']
    assert all(r['status'] == 'ok' for r in rows) and len(report['runs']) == 4


def test_cli_initial_target_mean_check_is_exit_2(tmp_path, capsys, monkeypatch):
    # a bulk mean off by a relative 1e-6 stands in for a round-off that the
    # mean correction of a constant bump cannot absorb
    mean_bulk = dg.mean_bulk
    monkeypatch.setattr(dg, 'mean_bulk', lambda grid, u: (1.0 + 1e-6) * mean_bulk(grid, u))
    raw = dict(STABILITY_RAW, stability={'amplitudes': [1e-2], 'target': 'initial',
                                         'shape': {'kind': 'constant', 'value': 1.0}})
    path = cli_cfg(tmp_path, raw, 'mean.json')
    assert cli.main(['stability', path, '--out', str(tmp_path / 'mo')]) == 2
    assert ('error: mean-corrected initial perturbation still changes a conserved mean '
            'beyond 1e-12') in capsys.readouterr().err
    assert not (tmp_path / 'mo').exists()


@pytest.mark.parametrize('stability, zero, band, code', [
    ({'amplitudes': [1e-2, 1e-1], 'shape': {'kind': 'constant', 'value': 0.0}},
     [True, True], '1', 0),
    # a perturbation that moves no bit of either side has ratio 0 next to a positive one
    ({'amplitudes': [1e-200, 1e-2]}, [True, False], 'inf', 4),
], ids=['zero_shape', 'amplitude_below_round_off'])
def test_cli_zero_ratio_band(tmp_path, capsys, stability, zero, band, code):
    raw = dict(STABILITY_RAW, stability=stability)
    path = cli_cfg(tmp_path, raw, 'zero.json')
    assert cli.main(['stability', path, '--out', str(tmp_path / 'zo')]) == code
    rows = _csv_rows(tmp_path / 'zo' / 'stability.csv')
    assert [float(r['sup_ratio']) == 0.0 for r in rows] == zero
    report = json.loads((tmp_path / 'zo' / 'stability.json').read_text())
    assert report['band'] == float(band) and report['band_ok'] == (code == 0)
    assert f'ratio band {band} (limit 3)' in capsys.readouterr().out


@pytest.mark.parametrize('command, k', [('stability', 0), ('sweep-lambda', 0),
                                        ('sweep-lambda', 1), ('sweep-lambda', 2)])
def test_cli_failed_comparison_run_is_exit_3(tmp_path, capsys, monkeypatch, command, k):
    # a failed stability base run, or any failed run of the lambda ladder
    _fail_run(monkeypatch, k)
    raw = dict(STABILITY_RAW, experiment=command.replace('-', '_'),
               sweep_lambda={'lambdas': [1e-2, 1e-3, 1e-4]})
    path = cli_cfg(tmp_path, raw, 'fail.json')
    assert cli.main([command, path, '--out', str(tmp_path / 'fo'), '--workers', '1']) == 3
    assert 'solver failure: stand-in divergence' in capsys.readouterr().err
    assert not (tmp_path / 'fo').exists()


def test_comparison_leaves_no_level_file(tmp_path, capsys, monkeypatch):
    # the level files live in one temporary directory, removed after a
    # comparison that succeeds and after one whose reference fails
    tmp = tmp_path / 'tmp'
    tmp.mkdir()
    monkeypatch.setattr(tempfile, 'tempdir', str(tmp))
    path = cli_cfg(tmp_path, STABILITY_RAW, 'ok.json')
    assert cli.main(['stability', path, '--out', str(tmp_path / 'ok'), '--workers', '2']) == 0
    assert list(tmp.iterdir()) == []
    paths, execute = [], harness._execute_run

    def recording(task):
        paths.append(task[2])
        return execute(task)
    monkeypatch.setattr(harness, '_execute_run', recording)
    assert cli.main(['stability', path, '--out', str(tmp_path / 'ok'), '--workers', '1']) == 0
    assert list(tmp.iterdir()) == []
    assert len(paths) == 4 and all(Path(p).parent.parent == tmp for p in paths)
    _fail_run(monkeypatch, 0)
    assert cli.main(['stability', path, '--out', str(tmp_path / 'fo'), '--workers', '1']) == 3
    assert 'solver failure: stand-in divergence' in capsys.readouterr().err
    assert list(tmp.iterdir()) == []


@pytest.mark.parametrize('command, section', [
    ('stability', {'stability': dict(STABILITY_RAW['stability'], band=1.0000001)}),
    ('sweep-lambda', {'sweep_lambda': {'lambdas': [1.0, 0.9, 1e-4]}}),
], ids=['stability_band', 'lambda_differences'])
def test_cli_failed_experiment_assertion_is_exit_4(tmp_path, capsys, command, section):
    # the cubic's ratios spread by about 1e-5; the difference from 0.9 to
    # 1e-4 is larger than the one from 1 to 0.9
    raw = dict(STABILITY_RAW, experiment=command.replace('-', '_'), **section)
    path = cli_cfg(tmp_path, raw, 'assert.json')
    assert cli.main([command, path, '--out', str(tmp_path / 'ao')]) == 4
    assert 'assertion failed' in capsys.readouterr().out


def test_cli_rejects_old_config_with_seed(tmp_path, capsys):
    # output.seed was a no-op and is gone: like any unknown key it is exit 2
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw['output'] = {'seed': 1}
    path = cli_cfg(tmp_path, raw, 'seed.json')
    assert cli.main(['solve', path, '--out', str(tmp_path / 'se')]) == 2
    assert "unknown output key(s) ['seed']" in capsys.readouterr().err
    assert not (tmp_path / 'se').exists()


EXPERIMENT_SECTIONS = {
    'solve': {},
    'sweep-delta': {'experiment': 'sweep_delta',
                    'sweep_delta': {'deltas': [0.4, 0.2, 0.1]}},
    'stability': {'experiment': 'stability', 'stability': {'amplitudes': [1e-2]}},
    'sweep-lambda': {'experiment': 'sweep_lambda',
                     'sweep_lambda': {'lambdas': [1e-2, 1e-3]}},
}


def _nan_u0():
    u0 = np.zeros((8, 16))
    u0[3, 5] = math.nan
    return {'kind': 'tabulated', 'values': u0.tolist()}


# Inadmissible initial data: a NaN in u0, or constant u0 and v0 that are
# not trace-compatible.
INADMISSIBLE_DATA = {
    '': (_nan_u0(), {'kind': 'constant', 'value': 0.0}),
    '-trace': ({'kind': 'constant', 'value': 0.1}, {'kind': 'constant', 'value': 0.6}),
}


@pytest.mark.parametrize('command, data', [
    pytest.param(command, data, id=command + data)
    for data in INADMISSIBLE_DATA for command in sorted(EXPERIMENT_SECTIONS)])
def test_cli_non_finite_initial_data_is_exit_2(tmp_path, capsys, command, data):
    # every experiment validates its data, also inside a worker process
    u0, v0 = INADMISSIBLE_DATA[data]
    cubic = {'kind': 'power_odd', 'exponent': 3, 'coefficient': 1.0}
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw.update(EXPERIMENT_SECTIONS[command])
    raw['problem'] = {'bulk_graph': cubic, 'boundary_graph': cubic, 'u0': u0, 'v0': v0}
    path = cli_cfg(tmp_path, raw, 'bad.json')     # json writes and reads NaN
    workers = ['--workers', '2'] if command.startswith('sweep') else []
    assert cli.main([command, path, '--out', str(tmp_path / 'no')] + workers) == 2
    assert 'error:' in capsys.readouterr().err


# One value outside each range the solver config checks.
SOLVER_RANGES = {'delta_negative': {'delta': -0.1}, 'delta_above_one': {'delta': 1.5},
                 'lambda_zero': {'lambda': 0.0}, 'lambda_above_one': {'lambda': 2.0},
                 'dt_zero': {'dt': 0.0}, 't_end_negative': {'t_end': -1e-3},
                 'newton_tol_zero': {'newton_tol': 0.0}}

# Tabulated perturbation samples (xs, ys) that are rejected, and the message:
# the table's own, or the reader's for a non-finite sample, which it meets first.
TABLE_SAMPLES = {
    'table_one_sample': ([0.0], [0.0],
                         'bad problem.pi: tabulated perturbation needs >= 2 matching samples'),
    'table_unequal_lengths': ([0.0, 1.0], [0.0],
                              'bad problem.pi: tabulated perturbation needs >= 2 matching samples'),
    'table_xs_not_increasing': (
        [0.0, 1.0, 1.0], [0.0, 1.0, 2.0],
        'bad problem.pi: tabulated sample points must be strictly increasing'),
    'table_xs_infinite': ([0.0, math.inf], [0.0, 1.0],
                          'bad problem.pi.xs: expected a finite number, got inf'),
    'table_ys_nan': ([0.0, 1.0], [0.0, math.nan],
                     'bad problem.pi.ys: expected a finite number, got nan'),
}

# Non-finite numbers, which json reads as NaN and Infinity: (command, config
# update, message).  Unchecked, they ran into a traceback, a NaN row, a gate
# that never fires or a step with no Newton iteration.
NON_FINITE = {
    't_end_infinite': ('solve', {'solver': dict(BASE_SINGLE['solver'], t_end=math.inf)},
                       'bad solver.t_end: expected a finite number, got inf'),
    'deltas_nan': ('sweep-delta', {'sweep_delta': {'deltas': [0.1, math.nan, 0.025]}},
                   'bad sweep_delta.deltas: expected a finite number, got nan'),
    'assert_slope_nan': ('sweep-delta',
                         {'sweep_delta': {'deltas': [0.4, 0.2, 0.1], 'assert_slope': math.nan}},
                         'bad sweep_delta.assert_slope: expected a finite number, got nan'),
    'newton_tol_infinite': ('solve', {'solver': dict(BASE_SINGLE['solver'], newton_tol=math.inf)},
                            'bad solver.newton_tol: expected a finite number, got inf'),
    'amplitudes_nan': ('stability', {'stability': {'amplitudes': [math.nan, 0.1]}},
                       'bad stability.amplitudes: expected a finite number, got nan'),
}


# (command, config update) of each malformed value
MALFORMED = [
    ('solve', {'output': {'stride': 'x'}}),
    ('sweep-delta', {'sweep_delta': {'deltas': ['x', 0.1, 0.05]}}),
    ('solve', {'problem': {'preset': 'nosuch'}}),
    ('sweep-delta', {'sweep_delta': {'deltas': [0.4, 0.2, 0.1], 'assert_r2': 'x'}}),
    ('stability', {'stability': {'amplitudes': [1e-2], 'band': 'x'}}),
    ('stability', {'stability': {'amplitudes': [1e-2], 'target': 'h'}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'constant', 'value': 0.1},
                           'f': {'kind': 'separable', 'time': {'kind': 'sin'}}}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'power_odd', 'exponent': 3, 'scale': 2.0},
                           'boundary_graph': {'kind': 'power_odd', 'exponent': 3},
                           'u0': {'kind': 'constant', 'value': 0.1}}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'pi': {'kind': 'linear', 'slope': -1.0, 'lipschitz': 1.0},
                           'u0': {'kind': 'constant', 'value': 0.1}}}),
    # keys that are gone: L is the steepest table slope, the preset's scale and slope are fixed
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'pi': {'kind': 'tabulated', 'xs': [0.0, 1.0], 'ys': [0.0, -1.0],
                                  'lipschitz_constant': 1.0},
                           'u0': {'kind': 'constant', 'value': 0.1}}}),
    ('solve', {'problem': {'preset': 'logarithmic', 'log_scale': 0.5}}),
    ('solve', {'problem': {'preset': 'logarithmic', 'anti_slope_c': 1.0}}),
    ('solve', {'solver': dict(BASE_SINGLE['solver'], stabilization=-1.0)}),
    ('solve', {'problem': {'bulk_graph': 'cubic', 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'constant', 'value': 0.1}}}),
    ('solve', {'output': {'plots': 'false'}}),
    ('solve', {'solver': {'delta': 0.5, 'lamda': 0.5, 'dt': 1e-3, 't_end': 3e-3}}),
    ('solve', {'problem': {'preset': 'cubic', 'amplitud': 0.3}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'constant', 'value': 0.1}, 'pi_Gamma': {}}}),
    # a key that is gone: the compatibility tolerance is always 25*dr**2*scale
    ('solve', {'problem': {'preset': 'cubic', 'compat_tol': 1e-12}}),
    ('solve', {'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': None, 't_end': 3e-3}}),
    ('solve', {'problem': [{'preset': 'cubic'}]}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': 'cubic'}}),
    # lists must be JSON arrays, sections JSON objects
    ('stability', {'stability': {'amplitudes': '12'}}),
    ('sweep-lambda', {'sweep_lambda': {'lambdas': 5}}),
    ('solve', {'grid': [8, 16]}),
    ('solve', {'output': [1]}),
    ('sweep-delta', {'sweep_delta': [0.4, 0.2, 0.1]}),
    ('stability', {'stability': [1e-2]}),
    ('sweep-lambda', {'sweep_lambda': [1e-2, 1e-3]}),
    # integers must be integral numbers, not booleans
    ('solve', {'grid': {'n_r': 8.7, 'n_theta': 16}}),
    ('solve', {'grid': {'n_r': 8, 'n_theta': 16.5}}),
    ('solve', {'output': {'stride': 2.5}}),
    ('solve', {'output': {'workers': True}}),
    ('solve', {'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3,
                          'newton_max_iter': 50.5}}),
    # values no run can honour: no Newton iteration, a band no ratio can pass
    ('solve', {'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3,
                          'newton_max_iter': 0}}),
    ('solve', {'solver': {'delta': 0.5, 'lambda': 1e-2, 'dt': 1e-3, 't_end': 3e-3,
                          'newton_max_iter': -3}}),
    ('stability', {'stability': {'amplitudes': [1e-2], 'band': 1.0}}),
    ('stability', {'stability': {'amplitudes': [1e-2], 'band': -1}}),
    ('solve', {'problem': {'preset': 'cubic', 'mode': 2.5}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'power_odd', 'exponent': 3.5},
                           'boundary_graph': {'kind': 'power_odd', 'exponent': 3.5},
                           'u0': {'kind': 'constant', 'value': 0.1}}}),
    ('solve', {'solver': {'delta': 0.5, 'lambda': 1e-2, 'lam': 0.5, 'dt': 1e-3,
                          't_end': 3e-3}}),
    # misspelled keys in every section
    ('solve', {'grid': {'nr': 8, 'n_theta': 16}}),
    ('solve', {'output': {'strid': 2}}),
    ('sweep-delta', {'sweep_delta': {'deltas': [0.4, 0.2, 0.1], 'assert_slop': 5.0}}),
    ('stability', {'stability': {'amplitudes': [1e-2],
                                 'shape': {'kind': 'harmonic', 'amplitud': 2.0}}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'harmonic', 'amplitud': 0.1, 'mode': 2}}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'constant', 'value': 0.1},
                           'f': {'kind': 'separable', 'spatal': {'kind': 'constant'}}}}),
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'constant', 'value': 0.1},
                           'f': {'kind': 'separable', 'time': {'kind': 'exp', 'rat': -1.0}}}}),
    # a tabulated source with fewer frames than times
    ('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                           'u0': {'kind': 'constant', 'value': 0.1},
                           'f': {'kind': 'tabulated', 'times': [0.0, 1e-3],
                                 'frames': [[0.0] * 128]}}}),
    # the solver's ranges
    *(('solve', {'solver': dict(BASE_SINGLE['solver'], **bad)}) for bad in SOLVER_RANGES.values()),
    # the table's own checks: the reader passes xs and ys through
    *(('solve', {'problem': {'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
                             'u0': {'kind': 'constant', 'value': 0.1},
                             'pi': {'kind': 'tabulated', 'xs': xs, 'ys': ys}}})
      for xs, ys, _ in TABLE_SAMPLES.values()),
    *((command, update) for command, update, _ in NON_FINITE.values()),
]
MALFORMED_IDS = [
    'stride', 'deltas', 'preset', 'assert_r2', 'band', 'target', 'time_profile', 'graph_key',
    'pi_key', 'pi_lipschitz_constant', 'preset_log_scale', 'preset_anti_slope_c',
    'stabilization_negative', 'graph_str', 'plots', 'solver_key', 'preset_key', 'problem_key',
    'preset_compat_tol', 'dt_null', 'problem_list', 'u0_str', 'amplitudes_str', 'lambdas_int',
    'grid_list', 'output_list', 'sweep_delta_list', 'stability_list', 'sweep_lambda_list',
    'n_r_float', 'n_theta_float', 'stride_float', 'workers_bool', 'newton_max_iter_float',
    'newton_max_iter_zero', 'newton_max_iter_negative', 'band_one', 'band_negative',
    'mode_float', 'exponent_float', 'lambda_and_lam', 'grid_nr', 'output_strid', 'assert_slop',
    'shape_amplitud', 'u0_amplitud', 'f_spatal', 'f_time_rat', 'source_frames', *SOLVER_RANGES,
    *TABLE_SAMPLES, *NON_FINITE,
]


@pytest.mark.parametrize('command, update', MALFORMED, ids=MALFORMED_IDS)
def test_cli_malformed_values_are_exit_2(tmp_path, capsys, request, command, update):
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw.update(EXPERIMENT_SECTIONS[command])
    raw.update(update)
    path = cli_cfg(tmp_path, raw, 'malformed.json')
    assert cli.main([command, path, '--out', str(tmp_path / 'mo')]) == 2
    case = request.node.callspec.id
    message = ('bad solver spec:' if case in SOLVER_RANGES
               else {**TABLE_SAMPLES, **NON_FINITE}.get(case, ('',))[-1])
    assert f'error: {message}' in capsys.readouterr().err


# Config errors that a command used to raise after the read, or never:
# graph_check built no solver, so its ranges went unchecked.  A tabulated
# u0 without v0 is test_tabulated_u0_requires_v0.
READ_TIME_ERRORS = {
    'no_solver': ('solve', {'solver': None}),
    'shape_size': ('stability', {'stability': {
        'amplitudes': [1e-2], 'shape': {'kind': 'tabulated', 'values': [0.0] * 127}}}),
    'trace_shape_size': ('stability', {'stability': {
        'amplitudes': [1e-2], 'trace_shape': {'kind': 'tabulated', 'values': [0.0] * 17}}}),
    'finest_one_delta': ('sweep-delta', {'sweep_delta': {'deltas': [0.4], 'reference': 'finest'}}),
    'graph_check_solver': ('graph-check', {'experiment': 'graph_check',
                                           'solver': dict(BASE_SINGLE['solver'], delta=1.5)}),
}


@pytest.mark.parametrize('command, update', [*MALFORMED, *READ_TIME_ERRORS.values()],
                         ids=[*MALFORMED_IDS, *READ_TIME_ERRORS])
def test_config_errors_are_raised_by_the_reader(tmp_path, capsys, command, update):
    # load_config checks and builds the whole config: every config error is
    # its own, before any command runs or makes its output directory
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw.update(EXPERIMENT_SECTIONS.get(command, {}))
    raw.update(update)
    path = cli_cfg(tmp_path, raw, 'read.json')
    with pytest.raises(ConfigError):
        harness.load_config(path)
    assert cli.main([command, path, '--out', str(tmp_path / 'ro')]) == 2
    assert 'error:' in capsys.readouterr().err
    assert not (tmp_path / 'ro').exists()


def _no_run(*args):
    raise AssertionError('a config rejected at read reached a run')


@pytest.mark.parametrize('out', ['', 'file', 'file/sub'], ids=['empty', 'file', 'under_a_file'])
@pytest.mark.parametrize('command', ['solve', 'sweep-delta'])
def test_cli_unwritable_output_path_is_exit_2(tmp_path, capsys, monkeypatch, command, out):
    # an empty dir, an existing file or a path under a file is rejected at
    # read, with no run
    (tmp_path / 'file').write_text('kept')
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw.update(EXPERIMENT_SECTIONS[command])
    path = cli_cfg(tmp_path, raw, 'out.json')
    target = str(tmp_path / out) if out else ''
    with pytest.raises(ConfigError, match='bad output.dir'):
        harness.load_config(path, dir=target)
    monkeypatch.setattr(cs, 'run', _no_run)
    assert cli.main([command, path, '--out', target]) == 2
    assert 'error:' in capsys.readouterr().err
    assert (tmp_path / 'file').read_text() == 'kept'


@pytest.mark.parametrize('command, experiment', [
    ('solve', 'sweep_delta'), ('sweep-delta', 'single'), ('stability', 'sweep_lambda'),
    ('sweep-lambda', 'stability'), ('graph-check', 'single')])
def test_cli_command_and_experiment_must_agree(tmp_path, capsys, command, experiment):
    # a config that holds every section, naming another command's experiment
    raw = json.loads(json.dumps(BASE_SINGLE))
    for sections in EXPERIMENT_SECTIONS.values():
        raw.update(sections)
    raw['experiment'] = experiment
    path = cli_cfg(tmp_path, raw, 'other.json')
    assert cli.main([command, path, '--out', str(tmp_path / 'xo')]) == 2
    assert f'not {experiment!r}' in capsys.readouterr().err
    assert not (tmp_path / 'xo').exists()


# Values the fuzz puts in place of a config value: one of each JSON type.
# The numbers keep a run short when they land on t_end or dt.
FUZZ_VALUES = ([0.5, 0.25], 'x', None, True, -1.0, 2.5e-3, {})
FUZZ_BASES = {
    command: dict(json.loads(json.dumps(BASE_SINGLE)), **sections,
                  output={'stride': 1, 'plots': False, 'workers': 1})
    for command, sections in dict(EXPERIMENT_SECTIONS,
                                  **{'graph-check': {'experiment': 'graph_check'}}).items()}


def _key_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_config_fuzz_exits_cleanly(tmp_path_factory, data):
    # drop or rename keys, swap value types; a config error is exit 2, never a traceback
    command = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    raw = json.loads(json.dumps(FUZZ_BASES[command]))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_key_paths(raw))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths))
        owner = functools.reduce(operator.getitem, parents, raw)
        op = data.draw(st.sampled_from(['drop', 'rename', 'swap']))
        value = owner.pop(key)
        if op == 'rename':
            owner[key + '_'] = value
        elif op == 'swap':
            owner[key] = copy.deepcopy(data.draw(st.sampled_from(FUZZ_VALUES)))
    root = tmp_path_factory.mktemp('fuzz')
    path = cli_cfg(root, raw, 'fuzz.json')
    assert cli.main([command, path, '--out', str(root / 'out')]) in (0, 2, 3, 4)


_WORKLOADS = Path(__file__).resolve().parent.parent / 'perfbench' / 'workloads.py'


@pytest.mark.parametrize('seed', [1, 2, 3])
def test_benchmark_configs_pass_the_reader(monkeypatch, seed):
    # tier-1 does not run perfbench/tests; a stricter reader must still read
    # every config the benchmark generates
    spec = importlib.util.spec_from_file_location('perfbench_workloads', _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # for its dataclasses
    spec.loader.exec_module(workloads)
    for w in workloads.WORKLOADS.values():
        cfg = harness.ExperimentConfig.from_dict(workloads.make_config(w, seed))
        problem, solver = cfg.problem, cfg.solver
        assert (problem.grid.n_r, problem.grid.n_theta) == w.grid
        assert (solver.delta, solver.t_end, cfg.workers) == (w.delta, w.t_end, w.workers)


def test_cli_non_finite_residual_is_exit_3_with_partial_trajectory(tmp_path, capsys):
    # a source that turns NaN at t = 3e-3 fails the third step
    shape = (8, 16)
    raw = json.loads(json.dumps(BASE_SINGLE))
    raw['problem'] = {
        'bulk_graph': {'kind': 'zero'}, 'boundary_graph': {'kind': 'zero'},
        'u0': {'kind': 'harmonic', 'amplitude': 0.1, 'mode': 2},
        'f': {'kind': 'tabulated', 'times': [0.0, 2.5e-3, 2.6e-3],
              'frames': [np.zeros(shape).tolist(), np.zeros(shape).tolist(),
                         np.full(shape, math.nan).tolist()]},
    }
    path = cli_cfg(tmp_path, raw, 'nanf.json')
    assert cli.main(['solve', path, '--out', str(tmp_path / 'nf')]) == 3
    assert 'failed step target time' in capsys.readouterr().err
    summary = json.loads((tmp_path / 'nf' / 'summary.json').read_text())
    assert summary['steps'] == 2
    assert 'non-finite residual' in summary['solver_error']


_README = Path(__file__).resolve().parent.parent / 'README.md'


def test_readme_config_example_and_exit_codes_match_the_code():
    # a renamed key or error type fails here until README follows
    text = _README.read_text()
    example = re.search(r'One JSON object per experiment:\n\n```json\n(.*?)```', text, re.S)
    cfg = harness.ExperimentConfig.from_dict(json.loads(example.group(1)))
    problem, solver = cfg.problem, cfg.solver
    assert (problem.grid.n_r, solver.t_end, cfg.sweep_delta.assert_r2) == (64, 0.25, 0.98)
    exit_codes = re.search(r'\nExit codes:(.*?)\n## ', text, re.S).group(1)
    assert [name for name in errors.__all__ if f'`{name}`' not in exit_codes] == []
    # "Keys by section" lists every key of every section, and README names
    # none that the reader lacks, there or as `section.key`; a value is
    # written as JSON (`"finest"`), a key bare (`reference`)
    keys = re.search(r'\nKeys by section(.*?)\n## ', text, re.S).group(1)

    def dotted(name):       # `name.key` anywhere in README, less artifact files
        return set(re.findall(rf'`{name}\.([a-z0-9_]+)`', text)) - {'csv', 'svg', 'json'}

    for head, name, schema in (
            ('top level', None, harness._CONFIG), ('`grid`', 'grid', harness._GRID),
            ('`output`', 'output', harness._OUTPUT), ('`solver`', 'solver', harness._SOLVER),
            ('`sweep_delta`', 'sweep_delta', harness._SWEEP_DELTA),
            ('`stability`', 'stability', harness._STABILITY),
            ('`sweep_lambda`', 'sweep_lambda', harness._SWEEP_LAMBDA),
            ('`problem`, preset form', None, harness._PRESET)):
        listed = re.search(rf'\n- {head}: (.*?)\n(?=- |\n|\Z)', keys, re.S).group(1)
        named = set(re.findall(r'`([a-z_][a-z0-9_]*)`', listed)) - {'true', 'false', 'null'}
        assert named | (dotted(name) if name else set()) == set(schema), head
    # the explicit form lists its keys as the heads of its sub-items
    explicit = re.search(r'\n- `problem`, explicit form:\n(.*?)\n(?=- |\n)', keys, re.S).group(1)
    heads = re.findall(r'^  - ((?:`[a-z0-9_]+`(?: / )?)+)', explicit, re.M)
    assert set(re.findall(r'`([a-z0-9_]+)`', ' '.join(heads))) == set(harness._EXPLICIT)
    assert dotted('problem') <= set(harness._PRESET) | set(harness._EXPLICIT)


def test_every_name_in_all_is_defined():
    # `from chb.<module> import *` fails on a listed name the module lacks;
    # a name listed twice is a stale edit of the list
    modules = [chb] + [importlib.import_module(f'chb.{m.name}')
                       for m in pkgutil.iter_modules(chb.__path__)]
    missing = [f'{module.__name__}.{name}' for module in modules
               for name in getattr(module, '__all__', ()) if not hasattr(module, name)]
    twice = [module.__name__ for module in modules
             if len(set(getattr(module, '__all__', ()))) != len(getattr(module, '__all__', ()))]
    assert missing == [] and twice == [] and len(modules) > 1


def test_importing_the_cli_leaves_scipy_special_out():
    # scipy.special costs every run's start-up ~60 ms; only the logarithmic
    # primitive needs it, and imports it there
    env = dict(os.environ, PYTHONPATH=str(Path(chb.__file__).resolve().parent.parent))
    out = subprocess.run(
        [sys.executable, '-c', 'import sys, chb.cli; print("scipy.special" in sys.modules)'],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == 'False'
