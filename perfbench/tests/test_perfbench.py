"""Tests of the benchmark itself: every workload on a tiny grid through the
same code paths, the tracer's wrapping and unwrapping, and the pieces of
arithmetic the metrics rest on.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / 'src'))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())


def tiny(workload: wl.Workload) -> wl.Workload:
    """The workload on a tiny grid and a short horizon, same code path."""
    if workload.problem == 'obstacle':
        return dataclasses.replace(workload, grid=(16, 32), t_end=0.02)
    return dataclasses.replace(workload, grid=(8, 16), t_end=0.01)


@pytest.mark.parametrize('trace_on', [False, True], ids=['untraced', 'traced'])
@pytest.mark.parametrize('name', sorted(wl.WORKLOADS))
def test_tiny_workload_is_correct_and_emits_every_metric(name, trace_on):
    workload = tiny(wl.WORKLOADS[name])
    record = bench.benchmark(workload, seed=3, seconds=0.0, trace_on=trace_on)
    runs = record.get('reps', []) + record.get('passes', [])
    assert record['correct'], [r['failures'] for r in runs]
    line = bench.summary_line(record)
    assert line['attempted'] >= 1 and line['failed'] == 0
    declared = SPEC['per_layer' if trace_on else 'end_to_end']
    assert set(line['metrics']) == {m['name'] for m in declared}
    for m in declared:
        got = line['metrics'][m['name']]
        assert got['unit'] == m['unit']
        assert isinstance(got['value'], (int, float)) and math.isfinite(got['value'])
    if trace_on:
        assert line['metrics']['chd_solver.newton_iters']['value'] >= workload.n_steps
        assert line['metrics']['chd_solver.lu_factorizations']['value'] >= 1
    else:
        for m in declared:
            assert line['metrics'][m['name']]['value'] > 0


def test_tracer_restores_the_unwrapped_functions():
    import scipy.sparse.linalg
    from chb import chd_solver as cs
    from chb import disk_grid as dg

    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _ in tracing._targets()}
    problem = cs.preset_problem('cubic', dg.DiskGrid(8, 16))
    config = cs.SolverConfig(delta=0.5, lam=1e-3, dt=1e-3, t_end=0.005)
    with tracing.Tracer() as tracer:
        assert cs.splu is not scipy.sparse.linalg.splu
        result = cs.run(problem, config)
    assert cs.splu is scipy.sparse.linalg.splu
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, f'{owner.__name__}.{attr}'

    metrics = tracing.layer_metrics(tracer, artifact_bytes=0)
    counts = metrics['counts']
    assert counts['chd_solver.newton_iters'] == sum(
        r.newton_iters for r in result.diagnostics.rows)
    assert counts['chd_solver.backsolves'] == counts['chd_solver.newton_iters']
    assert counts['chd_solver.lu_factorizations'] == 1
    assert metrics['steps'] == 5
    assert len(tracer.runs) == 1 and tracer.runs[0]['steps'] == 5


def test_self_time_subtracts_direct_children_only():
    spans = [('a', 0.0, 10.0, -1, 0),
             ('b', 1.0, 5.0, 0, 1),
             ('c', 2.0, 3.0, 1, 1),
             ('d', 6.0, 8.0, 0, 0)]
    assert tracing.self_times(spans) == [4.0, 3.0, 1.0, 2.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(30) == 50.0
    assert tracing.tail_percentile(40) == 75.0
    assert tracing.tail_percentile(250) == 95.0
    assert tracing.tail_percentile(1000) == 99.0
    assert tracing.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def test_seed_draws_a_whole_cell_rotation_and_a_bounded_amplitude():
    for workload in wl.WORKLOADS.values():
        seen = set()
        for seed in range(20):
            j = wl.jitter(workload, seed)
            assert j == wl.jitter(workload, seed)
            dtheta = 2.0 * math.pi / workload.grid[1]
            assert j['phase'] == pytest.approx(2 * j['rotation_cells'] * dtheta)
            assert abs(j['amplitude_factor'] - 1.0) <= workload.amplitude_jitter
            seen.add((j['rotation_cells'], j['amplitude_factor']))
        assert len(seen) == 20
        assert wl.make_config(workload, 5) == wl.make_config(workload, 5)


def test_output_check_catches_a_bad_run(tmp_path):
    workload = tiny(wl.WORKLOADS['obstacle_active'])
    for name, lines in wl.expected_lines(workload).items():
        (tmp_path / name).write_text('x\n' * (lines or 1))
    summary = {'steps': workload.n_steps, 'solver_error': None,
               'mass_drift_bulk': 2e-11, 'mass_drift_trace': 0.0,
               'max_energy_increment': 0.0}
    (tmp_path / 'summary.json').write_text(json.dumps(summary))
    diag = 'overshoot\n' + '0.0\n' * (workload.n_steps + 1)
    (tmp_path / 'diagnostics.csv').write_text(diag)
    out = wl.check_outputs(workload, str(tmp_path), exit_code=0)
    assert not out['ok']
    assert any('mass_drift_bulk' in f for f in out['failures'])
    assert any('overshoot' in f for f in out['failures'])

    (tmp_path / 'u.csv').write_text('x\n')
    out = wl.check_outputs(workload, str(tmp_path), exit_code=3)
    assert 'exit code 3' in out['failures']
    assert any(f.startswith('u.csv') for f in out['failures'])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    shutil.copytree(BENCH, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    out = subprocess.run([sys.executable, 'perfbench/run.py', '--workload', 'solve_io',
                          '--seed', '1', '--seconds', '1', '--trace', '0'],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_a_process_past_its_deadline_is_killed_with_its_group(tmp_path):
    sleeper = 'import subprocess, sys, time; ' \
        'subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"]); ' \
        'time.sleep(60)'
    start = time.monotonic()
    rec = bench.run_process([sys.executable, '-c', sleeper], tmp_path, timeout=1.0)
    assert rec['exit_code'] != 0
    assert time.monotonic() - start < 20
