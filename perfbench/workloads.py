"""The benchmark's workloads: chb configs drawn from a seed, and the checks
that every run's outputs must pass.

Each workload is one experiment the paper's users run through the `chb`
CLI.  The seed jitters the initial data only: the harmonic u0 is rotated by
a whole number of grid cells (a phase of ``mode * k * dtheta``) and its
amplitude is scaled within a small band.  Whole-cell rotations keep the
discrete problem an exact rotation of the unjittered one, so the amount of
work (Newton iterations, LU refreshes) stays put while the input bytes
change; the program itself only ever sees the generated config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

MASS_DRIFT_TOL = 1e-11
NEWTON_TOL = 1e-10
ENERGY_INCREMENT_TOL = 10.0 * NEWTON_TOL
SLOPE_MIN = 0.45
R2_MIN = 0.98
LAMBDA = 1e-3
DT = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # chb subcommand
    problem: str          # 'cubic' or 'obstacle'
    grid: tuple           # (n_r, n_theta)
    t_end: float
    delta: float
    workers: int
    keep_all_levels: bool  # stride 1, else only the first and last levels
    amplitude_jitter: float

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / DT))


# One repetition takes a few seconds on two cores, and each workload is
# dominated by a different layer (BENCHMARK.json says which, README.md why).
# The obstacle's amplitude jitter is narrower because its contact time, and
# with it the number of LU factorizations, depends sharply on the amplitude.
WORKLOADS = {
    'solve_io': Workload('solve_io', 'solve', 'cubic', (64, 128), 0.03, 0.5, 1,
                         True, 0.05),
    'delta_sweep': Workload('delta_sweep', 'sweep-delta', 'cubic', (64, 128), 0.04,
                            0.1, 2, False, 0.05),
    'obstacle_active': Workload('obstacle_active', 'solve', 'obstacle', (128, 256),
                                0.015, 0.5, 1, False, 0.01),
}

SWEEP_DELTAS = (0.1, 0.05, 0.025, 0.0125)


def jitter(workload: Workload, seed: int) -> dict:
    """Phase and amplitude factor of u0 drawn from the seed."""
    rng = random.Random(f'{workload.name}:{seed}')
    n_theta = workload.grid[1]
    cells = rng.randrange(n_theta)
    phase = 2 * cells * (2.0 * math.pi / n_theta)   # mode 2, `cells` cells
    factor = 1.0 + rng.uniform(-workload.amplitude_jitter, workload.amplitude_jitter)
    return {'rotation_cells': cells, 'phase': phase, 'amplitude_factor': factor}


def make_config(workload: Workload, seed: int) -> dict:
    """The chb experiment config for one seed; the output directory is
    given on the command line."""
    j = jitter(workload, seed)
    n_r, n_theta = workload.grid
    if workload.problem == 'cubic':
        # The `cubic` preset written out, so that u0 can take a phase.
        cubic = {'kind': 'power_odd', 'exponent': 3, 'coefficient': 1.0}
        problem = {
            'bulk_graph': cubic, 'boundary_graph': cubic,
            'pi': {'kind': 'linear', 'slope': -1.0},
            'pi_gamma': {'kind': 'linear', 'slope': -1.0},
            'u0': {'kind': 'harmonic', 'amplitude': 0.2 * j['amplitude_factor'],
                   'mode': 2, 'phase': j['phase'], 'offset': 0.05},
        }
    else:
        # Acceptance check 9's forced obstacle data; f and g turn with u0 so
        # that the jittered problem stays a rotation of the base one.
        obstacle = {'kind': 'double_obstacle', 'lower': -1.0, 'upper': 1.0}
        problem = {
            'bulk_graph': obstacle, 'boundary_graph': obstacle,
            'pi': {'kind': 'linear', 'slope': -1.0},
            'pi_gamma': {'kind': 'linear', 'slope': -1.0},
            'u0': {'kind': 'harmonic', 'amplitude': 0.95 * j['amplitude_factor'],
                   'mode': 2, 'phase': j['phase']},
            'f': {'kind': 'separable',
                  'spatial': {'kind': 'harmonic', 'amplitude': 4.0, 'mode': 2,
                              'phase': j['phase']}},
            'g': {'kind': 'separable',
                  'spatial': {'kind': 'mode', 'amplitude': 4.0, 'mode': 2,
                              'phase': j['phase']}},
        }
    raw = {
        'experiment': 'sweep_delta' if workload.command == 'sweep-delta' else 'single',
        'grid': {'n_r': n_r, 'n_theta': n_theta},
        'problem': problem,
        'solver': {'delta': workload.delta, 'lambda': LAMBDA, 'dt': DT,
                   't_end': workload.t_end, 'newton_tol': NEWTON_TOL},
        'output': {'stride': 1 if workload.keep_all_levels else workload.n_steps,
                   'workers': workload.workers},
    }
    if workload.command == 'sweep-delta':
        raw['sweep_delta'] = {'deltas': list(SWEEP_DELTAS), 'reference': 'delta_zero'}
    return raw


# ---------------------------------------------------------------------------
# output checks

def _scan(path: str) -> tuple:
    """(sha256 hex, line count) of a file, read in blocks."""
    digest = hashlib.sha256()
    lines = 0
    with open(path, 'rb') as fh:
        for block in iter(lambda: fh.read(1 << 20), b''):
            digest.update(block)
            lines += block.count(b'\n')
    return digest.hexdigest(), lines


def expected_lines(workload: Workload) -> dict:
    """Line counts (header included) of every artifact the run must write."""
    n_r, n_theta = workload.grid
    if workload.command == 'sweep-delta':
        return {'sweep_delta.csv': 1 + len(SWEEP_DELTAS), 'sweep_delta_fit.json': None}
    levels = workload.n_steps + 1
    dumped = levels if workload.keep_all_levels else 2
    out = {f'{name}.csv': 1 + dumped * n_r * n_theta for name in ('u', 'mu', 'xi')}
    out.update({f'{name}.csv': 1 + dumped * n_theta for name in ('v', 'w', 'eta')})
    out['diagnostics.csv'] = 1 + levels
    out['summary.json'] = None
    return out


def check_outputs(workload: Workload, out_dir: str, exit_code: int) -> dict:
    """Check one run's exit code and artifacts.

    Returns {'ok': bool, 'failures': [...], 'artifacts': {name: {sha256,
    lines, bytes}}}.  The hashes are recorded, not gated.
    """
    failures = []
    artifacts = {}
    if exit_code != 0:
        failures.append(f'exit code {exit_code}')
    for name, want in expected_lines(workload).items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            failures.append(f'missing artifact {name}')
            continue
        sha, lines = _scan(path)
        artifacts[name] = {'sha256': sha, 'lines': lines, 'bytes': os.path.getsize(path)}
        if want is not None and lines != want:
            failures.append(f'{name}: {lines} lines, expected {want}')
    if not failures:
        if workload.command == 'sweep-delta':
            failures += _check_sweep(out_dir)
        else:
            failures += _check_single(workload, out_dir)
    return {'ok': not failures, 'failures': failures, 'artifacts': artifacts}


def _check_single(workload: Workload, out_dir: str) -> list:
    failures = []
    with open(os.path.join(out_dir, 'summary.json')) as fh:
        summary = json.load(fh)
    if summary['steps'] != workload.n_steps:
        failures.append(f"summary: {summary['steps']} steps, expected {workload.n_steps}")
    if summary['solver_error'] is not None:
        failures.append(f"solver error: {summary['solver_error']}")
    for key in ('mass_drift_bulk', 'mass_drift_trace'):
        if not abs(summary[key]) <= MASS_DRIFT_TOL:
            failures.append(f'{key} = {summary[key]:.3e} > {MASS_DRIFT_TOL:g}')
    if not summary['max_energy_increment'] <= ENERGY_INCREMENT_TOL:
        failures.append(f"max_energy_increment = {summary['max_energy_increment']:.3e}"
                        f' > {ENERGY_INCREMENT_TOL:g}')
    if workload.problem == 'obstacle':
        with open(os.path.join(out_dir, 'diagnostics.csv'), newline='') as fh:
            overshoot = max(float(row['overshoot']) for row in csv.DictReader(fh))
        if not 0.0 < overshoot <= 10.0 * LAMBDA:
            failures.append(f'overshoot {overshoot:.3e} outside (0, {10.0 * LAMBDA:g}]')
    return failures


def _check_sweep(out_dir: str) -> list:
    failures = []
    with open(os.path.join(out_dir, 'sweep_delta_fit.json')) as fh:
        fit = json.load(fh)
    slope, r2 = fit.get('slope'), fit.get('r2')
    if slope is None or not slope >= SLOPE_MIN:
        failures.append(f'slope {slope} below {SLOPE_MIN}')
    if r2 is None or not r2 >= R2_MIN:
        failures.append(f'r2 {r2} below {R2_MIN}')
    with open(os.path.join(out_dir, 'sweep_delta.csv'), newline='') as fh:
        statuses = [row['status'] for row in csv.DictReader(fh)]
    if any(s != 'ok' for s in statuses):
        failures.append(f'sweep rows not ok: {statuses}')
    return failures


def check_trajectories(runs: list) -> list:
    """Conservation and energy checks on in-process run records.

    `runs` holds dicts with the diagnostics columns of each trajectory, as
    the traced pass collects them from `chd_solver.run`.  This covers the
    sweep's trajectories, which leave no per-step artifact on disk.
    """
    failures = []
    for k, run in enumerate(runs):
        if run['error'] is not None:
            failures.append(f"run {k}: solver error {run['error']}")
            continue
        for key in ('mass_drift_bulk', 'mass_drift_trace'):
            if not run[key] <= MASS_DRIFT_TOL:
                failures.append(f'run {k}: {key} = {run[key]:.3e}')
        if not run['max_energy_increment'] <= 10.0 * run['newton_tol']:
            failures.append(f"run {k}: max_energy_increment = "
                            f"{run['max_energy_increment']:.3e}")
    return failures
