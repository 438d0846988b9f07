"""Spans around the calls into each chb module, and the per-layer metrics
derived from them.

A `Tracer` replaces the module and class attributes that callers look up
at each layer boundary with timing wrappers, and puts the originals back
when it exits.  Every wrapped call records a span (name, start, end,
parent, run id); spans stay in memory until the traced run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import pickle
import statistics
import time


class _ByteCounter:
    """File-like sink that only counts what pickle writes into it."""

    def __init__(self):
        self.n = 0

    def write(self, data):
        self.n += len(data)
        return len(data)


def pickled_bytes(obj) -> int:
    counter = _ByteCounter()
    pickle.dump(obj, counter, protocol=pickle.DEFAULT_PROTOCOL)
    return counter.n


def _targets():
    """(owner, attribute, span name) for every wrapped layer boundary."""
    from chb import chd_solver, cli, disk_grid, dual_norms, harness, monotone_graphs
    out = [(cli, 'main', 'cli.main')]
    for attr in ('run_single', 'sweep_delta', '_run_many', '_execute_run'):
        out.append((harness, attr, 'harness.run'))
    for attr in ('_write_bulk_csv', '_write_trace_csv', '_write_diagnostics_csv',
                 '_write_sweep_artifacts'):
        out.append((harness, attr, 'harness.write'))
    out += [
        (chd_solver, 'run', 'chd_solver.run'),
        (chd_solver.NewtonStepper, '__init__', 'chd_solver.stepper_setup'),
        (chd_solver.NewtonStepper, 'step', 'chd_solver.step'),
        (chd_solver, 'energy', 'chd_solver.energy'),
    ]
    for attr in ('yosida', 'yosida_derivative', 'yosida_primitive'):
        out.append((monotone_graphs, attr, 'monotone_graphs.yosida'))
    for attr in ('resolvent', '_resolvent_power', '_log_resolvent_y'):
        out.append((monotone_graphs, attr, 'monotone_graphs.resolvent'))
    for attr in ('neumann_laplacian_matrix', 'dirichlet_laplacian_matrices',
                 'circle_laplacian_matrix', 'stiffness_matrix_bulk'):
        out.append((disk_grid, attr, 'disk_grid.assembly'))
    for attr in ('h1_seminorm_bulk', 'h1_seminorm_trace'):
        out.append((disk_grid, attr, 'disk_grid.seminorm'))
    out.append((dual_norms.NormToolkit, '__init__', 'dual_norms.toolkit_setup'))
    for attr in ('dual_norm_bulk', 'dual_norm_trace', 'h_half_norm_trace'):
        out.append((dual_norms.NormToolkit, attr, 'dual_norms.norm'))
    out.append((dual_norms.NormToolkit, 'f_inverse_bulk', 'dual_norms.poisson'))
    out.append((dual_norms, 'v_norm_bulk', 'dual_norms.norm'))
    return out


class _TracedLU:
    """Proxy for a SuperLU object that times each triangular solve."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._solve = tracer.wrap('chd_solver.backsolve', lu.solve)

    def solve(self, *args, **kwargs):
        return self._solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Context manager that wraps chb's layer boundaries while active.

    Attributes after the traced code ran:
      spans  -- list of (name, start, end, parent index or -1, run id)
      runs   -- one record per `chd_solver.run` call (diagnostics summary)
      newton_iters, lu_nnz -- counts observed at the boundaries
      run_many_results -- results that `harness._run_many` returned
    """

    def __init__(self):
        self.spans = []
        self.runs = []
        self.newton_iters = 0
        self.lu_nnz = []
        self.run_many_results = []
        self._stack = []
        self._run_id = 0
        self._next_run_id = 1
        self._saved = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self._run_id)
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _wrap_run(self, fn):
        traced = self.wrap('chd_solver.run', fn, observe=self._observe_run)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self._run_id
            self._run_id = self._next_run_id
            self._next_run_id += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._run_id = outer
        return wrapper

    def _observe_run(self, args, result):
        rows = result.diagnostics.rows
        self.runs.append({
            'steps': len(rows) - 1,
            'error': None if result.error is None else str(result.error),
            'mass_drift_bulk': max(abs(r.mass_bulk - rows[0].mass_bulk) for r in rows),
            'mass_drift_trace': max(abs(r.mass_trace - rows[0].mass_trace) for r in rows),
            'max_energy_increment': max((r.d_energy for r in rows[1:]), default=0.0),
            'newton_tol': args[1].newton_tol,
        })

    def _observe_step(self, args, result):
        self.newton_iters += result[4]

    def _observe_run_many(self, args, result):
        self.run_many_results.extend(result)

    def _splu(self, fn):
        factorize = self.wrap('chd_solver.factorize', fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = factorize(*args, **kwargs)
            self.lu_nnz.append(int(lu.nnz))
            return _TracedLU(lu, self)
        return wrapper

    def __enter__(self):
        from chb import chd_solver
        observers = {'chd_solver.step': self._observe_step}
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            if name == 'chd_solver.run':
                replacement = self._wrap_run(original)
            elif attr == '_run_many':
                replacement = self.wrap(name, original, self._observe_run_many)
            else:
                replacement = self.wrap(name, original, observers.get(name))
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        self._saved.append((chd_solver, 'splu', chd_solver.splu))
        chd_solver.splu = self._splu(chd_solver.splu)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# analysis

def self_times(spans) -> list:
    """Self time of each span: duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    best = 50.0
    for p in (75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


SELF_TIME_METRICS = {
    'cli.main_s': ('cli.main',),
    'harness.run_many_s': ('harness.run',),
    'harness.artifact_write_s': ('harness.write',),
    'chd_solver.run_s': ('chd_solver.run',),
    'chd_solver.newton_s': ('chd_solver.step',),
    'chd_solver.backsolve_s': ('chd_solver.backsolve',),
    'chd_solver.factorize_s': ('chd_solver.factorize',),
    'chd_solver.energy_s': ('chd_solver.energy',),
    'chd_solver.stepper_setup_s': ('chd_solver.stepper_setup',),
    'monotone_graphs.yosida_s': ('monotone_graphs.yosida', 'monotone_graphs.resolvent'),
    'disk_grid.assembly_s': ('disk_grid.assembly',),
    'disk_grid.seminorm_s': ('disk_grid.seminorm',),
    'dual_norms.toolkit_setup_s': ('dual_norms.toolkit_setup',),
    'dual_norms.norm_s': ('dual_norms.norm', 'dual_norms.poisson'),
}


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer self times, step-time percentiles and exact counts.

    Returns {'times': {name: value}, 'counts': {name: value},
    'step_tail_percentile': p, 'steps': n}.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name = {}
    for (name, *_), t in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
    times = {metric: sum(by_name.get(n, 0.0) for n in names)
             for metric, names in SELF_TIME_METRICS.items()}

    step_ms = [(end - start) * 1e3 for name, start, end, _, _ in spans
               if name == 'chd_solver.step']
    tail = tail_percentile(len(step_ms))
    times['chd_solver.step_ms_p50'] = statistics.median(step_ms) if step_ms else 0.0
    times['chd_solver.step_ms_tail'] = percentile(step_ms, tail) if step_ms else 0.0

    names = [s[0] for s in spans]
    resolvent_solves = sum(
        1 for name, _, _, parent, _ in spans
        if name == 'monotone_graphs.resolvent'
        and (parent < 0 or names[parent] != 'monotone_graphs.resolvent'))
    counts = {
        'chd_solver.newton_iters': tracer.newton_iters,
        'chd_solver.backsolves': names.count('chd_solver.backsolve'),
        'chd_solver.lu_factorizations': names.count('chd_solver.factorize'),
        'chd_solver.lu_nnz': max(tracer.lu_nnz, default=0),
        'monotone_graphs.yosida_calls': names.count('monotone_graphs.yosida'),
        'monotone_graphs.resolvent_calls': resolvent_solves,
        'dual_norms.norm_calls': names.count('dual_norms.norm'),
        'harness.artifact_mb': artifact_bytes / 1e6,
        'harness.result_pickle_mb':
            sum(pickled_bytes(r) for r in tracer.run_many_results) / 1e6,
    }
    return {'times': times, 'counts': counts,
            'step_tail_percentile': tail, 'steps': len(step_ms)}
