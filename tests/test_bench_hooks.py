"""The names the benchmark's tracer (perfbench/tracing.py) wraps must exist
where it looks them up, `NewtonStepper.step` must keep returning the
Newton iteration count at index 4, and `harness._run_many` must keep
returning a list (the tracer extends its own list with it, which would use
up a generator).  Only the traced benchmark pass (`--trace 1`) would notice
otherwise, and it is not part of this suite."""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from chb import chd_solver as cs
from chb import disk_grid as dg
from chb import harness
from chb import monotone_graphs as mg

_TRACING = Path(__file__).resolve().parent.parent / 'perfbench' / 'tracing.py'


def _tracing():
    spec = importlib.util.spec_from_file_location('perfbench_tracing', _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cubic():
    problem = cs.preset_problem('cubic', dg.DiskGrid(8, 16))
    return problem, cs.SolverConfig(delta=0.5, lam=1e-2, dt=1e-3, t_end=3e-3)


def test_tracer_targets_are_defined_where_it_looks():
    targets = _tracing()._targets()
    missing = [f'{getattr(owner, "__name__", owner)}.{attr}'
               for owner, attr, _ in targets if attr not in owner.__dict__]
    assert missing == []
    assert 'splu' in cs.__dict__      # the tracer also wraps the factorization


def test_stepper_step_returns_iterations_at_index_4():
    problem, config = _cubic()
    stepper = cs.NewtonStepper(problem, config, config.dt)
    out = stepper.step(0.0, problem.u0, problem.v0, cs.initial_state(problem))
    assert len(out) == 6
    assert isinstance(out[4], int) and out[4] > 0
    assert out[4] == cs.run(problem, config).diagnostics.rows[1].newton_iters


def _problem(name):
    if name == 'quintic':
        quintic = mg.power_odd(5, 1.0)
        return replace(cs.preset_problem('cubic', dg.DiskGrid(8, 16)),
                       bulk_graph=quintic, boundary_graph=quintic)
    return cs.preset_problem(name, dg.DiskGrid(8, 16))


@pytest.mark.parametrize('name', [*cs.PRESET_NAMES, 'quintic'])
def test_tracer_counts_the_run_and_restores_the_names(name):
    tracing = _tracing()
    problem, config = _problem(name), _cubic()[1]
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in tracing._targets()}
    with tracing.Tracer() as tracer:
        result = cs.run(problem, config)
    assert tracer.newton_iters == sum(r.newton_iters for r in result.diagnostics.rows) > 0
    assert len(tracer.runs) == 1 and tracer.runs[0]['steps'] == 3
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in originals.items())
    # every Yosida map is one resolvent solve, and a root-found resolvent
    # runs its solve in the inner function the tracer times
    counts = tracing.layer_metrics(tracer, 0)['counts']
    assert counts['monotone_graphs.resolvent_calls'] == counts['monotone_graphs.yosida_calls'] > 0
    spans = tracer.spans
    solves = [k for k, (span, _, _, parent, _) in enumerate(spans)
              if span == 'monotone_graphs.resolvent'
              and (parent < 0 or spans[parent][0] != 'monotone_graphs.resolvent')]
    inner = [sum(1 for span, _, _, parent, _ in spans if parent == k) for k in solves]
    assert set(inner) == {1 if problem.bulk_graph.kind in ('power_odd', 'logarithmic') else 0}


@pytest.mark.parametrize('workers', [1, 2])
def test_run_many_returns_a_list(tmp_path, workers):
    problem, config = _cubic()
    results = harness._run_many([(problem, config, tmp_path / f'{k}.levels') for k in range(2)],
                                workers)
    assert type(results) is list and len(results) == 2
    assert all(r.error is None and len(r.diagnostics.rows) == 4 for r in results)
