"""Command-line front end: `chb <command> <config.json>`, one command per
entry of `COMMANDS`.

Exit codes: 0 ok, 2 validation or configuration failure (every
experiment validates its data) or an artifact that cannot be written, 3
solver failure inside a step, 4 experiment assertion failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import harness
from . import monotone_graphs as mg
from .errors import ChbError, ConfigError, SolveFailure
from .harness import _fmt

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_ASSERTION = 4


def _cmd_solve(cfg) -> int:
    summary = harness.run_single(cfg)
    for key in ('final_mass_bulk', 'final_mass_trace', 'mass_drift_bulk',
                'mass_drift_trace', 'energy_drop', 'max_energy_increment'):
        print(f'{key} = {_fmt(summary[key])}')
    print(f'artifacts in {cfg.out_dir}')
    return EXIT_OK


def _cmd_sweep_delta(cfg) -> int:
    report = harness.sweep_delta(cfg)
    for row in report.rows:
        e = 'n/a' if row.e is None else _fmt(row.e)
        print(f'delta {_fmt(row.delta)}  e {e}  [{row.status}]')
    if report.slope is not None:
        print(f'slope {_fmt(report.slope)}  intercept {_fmt(report.intercept)}  '
              f'r2 {_fmt(report.r2)}')
    if report.message:
        print(report.message)

    gates = (('slope', cfg.sweep_delta.assert_slope, report.slope),
             ('r2', cfg.sweep_delta.assert_r2, report.r2))
    for name, want, got in gates:
        if want is not None and (got is None or got < want):
            print(f'assertion failed: {name} below {want}')
            return EXIT_ASSERTION
    return EXIT_OK


def _cmd_stability(cfg) -> int:
    report = harness.stability_experiment(cfg)
    for row in report.rows:
        print(f'amplitude {_fmt(row.amplitude)}  sup LHS/RHS {_fmt(row.sup_ratio)}'
              f'  [{row.status}]')
    if report.band is not None:
        print(f'ratio band {_fmt(report.band)} (limit {_fmt(report.band_limit)})')
    if not report.band_ok:
        print('assertion failed: continuous-dependence ratios outside the band')
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_sweep_lambda(cfg) -> int:
    report = harness.sweep_lambda(cfg)
    for row in report.rows:
        print(f'lambda {_fmt(row.lambda_high)} -> {_fmt(row.lambda_low)}: '
              f'bulk {_fmt(row.diff_bulk_l2v)}  trace {_fmt(row.diff_trace_l2h)}')
    if not report.monotone:
        print('assertion failed: successive differences are not decreasing')
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_graph_check(cfg) -> int:
    problem = cfg.problem
    dom = mg.check_domination(problem.bulk_graph, problem.boundary_graph)
    growth = mg.check_same_growth(problem.bulk_graph, problem.boundary_graph)
    out = {'domination': dataclasses.asdict(dom), 'same_growth': dataclasses.asdict(growth)}
    print(json.dumps(out, indent=2))
    return EXIT_OK if dom.feasible else EXIT_VALIDATION


# name -> (help, the config's `experiment`, handler) of each subcommand
COMMANDS = {
    'solve': ('run one trajectory and write artifacts', 'single', _cmd_solve),
    'sweep-delta': ('surface-diffusion sweep with rate fit', 'sweep_delta', _cmd_sweep_delta),
    'stability': ('continuous-dependence paired runs', 'stability', _cmd_stability),
    'sweep-lambda': ('viscosity ladder successive differences', 'sweep_lambda', _cmd_sweep_lambda),
    'graph-check': ('domination and same-growth verdicts', 'graph_check', _cmd_graph_check),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='chb',
        description='Cahn-Hilliard solver with dynamic boundary condition '
                    'on the unit disk: runs and experiment sweeps.')
    sub = parser.add_subparsers(dest='command', required=True)
    for name, (help_text, *_) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument('config', help='experiment config JSON file')
        sp.add_argument('--out', help='output directory (overrides config)')
        sp.add_argument('--stride', type=int, help='trajectory dump stride')
        sp.add_argument('--plots', action='store_true', help='also emit SVG charts')
        sp.add_argument('--workers', type=int, help='parallel run workers')
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, experiment, handler = COMMANDS[args.command]
    try:
        cfg = harness.load_config(args.config, dir=args.out, stride=args.stride,
                                  plots=args.plots or None, workers=args.workers)
        if cfg.experiment != experiment:
            raise ConfigError(f'chb {args.command} needs experiment {experiment!r}, '
                              f'not {cfg.experiment!r}')
        return handler(cfg)
    except SolveFailure as exc:
        at = '' if exc.t is None else f' (failed step target time {_fmt(exc.t)})'
        print(f'solver failure: {exc}{at}', file=sys.stderr)
        return EXIT_SOLVER
    except (ChbError, OSError) as exc:     # OSError: an artifact could not be written
        print(f'error: {exc}', file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == '__main__':
    sys.exit(main())
