"""Child processes of the benchmark that run `chb.cli.main` in-process.

    python3 child.py probe RESULT -- CLI-ARGS...
        Runs the CLI until the first Newton step is about to begin, writes
        the `time.monotonic()` of that moment to RESULT and exits 0.  The
        parent subtracts its own clock reading taken just before it started
        this process, which gives the set-up time through the real CLI path.

    python3 child.py trace RESULT SPANS -- CLI-ARGS...
        Runs the CLI with every layer boundary wrapped (see tracing.py),
        then writes the per-layer metrics and run records to RESULT and the
        raw spans to SPANS.  Exits with the CLI's exit code.

The chb package is imported from PYTHONPATH, which the parent points at
the checkout's `src`.
"""

from __future__ import annotations

import json
import os
import sys
import time


class _FirstStep(BaseException):
    """Raised at the first Newton step; not an error chb could catch."""


def _probe(result_path, cli_args):
    from chb import chd_solver, cli

    def first_step(self, *args, **kwargs):
        raise _FirstStep(time.monotonic())

    chd_solver.NewtonStepper.step = first_step
    try:
        cli.main(cli_args)
    except _FirstStep as stop:
        with open(result_path, 'w') as fh:
            json.dump({'first_step_monotonic': stop.args[0]}, fh)
        return 0
    print('probe: the CLI returned before any Newton step', file=sys.stderr)
    return 1


def _trace(result_path, spans_path, out_dir, cli_args):
    from chb import cli
    import tracing
    import workloads

    with tracing.Tracer() as tracer:
        code = cli.main(cli_args)
    main_end = time.monotonic()

    # CSV only: summary.json records the run's wall time, so its size varies.
    artifact_bytes = sum(entry.stat().st_size for entry in os.scandir(out_dir)
                         if entry.name.endswith('.csv'))
    result = {
        'exit_code': code,
        'main_end_monotonic': main_end,
        'runs': tracer.runs,
        'trajectory_failures': workloads.check_trajectories(tracer.runs),
        'n_spans': len(tracer.spans),
        **tracing.layer_metrics(tracer, artifact_bytes),
    }
    with open(spans_path, 'w') as fh:
        json.dump({'fields': ['name', 'start', 'end', 'parent', 'run_id'],
                   'spans': tracer.spans}, fh)
    with open(result_path, 'w') as fh:
        json.dump(result, fh)
    return code


def main(argv):
    split = argv.index('--')
    head, cli_args = argv[:split], argv[split + 1:]
    if head[0] == 'probe':
        return _probe(head[1], cli_args)
    if head[0] == 'trace':
        out_dir = cli_args[cli_args.index('--out') + 1]
        return _trace(head[1], head[2], out_dir, cli_args)
    raise SystemExit(f'unknown mode {head[0]!r}')


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
