"""Benchmark of the chb CLI on three experiment workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; chb is imported from `src/` there.

--trace 0 runs the workload's `chb` command in fresh subprocesses, again and
again while another run still fits in S seconds, and reports the medians of
wall time, CPU time and peak resident memory, plus the median set-up time of
five probe processes that stop when the first time step is about to begin.

--trace 1 runs the workload twice untraced and twice with every layer
boundary wrapped (tracing.py), alternating, and reports per-layer self times,
exact counts and the tracing overhead.  The traced passes use one worker, since
the wrappers cannot follow a run into a pool worker.

Every run's outputs are checked (workloads.py).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A fuller record (provenance, per-repetition figures, artifact hashes) goes
to `.perfbench/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / '.perfbench' / 'results'
PROBES = 5
TOTAL_BUDGET_S = 165.0   # processes still running then are killed, to end within 180 s


# ---------------------------------------------------------------------------
# processes

def _env() -> dict:
    env = dict(os.environ)
    env['PYTHONPATH'] = str(ROOT / 'src')
    for var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):
        env[var] = '1'
    return env


def _reap_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_process(argv: list, log_dir: Path, timeout: float) -> dict:
    """Run argv in its own process group and measure it.

    Wall time runs from just before the spawn to the reaping of the process;
    CPU time and peak RSS come from `os.wait4`, which on Linux covers the
    process and every descendant it waited for (e.g. pool workers).  Peak
    RSS is the largest single process of that tree, not their sum.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / 'stdout.txt', 'wb') as out, open(log_dir / 'stderr.txt', 'wb') as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=log_dir, env=_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, _reap_group, args=(proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            end = time.monotonic()
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    return {
        'start_monotonic': start,
        'wall_s': end - start,
        'cpu_s': usage.ru_utime + usage.ru_stime,
        'peak_rss_mb': usage.ru_maxrss * 1024 / 1e6,
        'exit_code': proc.returncode,
    }


def cli_args(workload: wl.Workload, config_path: Path, out_dir: Path,
             workers: int | None = None) -> list:
    args = [workload.command, str(config_path), '--out', str(out_dir)]
    if workers is not None:
        args += ['--workers', str(workers)]
    return args


@dataclass
class Work:
    """Scratch directory of one invocation and the deadline for its processes."""
    root: Path
    deadline: float

    def prepare(self, tag: str, config: dict) -> tuple:
        run_dir = self.root / tag
        out_dir = run_dir / 'out'
        run_dir.mkdir(parents=True)
        config_path = run_dir / 'config.json'
        config_path.write_text(json.dumps(config, indent=1))
        return run_dir, out_dir, config_path

    def run(self, argv: list, run_dir: Path) -> dict:
        return run_process(argv, run_dir, max(0.0, self.deadline - time.monotonic()))


def untraced_run(work, tag, workload, config, workers=None) -> dict:
    """One `chb` run in a subprocess, with its outputs checked."""
    run_dir, out_dir, config_path = work.prepare(tag, config)
    argv = [sys.executable, '-m', 'chb.cli'] + cli_args(workload, config_path,
                                                         out_dir, workers)
    rec = work.run(argv, run_dir)
    rec.update(wl.check_outputs(workload, str(out_dir), rec['exit_code']))
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def setup_probe(work, tag, workload, config) -> dict:
    """Time from process start until the first Newton step can begin."""
    run_dir, out_dir, config_path = work.prepare(tag, config)
    result_path = run_dir / 'probe.json'
    argv = [sys.executable, str(HERE / 'child.py'), 'probe', str(result_path), '--'] \
        + cli_args(workload, config_path, out_dir, workers=1)
    rec = work.run(argv, run_dir)
    rec['ok'] = rec['exit_code'] == 0 and result_path.is_file()
    if rec['ok']:
        first_step = json.loads(result_path.read_text())['first_step_monotonic']
        rec['setup_s'] = first_step - rec['start_monotonic']
    return rec


def traced_run(work, tag, workload, config, spans_path) -> dict:
    """One traced in-process pass, with its outputs and trajectories checked."""
    run_dir, out_dir, config_path = work.prepare(tag, config)
    result_path = run_dir / 'trace.json'
    argv = [sys.executable, str(HERE / 'child.py'), 'trace', str(result_path),
            str(spans_path), '--'] \
        + cli_args(workload, config_path, out_dir, workers=1)
    rec = work.run(argv, run_dir)
    rec.update(wl.check_outputs(workload, str(out_dir), rec['exit_code']))
    shutil.rmtree(out_dir, ignore_errors=True)
    if not result_path.is_file():
        rec['ok'] = False
        rec['failures'].append('traced pass wrote no result')
        return rec
    trace = json.loads(result_path.read_text())
    rec['trace'] = trace
    rec['traced_wall_s'] = trace['main_end_monotonic'] - rec['start_monotonic']
    if trace['trajectory_failures']:
        rec['ok'] = False
        rec['failures'] += trace['trajectory_failures']
    return rec


# ---------------------------------------------------------------------------
# provenance

def _cpu_model() -> str | None:
    try:
        with open('/proc/cpuinfo') as fh:
            for line in fh:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / '.git').exists():
        return None
    try:
        out = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    """Hash of every file under src/, so checkouts without git are identified."""
    digest = hashlib.sha256()
    src = ROOT / 'src'
    for path in sorted(p for p in src.rglob('*') if p.is_file()
                       and '__pycache__' not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b'\0')
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        'nproc': len(os.sched_getaffinity(0)),
        'cpu_count': os.cpu_count(),
        'cpu_model': _cpu_model(),
        'python': platform.python_version(),
        'numpy': importlib.metadata.version('numpy'),
        'scipy': importlib.metadata.version('scipy'),
        'git_commit': _git_commit(),
        'source_sha256': _source_sha256(),
        'thread_env': {v: '1' for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS',
                                         'MKL_NUM_THREADS')},
    }


# ---------------------------------------------------------------------------
# the two modes

def measure(workload: wl.Workload, seed: int, seconds: float, work: Work) -> dict:
    """Untraced mode: repeated runs for `seconds`, plus set-up probes."""
    config = wl.make_config(workload, seed)
    probes = [setup_probe(work, f'probe{k}', workload, config) for k in range(PROBES)]

    # A repetition starts only if a typical one still ends within `seconds`,
    # so an invocation lasts about as long as it is told to.
    reps = []
    rep_start = time.monotonic()
    while True:
        reps.append(untraced_run(work, f'rep{len(reps)}', workload, config))
        now = time.monotonic()
        typical = statistics.median(r['wall_s'] for r in reps)
        longest = max(r['wall_s'] for r in reps)
        if now + typical - rep_start > seconds or now + 1.5 * longest > work.deadline:
            break

    setup = [p['setup_s'] for p in probes if p['ok']] or [p['wall_s'] for p in probes]
    metrics = {
        'wall_s': statistics.median(r['wall_s'] for r in reps),
        'cpu_s': statistics.median(r['cpu_s'] for r in reps),
        'peak_rss_mb': statistics.median(r['peak_rss_mb'] for r in reps),
        'setup_s': statistics.median(setup),
    }
    processes = probes + reps
    return {
        'config': config,
        'metrics': metrics,
        'attempted': len(processes),
        'failed': sum(not p['ok'] for p in processes),
        'probes': probes,
        'reps': reps,
    }


def trace(workload: wl.Workload, seed: int, work: Work, stamp: str) -> dict:
    """Traced mode: two untraced and two traced passes, alternating, one worker."""
    config = wl.make_config(workload, seed)
    warmup = setup_probe(work, 'warmup', workload, config)
    baselines, passes = [], []
    for k in range(2):
        baselines.append(untraced_run(work, f'untraced{k}', workload, config, workers=1))
        passes.append(traced_run(work, f'traced{k}', workload, config,
                                 RESULTS / f'{stamp}-spans{k}.json'))

    traces = [p['trace'] for p in passes if 'trace' in p]
    metrics = {}
    counts_repeat = len(traces) == 2 and traces[0]['counts'] == traces[1]['counts']
    if traces:
        for name in traces[0]['times']:
            metrics[name] = statistics.median(t['times'][name] for t in traces)
        metrics.update(traces[0]['counts'])
        traced_wall = statistics.median(p['traced_wall_s'] for p in passes if 'trace' in p)
        metrics['trace.overhead_s'] = \
            traced_wall - statistics.median(b['wall_s'] for b in baselines)
    processes = [warmup] + baselines + passes
    return {
        'config': config,
        'metrics': metrics,
        'attempted': len(processes),
        'failed': sum(not p['ok'] for p in processes),
        'counts_repeat': counts_repeat,
        'counts': [t['counts'] for t in traces],
        'traced_workers': 1,
        'note': 'traced passes use one worker: wrappers do not reach pool workers',
        'untraced_baselines': baselines,
        'passes': passes,
    }


def _declared_metrics(trace_on: bool) -> dict:
    spec = json.loads((ROOT / 'BENCHMARK.json').read_text())
    return {m['name']: m['unit'] for m in spec['per_layer' if trace_on else 'end_to_end']}


def benchmark(workload: wl.Workload, seed: int, seconds: float, trace_on: bool) -> dict:
    """Run one benchmark invocation and return its full record."""
    stamp = f'{workload.name}-seed{seed}-trace{int(trace_on)}-{os.getpid()}'
    work = Work(ROOT / '.perfbench' / 'work' / stamp, time.monotonic() + TOTAL_BUDGET_S)
    shutil.rmtree(work.root, ignore_errors=True)
    work.root.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        record = trace(workload, seed, work, stamp) if trace_on \
            else measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work.root, ignore_errors=True)

    units = _declared_metrics(trace_on)
    unknown = set(record['metrics']) - set(units)
    if unknown:
        raise RuntimeError(f'metrics not declared in BENCHMARK.json: {sorted(unknown)}')
    missing = set(units) - set(record['metrics'])
    if missing:   # only when a traced pass failed; the record is then incorrect
        record['failed'] = max(record['failed'], 1)
        record['metrics'].update(dict.fromkeys(missing, 0.0))
    record.update({
        'workload': workload.name,
        'seed': seed,
        'seconds': seconds,
        'trace': int(trace_on),
        'jitter': wl.jitter(workload, seed),
        'grid': {'n_r': workload.grid[0], 'n_theta': workload.grid[1]},
        'provenance': provenance(),
        'correct': record['failed'] == 0 and record.get('counts_repeat', True),
        'units': units,
    })
    (RESULTS / f'{stamp}.json').write_text(json.dumps(record, indent=1))
    return record


def summary_line(record: dict) -> dict:
    return {
        'correct': record['correct'],
        'attempted': record['attempted'],
        'failed': record['failed'],
        'metrics': {name: {'value': value, 'unit': record['units'][name]}
                    for name, value in record['metrics'].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=float, default=35.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / 'src' / 'chb' / '__init__.py').is_file():
        print(f'error: no chb sources under {ROOT / "src"}', file=sys.stderr)
        return 2
    record = benchmark(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    for rep in record.get('reps', []) + record.get('passes', []):
        if not rep['ok']:
            print(f"failed run: {rep['failures']}")
    if not record.get('counts_repeat', True):
        print('counts differ between the two traced passes')
    print(json.dumps(summary_line(record)))
    return 0


if __name__ == '__main__':
    sys.exit(main())
