'''The ducci benchmark: one workload, one seed, one JSON result.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures that checkout's `src`.
Workloads (see BENCHMARK.json for why each was chosen):

  verify_sweep   `ducci verify all --seed N` as a child process
  whole_space    whole-state-space commands and machine-format exports,
                 each a child process
  point_queries  a closed loop of seeded single-state library calls,
                 in a child process

A round is one pass over the workload in fresh processes, so module
caches start cold.  Rounds repeat until S seconds have passed; the
result reports medians over rounds.  With --trace 0 the last stdout
line holds the end-to-end metrics; with --trace 1 it holds per-layer
metrics from in-process rounds that wrap each module's functions (see
spans.py).  The line before it records what code was measured and
the samples behind each median.  The exit code is 0 when every answer
checked out, 1 when one did not and 2 when the benchmark could not
run.
'''

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans
import workloads
from workloads import Child, Tally

# Set-up is measured twice before every round and at least this many
# times in all.
SETUP_SAMPLES = 10
# A run stops starting children this many seconds after it began, so a
# slow or hung program still ends the run well inside 180 seconds.
RUN_BUDGET_S = 170.0

END_TO_END = {
  'wall_s': 's', 'items_per_s': '1/s', 'op_p50_ms': 'ms', 'op_p95_ms': 'ms',
  'peak_rss_mb': 'MB', 'setup_s': 's', 'uncapped_ratio': 'ratio',
}


class BenchError(Exception):
  '''The benchmark cannot run here; no result is printed.'''


class Run:
  def __init__(self, workload: str, seed: int, tiny: bool):
    self.workload, self.seed, self.tiny = workload, seed, tiny
    self.started = time.perf_counter()

  def spawn(self, argv: list[str]) -> Child:
    left = RUN_BUDGET_S - (time.perf_counter() - self.started)
    return workloads.spawn(argv, max(left, 1.0))

  def child_json(self, *args: str) -> tuple[dict | None, Child]:
    argv = [*args, '--tiny'] if self.tiny else list(args)
    child = self.spawn(workloads.child_argv(*argv))
    if child.code != 0:
      sys.stderr.write(child.stderr.decode(errors='replace')[-2000:])
      return None, child
    return json.loads(child.stdout.decode().splitlines()[-1]), child

  def setup(self) -> dict:
    found, child = self.child_json('setup', self.workload, str(self.seed))
    if found is None:
      raise BenchError(f'cannot import ducci from {workloads.SRC} '
                       f'(exit {child.code})')
    if not os.path.realpath(found['ducci_file']).startswith(
        os.path.realpath(workloads.SRC) + os.sep):
      raise BenchError(f'ducci came from {found["ducci_file"]}, '
                       f'not from {workloads.SRC}')
    return found

  # --- untraced rounds ------------------------------------------------

  def round(self, index: int) -> dict:
    if self.workload == 'verify_sweep':
      child = self.spawn(workloads.cli_argv(
        workloads.verify_args(self.seed, self.tiny)))
      return dict(wall=child.wall, ops_ms=[child.wall * 1000],
                  rss=child.peak_rss_mb,
                  tally=workloads.check_verify(child.stdout, child.code))
    if self.workload == 'whole_space':
      return self._whole_space_round()
    found, child = self.child_json('run', self.workload, str(self.seed),
                                   str(index), 'off')
    if found is None:
      return dict(wall=child.wall, ops_ms=[], rss=child.peak_rss_mb,
                  tally=Tally(1, 1, notes=[f'queries exited {child.code}']))
    return dict(wall=found['wall'], ops_ms=found['ops_ms'],
                rss=child.peak_rss_mb, tally=Tally(**found['tally']))

  def _whole_space_round(self) -> dict:
    tally, ops, rss = Tally(), [], []
    for command in workloads.whole_space_commands(self.seed, self.tiny):
      if not command.args:
        found, child = self.child_json('len_per_map', str(command.m),
                                       str(command.n))
        sha256 = found['sha256'] if found else ''
        wall = child.wall - (found['check_s'] if found else 0.0)
      else:
        child = self.spawn(workloads.cli_argv(list(command.args)))
        sha256, wall = workloads.digest(child.stdout), child.wall
      tally.add(workloads.check_command(command, sha256, child.code,
                                        self.tiny))
      ops.append(wall * 1000)
      rss.append(child.peak_rss_mb)
    return dict(wall=sum(ops) / 1000, ops_ms=ops, rss=max(rss), tally=tally)

  def measure(self, seconds: float) -> tuple[dict, Tally, dict]:
    '''Rounds until `seconds` have passed, each after two set-up
    samples.  Every metric is a median over rounds (over set-up samples
    for setup_s), so a slow spell of the host moves few of them.'''
    rounds, setups = [], []
    begun = time.perf_counter()
    while (len(setups) < SETUP_SAMPLES
           or time.perf_counter() - begun < seconds):
      setups += [self.setup() for _ in range(2)]
      if not rounds or time.perf_counter() - begun < seconds:
        rounds.append(self.round(len(rounds)))
    tally = Tally()
    for r in rounds:
      tally.add(r['tally'])
    samples = {
      'wall_s': [r['wall'] for r in rounds],
      'items_per_s': [r['tally'].items / r['wall'] for r in rounds],
      'op_p50_ms': [percentile(r['ops_ms'], 50) for r in rounds],
      'op_p95_ms': [percentile(r['ops_ms'], 95) for r in rounds],
      'peak_rss_mb': [r['rss'] for r in rounds],
      'setup_s': [found['setup_s'] for found in setups],
    }
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics['uncapped_ratio'] = 1 - tally.capped / max(tally.attempted, 1)
    return {name: {'value': metrics[name], 'unit': unit}
            for name, unit in END_TO_END.items()}, tally, samples

  # --- traced rounds ----------------------------------------------------

  def _pass(self, trace: str, tally: Tally) -> dict | None:
    found, child = self.child_json('run', self.workload, str(self.seed), '0',
                                   trace)
    if found is None:
      tally.add(Tally(1, 1, notes=[f'{trace} round exited {child.code}']))
      return None
    tally.add(Tally(**found['tally']))
    return found

  def trace(self, seconds: float) -> tuple[dict, Tally, dict]:
    '''Per-layer metrics: timing spans and counts from `time` rounds,
    retained memory from one `mem` round, overhead against `off`
    rounds of the same in-process code.'''
    tally = Tally()
    plain, timed = [], []
    begun = time.perf_counter()
    while not timed or time.perf_counter() - begun < seconds:
      plain.append(self._pass('off', tally))
      timed.append(self._pass('time', tally))
    memory = self._pass('mem', tally)
    plain = [p for p in plain if p]
    timed = [t for t in timed if t]
    values: dict[str, float] = {}
    for name in spans.metric_units():
      samples = [t['layers'].get(name, 0) for t in timed] or [0]
      values[name] = statistics.median(samples)
      if name.endswith('.retained_kb'):
        values[name] = memory['layers'].get(name, 0) if memory else 0
    if plain and timed:
      values['trace.overhead_ratio'] = (
        statistics.median(t['wall'] for t in timed)
        / statistics.median(p['wall'] for p in plain))
    samples = {'off_wall_s': [p['wall'] for p in plain],
               'time_wall_s': [t['wall'] for t in timed]}
    return {name: {'value': values.get(name, 0), 'unit': unit}
            for name, unit in spans.metric_units().items()}, tally, samples


def percentile(values: list[float], pct: int) -> float:
  if len(values) < 2:
    return values[0] if values else 0.0
  return statistics.quantiles(values, n=100, method='inclusive')[pct - 1]


def provenance(found: dict, args) -> dict:
  src = workloads.SRC / 'ducci'
  code = hashlib.sha256()
  for path in sorted(src.glob('*.py')):
    code.update(path.name.encode() + b'\0' + path.read_bytes())
  git_commit = None
  if (workloads.ROOT / '.git').exists():
    try:
      commit = subprocess.run(['git', 'rev-parse', 'HEAD'],
                              cwd=workloads.ROOT, capture_output=True,
                              text=True, timeout=10)
      git_commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
      pass
  return {
    'workload': args.workload, 'seed': args.seed, 'seconds': args.seconds,
    'trace': args.trace, 'ducci_file': found['ducci_file'],
    'src_sha256': code.hexdigest(), 'git_commit': git_commit,
    'python': platform.python_version(), 'numpy': found['numpy'],
    'nproc': len(os.sched_getaffinity(0)),
  }


def execute(args, tiny: bool = False) -> tuple[dict, dict]:
  '''Run one benchmark invocation; return (provenance, result).'''
  if not (workloads.SRC / 'ducci' / '__init__.py').is_file():
    raise BenchError(f'no ducci package under {workloads.SRC}')
  runner = Run(args.workload, args.seed, tiny)
  # The first import compiles the package; keep it out of the samples.
  found = runner.setup()
  if args.trace:
    metrics, tally, samples = runner.trace(args.seconds)
  else:
    metrics, tally, samples = runner.measure(args.seconds)
  for note in tally.notes[:20]:
    print(f'check failed: {note}', file=sys.stderr)
  result = {'correct': tally.failed == 0, 'attempted': max(tally.attempted, 1),
            'failed': tally.failed, 'metrics': metrics}
  return {**provenance(found, args), 'samples': samples}, result


def parse_args(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
  parser.add_argument('--workload', required=True, choices=workloads.WORKLOADS)
  parser.add_argument('--seed', type=int, required=True)
  parser.add_argument('--seconds', type=float, required=True)
  parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
  return parser.parse_args(argv)


def main(argv=None) -> int:
  args = parse_args(argv)
  try:
    info, result = execute(args)
  except BenchError as exc:
    print(f'error: {exc}', file=sys.stderr)
    return 2
  print(json.dumps({'provenance': info}))
  print(json.dumps(result))
  return 0 if result['correct'] else 1


if __name__ == '__main__':
  sys.exit(main())
