'''The CLI workloads, their pinned answers and the child-process runner.

Every program under test runs as `python -m ducci.cli` (or as a child
script of this directory) with this checkout's `src` first on the
import path, one process at a time, with numeric thread pools pinned
to one thread.
'''

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / 'src'

WORKLOADS = ('verify_sweep', 'whole_space', 'point_queries')


def child_env() -> dict[str, str]:
  env = dict(os.environ)
  rest = env.get('PYTHONPATH')
  env['PYTHONPATH'] = str(SRC) + (os.pathsep + rest if rest else '')
  env['PYTHONHASHSEED'] = '0'
  for name in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS'):
    env[name] = '1'
  return env


@dataclass
class Child:
  '''One finished child process.'''

  stdout: bytes
  stderr: bytes
  code: int
  wall: float          # seconds from spawn to exit
  peak_rss_mb: float   # this child's own peak resident memory


def spawn(argv: list[str], timeout: float) -> Child:
  '''Run argv to completion; rusage comes from this pid alone (wait4).'''
  started = time.perf_counter()
  proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
  killer = threading.Timer(timeout, proc.kill)
  killer.start()
  err: list[bytes] = []
  reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
  reader.start()
  try:
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
  finally:
    killer.cancel()
    proc.stdout.close()
    proc.stderr.close()
  wall = time.perf_counter() - started
  proc.returncode = os.waitstatus_to_exitcode(status)
  return Child(out, err[0], proc.returncode, wall, usage.ru_maxrss / 1024)


def cli_argv(args: list[str]) -> list[str]:
  return [sys.executable, '-m', 'ducci.cli', *args]


def child_argv(*args: str) -> list[str]:
  return [sys.executable, str(BENCH / 'child.py'), *args]


# --- what each workload runs -----------------------------------------

def verify_args(seed: int, tiny: bool) -> list[str]:
  args = ['verify', 'all', '--seed', str(seed)]
  if tiny:
    args += ['--k-max', '2', '--l-max', '2', '--j-max', '4', '--n-max', '4',
             '--m', '3', '--n', '4', '--max-states', '64']
  return args


@dataclass(frozen=True)
class Command:
  '''One whole-space step on Z_m^n: a CLI call, or len_per_map as a
  library call when `args` is empty.'''

  label: str
  m: int
  n: int
  args: tuple[str, ...] = ()

  @property
  def states(self) -> int:
    return self.m ** self.n


def _tuple_text(seed: int, m: int, n: int) -> str:
  rng = random.Random(seed)
  return ','.join(str(rng.randrange(m)) for _ in range(n))


def whole_space_commands(seed: int, tiny: bool) -> list[Command]:
  # Z_4^8 (and Z_2^4 in the tiny list) has one weak component, so the
  # component of the seeded tuple is the whole graph whatever the seed,
  # and its digest can be pinned.
  sizes = (dict(kernel=(3, 4), summary=(3, 3), export=(2, 4), table=(3, 4))
           if tiny else
           dict(kernel=(4, 10), summary=(3, 8), export=(4, 8), table=(4, 9)))

  def cli(label, key, *args):
    m, n = sizes[key]
    return Command(label, m, n, (args[0], '--m', str(m), '--n', str(n),
                                 *args[1:]))

  em, en = sizes['export']
  return [
    cli('kernel', 'kernel', 'kernel'),
    cli('graph_json', 'summary', 'graph', '--format', 'json'),
    cli('graph_dot', 'export', 'graph', '--format', 'dot'),
    cli('graph_csv', 'export', 'graph', '--format', 'csv'),
    cli('graph_component', 'export', 'graph', '--component',
        _tuple_text(seed, em, en)),
    Command('len_per_map', *sizes['table']),
  ]


# sha256 of each command's stdout (of the digest text for len_per_map),
# pinned at the commit that added this benchmark.  The machine formats
# are meant to stay byte-identical.
DIGESTS = {
  False: {
    'kernel':
      'c0d59f021e1d08f0e6c20483d9b47fa1b9068d67f491d45584441f814a0dcadc',
    'graph_json':
      'a450c7fc74f9c713ca4882af26377fb225611c6eee714cb51e4d5e96cc129e9d',
    'graph_dot':
      'b47d93e81ce75c96154af3432c56779b85ad3c9196605907d33c1b720058d9e7',
    'graph_csv':
      'e18b6f8adad04673518fbb08a422278409b35c0562e747d7244d020e0ef1e241',
    'graph_component':
      'b47d93e81ce75c96154af3432c56779b85ad3c9196605907d33c1b720058d9e7',
    'len_per_map':
      'afc35d0518b2982e76bc5e804d3fb5e9befa63135ff5fa095966f4a50f593794',
  },
  True: {
    'kernel':
      '8fc1cee4f53526923447994c7681e279f9af6149a2982f0fef9cca2fbcef5b77',
    'graph_json':
      '26460eba200e282d7601fb104a7a22424ed152eeae47c2e69876959a45dbf509',
    'graph_dot':
      '62fdeb924b19b9a8626519921055538a4c0ec9ba1f2b540ff428bb0fdb062104',
    'graph_csv':
      '87dc125760f5e5525224f64c5538f7986a556ae5217db8f08f275f9676816273',
    'graph_component':
      '62fdeb924b19b9a8626519921055538a4c0ec9ba1f2b540ff428bb0fdb062104',
    'len_per_map':
      '2ad4b14c6c368c9443a65533c8f14ebf2ddeaeed52f0aaed3f5da59235b05249',
  },
}


def digest(data: bytes) -> str:
  return hashlib.sha256(data).hexdigest()


def len_per_map_text(mapping) -> bytes:
  '''Canonical text of a len_per_map result: "state len per" lines.'''
  return ''.join(f'{",".join(map(str, state))} {length} {per}\n'
                 for state, (length, per) in mapping.items()).encode()


# --- checking answers ------------------------------------------------

@dataclass
class Tally:
  '''Operations of one round and what became of them.'''

  attempted: int = 0
  failed: int = 0
  capped: int = 0
  items: int = 0
  notes: list[str] = field(default_factory=list)

  def add(self, other: 'Tally') -> None:
    self.attempted += other.attempted
    self.failed += other.failed
    self.capped += other.capped
    self.items += other.items
    self.notes += other.notes


def check_verify(stdout: bytes, code: int) -> Tally:
  '''Operations are cases.  Failed: every case with verdict fail, plus
  one for an exit code other than 0 or 3 or unreadable output.  Capped:
  the cap skips.  Items: the cases decided (pass or fail).'''
  tally = Tally()
  try:
    cases = [case for line in stdout.decode().splitlines()
             for case in json.loads(line)['cases']]
  except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
    cases = []
    tally.notes.append(f'verify output unreadable: {exc}')
  for case in cases:
    verdict = case.get('verdict')
    tally.attempted += 1
    if verdict == 'fail':
      tally.failed += 1
      tally.notes.append(f'verify case failed: {case.get("params")}')
    if verdict in ('pass', 'fail'):
      tally.items += 1
    elif str(case.get('reason', '')).startswith('cap'):
      tally.capped += 1
  if code not in (0, 3) or not cases:
    tally.attempted += 1
    tally.failed += 1
    tally.notes.append(f'verify exited {code} with {len(cases)} cases')
  return tally


def check_command(command: Command, sha256: str, code: int,
                  tiny: bool) -> Tally:
  '''One operation; failed unless it exits 0 with the pinned digest.'''
  want = DIGESTS[tiny][command.label]
  tally = Tally(attempted=1, items=command.states)
  if code != 0 or sha256 != want:
    tally.failed = 1
    tally.notes.append(f'{command.label}: exit {code}, sha256 {sha256}, '
                       f'pinned {want}')
  return tally
