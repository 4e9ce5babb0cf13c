'''Child-process entry points of the benchmark.

  child.py setup WORKLOAD SEED [--tiny]
      time `import ducci` and building the workload's systems
  child.py len_per_map M N
      len_per_map on Z_M^N as a library call, then the answer's digest
  child.py run WORKLOAD SEED ROUND off|time|mem [--tiny]
      one round of the workload in this process, with tracing off, with
      timing spans, or with timing spans and tracemalloc

Each prints one JSON object on its last stdout line.  A child never
imports ducci before its timer starts.
'''

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time

import queries
import spans
import workloads


def _systems(workload: str, seed: int, tiny: bool) -> list[tuple[int, int]]:
  if workload == 'verify_sweep':
    top = 2 if tiny else 6
    return ([(2 ** l, 2 ** k) for k in range(1, top + 1)
             for l in range(1, top + 1)]
            + [(m, n) for m in range(2, 7) for n in range(1, 9)
               if m ** n <= 1 << 16])
  if workload == 'whole_space':
    return [(c.m, c.n) for c in workloads.whole_space_commands(seed, tiny)]
  return queries.query_systems(_round_queries(seed, 0, tiny))


def _round_queries(seed: int, round_index: int, tiny: bool) -> list[tuple]:
  sizes = queries.TINY if tiny else {}
  return queries.make_queries(f'{seed}/{round_index}', **sizes)


def setup(workload: str, seed: int, tiny: bool) -> dict:
  pairs = _systems(workload, seed, tiny)
  started = time.perf_counter()
  import ducci
  import ducci.cli  # noqa: F401  the CLI workloads pay for it too
  systems = [ducci.make_system(m, n) for m, n in pairs]
  elapsed = time.perf_counter() - started
  import numpy
  return {'setup_s': elapsed, 'systems': len(systems),
          'ducci_file': ducci.__file__, 'numpy': numpy.__version__}


def len_per_map(m: int, n: int) -> dict:
  import ducci
  mapping = ducci.len_per_map(ducci.make_system(m, n))
  started = time.perf_counter()
  sha256 = workloads.digest(workloads.len_per_map_text(mapping))
  return {'sha256': sha256, 'check_s': time.perf_counter() - started}


def _cli(argv: list[str]) -> tuple[int, bytes, float]:
  import ducci.cli
  buf = io.StringIO()
  started = time.perf_counter()
  with contextlib.redirect_stdout(buf):
    code = ducci.cli.main(argv)
  return code, buf.getvalue().encode(), time.perf_counter() - started


def run(workload: str, seed: int, round_index: int, trace: str,
        tiny: bool) -> dict:
  '''One round in this process.  Timing covers only the calls into
  ducci; checking the answers happens after the tracer has stopped.'''
  tracer = None
  if trace != 'off':
    tracer = spans.Tracer(memory=trace == 'mem')
    tracer.install()
  import ducci
  ops: list[float] = []
  tally = workloads.Tally()
  if workload == 'verify_sweep':
    code, out, wall = _cli(workloads.verify_args(seed, tiny))
    ops.append(wall * 1000)
    layers = tracer.stop() if tracer else None
    tally = workloads.check_verify(out, code)
  elif workload == 'whole_space':
    done = []
    for command in workloads.whole_space_commands(seed, tiny):
      if not command.args:
        started = time.perf_counter()
        mapping = ducci.len_per_map(ducci.make_system(command.m, command.n))
        ops.append((time.perf_counter() - started) * 1000)
        done.append((command, 0, workloads.len_per_map_text(mapping)))
      else:
        code, out, wall = _cli(list(command.args))
        ops.append(wall * 1000)
        done.append((command, code, out))
    wall = sum(ops) / 1000
    layers = tracer.stop() if tracer else None
    for command, code, out in done:
      tally.add(workloads.check_command(command, workloads.digest(out), code,
                                        tiny))
  else:
    todo = _round_queries(seed, round_index, tiny)
    answers, ops, wall = queries.run_queries(todo)
    layers = tracer.stop() if tracer else None
    for query, result in zip(todo, answers):
      tally.attempted += 1
      if isinstance(result, ducci.CapExceededError):
        tally.capped += 1
      elif not isinstance(result, Exception):
        tally.items += 1
      if not queries.check(query, result):
        tally.failed += 1
        tally.notes.append(f'wrong answer {result!r:.200} to {query!r:.200}')
  return {'wall': wall, 'ops_ms': ops, 'tally': dataclasses.asdict(tally),
          'layers': layers}


def main(argv: list[str]) -> int:
  tiny = '--tiny' in argv
  args = [a for a in argv if a != '--tiny']
  mode = args[0]
  if mode == 'setup':
    result = setup(args[1], int(args[2]), tiny)
  elif mode == 'len_per_map':
    result = len_per_map(int(args[1]), int(args[2]))
  elif mode == 'run':
    result = run(args[1], int(args[2]), int(args[3]), args[4], tiny)
  else:
    print(f'unknown mode {mode!r}', file=sys.stderr)
    return 2
  print(json.dumps(result))
  return 0


if __name__ == '__main__':
  sys.exit(main(sys.argv[1:]))
