'''Smoke test of the benchmark itself, at a tiny size.

  python -m pytest bench/test_smoke.py

Runs every workload once with tracing off and once with it on, and
checks that each metric BENCHMARK.json declares is printed with its
unit, and that wrong answers are counted as failed operations.
'''

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / 'src'))
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / 'BENCHMARK.json').read_text())


def invoke(workload: str, trace: int):
  args = run.parse_args(['--workload', workload, '--seed', '3',
                         '--seconds', '0', '--trace', str(trace)])
  return run.execute(args, tiny=True)


@pytest.mark.parametrize('trace', (0, 1))
@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
  info, result = invoke(workload, trace)
  assert result['correct'] and result['failed'] == 0
  assert result['attempted'] >= 1
  declared = DECLARED['per_layer' if trace else 'end_to_end']
  assert ({name: m['unit'] for name, m in result['metrics'].items()}
          == {m['name']: m['unit'] for m in declared})
  assert all(isinstance(m['value'], (int, float))
             for m in result['metrics'].values())
  assert info['ducci_file'].startswith(str(workloads.SRC))
  assert info['numpy'] and info['python'] and info['nproc'] >= 1


def test_declared_workloads_are_the_runnable_ones():
  names = [w['name'] for w in DECLARED['workloads']]
  assert names == list(workloads.WORKLOADS)


def test_a_wrong_export_fails_the_run(monkeypatch):
  monkeypatch.setitem(workloads.DIGESTS[True], 'graph_csv', '0' * 64)
  _, result = invoke('whole_space', 0)
  assert result['failed'] == 1
  assert not result['correct']


def test_a_failed_verify_case_is_counted():
  good = (b'{"check_id":"x","cases":[{"params":{"k":1},"verdict":"pass"},'
          b'{"params":{"k":2},"verdict":"skip","reason":"cap: big"}]}\n')
  tally = workloads.check_verify(good, 3)
  assert (tally.attempted, tally.failed, tally.capped,
          tally.items) == (2, 0, 1, 1)
  bad = good.replace(b'"pass"', b'"fail"')
  assert workloads.check_verify(bad, 1).failed == 2   # the case and the exit
  assert workloads.check_verify(b'', 0).failed == 1


def _corrupt(query, result):
  kind = query[0]
  if isinstance(result, Exception):
    return ValueError('not an answer')
  if kind in ('binom', 'coeff'):
    return result + 1
  if kind in ('iter', 'apply'):
    return ((result[0] + 1) % query[1],) + result[1:]
  if kind == 'orbit':
    return dataclasses.replace(result, per=result.per + 1)
  if kind == 'basic':
    return (result[0] + 1, result[1])
  return result + result[:1] if result else [query[3]]


def test_every_wrong_query_answer_is_caught():
  # The last query is past COMB_N_MAX, so Pascal's rule checks it.
  todo = queries.make_queries('smoke', **queries.TINY)
  todo.append(('binom', 40000, 12345, 6))
  answers, _, _ = queries.run_queries(todo)
  assert {q[0] for q in todo} == {kind for kind, _ in queries.MIX}
  for query, result in zip(todo, answers):
    assert queries.check(query, result), query
    assert not queries.check(query, _corrupt(query, result)), query


def test_a_wrong_query_answer_is_counted(monkeypatch):
  real = queries.answer

  def wrong_binomials(query):
    result = real(query)
    return result + 1 if query[0] == 'binom' else result

  monkeypatch.setattr(queries, 'answer', wrong_binomials)
  tally = child.run('point_queries', 3, 0, 'off', tiny=True)['tally']
  assert tally['failed'] == dict(queries.TINY['mix'])['binom']
