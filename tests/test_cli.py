'''Command-line front end: argument handling, formats, exit codes.'''

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ducci
from ducci import (build_graph, format_tuple, kernel_set, make_system,
                   orbit_summary, predecessors, to_dot, to_edge_csv)
from ducci.cli import build_parser, main
from ducci.limits import COEFF_CELL_CAP, ENUM_NODE_CAP, ORBIT_VISIT_CAP
from ducci.verify import CHECK_NAMES, DEFAULT_SYSTEMS

# The directory that holds the imported `ducci` package (src/ in a checkout).
PACKAGE_ROOT = Path(ducci.__file__).resolve().parent.parent

# The wrapper pip writes for a `module:function` console script.
CONSOLE_SCRIPT = """\
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def run_cli(capsys, *argv):
  code = main(list(argv))
  captured = capsys.readouterr()
  return code, captured.out, captured.err


class TestStep:
  def test_single_step(self, capsys):
    code, out, err = run_cli(capsys, 'step', '--m', '4', '--n', '3',
                             '--tuple', '3,1,3')
    assert code == 0
    assert json.loads(out) == [0, 0, 2]

  def test_iterated_step_text(self, capsys):
    code, out, _ = run_cli(capsys, 'step', '--m', '4', '--n', '3',
                           '--tuple', '(3,1,3)', '--r', '2',
                           '--format', 'text')
    assert code == 0
    assert out.strip() == '(0,2,2)'

  def test_coeff_route_matches_direct(self, capsys):
    args = ['step', '--m', '4', '--n', '4', '--tuple', '1,2,3,0', '--r', '5']
    _, direct, _ = run_cli(capsys, *args)
    _, routed, _ = run_cli(capsys, *args, '--via', 'coeffs')
    assert direct == routed

  def test_coeff_route_past_the_table_cap(self, capsys):
    # 10^7 rows of 4 cells would pass the cell cap; one row does not.
    code, out, err = run_cli(capsys, 'step', '--m', '5', '--n', '4',
                             '--tuple', '1,2,3,4', '--r', '10000000',
                             '--via', 'coeffs')
    sys_, u, r = make_system(5, 4), (1, 2, 3, 4), 10 ** 7
    summary = orbit_summary(sys_, u)
    want = ducci.ducci_iter(sys_, u,
                            summary.len + (r - summary.len) % summary.per)
    assert (code, json.loads(out), err) == (0, list(want), '')

  def test_preops_apply_in_documented_order(self, capsys):
    code, out, _ = run_cli(capsys, 'step', '--m', '6', '--n', '3',
                           '--tuple', '1,2,3', '--scale', '2',
                           '--add', '0,0,1', '--shift', '1', '--r', '0')
    # scale then add then shift: (2,4,0) -> (2,4,1) -> (4,1,2)
    assert code == 0
    assert json.loads(out) == [4, 1, 2]

  def test_negative_shift_is_a_usage_error(self, capsys):
    code, out, err = run_cli(capsys, 'step', '--m', '5', '--n', '3',
                             '--tuple', '1,2,3', '--shift', '-1', '--r', '0')
    assert (code, out) == (2, '')
    assert '--shift must be >= 0' in err

  def test_shift_rotates_count_mod_n_times(self, capsys):
    # 10^18 + 1 is 2 mod 3; that many single rotations would not finish.
    code, out, _ = run_cli(capsys, 'step', '--m', '5', '--n', '3',
                           '--tuple', '1,2,3', '--shift', str(10 ** 18 + 1),
                           '--r', '0')
    assert (code, json.loads(out)) == (0, [3, 1, 2])

  def test_k_l_shorthand(self, capsys):
    code, out, _ = run_cli(capsys, 'step', '--k', '1', '--l', '2',
                           '--tuple', '3,1')
    assert code == 0
    assert json.loads(out) == [0, 0]

  def test_reduction_warns_on_stderr_only(self, capsys):
    code, out, err = run_cli(capsys, 'step', '--m', '4', '--n', '2',
                             '--tuple', '7,-1')
    assert code == 0
    assert json.loads(out) == [2, 2]   # from (3,3)
    assert 'reduced' in err
    assert 'reduced' not in out


class TestOrbit:
  def test_component_walk(self, capsys):
    code, out, _ = run_cli(capsys, 'orbit', '--m', '4', '--n', '3',
                           '--tuple', '3,1,3')
    assert code == 0
    obj = json.loads(out)
    assert obj['len'] == 2 and obj['per'] == 3
    assert obj['tail'] == [[3, 1, 3], [0, 0, 2]]
    assert obj['cycle'][0] == [0, 2, 2]

  def test_vanishes_flag(self, capsys):
    _, out, _ = run_cli(capsys, 'orbit', '--m', '4', '--n', '2',
                        '--tuple', '1,3', '--vanishes')
    assert out.strip() == 'true'
    _, out, _ = run_cli(capsys, 'orbit', '--m', '3', '--n', '2',
                        '--tuple', '1,0', '--vanishes')
    assert out.strip() == 'false'

  def test_basic(self, capsys):
    code, out, _ = run_cli(capsys, 'basic', '--k', '1', '--l', '2')
    obj = json.loads(out)
    assert (obj['len'], obj['per']) == (3, 1)
    assert obj['tuple'] == '(0,1)'

  @pytest.mark.parametrize('argv, out', [
    ('basic --k 2 --l 3', '{"tuple":"(0,0,0,1)","len":8,"per":1}\n'),
    ('basic --k 2 --l 3 --format text', 'tuple (0,0,0,1)\nlen 8\nper 1\n'),
    ('basic --m 5 --n 3 --format text', 'tuple (0,0,1)\nlen 0\nper 12\n'),
    ('orbit --m 4 --n 4 --tuple 1,2,3,0 --vanishes', 'true\n'),
    ('orbit --m 3 --n 2 --tuple 1,0 --vanishes', 'false\n'),
    ('orbit --m 7 --n 5 --tuple 1,2,3,4,5 --vanishes', 'false\n'),
    # Under either format the flag prints as its JSON spelling.
    ('orbit --m 4 --n 4 --tuple 1,2,3,0 --vanishes --format json', 'true\n'),
    ('orbit --m 4 --n 4 --tuple 1,2,3,0 --vanishes --format text', 'true\n'),
    ('orbit --m 3 --n 2 --tuple 1,0 --vanishes --format json', 'false\n'),
    ('orbit --m 3 --n 2 --tuple 1,0 --vanishes --format text', 'false\n'),
  ])
  def test_basic_and_vanishes_bytes_are_pinned(self, capsys, argv, out):
    assert run_cli(capsys, *argv.split()) == (0, out, '')

  @pytest.mark.parametrize('argv, out', [
    # An empty tail still prints its label and the space after it.
    ('orbit --m 4 --n 3 --tuple 0,2,2 --format text',
     'len 0\nper 3\ntail \ncycle (0,2,2) (2,0,2) (2,2,0)\n'),
    ('orbit --m 4 --n 3 --tuple 3,1,3 --format text',
     'len 2\nper 3\ntail (3,1,3) (0,0,2)\ncycle (0,2,2) (2,0,2) (2,2,0)\n'),
    ('orbit --m 4 --n 3 --tuple 0,2,2',
     '{"len":0,"per":3,"tail":[],"cycle":[[0,2,2],[2,0,2],[2,2,0]]}\n'),
  ])
  def test_orbit_bytes_are_pinned(self, capsys, argv, out):
    assert run_cli(capsys, *argv.split()) == (0, out, '')

  @pytest.mark.parametrize('argv', [
    'basic --m 7 --n 31 --max-states 1000',
    'orbit --m 7 --n 31 --tuple ' + '0,' * 30 + '1 --max-states 1000',
    'orbit --m 7 --n 31 --tuple ' + '0,' * 30 + '1 --max-states 1000'
    ' --vanishes',
  ])
  def test_refusal_message_is_pinned(self, capsys, argv):
    # The message names the queried state, the basic tuple here, by its
    # first and last four entries.
    err = ('error: orbit of (0,0,0,0,...,0,0,0,1) in Z_7^31 exceeds '
           '1000 states\n')
    assert run_cli(capsys, *argv.split()) == (3, '', err)

  def test_search_refusal_names_orbit_and_system(self, capsys):
    # Past the opening walk Z_2^8192 is weighed like a row, 2^13 * 2^13
    # cells, and refused before the search.
    err = ('error: orbit search for (0,0,0,0,...,0,0,0,1) in Z_2^8192 of '
           f'67108864 cells exceeds the {COEFF_CELL_CAP}-cell cap\n')
    assert run_cli(capsys, 'basic', '--k', '13', '--l', '1') == (3, '', err)

  def test_short_refusal_names_the_whole_tuple(self, capsys):
    assert run_cli(capsys, 'orbit', '--m', '7', '--n', '5', '--tuple',
                   '1,2,3,4,5', '--max-states', '10') == (
      3, '', 'error: orbit of (1,2,3,4,5) in Z_7^5 exceeds 10 states\n')

  def test_text_format_mentions_lengths(self, capsys):
    _, out, _ = run_cli(capsys, 'orbit', '--m', '4', '--n', '2',
                        '--tuple', '2,3', '--format', 'text')
    assert 'len 3' in out and 'per 1' in out


class TestPredsAndKernel:
  def test_preds_match_library(self, capsys):
    code, out, _ = run_cli(capsys, 'preds', '--m', '4', '--n', '2',
                           '--tuple', '0,0')
    assert code == 0
    want = predecessors(make_system(4, 2), (0, 0))
    assert json.loads(out) == [list(p) for p in want]

  def test_preds_empty(self, capsys):
    _, out, _ = run_cli(capsys, 'preds', '--m', '4', '--n', '2',
                        '--tuple', '1,3')
    assert json.loads(out) == []

  def test_preds_past_the_cap_exit_three(self, capsys):
    code, out, err = run_cli(capsys, 'preds', '--m', '1000000000000',
                             '--n', '2', '--tuple', '0,0')
    assert (code, out) == (3, '')
    assert err == ('error: predecessor list of 2000000000000 cells exceeds '
                   f'the {COEFF_CELL_CAP}-cell cap\n')

  def test_kernel_lists_cycle_states(self, capsys):
    code, out, _ = run_cli(capsys, 'kernel', '--m', '3', '--n', '2')
    assert json.loads(out) == [[0, 0], [1, 1], [2, 2]]

  # Z_4^10 json is the benchmark's whole_space pin (bench/workloads.py);
  # Z_3^1 has no low digits to split off, Z_2^8 only the zero state.
  @pytest.mark.parametrize('m,n,fmt,sha256', [
    (4, 10, 'json',
     'c0d59f021e1d08f0e6c20483d9b47fa1b9068d67f491d45584441f814a0dcadc'),
    (4, 10, 'text',
     'ec1e3737d9423597689f5d2aad18bd787bf44e1aaf281a15d5b636593876a1b3'),
    (3, 1, 'json',
     'f8357721c95673258b31504ee3a3ac8a1858b02b6400e94fc50394656fbd5349'),
    (3, 1, 'text',
     '012d8fdad1bb51419e6f97a429c1292c43740472b94c0e94c1f751b16358a170'),
    (2, 8, 'json',
     'fa291bcde18e6ac095733f19ed8341ca34b782e823a3820cda2dddd60ed7dfba'),
    (2, 8, 'text',
     '002453f2e2c7b2e8fc257290fd48429be903469467781ad5ff7569993ed357a5'),
    (6, 3, 'json',
     'f5367532c54d2d9247a5767c3508bd9b778537577c1c3d863f530c69e5b5183a'),
    (6, 3, 'text',
     'b12df30aec7a77388acf734209cf248abeeeeada28007e5954fc598e1474a6dd'),
    (5, 4, 'json',
     '2ff18e0c8613a64b5daaee181a2ca3f603596e454826af3896d626f9426ada97'),
    (5, 4, 'text',
     '2f7cc9ec077d4cc6499a5663816f31e60d8103a90b7eef6df246fdcd58ae62d2'),
    (12, 2, 'json',
     'ed97e6d2a5bcd6d769f86fa69597137cdf206860cd7434aad9199c5c3fdfad85'),
    (12, 2, 'text',
     '040d8632724f057f11ead7566622fb8c6692f912741298f44abb00411849efbc'),
    (10, 3, 'json',
     '5fe74d788e43f34098f613d9b928dc1c453fc0db9ba9d73adebc10d3c7dd9098'),
    (10, 3, 'text',
     '1733288fbd4ad3f0aab9921f496cca98f98bc3fc2f96219ad9f2fb771dce5490'),
    (12, 3, 'json',
     'b67a1333cd0e328e0e55b1ad941681662ed1542736922624cd2ae7bf64d417ca'),
    (12, 3, 'text',
     'edb87d72e0f1138d1ecefb498aa0196219628c7b6cc309320e96c7fb1893e3e3'),
  ])
  def test_kernel_bytes_are_pinned(self, capsys, m, n, fmt, sha256):
    code, out, err = run_cli(capsys, 'kernel', '--m', str(m), '--n', str(n),
                             '--format', fmt)
    assert (code, err) == (0, '')
    assert hashlib.sha256(out.encode()).hexdigest() == sha256

  # Moduli of 10 and more; the kernels of Z_12^2 and Z_10^3 hold only
  # one-digit entries, that of Z_12^3 holds 10 and 11 too.
  @pytest.mark.parametrize('m,n', [(12, 2), (10, 3), (12, 3)])
  def test_kernel_bytes_match_per_tuple_text(self, capsys, m, n):
    members = kernel_set(make_system(m, n)).sorted_members()
    _, out, _ = run_cli(capsys, 'kernel', '--m', str(m), '--n', str(n))
    assert out == json.dumps([list(u) for u in members],
                             separators=(',', ':')) + '\n'
    _, out, _ = run_cli(capsys, 'kernel', '--m', str(m), '--n', str(n),
                        '--format', 'text')
    assert out == ''.join(format_tuple(u) + '\n' for u in members)

  def test_kernel_cap_exits_three(self, capsys):
    code, out, err = run_cli(capsys, 'kernel', '--m', '6', '--n', '8')
    assert code == 3
    assert out == ''
    assert 'error:' in err and 'cap' in err


class TestCoeff:
  def test_table_csv(self, capsys):
    code, out, _ = run_cli(capsys, 'coeff', '--m', '4', '--n', '2',
                           '--r-max', '2')
    assert code == 0
    assert out.splitlines() == ['r,s,value', '0,1,1', '0,2,0',
                                '1,1,1', '1,2,1', '2,1,2', '2,2,2']

  def test_single_cell(self, capsys):
    _, out, _ = run_cli(capsys, 'coeff', '--m', '4', '--n', '4',
                        '--at', '4,1', '--format', 'text')
    assert out.strip() == '2'

  def test_cell_takes_tuple_syntax(self, capsys):
    for at in ('(4,1)', '4,1,', ' 4 , 1 '):
      code, out, _ = run_cli(capsys, 'coeff', '--m', '4', '--n', '4',
                             '--at', at, '--format', 'text')
      assert (code, out) == (0, '2\n'), at

  def test_views(self, capsys):
    _, f_out, _ = run_cli(capsys, 'coeff', '--k', '2', '--l', '2',
                          '--view', 'f:2,1', '--format', 'text')
    _, g_out, _ = run_cli(capsys, 'coeff', '--k', '2', '--l', '2',
                          '--view', 'g:2,2,1', '--format', 'text')
    _, h_out, _ = run_cli(capsys, 'coeff', '--k', '2', '--l', '2',
                          '--view', 'h:1,1', '--format', 'text')
    assert f_out.strip() == '2'      # a(4, 1) over Z_4^4
    assert g_out.strip() == '2'      # a(4, 3): half-turn column offset
    assert h_out.strip() == '1'      # a(1, 1): one row up from gamma=1

  def test_choice_flags_are_exclusive(self, capsys):
    code, _, err = run_cli(capsys, 'coeff', '--m', '4', '--n', '2',
                           '--r-max', '2', '--at', '1,1')
    assert code == 2
    assert 'usage' in err
    code, _, err = run_cli(capsys, 'coeff', '--m', '4', '--n', '2')
    assert code == 2


class TestBinom:
  def test_scalar(self, capsys):
    code, out, _ = run_cli(capsys, 'binom', '8', '4', '3')
    assert code == 0
    assert json.loads(out) == {'n': 8, 'k': 4, 'l': 3, 'value': 6}

  def test_text(self, capsys):
    _, out, _ = run_cli(capsys, 'binom', '7', '4', '2', '--format', 'text')
    assert out.strip() == '3'

  def test_huge_n(self, capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, 'binom', '1073741824', '536870912', '3')
    assert time.perf_counter() - start < 0.5
    assert code == 0
    assert json.loads(out)['value'] == 6

  def test_bad_modulus_exponent(self, capsys):
    code, _, err = run_cli(capsys, 'binom', '8', '4', '0')
    assert code == 2
    assert 'usage' in err


class TestGraph:
  def test_component_dot(self, capsys):
    code, out, _ = run_cli(capsys, 'graph', '--m', '4', '--n', '3',
                           '--component', '3,1,3')
    assert code == 0
    assert out.startswith('digraph')
    assert '"(3,1,3)" -> "(0,0,2)"' in out
    assert out.count('->') == 12

  def test_full_graph_json_summary(self, capsys):
    _, out, _ = run_cli(capsys, 'graph', '--m', '2', '--n', '2',
                        '--format', 'json')
    assert json.loads(out) == {'nodes': 4, 'edges': 4, 'components': 1}

  def test_csv_edges(self, capsys):
    _, out, _ = run_cli(capsys, 'graph', '--m', '2', '--n', '2',
                        '--format', 'csv')
    lines = out.splitlines()
    assert lines[0] == 'source,target'
    assert len(lines) == 5


  # An odd n splits the digits unevenly between the two text tables.
  @pytest.mark.parametrize('export,sha256', [
    (to_dot,
     'ae387f7c2daa3efff29893f2e57faf3894f671bdb53b9db2608813a375b56a41'),
    (to_edge_csv,
     '1447613dd82f4c5b30a428f6ad19648a6d825339e155b5ab5536ddfd91c7d016'),
  ])
  def test_odd_length_export_is_pinned(self, export, sha256):
    text = export(build_graph(make_system(3, 5)))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256

  # Moduli of 10 and more: entries of two digits in Z_12^2.
  @pytest.mark.parametrize('m,n,export,sha256', [
    (12, 2, to_dot,
     'c75c793c7c764770cbabf7cb6ed78860e9e47c5be504e89e4c17d5021433f5b3'),
    (12, 2, to_edge_csv,
     '4cede7b6c9d56053fbc22fedf0dd7483a45153fabc7a1abf12638e176479c264'),
    (10, 3, to_dot,
     '76e7304bf2c7b3ac6924e1f4a04774105f512f07c2a3123ca21885198a72daae'),
    (10, 3, to_edge_csv,
     'cb45a819a4c5cc20591348d34e4de98a6d275d2c4cc7599d63a40721d483651f'),
  ])
  def test_large_modulus_export_is_pinned(self, m, n, export, sha256):
    text = export(build_graph(make_system(m, n)))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256

  @pytest.mark.parametrize('m,n', [(12, 2), (10, 3)])
  def test_large_modulus_export_matches_per_tuple_text(self, m, n):
    graph = build_graph(make_system(m, n))
    edges = [(format_tuple(u), format_tuple(v)) for u, v in graph.edges]
    assert to_dot(graph) == ''.join(
      ['digraph ducci {\n', *(f'  "{u}";\n' for u, _ in edges),
       *(f'  "{u}" -> "{v}";\n' for u, v in edges), '}\n'])
    assert to_edge_csv(graph) == ''.join(
      ['source,target\n', *(f'"{u}","{v}"\n' for u, v in edges)])

  def test_length_one_export(self):
    graph = build_graph(make_system(3, 1))
    assert to_dot(graph) == ('digraph ducci {\n  "(0)";\n  "(1)";\n  "(2)";\n'
                             '  "(0)" -> "(0)";\n  "(1)" -> "(2)";\n'
                             '  "(2)" -> "(1)";\n}\n')
    assert to_edge_csv(graph) == ('source,target\n"(0)","(0)"\n'
                                  '"(1)","(2)"\n"(2)","(1)"\n')


class TestVerify:
  def test_small_sweep_passes(self, capsys):
    code, out, _ = run_cli(capsys, 'verify', 'main',
                           '--k-max', '2', '--l-max', '2')
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj['check_id'] == 'length_formula'
    assert obj['verdict'] == 'pass'
    assert 'elapsed' not in obj

  def test_spec_example_sweep(self, capsys):
    code, out, _ = run_cli(capsys, 'verify', 'main',
                           '--k-max', '4', '--l-max', '5')
    assert code == 0
    assert json.loads(out)['verdict'] == 'pass'

  def test_hypothesis_skip_exits_zero(self, capsys):
    code, out, _ = run_cli(capsys, 'verify', 'preds', '--m', '4', '--n', '3')
    assert code == 0
    assert json.loads(out)['verdict'] == 'skip'

  def test_cap_skip_exits_three(self, capsys):
    # Elimination over Z_2^257 passes the cell cap.
    code, out, _ = run_cli(capsys, 'verify', 'subgroup', '--m', '2',
                           '--n', '257')
    assert code == 3
    cases = json.loads(out)['cases']
    reasons = [c.get('reason', '') for c in cases if c['verdict'] == 'skip']
    assert reasons and all(r.startswith('cap') for r in reasons)

  def test_max_states_is_accepted_and_ignored(self, capsys):
    # A cap of one state no longer skips: no check enumerates Z_3^4.
    code, out, _ = run_cli(capsys, 'verify', 'subgroup', '--m', '3',
                           '--n', '4', '--max-states', '1')
    assert (code, json.loads(out)['verdict']) == (0, 'pass')

  @pytest.mark.parametrize('samples', ['0', '-3'])
  def test_no_samples_is_a_usage_error(self, capsys, samples):
    # No check draws samples, so verify has no --samples flag.
    code, out, err = run_cli(capsys, 'verify', 'bound', '--k-min', '4',
                             '--k-max', '4', '--samples', samples)
    assert (code, out) == (2, '')
    assert 'unrecognized arguments: --samples' in err

  def test_single_system_restriction(self, capsys):
    code, out, _ = run_cli(capsys, 'verify', 'subgroup',
                           '--m', '3', '--n', '3')
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])['parameters'] == {'m': 3, 'n': 3}

  def test_text_summary(self, capsys):
    code, out, _ = run_cli(capsys, 'verify', 'l2', '--n-max', '8',
                           '--format', 'text')
    assert code == 0
    assert 'binary_length_formula' in out
    assert 'pass' in out

  def test_text_summary_rows_are_distinct(self, capsys):
    # Every system gets its own cycle_subgroup and predecessor_count
    # row; the params column tells them apart.
    code, out, _ = run_cli(capsys, 'verify', 'all', '--format', 'text',
                           '--k-max', '3', '--l-max', '3', '--j-max', '6',
                           '--n-max', '8')
    assert code == 0
    header, *rows = out.splitlines()
    assert header.split()[:2] == ['check_id', 'params']
    assert len(rows) == 9 + 2 * len(DEFAULT_SYSTEMS)
    without_elapsed = [row.rsplit(maxsplit=1)[0] for row in rows]
    assert len(set(without_elapsed)) == len(rows)
    assert any(row.split()[:3] == ['cycle_subgroup', 'm=3', 'n=8']
               for row in rows)

  def test_modulus_one_sweep_exits_zero(self, capsys):
    # At l = 0 every column sum of sum1 is 0 mod 1; the other checks'
    # l = 0 cases are hypothesis skips.
    code, out, _ = run_cli(capsys, 'verify', 'all', '--l-min', '0',
                           '--l-max', '0')
    assert code == 0
    reports = {obj['check_id']: obj for obj in map(json.loads,
                                                    out.splitlines())}
    assert reports['coeff_pair_sum1']['cases'] == [
      {'params': {'k': k, 'l': 0}, 'verdict': 'pass', 'observed': {'row': 0}}
      for k in range(1, 7)]

  def test_unknown_check_rejected(self, capsys):
    code, _, err = run_cli(capsys, 'verify', 'bogus')
    assert code == 2
    assert 'usage' in err


def declared_script(name):
  '''The `module:function` that [project.scripts] in pyproject.toml gives name.

  pyproject.toml sits beside the directory holding the imported package. The
  table is read line by line, not with tomllib, which Python 3.10 lacks; its
  entries are `name = "module:function"` lines.
  '''
  pyproject = PACKAGE_ROOT.parent / 'pyproject.toml'
  section = None
  for line in pyproject.read_text().splitlines():
    line = line.strip()
    if line.startswith('['):
      section = line
    elif section == '[project.scripts]' and '=' in line:
      key, value = (part.strip().strip('"\'') for part in line.split('=', 1))
      if key == name:
        return value
  raise AssertionError(f'{pyproject} declares no {name!r} in [project.scripts]')


# Each subcommand's arguments in order: option strings (the dest of a
# positional), default, choices and whether it is required.
HELP = ('-h --help', argparse.SUPPRESS, None, False)
SYSTEM = [(flag, None, None, False) for flag in ('--m', '--n', '--k', '--l')]
JSON_TEXT = ('--format', 'json', ('json', 'text'), False)
OUTPUT = ('-o --output', None, None, False)
TUPLE = ('-t --tuple', None, None, True)
PARSERS = {
  'step': [HELP, *SYSTEM, JSON_TEXT, OUTPUT, TUPLE, ('--r', 1, None, False),
           ('--via', 'direct', ('direct', 'coeffs'), False),
           ('--scale', None, None, False), ('--add', None, None, False),
           ('--shift', 0, None, False)],
  'orbit': [HELP, *SYSTEM, JSON_TEXT, OUTPUT, TUPLE,
            ('--vanishes', False, None, False),
            ('--max-states', ORBIT_VISIT_CAP, None, False)],
  'basic': [HELP, *SYSTEM, JSON_TEXT, OUTPUT,
            ('--max-states', ORBIT_VISIT_CAP, None, False)],
  'preds': [HELP, *SYSTEM, JSON_TEXT, OUTPUT, TUPLE],
  'kernel': [HELP, *SYSTEM, JSON_TEXT, OUTPUT,
             ('--max-states', ENUM_NODE_CAP, None, False)],
  'coeff': [HELP, *SYSTEM, ('--format', 'csv', ('csv', 'json', 'text'), False),
            OUTPUT, ('--r-max', None, None, False),
            ('--at', None, None, False), ('--view', None, None, False)],
  'binom': [HELP, JSON_TEXT, OUTPUT, ('big', None, None, True),
            ('small', None, None, True), ('mod_exp', None, None, True)],
  'graph': [HELP, *SYSTEM,
            ('--format', 'dot', ('dot', 'csv', 'json', 'text'), False),
            OUTPUT, ('--component', None, None, False),
            ('--max-nodes', ENUM_NODE_CAP, None, False)],
  'verify': [HELP, JSON_TEXT, OUTPUT,
             ('check', 'all', CHECK_NAMES + ('all',), False),
             *[(flag, None, None, False)
               for flag in ('--k-min', '--k-max', '--l-min', '--l-max',
                            '--j-min', '--j-max', '--n-max')],
             ('--m', None, None, False), ('--n', None, None, False),
             ('--seed', None, None, False),
             ('--max-states', None, None, False)],
}


class TestPlumbing:
  @pytest.mark.parametrize('name', PARSERS)
  def test_subcommand_parser_is_pinned(self, name):
    # Pinned as data, not help bytes, which vary with the Python version
    # and the terminal width.
    _, table = build_parser()
    assert list(table) == list(PARSERS)
    assert [(' '.join(action.option_strings) or action.dest, action.default,
             action.choices, action.required)
            for action in table[name]._actions] == PARSERS[name]

  @pytest.mark.parametrize('argv, message', [
    ('coeff --m 4 --n 4 --r-max 1 --at 1,1',
     'pick exactly one of --r-max, --at, --view'),
    ('verify --m 3', '--m and --n go together'),
    ('step --k 1 --tuple 1', '--k and --l go together'),
    ('coeff --m 4 --n 4 --view x:1',
     "--view looks like 'f:gamma,delta', 'g:gamma,eps,delta', "
     "or 'h:gamma,delta'"),
    # Integer lists are parsed as tuples, so '--1' is a usage error.
    ('coeff --m 4 --n 4 --at=--1,1', "bad tuple text '--1,1': invalid "
     "literal for int() with base 10: '--1'"),
    ('coeff --m 4 --n 4 --view f:1,--2', "bad tuple text '1,--2': invalid "
     "literal for int() with base 10: '--2'"),
    # Values are checked by the library, in its own words.
    ('step --m 4 --n 3 --tuple 1,2,3 --r -1',
     'iteration count must be an integer >= 0, got -1'),
    ('coeff --m 4 --n 4 --r-max -1',
     'row index must be an integer >= 0, got -1'),
    ('coeff --m 4 --n 4 --at=-1,1',
     'row index must be an integer >= 0, got -1'),
    ('binom -1 0 1', 'upper index must be an integer >= 0, got -1'),
    ('binom 4 2 0', 'modulus exponent must be an integer >= 1, got 0'),
    ('orbit --m 4 --n 3 --tuple 1,2,3 --max-states -3',
     'state cap must be an integer >= 0, got -3'),
    ('kernel --m 4 --n 3 --max-states -1',
     'state cap must be an integer >= 0, got -1'),
    ('coeff --m 4 --n 4 --at=--', "an option was given '--' as its value"),
    ('step --m 4 --n 3 --tuple 1,2,3 --shift=--',
     "an option was given '--' as its value"),
  ])
  def test_handler_errors_show_their_subcommand_usage(self, capsys, argv,
                                                      message):
    name = argv.split()[0]
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, '')
    assert err.startswith(f'usage: ducci {name} ')
    assert err.endswith(f'\nducci {name}: error: {message}\n')

  @given(st.text() | st.text('0123456789-+(), _'))
  @example('--1,1')
  @example('--')
  @settings(max_examples=200, deadline=None)
  def test_any_at_text_exits_cleanly(self, text):
    # Whatever follows --at, the answer is a value, a usage error or a cap.
    code = main(['coeff', '--m', '4', '--n', '4', f'--at={text}'])
    assert code in (0, 2, 3), text

  def test_usage_errors_exit_two(self, capsys):
    cases = [
        ['step', '--tuple', '1,2'],                                # no system
        ['step', '--m', '4', '--n', '2', '--k', '1', '--l', '2',
         '--tuple', '1,2'],                                        # both spellings
        ['step', '--m', '4', '--n', '2', '--tuple', '1,2,3'],      # wrong length
        ['step', '--m', '4', '--n', '2', '--tuple', 'a,b'],        # garbage
        ['orbit', '--m', '1', '--n', '2', '--tuple', '0,0'],       # bad modulus
    ]
    for argv in cases:
      code, _, err = run_cli(capsys, *argv)
      assert code == 2, argv
      assert 'usage' in err, argv

  def test_output_flag_writes_file(self, tmp_path, capsys):
    target = tmp_path / 'orbit.json'
    code, out, _ = run_cli(capsys, 'orbit', '--m', '4', '--n', '3',
                           '--tuple', '3,1,3', '--output', str(target))
    assert code == 0
    assert out == ''
    assert json.loads(target.read_text())['len'] == 2

  def test_byte_identical_reruns(self, capsys):
    for argv in [
        ['orbit', '--m', '4', '--n', '3', '--tuple', '3,1,3'],
        ['verify', 'bound', '--k-max', '2', '--l-max', '2', '--seed', '5'],
        ['coeff', '--m', '4', '--n', '4', '--r-max', '8'],
    ]:
      _, first, _ = run_cli(capsys, *argv)
      _, second, _ = run_cli(capsys, *argv)
      assert first == second, argv

  def test_installed_entry_point(self, tmp_path):
    # Children import the package under test, never a `ducci` installed
    # elsewhere: PYTHONPATH names the directory this process imported it from.
    env = {**os.environ, 'PYTHONPATH': str(PACKAGE_ROOT)}
    proc = subprocess.run(
        [sys.executable, '-m', 'ducci.cli', 'basic', '--m', '4', '--n', '2'],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, f'exit {proc.returncode}: {proc.stderr}'
    assert json.loads(proc.stdout)['len'] == 3
    # Run the console script pyproject.toml declares, written as pip would
    # write it, rather than whatever `ducci` is on PATH.
    module, _, func = declared_script('ducci').partition(':')
    script = tmp_path / 'ducci'
    script.write_text(CONSOLE_SCRIPT.format(
        module=module, import_name=func.split('.')[0], func=func))
    proc = subprocess.run([sys.executable, str(script), 'binom', '4', '2', '2'],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, f'exit {proc.returncode}: {proc.stderr}'
    assert json.loads(proc.stdout)['value'] == 2
