'''Command-line front end.

Every public operation is reachable from one of the subcommands:

  step    apply the pair-sum map r times (optionally via the
          coefficient expansion), with scale/add/rotate pre-ops
  orbit   pre-period, period, tail, and cycle of a tuple
  basic   the tuple (0,...,0,1) and its pre-period/period
  preds   all one-step predecessors of a tuple
  kernel  the cycle states of the whole system
  coeff   iteration-coefficient tables, single cells, and views
  binom   one binomial coefficient modulo a power of two
  graph   the full transition graph or one component, as DOT/CSV
  verify  the identity checks, as JSON lines or a summary table

Systems are named either directly (--m 4 --n 3) or, for power-of-two
sweeps, as exponents (--k 2 --l 2 meaning n = 2^k, m = 2^l); exactly
one of the two spellings per invocation.  Tuples are accepted with or
without parentheses and are reduced mod m (with a warning on stderr
when reduction changed an entry).

Exit codes: 0 success (or all checks pass / hypothesis-skip), 1 check
failure, 2 usage error, 3 cap exceeded.  The CLI checks only its own
spellings; values are checked by the library.  A `ParameterError` from
either is reported by `main` with the subcommand's usage line.  Identical
runs give byte-identical stdout for the machine formats (json, csv, dot);
the verify text summary includes wall-clock timings and is exempt.
'''

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import _statespace
from .coeffs import (apply_coeff_expansion, binom_mod_pow2, coeff_at,
                     coeff_table, view_f, view_g, view_h)
from .core import (DucciSystem, ResidueTuple, add, basic_tuple, ducci_iter,
                   format_tuple, make_system, parse_tuple, reduce_tuple,
                   scale, shift)
from .errors import CapExceededError, ParameterError
from .graphs import build_graph, component_of, to_dot, to_edge_csv, weak_components
from .limits import ENUM_NODE_CAP, ORBIT_VISIT_CAP
from .orbits import basic_len_per, orbit_summary, predecessors, vanishes
from .verify import CHECK_NAMES, exit_code, reports_to_jsonl, run_checks, summary_table

__all__ = ['main', 'build_parser']

_JSON_SEP = (',', ':')

# Endpoints of verify's sweeps: each is a flag and a `run_checks` keyword.
_RANGE_ENDS = ('k_min', 'k_max', 'l_min', 'l_max', 'j_min', 'j_max', 'n_max')


def _pair(args: argparse.Namespace, a: str, b: str) -> tuple[int, int] | None:
  # The values of flags --a and --b, which go together; None when neither.
  pair = getattr(args, a), getattr(args, b)
  if pair == (None, None):
    return None
  if None in pair:
    raise ParameterError(f'--{a} and --{b} go together')
  return pair


def _system_from_args(args: argparse.Namespace) -> DucciSystem:
  direct = args.m is not None or args.n is not None
  if direct == (args.k is not None or args.l is not None):
    raise ParameterError('name the system with either --m/--n or --k/--l')
  if direct:
    return make_system(*_pair(args, 'm', 'n'))
  k, l = _pair(args, 'k', 'l')
  if k < 0 or l < 1:
    raise ParameterError('need k >= 0 and l >= 1')
  return make_system(2 ** l, 2 ** k)


def _tuple_from_args(sys_: DucciSystem, text: str) -> ResidueTuple:
  entries = parse_tuple(text)
  reduced = reduce_tuple(sys_, entries)
  if tuple(entries) != reduced:
    print(f'warning: entries reduced mod {sys_.m}: '
          f'{format_tuple(entries)} -> {format_tuple(reduced)}',
          file=sys.stderr)
  return reduced


def _emit(text: str, output: str | None) -> None:
  if output is None:
    sys.stdout.write(text)
  else:
    Path(output).write_text(text, encoding='utf-8')


def _json_line(obj) -> str:
  return json.dumps(obj, separators=_JSON_SEP) + '\n'


def _answer(args: argparse.Namespace, obj, text: str) -> int:
  # `obj` as one JSON line under --format json, else `text`.
  _emit(_json_line(obj) if args.format == 'json' else text, args.output)
  return 0


# --- subcommand bodies --------------------------------------------------

def _cmd_step(args) -> int:
  sys_ = _system_from_args(args)
  u = _tuple_from_args(sys_, args.tuple)
  if args.shift < 0:
    raise ParameterError('--shift must be >= 0')
  if args.scale is not None:
    u = scale(sys_, args.scale, u)
  if args.add is not None:
    u = add(sys_, u, _tuple_from_args(sys_, args.add))
  for _ in range(args.shift % sys_.n):
    u = shift(sys_, u)
  if args.via == 'coeffs':
    result = apply_coeff_expansion(sys_, u, args.r)
  else:
    result = ducci_iter(sys_, u, args.r)
  return _answer(args, list(result), format_tuple(result) + '\n')


def _cmd_orbit(args) -> int:
  sys_ = _system_from_args(args)
  u = _tuple_from_args(sys_, args.tuple)
  if args.vanishes:
    flag = vanishes(sys_, u, max_states=args.max_states)
    return _answer(args, flag, ('true' if flag else 'false') + '\n')
  summary = orbit_summary(sys_, u, max_states=args.max_states)
  lines = [f'len {summary.len}', f'per {summary.per}',
           'tail ' + ' '.join(format_tuple(t) for t in summary.tail),
           'cycle ' + ' '.join(format_tuple(t) for t in summary.cycle)]
  return _answer(args, summary.to_json_obj(), '\n'.join(lines) + '\n')


def _cmd_basic(args) -> int:
  sys_ = _system_from_args(args)
  u = basic_tuple(sys_)
  length, per = basic_len_per(sys_, max_states=args.max_states)
  return _answer(args, {'tuple': format_tuple(u), 'len': length, 'per': per},
                 f'tuple {format_tuple(u)}\nlen {length}\nper {per}\n')


def _cmd_preds(args) -> int:
  sys_ = _system_from_args(args)
  u = _tuple_from_args(sys_, args.tuple)
  found = predecessors(sys_, u)
  return _answer(args, [list(v) for v in found],
                 ''.join(format_tuple(v) + '\n' for v in found))


def _cmd_kernel(args) -> int:
  # Member text is joined from digit-string tables, not made per tuple.
  sys_ = _system_from_args(args)
  m, n = sys_.m, sys_.n
  codes = _statespace.kernel_codes(m, n, args.max_states)
  if args.format == 'json':
    _emit('[' + ','.join(_statespace.texts(codes, m, n, '[', ']')) + ']\n',
          args.output)
  else:
    _emit(''.join(_statespace.texts(codes, m, n, '(', ')\n')), args.output)
  return 0


def _parse_int_list(text: str, want: int, what: str) -> tuple[int, ...]:
  values = parse_tuple(text)
  if len(values) != want:
    raise ParameterError(
      f'{what} needs {want} comma-separated integers, got {text!r}')
  return values


def _cmd_coeff(args) -> int:
  sys_ = _system_from_args(args)
  if sum(x is not None for x in (args.r_max, args.at, args.view)) != 1:
    raise ParameterError('pick exactly one of --r-max, --at, --view')
  if args.r_max is not None:
    table = coeff_table(sys_, args.r_max)
    if args.format == 'json':
      rows = {str(r): row for r, row in enumerate(table.rows)}
      _emit(_json_line(rows), args.output)
    else:
      _emit(table.to_csv(), args.output)
    return 0
  if args.at is not None:
    r, s = _parse_int_list(args.at, 2, '--at')
    value = coeff_at(sys_, r, s)
    return _answer(args, {'r': r, 's': s, 'value': value}, f'{value}\n')
  kind, _, rest = args.view.partition(':')
  view = {'f': view_f, 'g': view_g, 'h': view_h}.get(kind)
  if view is None or not rest:
    raise ParameterError("--view looks like 'f:gamma,delta', "
                         "'g:gamma,eps,delta', or 'h:gamma,delta'")
  value = view(sys_, *_parse_int_list(rest, 3 if kind == 'g' else 2, '--view'))
  return _answer(args, {'view': args.view, 'value': value}, f'{value}\n')


def _cmd_binom(args) -> int:
  value = binom_mod_pow2(args.big, args.small, args.mod_exp)
  return _answer(args, {'n': args.big, 'k': args.small, 'l': args.mod_exp,
                        'value': value}, f'{value}\n')


def _cmd_graph(args) -> int:
  sys_ = _system_from_args(args)
  graph = build_graph(sys_, max_nodes=args.max_nodes)
  if args.component is not None:
    graph = component_of(graph, _tuple_from_args(sys_, args.component))
  if args.format == 'dot':
    _emit(to_dot(graph), args.output)
  elif args.format == 'csv':
    _emit(to_edge_csv(graph), args.output)
  else:
    summary = {'nodes': graph.node_count, 'edges': graph.edge_count,
               'components': len(weak_components(graph))}
    return _answer(args, summary, ''.join(f'{key} {val}\n'
                                          for key, val in summary.items()))
  return 0


def _cmd_verify(args) -> int:
  pair = _pair(args, 'm', 'n')
  reports = run_checks(
    [args.check], **{end: getattr(args, end) for end in _RANGE_ENDS},
    systems=None if pair is None else [pair])
  if args.format == 'text':
    _emit(summary_table(reports), args.output)
  else:
    _emit(reports_to_jsonl(reports), args.output)
  return exit_code(reports)


# --- parser -------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict]:
  parser = argparse.ArgumentParser(
    prog='ducci',
    description='Exact pair-sum (Ducci) dynamics on Z_m^n.')
  subs = parser.add_subparsers(dest='command', metavar='COMMAND')
  table: dict[str, argparse.ArgumentParser] = {}

  def new_sub(name: str, help_: str, run, *, system: bool = True,
              formats: tuple[str, ...] = ('json', 'text'),
              tuple_help: str | None = None) -> argparse.ArgumentParser:
    # The first of `formats` is the default.
    sub = subs.add_parser(name, help=help_, description=help_)
    sub.set_defaults(run=run)
    if system:
      group = sub.add_argument_group('system')
      group.add_argument('--m', type=int, help='modulus (with --n)')
      group.add_argument('--n', type=int, help='tuple length (with --m)')
      group.add_argument('--k', type=int, help='tuple length exponent, n = 2^k')
      group.add_argument('--l', type=int, help='modulus exponent, m = 2^l')
    sub.add_argument('--format', choices=formats, default=formats[0],
                     help=f'output format (default {formats[0]})')
    sub.add_argument('-o', '--output', metavar='PATH',
                     help='write to PATH instead of standard output')
    if tuple_help is not None:
      sub.add_argument('-t', '--tuple', required=True, help=tuple_help)
    table[name] = sub
    return sub

  sub = new_sub('step', 'apply the pair-sum map r times', _cmd_step,
                tuple_help='starting tuple, e.g. "(3,1,3)" or 3,1,3')
  sub.add_argument('--r', type=int, default=1, help='step count (default 1)')
  sub.add_argument('--via', choices=('direct', 'coeffs'), default='direct',
                   help='direct iteration or the coefficient expansion')
  sub.add_argument('--scale', type=int, metavar='LAMBDA',
                   help='first multiply every entry by LAMBDA')
  sub.add_argument('--add', metavar='TUPLE',
                   help='then add TUPLE entrywise')
  sub.add_argument('--shift', type=int, default=0, metavar='COUNT',
                   help='then rotate left COUNT times')

  sub = new_sub('orbit', 'pre-period, period, tail, and cycle of a tuple',
                _cmd_orbit, tuple_help='starting tuple')
  sub.add_argument('--vanishes', action='store_true',
                   help='print only whether the orbit ends at zero')
  sub.add_argument('--max-states', type=int, default=ORBIT_VISIT_CAP,
                   help='orbit visit cap')

  sub = new_sub('basic', 'the tuple (0,...,0,1) and its length/period',
                _cmd_basic)
  sub.add_argument('--max-states', type=int, default=ORBIT_VISIT_CAP,
                   help='orbit visit cap')

  new_sub('preds', 'one-step predecessors of a tuple', _cmd_preds,
          tuple_help='target tuple')

  sub = new_sub('kernel', 'all cycle states of the system', _cmd_kernel)
  sub.add_argument('--max-states', type=int, default=ENUM_NODE_CAP,
                   help='state enumeration cap')

  sub = new_sub('coeff', 'iteration-coefficient table, cell, or view',
                _cmd_coeff, formats=('csv', 'json', 'text'))
  sub.add_argument('--r-max', type=int, metavar='R',
                   help='dump rows 0..R as CSV')
  sub.add_argument('--at', metavar='R,S', help='one cell, row and column')
  sub.add_argument('--view', metavar='KIND:ARGS',
                   help="half-turn view: 'f:gamma,delta', "
                        "'g:gamma,eps,delta', or 'h:gamma,delta'")

  sub = new_sub('binom', 'binomial coefficient modulo a power of two',
                _cmd_binom, system=False)
  sub.add_argument('big', type=int, metavar='N')
  sub.add_argument('small', type=int, metavar='K')
  sub.add_argument('mod_exp', type=int, metavar='L',
                   help='modulus exponent, result is mod 2^L')

  sub = new_sub('graph', 'transition graph as DOT, edge CSV, or summary',
                _cmd_graph, formats=('dot', 'csv', 'json', 'text'))
  sub.add_argument('--component', metavar='TUPLE',
                   help='restrict to the weak component of TUPLE')
  sub.add_argument('--max-nodes', type=int, default=ENUM_NODE_CAP,
                   help='node cap')

  sub = new_sub('verify', 'run identity checks, print reports', _cmd_verify,
                system=False)
  sub.add_argument('check', nargs='?', default='all',
                   choices=CHECK_NAMES + ('all',),
                   help='which check to run (default all)')
  for end in _RANGE_ENDS:
    sub.add_argument('--' + end.replace('_', '-'), type=int)
  sub.add_argument('--m', type=int, help='restrict system checks (with --n)')
  sub.add_argument('--n', type=int, help='restrict system checks (with --m)')
  for flag in ('--seed', '--max-states'):
    sub.add_argument(flag, type=int,
                     help='ignored: no check draws or enumerates states')

  return parser, table


def main(argv=None) -> int:
  parser, table = build_parser()
  try:
    args = parser.parse_args(argv)
    if args.command is None:
      parser.error('a COMMAND is required')
    try:
      if [] in vars(args).values():  # argparse reads `--opt=--` as []
        raise ParameterError("an option was given '--' as its value")
      return args.run(args)
    except ParameterError as exc:
      table[args.command].error(str(exc))
  except SystemExit as exc:
    return exc.code if isinstance(exc.code, int) else 2
  except CapExceededError as exc:
    print(f'error: {exc}', file=sys.stderr)
    return 3
  except BrokenPipeError:
    return 0
  return 0


if __name__ == '__main__':
  sys.exit(main())
