'''Machine checks for the identity catalog of pair-sum dynamics.

Each `verify_*` function sweeps a parameter family, evaluates one
claimed identity case by case, and returns a `CheckReport`.  A failing
case carries a minimal counterexample (smallest swept parameters
first, then lexicographically smallest witness).  Cases whose
hypotheses are not met, or whose orbit walk, coefficient row or
elimination exceeds its cap, are reported as skips rather than failures.

Checked claims, with their check ids:

  length_formula         basic pre-period and period of Z_{2^l}^{2^k}
                         equal ((l+1) * 2^(k-1), 1)
  length_lower_bound     one step earlier the basic iterate is nonzero
  vanishing_bound        every state of Z_{2^l}^{2^k} is zero after
                         (l+1) * 2^(k-1) steps
  binary_length_formula  in Z_2^n the basic pre-period is 2^v2(n)
  trivial_kernel         the kernel of Z_{2^l}^{2^k} is {0}
  cycle_subgroup         the cycle states are a subgroup, closed under
                         rotation and scaling, permuted by the map
  predecessor_count      for even n every state has 0 or exactly m
                         predecessors, forming one translation family
  binomial_congruences   C(2^j, 2^(j-1)) is 2 mod 4 and 6 mod 8, other
                         inner cells of row 2^j are 0 mod 4, row
                         2^j - 1 is odd with center 3 mod 4
  coeff_pair_sum1        a(l*2^(k-1), s) + a(l*2^(k-1), s - 2^(k-1))
                         is 0 mod 2^l for every column s
  coeff_pair_sum2        the analogous two-cell sum one level down,
                         rows (l-1)*2^(k-1), needs l >= 3 and k >= 2
  half_modulus_pivot     a(l*2^(k-1), l*2^(k-2) + 1) is exactly
                         2^(l-1) mod 2^l, needs l >= 2 and k >= 2

Every check is one case function run by `_sweep`.  A case takes one
parameter combination as keywords and returns (verdict, detail): the
observed values on a pass, the witness on a fail, the reason on a skip.
`_sweep` times the sweep, builds the `CaseResult`s and turns a
`CapExceededError` raised by any case into a `cap:` skip.  The checks
over Z_{2^l}^{2^k} sweep through `_pow2_sweep`, which states each
hypothesis once and hands the case its system.  `run_checks`
reaches the checks through `_CHECKS`, one row per CLI name with that
check's default ranges.  Adding a check means one case function and
one row.

No check enumerates a state space: every case is proved.  The length
formula, its lower bound and the vanishing bound read coefficient rows
L - 1 and L of L = (l+1) * 2^(k-1); every state vanishes within L steps
exactly when row L is zero.  The trivial kernel is proved by row
l * 2^k at every size: the kernel is {0} exactly when that row is zero.
The cycle subgroup and the predecessor count compare the orders of
images D^r(Z_m^n), each the span of the n rotations of row r, found by
elimination over Z_m.  Congruence cases read one row each at their own
modulus 2^l.
'''

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .coeffs import _check_cells, _flip, _row, _times_1x, binom_mod_pow2_range
from .core import DucciSystem, make_system
from .errors import CapExceededError, ParameterError
from .orbits import basic_len_per

__all__ = [
  'CaseResult', 'CheckReport', 'verify_length_formula',
  'verify_length_lower_bound', 'verify_vanishing_bound',
  'verify_binary_length_formula', 'verify_trivial_kernel',
  'verify_cycle_subgroup', 'verify_predecessor_count',
  'verify_binomial_congruences', 'verify_coeff_pair_sum1',
  'verify_coeff_pair_sum2', 'verify_half_modulus_pivot',
  'run_checks', 'reports_to_jsonl', 'summary_table', 'exit_code',
  'CHECK_NAMES', 'DEFAULT_SYSTEMS',
]


@dataclass(frozen=True)
class CaseResult:
  '''Outcome of one parameter combination inside a check.'''

  params: dict
  verdict: str                      # pass | fail | skip
  observed: dict | None = None
  witness: dict | None = None       # present iff verdict == fail
  reason: str | None = None         # present iff verdict == skip

  def to_json_obj(self) -> dict:
    return {key: value for key, value in vars(self).items()
            if value is not None}


@dataclass(frozen=True)
class CheckReport:
  '''Aggregate outcome of one check over its whole sweep.

  verdict is "fail" iff any case failed (and then `counterexample`
  holds the first failing case's parameters and witness), "pass" if at
  least one case passed and none failed, else "skip".
  '''

  check_id: str
  parameters: dict
  verdict: str
  counterexample: dict | None
  cases: tuple[CaseResult, ...]
  elapsed: float = field(compare=False, default=0.0)

  def to_json_obj(self, include_elapsed: bool = False) -> dict:
    # The fields in their order, so the JSON keys are stated once.
    obj = {**vars(self), 'cases': [c.to_json_obj() for c in self.cases]}
    if not include_elapsed:
      del obj['elapsed']
    return obj


# The CaseResult field that holds a case's detail, by verdict.
_DETAIL_FIELD = {'pass': 'observed', 'fail': 'witness', 'skip': 'reason'}


def _sweep(check_id: str, parameters: dict, grid, case) -> CheckReport:
  '''Run `case(**params)` for each params dict of `grid`, in order.'''
  started = time.perf_counter()
  cases = []
  for params in grid:
    try:
      verdict, detail = case(**params)
    except CapExceededError as exc:
      verdict, detail = 'skip', f'cap: {exc}'
    cases.append(CaseResult(params, verdict,
                            **{_DETAIL_FIELD[verdict]: detail}))
  verdicts = {c.verdict for c in cases}
  verdict = next((v for v in ('fail', 'pass') if v in verdicts), 'skip')
  first = next((c for c in cases if c.verdict == 'fail'), None)
  counterexample = first and {**first.params, **(first.witness or {})}
  return CheckReport(check_id, parameters, verdict, counterexample,
                     tuple(cases), time.perf_counter() - started)


def _pow2_sweep(check_id: str, k_range, l_range, case, k_min=1, l_min=1,
                needs='k >= 1 and l >= 1') -> CheckReport:
  '''`_sweep` over every (k, l), k outermost: `case(sys, k, l)` on
  Z_{2^l}^{2^k} when k >= k_min and l >= l_min, else a hypothesis skip
  naming `needs`.'''
  def run(k, l):
    if k < k_min or l < l_min:
      return 'skip', f'hypothesis: needs {needs}'
    return case(make_system(2 ** l, 2 ** k), k, l)
  return _sweep(check_id, {'k': list(k_range), 'l': list(l_range)},
                [{'k': k, 'l': l} for k in k_range for l in l_range], run)


# --- orbit-side checks -------------------------------------------------

def verify_length_formula(k_range=range(1, 6),
                          l_range=range(1, 7)) -> CheckReport:
  '''Basic pre-period and period of Z_{2^l}^{2^k}: ((l+1)*2^(k-1), 1).
  The basic iterate D^r(0, ..., 0, 1) is row r reversed and 0 is fixed:
  both hold iff row L - 1 is nonzero and row L, (1+x) times it, zero.
  That is the paper's theorem in full: row L being zero proves that
  every state vanishes within L steps, and row L - 1 being nonzero
  proves that the bound is tight.'''
  def case(sys, k, l):
    steps = (l + 1) * 2 ** (k - 1)
    before = _row(sys, steps - 1)
    if not before.any():
      return 'fail', {'steps': steps - 1, 'iterate': 'zero'}
    if _times_1x(sys, before).any():
      return 'fail', {'steps': steps, 'iterate': 'nonzero'}
    return 'pass', {'len': steps, 'per': 1}
  return _pow2_sweep('length_formula', k_range, l_range, case)


def verify_length_lower_bound(k_range=range(1, 6),
                              l_range=range(1, 7)) -> CheckReport:
  '''One step before the formula value the basic iterate is nonzero.
  That iterate is coefficient row `steps`, (1+x)^steps, reversed.'''
  def case(sys, k, l):
    steps = (l + 1) * 2 ** (k - 1) - 1
    if not _row(sys, steps).any():
      return 'fail', {'steps': steps, 'iterate': 'zero'}
    return 'pass', {'steps': steps}
  return _pow2_sweep('length_lower_bound', k_range, l_range, case)


def verify_vanishing_bound(k_range=range(1, 6),
                           l_range=range(1, 7)) -> CheckReport:
  '''Within L = (l+1) * 2^(k-1) steps every state of Z_{2^l}^{2^k} is zero.

  Every case is proved for every state by row L.  D^L is multiplication
  by row L, so all states vanish exactly when that row is zero; else
  D^L(0, ..., 0, 1) is the row reversed, and code 1 is the first state
  left nonzero, the witness.'''
  def case(sys, k, l):
    bound = (l + 1) * 2 ** (k - 1)
    if _row(sys, bound).any():
      return 'fail', {'state': [0] * (sys.n - 1) + [1], 'bound': bound}
    return 'pass', {'mode': 'certificate', 'bound': bound}
  return _pow2_sweep('vanishing_bound', k_range, l_range, case)


def verify_binary_length_formula(n_max: int = 16) -> CheckReport:
  '''In Z_2^n the basic pre-period is 2^v2(n) (1 for odd n).'''
  def case(n):
    want = 1 << ((n & -n).bit_length() - 1)
    length, period = basic_len_per(make_system(2, n))
    if length != want:
      return 'fail', {'expected': want, 'observed': length}
    return 'pass', {'len': length, 'per': period}
  return _sweep('binary_length_formula', {'n_max': n_max},
                [{'n': n} for n in range(1, n_max + 1)], case)


def verify_trivial_kernel(k_range=range(1, 6),
                          l_range=range(1, 7)) -> CheckReport:
  '''The only cycle state of Z_{2^l}^{2^k} is the zero tuple.

  Decided by one coefficient row, never by enumeration.  The images
  D^r(Z) are nested subgroups and each strict shrink at least halves
  them, so from r = log2 |Z| = l * 2^k on they are the cycle states.
  D^r is multiplication by row r, so the kernel is {0} exactly when
  row l * 2^k is zero; a nonzero row, flipped, is D^r(1, 0, ..., 0), a
  nonzero cycle state.'''
  def case(sys, k, l):
    row = l * 2 ** k
    cert = _row(sys, row)
    if cert.any():
      return 'fail', {'row': row, 'cycle_state': _flip(cert.tolist())}
    return 'pass', {'mode': 'certificate', 'row': row}
  return _pow2_sweep('trivial_kernel', k_range, l_range, case)


def _cell_dtype(m: int) -> type:
  '''The dtype of `_span_order`'s cells over Z_m: a row step subtracts
  q * cell, both below m, so int64 serves while that fits.'''
  return object if (m - 1) ** 2 >= 1 << 62 else np.int64


def _span_order(rows, m: int) -> int:
  '''Size of the Z_m-span of `rows`, equal-length lists of residues,
  by elimination column by column.  Euclid row steps leave one row with
  a nonzero cell c in the column, and the span grows by the m / gcd(c, m)
  multiples of c.  That many times the pivot row is zero in the column
  and joins the rows for the later columns (Howell's step): without it
  the span loses those multiples of the pivot.'''
  a = np.array(rows, _cell_dtype(m)) % m
  order = 1
  for j in range(a.shape[1]):
    a = a[a[:, j:].any(axis=1)]
    while (nz := np.flatnonzero(a[:, j])).size > 1:
      p = nz[np.argmin(a[nz, j])]
      q = a[nz, j] // a[p, j]
      q[nz == p] = 0
      a[nz] = (a[nz] - q[:, None] * a[p]) % m
    if nz.size:
      t = m // math.gcd(int(a[nz[0], j]), m)
      order *= t
      a[nz[0]] = a[nz[0]] * t % m
  return order


def _image_order(sys: DucciSystem, r: int) -> int:
  '''|D^r(Z_m^n)|.  D^r is the circulant of row r, so its image is the
  span of the row's n rotations.  Elimination touches n^3 cells, a
  Python-int cell weighing as 64, and is refused past COEFF_CELL_CAP.'''
  _check_cells(sys.n ** 3, 'elimination', _cell_dtype(sys.m))
  row = _row(sys, r).tolist()
  return _span_order([row[i:] + row[:i] for i in range(sys.n)], sys.m)


def verify_cycle_subgroup(m: int, n: int) -> CheckReport:
  '''The cycle states of Z_m^n form a subgroup, closed under rotation
  and scaling, that the pair-sum map permutes.

  Decided from coefficient rows, never by enumeration.  The images
  D^r(Z) are nested subgroups and each strict shrink at least halves
  them, so from R = n * bitlen(m - 1) >= log2 |Z| on they are the cycle
  states.  Equal orders of D^R(Z) and D^(R+1)(Z) show that D maps them
  onto themselves, hence permutes them; an image of a homomorphism is a
  subgroup, and rotation, which commutes with every circulant, keeps it.'''
  def case(m, n):
    sys, row = make_system(m, n), n * (m - 1).bit_length()
    orders = [_image_order(sys, row), _image_order(sys, row + 1)]
    if orders[0] != orders[1]:
      return 'fail', {'violation': 'image_still_shrinking', 'row': row,
                      'orders': orders}
    return 'pass', {'order': orders[0]}
  params = {'m': m, 'n': n}
  return _sweep('cycle_subgroup', params, [params], case)


def verify_predecessor_count(m: int, n: int) -> CheckReport:
  '''For even n: every state has 0 or exactly m predecessors, and the
  predecessors of a state form one translation family
  (y_1 + z, y_2 - z, ..., y_{n-1} + z, y_n - z) for z in 0..m-1.

  Decided from row 1 by elimination.  Every fibre of D is empty or a
  coset of ker D, which holds the m multiples of (1, -1, ..., 1, -1);
  so both claims hold exactly when |ker D| = m^n / |D(Z)| is m.  The zero
  state has exactly |ker D| predecessors, the witness otherwise.'''
  def case(m, n):
    sys = make_system(m, n)
    if n % 2 == 1:
      return 'skip', 'hypothesis: n must be even'
    image = _image_order(sys, 1)
    if m * image != sys.state_count:
      return 'fail', {'state': [0] * n, 'count': sys.state_count // image}
    return 'pass', {'states': sys.state_count, 'with_preds': image}
  params = {'m': m, 'n': n}
  return _sweep('predecessor_count', params, [params], case)


# --- congruence checks -------------------------------------------------

def verify_binomial_congruences(j_range=range(2, 17)) -> CheckReport:
  '''Row-2^j binomial congruences: the central cell is 2 mod 4 and
  6 mod 8, every other inner cell is 0 mod 4; row 2^j - 1 is odd
  everywhere with central cell 3 mod 4.'''
  def case(j):
    if j < 2:
      return 'skip', 'hypothesis: j must be >= 2'
    big, half = 2 ** j, 2 ** (j - 1)
    row = binom_mod_pow2_range(big, 3)
    odd_row = binom_mod_pow2_range(big - 1, 2)
    observed = {'center_mod4': int(row[half]) % 4,
                'center_mod8': int(row[half]),
                'odd_center_mod4': int(odd_row[half])}
    if observed['center_mod4'] != 2:
      return 'fail', {'cell': [big, half], 'mod4': observed['center_mod4']}
    if observed['center_mod8'] != 6:
      return 'fail', {'cell': [big, half], 'mod8': observed['center_mod8']}
    if observed['odd_center_mod4'] != 3:
      return 'fail', {'cell': [big - 1, half],
                      'mod4': observed['odd_center_mod4']}
    row %= 4
    row[0] = row[half] = row[big] = 0
    nonzero = np.nonzero(row)[0]
    if nonzero.size:
      return 'fail', {'cell': [big, int(nonzero[0])],
                      'mod4': int(row[nonzero[0]])}
    even_cells = np.nonzero(odd_row % 2 != 1)[0]
    if even_cells.size:
      return 'fail', {'cell': [big - 1, int(even_cells[0])], 'mod2': 0}
    return 'pass', observed
  return _sweep('binomial_congruences', {'j': list(j_range)},
                [{'j': j} for j in j_range], case)


def verify_coeff_pair_sum1(k_range=range(1, 7),
                           l_range=range(1, 7)) -> CheckReport:
  '''Columns half a turn apart sum to 0 mod 2^l on row l * 2^(k-1).'''
  def case(k, l=None):
    if k < 1:
      return 'skip', 'hypothesis: k must be >= 1'
    if l < 0:
      return 'skip', 'hypothesis: l must be >= 0'
    half = 2 ** (k - 1)
    mod, row = 1 << l, l * half
    # Every sum is 0 mod 1, so l = 0 reads its row mod 2.
    cells = _row(make_system(max(mod, 2), 2 ** k), row).tolist()
    for s in range(1, 2 ** k + 1):
      a, b = cells[s - 1], cells[s - 1 - half]
      if (a + b) % mod:
        return 'fail', {'row': row, 's': s, 'cells': [a, b]}
    return 'pass', {'row': row}
  # A k outside the hypothesis is one case for every l.
  grid = [params for k in k_range
          for params in ([{'k': k}] if k < 1
                         else [{'k': k, 'l': l} for l in l_range])]
  return _sweep('coeff_pair_sum1', {'k': list(k_range), 'l': list(l_range)},
                grid, case)


def verify_coeff_pair_sum2(k_range=range(2, 7),
                           l_range=range(3, 7)) -> CheckReport:
  '''Two chosen cells of row (l-1) * 2^(k-1) sum to 0 mod 2^l;
  hypotheses l >= 3 and k >= 2; columns are cyclic.'''
  def case(sys, k, l):
    row = (l - 1) * 2 ** (k - 1)
    s1 = l * 2 ** (k - 2) + 1
    s2 = l * 2 ** (k - 2) - 2 ** (k - 1) + 1
    cells = _row(sys, row).tolist()
    a, b = cells[(s1 - 1) % sys.n], cells[(s2 - 1) % sys.n]
    if (a + b) % sys.m:
      return 'fail', {'row': row, 'columns': [s1, s2], 'cells': [a, b]}
    return 'pass', {'row': row, 'columns': [s1, s2]}
  return _pow2_sweep('coeff_pair_sum2', k_range, l_range, case, 2, 3,
                     'l >= 3 and k >= 2')


def verify_half_modulus_pivot(k_range=range(2, 7),
                              l_range=range(2, 7)) -> CheckReport:
  '''a(l * 2^(k-1), l * 2^(k-2) + 1) is exactly 2^(l-1) mod 2^l;
  hypotheses l >= 2 and k >= 2; the column is cyclic.'''
  def case(sys, k, l):
    row, col = l * 2 ** (k - 1), l * 2 ** (k - 2) + 1
    value = int(_row(sys, row)[(col - 1) % sys.n])
    if value != 1 << (l - 1):
      return 'fail', {'row': row, 'col': col, 'value': value,
                      'expected': 1 << (l - 1)}
    return 'pass', {'row': row, 'col': col, 'value': value}
  return _pow2_sweep('half_modulus_pivot', k_range, l_range, case, 2, 2,
                     'l >= 2 and k >= 2')


# --- the runner --------------------------------------------------------

# CLI name -> the reports of that check, given run_checks' arguments as
# `a`; a.k(lo, hi) is the k range with defaults lo..hi (a.l, a.j alike).
# Each row names its check inside the lambda, so the check is looked up
# on this module at call time and a rebound verify_* (a tracer's
# wrapper, say) is the one that runs.
_CHECKS = {
  'main': lambda a: [verify_length_formula(a.k(1, 5), a.l(1, 6))],
  'lower': lambda a: [verify_length_lower_bound(a.k(1, 5), a.l(1, 6))],
  'bound': lambda a: [verify_vanishing_bound(a.k(1, 5), a.l(1, 6))],
  'l2': lambda a: [verify_binary_length_formula(
    16 if a.n_max is None else a.n_max)],
  'kernel': lambda a: [verify_trivial_kernel(a.k(1, 5), a.l(1, 6))],
  'subgroup': lambda a: [verify_cycle_subgroup(m, n) for m, n in a.systems],
  'preds': lambda a: [verify_predecessor_count(m, n) for m, n in a.systems],
  'binom': lambda a: [verify_binomial_congruences(a.j(2, 16))],
  'sum1': lambda a: [verify_coeff_pair_sum1(a.k(1, 6), a.l(1, 6))],
  'sum2': lambda a: [verify_coeff_pair_sum2(a.k(2, 6), a.l(3, 6))],
  'pivot': lambda a: [verify_half_modulus_pivot(a.k(2, 6), a.l(2, 6))],
}

CHECK_NAMES = tuple(_CHECKS)

DEFAULT_SYSTEMS = tuple(
  (m, n) for m in range(2, 7) for n in range(1, 9) if m ** n <= 1 << 16)


def run_checks(names=None, *, k_min=None, k_max=None, l_min=None, l_max=None,
               j_min=None, j_max=None, n_max=None,
               systems=None) -> list[CheckReport]:
  '''Run the named checks (all of them by default) and return reports
  sorted by check id and parameters.

  Range arguments override only the endpoints a caller provides; every
  check keeps its own documented default sweep otherwise.
  '''
  selected = list(names) if names else list(CHECK_NAMES)
  if 'all' in selected:
    selected = list(CHECK_NAMES)
  unknown = [name for name in selected if name not in _CHECKS]
  if unknown:
    raise ParameterError(f'unknown check names: {unknown}')

  def bounded(lo, hi):
    return lambda default_lo, default_hi: range(
      default_lo if lo is None else lo, (default_hi if hi is None else hi) + 1)

  args = SimpleNamespace(
    k=bounded(k_min, k_max), l=bounded(l_min, l_max),
    j=bounded(j_min, j_max), n_max=n_max,
    systems=list(DEFAULT_SYSTEMS) if systems is None else list(systems))
  reports = [report for name in selected for report in _CHECKS[name](args)]
  reports.sort(key=lambda r: (r.check_id,
                              json.dumps(r.parameters, sort_keys=True)))
  return reports


def reports_to_jsonl(reports, include_elapsed: bool = False) -> str:
  '''One JSON object per line, stable key order, no timing data unless
  requested (timings would break byte-identical reruns).'''
  return '\n'.join(
    json.dumps(r.to_json_obj(include_elapsed), separators=(',', ':'))
    for r in reports) + '\n'


def _params_text(parameters: dict) -> str:
  # "k=1..5 l=1..6": a run of consecutive values as first..last.
  parts = []
  for key, value in parameters.items():
    if isinstance(value, list):
      run = len(value) > 1 and value == list(range(value[0], value[-1] + 1))
      value = f'{value[0]}..{value[-1]}' if run else ','.join(map(str, value))
    parts.append(f'{key}={value}')
  return ' '.join(parts)


def summary_table(reports) -> str:
  '''Aligned text table: check id, parameters, case tallies, verdict,
  elapsed.  The parameters column names each report's sweep or system;
  a table of a single report leaves it out.'''
  header = ('check_id', 'params', 'cases', 'pass', 'fail', 'skip', 'verdict',
            'elapsed')
  rows = [header]
  for r in reports:
    tally = Counter(case.verdict for case in r.cases)
    rows.append((r.check_id, _params_text(r.parameters), str(len(r.cases)),
                 str(tally['pass']), str(tally['fail']), str(tally['skip']),
                 r.verdict, f'{r.elapsed:.3f}s'))
  if len(reports) == 1:
    rows = [row[:1] + row[2:] for row in rows]
  widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
  lines = []
  for row in rows:
    lines.append('  '.join(cell.ljust(widths[i])
                           for i, cell in enumerate(row)).rstrip())
  return '\n'.join(lines) + '\n'


def exit_code(reports) -> int:
  '''0 when everything passed or was a hypothesis skip, 1 on any
  failure, 3 when caps prevented a full verdict.'''
  if any(r.verdict == 'fail' for r in reports):
    return 1
  capped = any(c.verdict == 'skip' and (c.reason or '').startswith('cap')
               for r in reports for c in r.cases)
  return 3 if capped else 0
