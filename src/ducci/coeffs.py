'''Coefficient calculus for iterated pair-sum maps.

Write D for the pair-sum map on Z_m^n.  Row r of the coefficient table
holds the residues a(r, 1), ..., a(r, n) defined by

    D^r(0, ..., 0, 1) = (a(r, n), a(r, n-1), ..., a(r, 1)),

equivalently by the cyclic Pascal recurrence a(r, s) = a(r-1, s) +
a(r-1, s-1) with column index taken mod n in 1..n and row 0 the
indicator of column 1.  Coordinate i of D^r(x) is then
sum_s a(r, s-i+1) * x_s, so one table row evaluates D^r on any state
without stepping.  Below the wrap (r < n) the table is plain Pascal:
a(r, s) = C(r, s-1).

In Z_m[x]/(x^n - 1) row r is (1+x)^r, and D^r(u) is (1+x)^r times
sum_s u_s x^(1-s) read at x^0, x^-1, ...; either is O(log r) cyclic
convolutions by square-and-multiply, and no call keeps anything.
`coeff_table` builds rows 0..r_max by the recurrence.

Also here: C(N, K) mod 2^l.  The power of two dividing it is the number
of carries when adding K and N-K in base 2.  Its odd part comes from
odd parts of factorials, and the odd part of N! is the product of the
odd t <= N times the odd part of (N >> 1)!: one lookup per bit of N in
a table of odd-residue prefix products mod 2^l (Granville's reduction).
'''

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import DucciSystem, ResidueTuple, validate_tuple
from .errors import CapExceededError, ParameterError
from .limits import COEFF_CELL_CAP

__all__ = [
  'CoeffTable', 'CoeffView', 'coeff_table', 'coeff_at',
  'apply_coeff_expansion', 'coeff_view', 'view_f', 'view_g', 'view_h',
  'binom_mod_pow2', 'binom_mod_pow2_range',
]


def _check_cells(cells: int, what: str = 'table') -> None:
  if cells > COEFF_CELL_CAP:
    raise CapExceededError(
      f'{what} of {cells} cells exceeds the {COEFF_CELL_CAP}-cell cap',
      required=cells, cap=COEFF_CELL_CAP)


def _check_index(r: int, name: str = 'row index') -> None:
  if not isinstance(r, int) or r < 0:
    raise ParameterError(f'{name} must be an integer >= 0, got {r!r}')


def _check_row(sys: DucciSystem, r: int, name: str = 'row index') -> None:
  # The cell cap bounds the work of one row: each of its O(log r)
  # convolutions multiplies n by at most min(r + 1, n) coefficients.
  _check_index(r, name)
  _check_cells(min(r + 1, sys.n) * sys.n, 'row products')


def _dtype(sys: DucciSystem) -> type:
  # A product cell sums at most n products of residues, so int64 is
  # exact while n * (m-1)^2 < 2^63.  Past that, uint64 arithmetic wraps
  # mod 2^64, which is exact mod any m dividing 2^64; other moduli use
  # Python ints.
  if sys.n * (sys.m - 1) ** 2 < 1 << 63:
    return np.int64
  return np.uint64 if (1 << 64) % sys.m == 0 else object


def _mod(sys: DucciSystem, w: np.ndarray) -> np.ndarray:
  # In uint64 nothing is left to reduce when m is 2^64 itself.
  return w if sys.m == 1 << 64 else w % sys.m


def _times(sys: DucciSystem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
  # a * b in Z_m[x]/(x^n - 1); a and b hold at most n coefficients each.
  full = np.convolve(a, b)
  head, tail = full[:sys.n], full[sys.n:]
  head[:len(tail)] += tail  # x^n = 1
  return _mod(sys, head)


def _times_1x(sys: DucciSystem, v: np.ndarray, back=None) -> np.ndarray:
  # (1 + x) * v: v plus v moved up one place (x^n = 1), one longer while
  # v holds fewer than n.  Frequent callers pass back = arange(-1, n - 1).
  if len(v) < sys.n:
    v = np.concatenate((v, np.zeros(1, v.dtype)))
  return _mod(sys, v + v[np.arange(-1, len(v) - 1) if back is None else back])


def _power(sys: DucciSystem, r: int, v: Sequence[int]) -> np.ndarray:
  # (1+x)^r * v in Z_m[x]/(x^n - 1) by square-and-multiply.
  dtype = _dtype(sys)
  out = np.ones(1, dtype)
  for bit in f'{r:b}':
    out = _times(sys, out, out)
    if bit == '1':
      out = _times_1x(sys, out)
  return _times(sys, out, np.array(v, dtype))


def _row(sys: DucciSystem, r: int) -> np.ndarray:
  '''Coefficient row r, (1+x)^r, as n residues; refused when its
  products pass the cell cap.'''
  _check_row(sys, r)
  head = _power(sys, r, [1])  # min(r + 1, n) coefficients
  row = np.zeros(sys.n, head.dtype)
  row[:len(head)] = head
  return row


def _flip(x: Sequence[int]) -> list[int]:
  # Entry i of a state is the coefficient of x^(-i); its own inverse.
  return [x[-i] for i in range(len(x))]


def _norm_col(n: int, s: int) -> int:
  # Column indices are cyclic: s and s + n name the same column.
  return (s - 1) % n + 1


@dataclass(frozen=True)
class CoeffTable:
  '''Immutable snapshot of coefficient rows 0..r_max for one system.'''

  sys: DucciSystem
  r_max: int
  rows: tuple[ResidueTuple, ...]

  def at(self, r: int, s: int) -> int:
    '''a(r, s) with the column index normalized cyclically into 1..n.'''
    if not 0 <= r <= self.r_max:
      raise ParameterError(f'row {r} outside 0..{self.r_max}')
    return self.rows[r][_norm_col(self.sys.n, s) - 1]

  def to_csv(self) -> str:
    lines = ['r,s,value']
    for r, row in enumerate(self.rows):
      for s0, value in enumerate(row):
        lines.append(f'{r},{s0 + 1},{value}')
    return '\n'.join(lines) + '\n'


def coeff_table(sys: DucciSystem, r_max: int) -> CoeffTable:
  '''Rows 0..r_max of the coefficient table, residues mod m.'''
  _check_index(r_max)
  _check_cells((r_max + 1) * sys.n)
  m, n = sys.m, sys.n
  rows = [(1 % m,) + (0,) * (n - 1)]
  for _ in range(r_max):
    prev = rows[-1]
    rows.append(tuple((prev[s] + prev[s - 1]) % m for s in range(n)))
  return CoeffTable(sys, r_max, tuple(rows))


def coeff_at(sys: DucciSystem, r: int, s: int) -> int:
  '''Single cell a(r, s); column index normalized cyclically.'''
  return int(_row(sys, r)[_norm_col(sys.n, s) - 1])


def apply_coeff_expansion(sys: DucciSystem, u: Sequence[int],
                          r: int) -> ResidueTuple:
  '''Evaluate D^r(u) from table row r alone, never by stepping.

  Coordinate i of the result is sum_s a(r, s-i+1) * u_s mod m; agreement
  with repeated stepping is what the tests pin down.
  '''
  x = validate_tuple(sys, u)
  _check_row(sys, r, 'iteration count')
  return tuple(_flip(_power(sys, r, _flip(x)).tolist()))


@dataclass(frozen=True)
class CoeffView:
  '''A named window into the table for systems with n = 2^k.

  kind "f": a(gamma * 2^(k-1), delta)            (needs k >= 1)
  kind "g": a(gamma * 2^(k-1), eps * 2^(k-2) + delta)   (needs k >= 2)
  kind "h": a(gamma * 2^(k-1) - 1, delta)        (needs k >= 1, gamma >= 1)
  '''

  kind: str
  gamma: int
  delta: int
  eps: int | None = None


def coeff_view(sys: DucciSystem, view: CoeffView) -> int:
  '''Evaluate a view; rejects systems whose n is not a suitable power of 2.'''
  k = sys.pow2_n
  if k is None or k < 1:
    raise ParameterError(f'views need n = 2^k with k >= 1, got n = {sys.n}')
  if view.kind == 'f':
    return coeff_at(sys, view.gamma * 2 ** (k - 1), view.delta)
  if view.kind == 'g':
    if k < 2:
      raise ParameterError('g-views need n = 2^k with k >= 2')
    if view.eps is None:
      raise ParameterError('g-views need an eps parameter')
    return coeff_at(sys, view.gamma * 2 ** (k - 1),
                    view.eps * 2 ** (k - 2) + view.delta)
  if view.kind == 'h':
    row = view.gamma * 2 ** (k - 1) - 1
    if row < 0:
      raise ParameterError('h-views need gamma * 2^(k-1) >= 1')
    return coeff_at(sys, row, view.delta)
  raise ParameterError(f'unknown view kind {view.kind!r}')


def view_f(sys: DucciSystem, gamma: int, delta: int) -> int:
  return coeff_view(sys, CoeffView('f', gamma, delta))


def view_g(sys: DucciSystem, gamma: int, eps: int, delta: int) -> int:
  return coeff_view(sys, CoeffView('g', gamma, delta, eps))


def view_h(sys: DucciSystem, gamma: int, delta: int) -> int:
  return coeff_view(sys, CoeffView('h', gamma, delta))


# --- binomial coefficients mod 2^l ------------------------------------

def _odd_prefix(size: int, l: int) -> Sequence[int]:
  '''table[j] = product of the odd t <= j, mod 2^l, for j < size.'''
  _check_cells(size, 'binomial table')
  mod = 1 << l
  if l > 64:
    return tuple(accumulate((t if t & 1 else 1 for t in range(size)),
                            lambda a, b: a * b % mod))
  # One uint64 pass: products wrap mod 2^64, which 2^l divides.
  table = np.arange(size, dtype=np.uint64)
  table[::2] = 1
  np.multiply.accumulate(table, out=table)
  table &= np.uint64(mod - 1)
  return table


@lru_cache(maxsize=None)
def _period_prefix(l: int) -> tuple[int, ...]:
  # One full period of odd residues, for l <= 16: at most 2^16 cells.
  return tuple(_odd_prefix(1 << l, l).tolist())


def _odd_factorial(big: int, l: int, table: Sequence[int]) -> int:
  # Odd part of big! mod 2^l: the odd t <= big, which are (big >> l)
  # periods of odd residues and the prefix up to big mod 2^l, times the
  # odd part of (big >> 1)!.  A table shorter than 2^l has big >> l == 0.
  mod = 1 << l
  out, period = 1, int(table[-1])
  while big:
    out = out * pow(period, big >> l, mod) * int(table[big & (mod - 1)]) % mod
    big >>= 1
  return out


def _check_binom_args(big: int, small: int, l: int) -> None:
  if not isinstance(l, int) or l < 1:
    raise ParameterError(f'modulus exponent must be an integer >= 1, got {l!r}')
  if not isinstance(big, int) or big < 0:
    raise ParameterError(f'upper index must be an integer >= 0, got {big!r}')
  if not isinstance(small, int) or not 0 <= small <= big:
    raise ParameterError(
      f'lower index must be an integer in 0..{big}, got {small!r}')


def binom_mod_pow2(big: int, small: int, l: int) -> int:
  '''C(big, small) mod 2^l without computing the full binomial.

  The carry count c when adding `small` and `big - small` in base 2 is
  the exact power of 2 dividing the binomial; when c < l the odd part
  is a quotient of odd-part factorial products, invertible mod 2^l.
  '''
  _check_binom_args(big, small, l)
  rest = big - small
  carries = small.bit_count() + rest.bit_count() - big.bit_count()
  if carries >= l:
    return 0
  mod = 1 << l
  table = _period_prefix(l) if l <= 16 else _odd_prefix(min(big + 1, mod), l)
  num, den1, den2 = (_odd_factorial(x, l, table) for x in (big, small, rest))
  return (num * pow(den1 * den2, -1, mod) << carries) % mod


@lru_cache(maxsize=None)
def _log5(l: int) -> tuple[np.ndarray, np.ndarray]:
  # For l <= 16 and L = max(l, 3), each odd x is 5^e or -5^e mod 2^L,
  # the latter when x = 3 mod 4.  Returns e by x >> 1, and 5^e mod 2^L.
  mod = 1 << max(l, 3)
  pow5 = np.array([pow(5, e, mod) for e in range(mod >> 2)])
  logs = np.empty(mod >> 1, dtype=np.int64)
  logs[pow5 >> 1] = logs[(mod - pow5) >> 1] = np.arange(mod >> 2)
  return logs, pow5


def binom_mod_pow2_range(big: int, l: int) -> np.ndarray:
  '''C(big, small) mod 2^l for every small in 0..big, as int64.

  Vectorized version of `binom_mod_pow2` for row sweeps, restricted to
  l <= 16; prefix products of odd parts are prefix sums of their logs.
  '''
  _check_binom_args(big, 0, l)
  if l > 16:
    raise ParameterError('row sweeps support l <= 16')
  _check_cells(big + 1, 'binomial row')
  logs, pow5 = _log5(l)
  t = np.arange(1, big + 1)
  half_odd = t >> np.bitwise_count(t ^ (t - 1))  # (odd part of t) >> 1
  exps, signs = (np.concatenate(([0], np.cumsum(x)))
                 for x in (logs[half_odd & (len(logs) - 1)], half_odd & 1))
  vals = pow5[(exps[big] - exps - exps[::-1]) & (len(pow5) - 1)]
  vals = np.where((signs[big] - signs - signs[::-1]) & 1, -vals, vals)
  # 2^carries, the exact power of two dividing the binomial, is 0 mod
  # 2^l once carries >= l; carries <= log2(big) keeps the shift in int64.
  pop = np.bitwise_count(np.arange(big + 1))
  return (vals << (pop + pop[::-1] - big.bit_count())) % (1 << l)
