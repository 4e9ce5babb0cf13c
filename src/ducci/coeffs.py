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
`coeff_table` builds rows 0..r_max by stepping row 0 on a sqrt grid.

Also here: C(N, K) mod 2^l.  The power of two dividing it is the number
of carries when adding K and N-K in base 2.  Its odd part comes from
odd parts of factorials, and the odd part of N! is the product of the
odd t <= N times the odd part of (N >> 1)!: one lookup per bit of N in
a table of odd-residue prefix products mod 2^l (Granville's reduction).
A row C(N, .) mod 2^l, l <= 63, inverts all odd parts of s! at once.
'''

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import DucciSystem, ResidueTuple, _check_int, validate_tuple
from .errors import CapExceededError, ParameterError
from .limits import COEFF_CELL_CAP

__all__ = [
  'CoeffTable', 'coeff_table', 'coeff_at', 'apply_coeff_expansion',
  'view_f', 'view_g', 'view_h',
  'binom_mod_pow2', 'binom_mod_pow2_range',
]


def _check_cells(cells: int, what: str = 'table', dtype=np.int64) -> None:
  cells *= 64 if dtype == object else 1  # a Python-int cell weighs 64
  if cells > COEFF_CELL_CAP:
    raise CapExceededError(
      f'{what} of {cells} cells exceeds the {COEFF_CELL_CAP}-cell cap',
      required=cells, cap=COEFF_CELL_CAP)


def _check_row(sys: DucciSystem, r: int, name: str = 'row index') -> None:
  # The cell cap bounds the work of one row: each of its O(log r)
  # convolutions multiplies n by at most min(r + 1, n) coefficients.
  _check_int(r, name)
  _check_cells(min(r + 1, sys.n) * sys.n, 'row products', _dtype(sys))


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


def _times_1x(sys: DucciSystem, v: np.ndarray) -> np.ndarray:
  # (1 + x) * v along the first axis: v plus v moved up one place
  # (x^n = 1), one longer while v holds fewer than n.
  if len(v) < sys.n:
    v = np.concatenate((v, np.zeros(1, v.dtype)))
  return _mod(sys, v + v[np.arange(-1, len(v) - 1)])


def _power(sys: DucciSystem, r: int, v: Sequence[int]) -> np.ndarray:
  # (1+x)^r * v in Z_m[x]/(x^n - 1) by square-and-multiply.
  dtype = _dtype(sys)
  out = np.ones(1, dtype)
  for bit in f'{r:b}':
    out = _times(sys, out, out)
    if bit == '1':
      out = _times_1x(sys, out)
  return _times(sys, out, np.array(v, dtype))


def _rows(sys: DucciSystem, v: np.ndarray, count: int) -> np.ndarray:
  # (1+x)^0..(1+x)^(count-1) times v as rows, on a grid of
  # B = ceil(sqrt(count)) columns: each checkpoint (1+x)^(iB) v is one
  # convolution past the one before, and B - 1 steps of (1+x) advance
  # every checkpoint at once.
  width = math.isqrt(count - 1) + 1
  jump = _power(sys, width, [1])
  grid = np.empty((-(-count // width), width, sys.n), v.dtype)
  grid[0, 0] = v
  for i in range(1, len(grid)):
    grid[i, 0] = _times(sys, grid[i - 1, 0], jump)
  for j in range(1, width):
    grid[:, j] = _times_1x(sys, grid[:, j - 1].T).T
  return grid.reshape(-1, sys.n)[:count]


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
  _check_int(s, 'column index', None)
  return (s - 1) % n + 1


@dataclass(frozen=True)
class CoeffTable:
  '''Immutable snapshot of coefficient rows 0..r_max for one system.'''

  sys: DucciSystem
  r_max: int
  rows: tuple[ResidueTuple, ...]

  def at(self, r: int, s: int) -> int:
    '''a(r, s) with the column index normalized cyclically into 1..n.'''
    _check_int(r, 'row index', 0, self.r_max)
    return self.rows[r][_norm_col(self.sys.n, s) - 1]

  def to_csv(self) -> str:
    lines = ['r,s,value']
    for r, row in enumerate(self.rows):
      for s0, value in enumerate(row):
        lines.append(f'{r},{s0 + 1},{value}')
    return '\n'.join(lines) + '\n'


def coeff_table(sys: DucciSystem, r_max: int) -> CoeffTable:
  '''Rows 0..r_max of the coefficient table, residues mod m.'''
  _check_int(r_max, 'row index')
  _check_cells((r_max + 1) * sys.n, 'table', _dtype(sys))
  # Blocks of about (r_max + 1)^(3/4) rows, each from its first row by
  # _rows and made tuples before the next, so no whole grid or list of
  # lists sits beside the tuples.
  width = math.isqrt(r_max) + 1
  size = width * (math.isqrt(width) + 1)
  first, jump, rows = _row(sys, 0), _power(sys, size, [1]), []
  for start in range(0, r_max + 1, size):
    rows.extend(map(tuple, _rows(sys, first, min(size, r_max + 1 - start)).tolist()))
    first = _times(sys, first, jump)
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


def _half_turn(sys: DucciSystem) -> int:
  # 2^(k-1) for n = 2^k: the row and column step of the half-turn views.
  if sys.n < 2 or sys.n & (sys.n - 1):
    raise ParameterError(f'views need n = 2^k with k >= 1, got n = {sys.n}')
  return sys.n // 2


def view_f(sys: DucciSystem, gamma: int, delta: int) -> int:
  '''a(gamma * 2^(k-1), delta) for n = 2^k, k >= 1.'''
  return coeff_at(sys, gamma * _half_turn(sys), delta)


def view_g(sys: DucciSystem, gamma: int, eps: int, delta: int) -> int:
  '''a(gamma * 2^(k-1), eps * 2^(k-2) + delta) for n = 2^k, k >= 2.'''
  half = _half_turn(sys)
  if half < 2:
    raise ParameterError('g-views need n = 2^k with k >= 2')
  return coeff_at(sys, gamma * half, eps * (half // 2) + delta)


def view_h(sys: DucciSystem, gamma: int, delta: int) -> int:
  '''a(gamma * 2^(k-1) - 1, delta) for n = 2^k, k >= 1, gamma >= 1.'''
  row = gamma * _half_turn(sys) - 1
  if row < 0:
    raise ParameterError('h-views need gamma * 2^(k-1) >= 1')
  return coeff_at(sys, row, delta)


# --- binomial coefficients mod 2^l ------------------------------------

def _odd_prefix(size: int, l: int) -> Sequence[int]:
  '''table[j] = product of the odd t <= j, mod 2^l, for j < size, in
  uint64 up to l = 64 and as Python ints past it.'''
  _check_cells(size, 'binomial table', object if l > 64 else np.uint64)
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
  _check_int(l, 'modulus exponent', 1)
  _check_int(big, 'upper index')
  _check_int(small, 'lower index', 0, big)


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
  table = _odd_prefix(min(big + 1, mod), l)
  num, den1, den2 = (_odd_factorial(x, l, table) for x in (big, small, rest))
  return (num * pow(den1 * den2, -1, mod) << carries) % mod


def binom_mod_pow2_range(big: int, l: int) -> np.ndarray:
  '''C(big, small) mod 2^l for every small in 0..big, as int64, l <= 63.

  f(s), the odd part of s!, is one uint64 prefix product of odd parts,
  exact mod 2^64.  Newton's step x <- x (2 - f x) doubles the right low
  bits of 1/f; x = f is right mod 8, where odd squares are 1, so five
  steps reach 96.  The binomial's odd part is f(big) / (f(small)
  f(big - small)).
  '''
  _check_binom_args(big, 0, l)
  if l > 63:
    raise ParameterError('row sweeps support l <= 63')
  _check_cells(big + 1, 'binomial row')
  fact = np.arange(big + 1, dtype=np.uint64)
  pop = np.bitwise_count(fact)
  # The odd part of t is t >> ctz(t), and ctz(t) = pop(t - 1) + 1 - pop(t).
  fact[1:] >>= pop[:-1] + 1 - pop[1:]
  fact[0] = 1
  np.multiply.accumulate(fact, out=fact)
  inv, out = fact.copy(), np.empty_like(fact)
  for _ in range(5):
    inv *= np.subtract(2, np.multiply(fact, inv, out=out), out=out)
  np.multiply(inv, inv[::-1], out=out)
  out *= fact[big]
  # 2^carries, the exact power of two dividing the binomial, leaves 0
  # under the mask once carries >= l; carries <= log2(big) < 64.
  out <<= pop + pop[::-1] - pop[big]
  out &= np.uint64((1 << l) - 1)
  return out.view(np.int64)
