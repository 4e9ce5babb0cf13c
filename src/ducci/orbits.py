'''Orbit analytics for the pair-sum map.

For a state u the forward orbit u, D(u), D^2(u), ... is eventually
periodic.  `len` is the number of steps before the orbit first enters
its cycle (the pre-period) and `per` is the cycle length, i.e. the
smallest a, b with D^(a+b)(u) = D^a(u).  A state "vanishes" when its
cycle is exactly {(0, ..., 0)}.  Whether len + per fits a cap is decided
on coefficients packed into ints, in O(sqrt(cap)) steps and memory,
storing no state.

Naming note: throughout this package L_m(n) is the pre-period of the
basic tuple (0, ..., 0, 1) in Z_m^n and P_m(n) its period, with the
subscript always the modulus and the argument always the tuple length,
so for instance L_4(2) = 3.
'''

from __future__ import annotations

import math
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product, repeat
from typing import Sequence

import numpy as np

from . import _statespace
from .coeffs import (_check_cells, _dtype, _flip, _mod, _power, _rows,
                     _sums_fit, _times)
from .core import (DucciSystem, ResidueTuple, _check_int, _step, basic_tuple,
                   format_tuple, validate_tuple)
from .errors import CapExceededError
from .limits import ENUM_NODE_CAP, ORBIT_VISIT_CAP

__all__ = [
  'OrbitSummary', 'KernelSet', 'orbit_summary', 'orbit_len_per_lowmem',
  'basic_len_per', 'vanishes', 'predecessors', 'kernel_set', 'len_per_map',
]


@dataclass(frozen=True)
class OrbitSummary:
  '''Pre-period, period, and the witnessing states of one orbit.

  `tail` holds the first `len` states (u itself first); `cycle` holds
  the `per` states of the cycle starting at D^len(u).
  '''

  len: int
  per: int
  tail: tuple[ResidueTuple, ...]
  cycle: tuple[ResidueTuple, ...]

  def to_json_obj(self) -> dict:
    return {
      'len': self.len,
      'per': self.per,
      'tail': [list(t) for t in self.tail],
      'cycle': [list(c) for c in self.cycle],
    }


@dataclass(frozen=True, eq=False)
class KernelSet:
  '''All states of a system that live on cycles.

  This set is a subgroup of Z_m^n, closed under the rotation map, and
  the pair-sum map restricted to it is a bijection.  `rows` holds the
  members as an (order, n) digit matrix in lexicographic order;
  `members` is built from it on first use.
  '''

  rows: np.ndarray

  @cached_property
  def members(self) -> frozenset[ResidueTuple]:
    return frozenset(self.sorted_members())

  @property
  def order(self) -> int:
    return len(self.rows)

  def sorted_members(self) -> list[ResidueTuple]:
    return list(map(tuple, self.rows.tolist()))

  def to_json_obj(self) -> list[list[int]]:
    return self.rows.tolist()

  def __eq__(self, other) -> bool:
    if not isinstance(other, KernelSet):
      return NotImplemented
    return self.members == other.members

  def __hash__(self) -> int:
    return hash(self.members)


# States the opening walk takes before the search.  Orbits this short
# end in it, and orbit_summary lists their states by stepping, cheaper
# there than the row stream; every longer orbit and every refusal pays
# for the walk on top of the search.  With packed steps, over the 360
# refused point_queries orbit queries of seeds 4001-4020 (sums of
# per-query minima of 15), openings of 16, 24, 32 and 48 took 200, 205,
# 206 and 208 ms, while the 360 fitting ones gained at most 2% at 32;
# refusals set the latency tail, so 16.
_OPENING = 16


def _lane_bytes(sys: DucciSystem) -> int:
  # W / 8 for lanes of W bits, W the least multiple of 8 with
  # m <= 2^(W-1): a pair sum, at most 2m - 2, then fits its lane.
  return ((sys.m - 1).bit_length() + 8) // 8


def _pack(a: np.ndarray, size: int) -> int:
  # Cell i of a in lane i, `size` bytes, of one int.  A lane of 1, 2, 4
  # or 8 bytes is a numpy dtype; other widths go cell by cell.
  if size in (1, 2, 4, 8):
    return int.from_bytes(a.astype(f'<u{size}').tobytes(), 'little')
  return int.from_bytes(b''.join(int(c).to_bytes(size, 'little')
                                 for c in a.tolist()), 'little')


def _lane_step(w: int, lanes: tuple[int, ...]) -> int:
  # (1 + x) * w on packed lanes: w plus w rotated up one lane (x^n = 1),
  # less m in each lane that reached m.  Adding 2^(W-1) - m to every
  # lane sets a lane's top bit exactly then, and no lane carries.
  width, wrap, full, ones, bias, m = lanes
  w += (w << width) & full | w >> wrap
  return w - ((w + bias) >> width - 1 & ones) * m


def _len_per(sys: DucciSystem, u: ResidueTuple, cap: int) -> tuple[int, int]:
  '''(len, per) of the orbit of u if len + per <= cap, else refuse.

  D^r is multiplication by (1+x)^r in Z_m[x]/(x^n - 1), u_(-j) at x^j.
  Every state walked is one int, coefficient j in lane j of W bits (see
  _lane_bytes), stepped by _lane_step and its own dict key; powers and
  giant steps are numpy products, each packed once.  A refusal's message
  names u itself.  Orbits of up to _OPENING states end in a walk.  Past
  that, y = D^cap(u) is on the cycle iff len <= cap.  With
  b = ceil(sqrt(cap)), baby steps D^j(y), j < b, and giant steps
  (1+x)^(ib) y meet first p steps apart: p = per if y is on the cycle,
  else a multiple of it.  Either way u and D^p(u) meet after len
  lockstep steps, so len + per <= cap iff len + p <= cap.  Past b
  lockstep steps, D^(cap-p)(u) == y decides at once whether
  len <= cap - p, so a refusal stays within O(sqrt(cap)) steps.
  '''
  _check_int(cap, 'state cap')
  b = math.isqrt(cap - 1) + 1 if cap > 0 else 0
  m, n, size = sys.m, sys.n, _lane_bytes(sys)
  width, full = 8 * size, (1 << 8 * size * n) - 1
  ones = full // ((1 << width) - 1)
  lanes = width, width * (n - 1), full, ones, ((1 << width - 1) - m) * ones, m
  v = np.array(_flip(u), _dtype(sys))
  start = _pack(v, size)

  def walk(w: int, limit: int) -> tuple[dict, int]:
    # w, D(w), ... by index until a repeat or `limit` states; the next.
    seen: dict = {}
    for i in range(limit):
      if seen.setdefault(w, i) != i:
        break
      w = _lane_step(w, lanes)
    return seen, w
  seen, w = walk(start, min(_OPENING, cap))
  if w in seen:
    return seen[w], len(seen) - seen[w]
  text = format_tuple(u) if len(u) <= 8 else (
    format_tuple(u[:4])[:-1] + ',...,' + format_tuple(u[-4:])[1:])
  _check_cells(min(cap + 1, n) * n,
               f'orbit search for {text} in {sys}', v.dtype)
  z = _power(sys, cap, v)
  baby, w = walk(y := _pack(z, size), b)
  p = len(baby) - baby[w] if w in baby else None
  if p is None:
    giant = _power(sys, b)
    if n <= b and _sums_fit(m, n, 53):
      # (1+x)^b has all n coefficients and every sum of n products is
      # below 2^53: a giant step is one exact float64 (BLAS) product with
      # their circulant, no more cells than the b baby keys hold.  Every
      # other giant step convolves with (1+x)^b in _times.
      cols = np.arange(n)
      giant = giant[(cols[:, None] - cols) % n].astype(np.float64)
    for i in range(1, b + 1):
      z = _mod(sys, giant.dot(z)) if giant.ndim == 2 else _times(sys, z, giant)
      if (w := _pack(z, size)) in baby:
        p = i * b - baby[w]
        break
  refused = CapExceededError(
    f'orbit of {text} in {sys} exceeds {cap} states',
    required=cap + 1, cap=cap)
  if p is None or p > cap:
    raise refused
  ahead, length, w = _pack(_power(sys, p, v), size), 0, start
  while w != ahead:
    if length == b and _pack(_power(sys, cap - p, v), size) != y:
      raise refused
    w, ahead = _lane_step(w, lanes), _lane_step(ahead, lanes)
    length += 1
  if length + p > cap:
    raise refused
  return length, p


def orbit_summary(sys: DucciSystem, u: Sequence[int], *,
                  max_states: int = ORBIT_VISIT_CAP) -> OrbitSummary:
  '''Pre-period, period and the states of the orbit of u.

  Whether they fit is decided before anything is stored.  Raises
  `CapExceededError` past `max_states` states (`required` is
  max_states + 1) or past `COEFF_CELL_CAP` cells: the search's row
  products, min(max_states + 1, n) * n, or the stored (len + per) * n.
  For longer orbits use `orbit_len_per_lowmem`.
  '''
  cur = validate_tuple(sys, u)
  length, per = _len_per(sys, cur, max_states)
  count = length + per
  _check_cells(count * sys.n, f'orbit in {sys}', _dtype(sys))
  states = (_rows(sys, np.array(_flip(cur), _dtype(sys)), count,
                  -np.arange(sys.n)) if count > _OPENING else
            list(accumulate(repeat(sys.m, count - 1), _step, initial=cur)))
  return OrbitSummary(
    len=length,
    per=per,
    tail=tuple(states[:length]),
    cycle=tuple(states[length:]),
  )


def orbit_len_per_lowmem(sys: DucciSystem, u: Sequence[int], *,
                         max_steps: int = ORBIT_VISIT_CAP) -> tuple[int, int]:
  '''(pre-period, period) in O(sqrt(max_steps)) memory, storing no orbit.

  Refuses when len + per > max_steps, or when the search's row products
  pass `COEFF_CELL_CAP`, like `orbit_summary`.
  '''
  return _len_per(sys, validate_tuple(sys, u), max_steps)


def basic_len_per(sys: DucciSystem, *,
                  max_states: int = ORBIT_VISIT_CAP) -> tuple[int, int]:
  '''(L_m(n), P_m(n)): pre-period and period of the basic tuple.'''
  return orbit_len_per_lowmem(sys, basic_tuple(sys), max_steps=max_states)


def vanishes(sys: DucciSystem, u: Sequence[int], *,
             max_states: int = ORBIT_VISIT_CAP) -> bool:
  '''True when the orbit of u ends in the fixed point (0, ..., 0).

  That is when its period is 1: D(w) = w forces every w_(i+1) = 0, so
  zero is the only fixed point of D.
  '''
  return orbit_len_per_lowmem(sys, u, max_steps=max_states)[1] == 1


def predecessors(sys: DucciSystem, u: Sequence[int]) -> list[ResidueTuple]:
  '''All v with one pair-sum step v -> u, in lexicographic order.

  Solving y_i + y_{i+1} = x_i from y_1 = 0 gives c, and every solution
  is y_i = c_i + (-1)^(i-1) y_1 for which the wrap-around y_n + y_1 = x_n
  holds; ascending y_1 is lexicographic order.  With d = x_n - c_n mod m,
  even n needs d = 0, and then every y_1 works: 0 or exactly m
  predecessors, a list refused past `COEFF_CELL_CAP` cells (m * n) before
  it is built.  Odd n needs 2 y_1 = d mod m: one solution for odd m, and
  0 or 2 for even m.
  '''
  x = validate_tuple(sys, u)
  m, n = sys.m, sys.n
  c = [0]
  for i in range(n - 1):
    c.append((x[i] - c[i]) % m)
  d = (x[-1] - c[-1]) % m
  if n % 2 == 0:
    if d:
      return []
    _check_cells(m * n, 'predecessor list')
    firsts = range(m)
  elif m % 2:
    firsts = [d * (m + 1) // 2 % m]
  else:
    firsts = [] if d % 2 else [d // 2, d // 2 + m // 2]
  return [tuple((ci - y1 if i % 2 else ci + y1) % m for i, ci in enumerate(c))
          for y1 in firsts]


def kernel_set(sys: DucciSystem, *,
               max_states: int = ENUM_NODE_CAP) -> KernelSet:
  '''The cycle states of `sys`, by pointer doubling on the successor
  array: the image of D^(2^t) stops shrinking exactly when it has become
  the set of cycle states.
  '''
  codes = _statespace.kernel_codes(sys.m, sys.n, max_states)
  return KernelSet(_statespace.digits(codes, sys.m, sys.n))


class _Values(ValuesView):
  def __iter__(self):
    return zip(self._mapping._lens.tolist(), self._mapping._pers.tolist())


class _Items(ItemsView):
  def __iter__(self):
    return zip(self._mapping, self._mapping.values())


class _LenPerMap(Mapping):
  # Read-only (len, per) by state over the per-code arrays; states
  # iterate in lexicographic order, which is ascending code order.

  def __init__(self, sys: DucciSystem, lens: np.ndarray, pers: np.ndarray):
    self._sys, self._lens, self._pers = sys, lens, pers

  def __len__(self) -> int:
    return len(self._lens)

  def __iter__(self):
    return product(range(self._sys.m), repeat=self._sys.n)

  def __getitem__(self, u) -> tuple[int, int]:
    m, n = self._sys.m, self._sys.n
    if not (isinstance(u, tuple) and len(u) == n
            and all(d in range(m) for d in u)):
      raise KeyError(u)
    code = _statespace.encode(map(int, u), m)
    return int(self._lens[code]), int(self._pers[code])

  def values(self) -> ValuesView:
    return _Values(self)

  def items(self) -> ItemsView:
    return _Items(self)


def len_per_map(sys: DucciSystem, *,
                max_states: int = ENUM_NODE_CAP,
                ) -> Mapping[ResidueTuple, tuple[int, int]]:
  '''(pre-period, period) for every state of the system at once.

  Array passes over the successor array instead of m^n orbit walks:
  find the cycles and their lengths by pointer doubling, then step the
  off-cycle states forward until each lands on a cycle.  The result is
  a read-only mapping over those two arrays, not a dict: it iterates
  the states in lexicographic order, makes a state's tuple only when
  asked, and equals the dict it stands for.
  '''
  succ = _statespace.successor_array(sys.m, sys.n, max_states)
  lens, pers, _, _ = _statespace.tail_cycle_tables(succ)
  return _LenPerMap(sys, lens, pers)
