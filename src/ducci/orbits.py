'''Orbit analytics for the pair-sum map.

For a state u the forward orbit u, D(u), D^2(u), ... is eventually
periodic.  `len` is the number of steps before the orbit first enters
its cycle (the pre-period) and `per` is the cycle length, i.e. the
smallest a, b with D^(a+b)(u) = D^a(u).  A state "vanishes" when its
cycle is exactly {(0, ..., 0)}.

Naming note: throughout this package L_m(n) is the pre-period of the
basic tuple (0, ..., 0, 1) in Z_m^n and P_m(n) its period, with the
subscript always the modulus and the argument always the tuple length,
so for instance L_4(2) = 3.
'''

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from . import _statespace
from .core import DucciSystem, ResidueTuple, _step, basic_tuple, validate_tuple
from .errors import CapExceededError, ParameterError
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


def orbit_summary(sys: DucciSystem, u: Sequence[int], *,
                  max_states: int = ORBIT_VISIT_CAP) -> OrbitSummary:
  '''Walk the orbit of u until the first repeated state.

  Keeps a map from state to first-visit index, which yields the minimal
  pre-period and period directly.  Raises `CapExceededError` if more
  than `max_states` distinct states would be stored; for such instances
  use `orbit_len_per_lowmem`.
  '''
  cur = validate_tuple(sys, u)
  m = sys.m
  first_seen: dict[ResidueTuple, int] = {}
  states: list[ResidueTuple] = []
  while cur not in first_seen:
    if len(states) >= max_states:
      raise CapExceededError(
        f'orbit of {cur[:8]}... in {sys} exceeds {max_states} states',
        required=len(states) + 1, cap=max_states)
    first_seen[cur] = len(states)
    states.append(cur)
    cur = _step(cur, m)
  enter = first_seen[cur]
  return OrbitSummary(
    len=enter,
    per=len(states) - enter,
    tail=tuple(states[:enter]),
    cycle=tuple(states[enter:]),
  )


def orbit_len_per_lowmem(sys: DucciSystem, u: Sequence[int], *,
                         max_steps: int = ORBIT_VISIT_CAP) -> tuple[int, int]:
  '''(pre-period, period) by Brent's method in constant memory.

  Fallback for orbits too long to store; only the two lengths are
  recovered, the period first, then the pre-period by a tail walk.
  '''
  start = validate_tuple(sys, u)
  m = sys.m
  steps = 0

  def bump():
    nonlocal steps
    steps += 1
    if steps > max_steps:
      raise CapExceededError(
        f'orbit walk in {sys} exceeds {max_steps} steps',
        required=steps, cap=max_steps)

  power = per = 1
  tortoise, hare = start, _step(start, m)
  bump()
  while tortoise != hare:
    if power == per:
      tortoise = hare
      power *= 2
      per = 0
    hare = _step(hare, m)
    bump()
    per += 1
  tortoise = hare = start
  for _ in range(per):
    hare = _step(hare, m)
  length = 0
  while tortoise != hare:
    tortoise = _step(tortoise, m)
    hare = _step(hare, m)
    bump()
    length += 1
  return length, per


def basic_len_per(sys: DucciSystem, *,
                  max_states: int = ORBIT_VISIT_CAP) -> tuple[int, int]:
  '''(L_m(n), P_m(n)): pre-period and period of the basic tuple.'''
  summary = orbit_summary(sys, basic_tuple(sys), max_states=max_states)
  return summary.len, summary.per


def vanishes(sys: DucciSystem, u: Sequence[int], *,
             max_states: int = ORBIT_VISIT_CAP) -> bool:
  '''True when the orbit of u ends in the fixed point (0, ..., 0).'''
  summary = orbit_summary(sys, u, max_states=max_states)
  return summary.cycle == ((0,) * sys.n,)


def predecessors(sys: DucciSystem, u: Sequence[int]) -> list[ResidueTuple]:
  '''All v with one pair-sum step v -> u, in lexicographic order.

  Solving y_i + y_{i+1} = x_i: the first entry determines the rest, so
  each candidate first entry is propagated and kept iff the wrap-around
  constraint y_n + y_1 = x_n holds.  For even n the count is always 0
  or exactly m; for odd n it is 0, 1 or 2 depending on gcd(2, m).
  '''
  x = validate_tuple(sys, u)
  m, n = sys.m, sys.n
  found = []
  for first in range(m):
    y = [first]
    for i in range(n - 1):
      y.append((x[i] - y[i]) % m)
    if (y[-1] + y[0]) % m == x[-1]:
      found.append(tuple(y))
  return found


def kernel_set(sys: DucciSystem, *,
               max_states: int = ENUM_NODE_CAP) -> KernelSet:
  '''The cycle states of `sys`, by pointer doubling on the successor
  array: the image of D^(2^t) stops shrinking exactly when it has become
  the set of cycle states.
  '''
  _, rows = _statespace.kernel_codes(sys.m, sys.n, max_states)
  return KernelSet(rows)


def len_per_map(sys: DucciSystem, *,
                max_states: int = ENUM_NODE_CAP,
                ) -> dict[ResidueTuple, tuple[int, int]]:
  '''(pre-period, period) for every state of the system at once.

  Array passes over the successor array instead of m^n orbit walks:
  find the cycles and their lengths by pointer doubling, then step the
  off-cycle states forward until each lands on a cycle.
  '''
  succ = _statespace.successor_array(sys.m, sys.n, max_states)
  lens, pers, _, _ = _statespace.tail_cycle_tables(succ)
  return dict(zip(product(range(sys.m), repeat=sys.n),
                  zip(lens.tolist(), pers.tolist())))
