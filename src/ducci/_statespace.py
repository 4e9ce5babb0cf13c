'''Bulk helpers over the full state space of Z_m^n, on integer codes.

A state's code is its big-endian base-m digits (entry 1 is the most
significant), so ascending codes are lexicographic order of the tuples.
Whole-space work is numpy passes over the successor array, whose entry
c codes the pair-sum image of state c; tuples are made only at the API
edge.  Internal plumbing for the orbit, graph and command-line modules.
'''

from __future__ import annotations

from itertools import product

import numpy as np

from .core import _check_int
from .errors import CapExceededError
from .limits import ENUM_NODE_CAP


def encode(u, m: int) -> int:
  code = 0
  for digit in u:
    code = code * m + digit
  return code


def digits(codes: np.ndarray, m: int, n: int) -> np.ndarray:
  '''The states with the given codes as a (len(codes), n) digit matrix.'''
  return codes[:, None] // m ** np.arange(n - 1, -1, -1, dtype=np.int64) % m


def texts(codes: np.ndarray, m: int, n: int, open_: str,
          close: str) -> list[str]:
  '''Text of the states with the given codes, open_ + "d_1,...,d_n" +
  close, punctuation and line ends included: each joined from a table
  of open_ + "d_1,...,d_h" by the high digits and one of ",...,d_n" +
  close by the low ones, so no tuple is made.'''
  half, sym = n // 2, [str(d) for d in range(m)]
  high = [open_ + ','.join(t) for t in product(sym, repeat=n - half)]
  low = [''.join(',' + d for d in t) + close for t in product(sym, repeat=half)]
  upper, lower = np.divmod(codes, m ** half)
  return list(map(str.__add__, map(high.__getitem__, upper.tolist()),
                  map(low.__getitem__, lower.tolist())))


def successor_array(m: int, n: int, cap: int = ENUM_NODE_CAP) -> np.ndarray:
  '''Code of the pair-sum image for every state code, as int64.'''
  _check_int(cap, 'state cap')
  if m ** n > cap:
    raise CapExceededError(
      f'enumerating Z_{m}^{n} needs {m ** n} states, cap is {cap}',
      required=m ** n, cap=cap)
  entry = [np.arange(m).reshape((1,) * i + (m,) + (1,) * (n - 1 - i))
           for i in range(n)]
  succ = np.zeros((m,) * n, dtype=np.int64)
  for i in range(n):
    succ += (entry[i] + entry[(i + 1) % n]) % m * m ** (n - 1 - i)
  return succ.reshape(-1)


def cycle_mask(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
  '''(on_cycle flags, to_cycle) for a successor array over range(N).

  Pointer doubling: the images of succ^(2^t) shrink until two in a row
  are the same size, the cycle states; `to_cycle` is that power of succ.
  '''
  on_cycle, to_cycle = np.zeros(len(succ), dtype=bool), succ
  on_cycle[succ] = True
  while True:
    to_cycle = to_cycle[to_cycle]
    image = np.zeros(len(succ), dtype=bool)
    image[to_cycle] = True
    if np.count_nonzero(image) == np.count_nonzero(on_cycle):
      return on_cycle, to_cycle
    on_cycle = image


def tail_cycle_tables(succ: np.ndarray) -> tuple[np.ndarray, ...]:
  '''Per-state (steps to reach a cycle, cycle length, on-cycle flag,
  label: the smallest state on that cycle, naming the weak component).

  Pointer doubling over the cycle states gives lengths and labels: `low`
  is the minimum over the next 2^t states, final once a step keeps it.
  Then the off-cycle states step together until each lands on a cycle.
  '''
  on_cycle, to_cycle = cycle_mask(succ)
  cyc = np.flatnonzero(on_cycle)
  jump, low = np.searchsorted(cyc, succ[cyc]), np.arange(cyc.size)
  while not np.array_equal(lower := np.minimum(low, low[jump]), low):
    low, jump = lower, jump[jump]
  label, period, lens = (np.zeros(len(succ), dtype=np.int64) for _ in range(3))
  label[cyc], period[cyc] = cyc[low], np.bincount(low)[low]
  todo = np.flatnonzero(~on_cycle)
  at = succ[todo]
  while todo.size:
    lens[todo] += 1
    ahead = ~on_cycle[at]
    todo, at = todo[ahead], succ[at[ahead]]
  return lens, period[to_cycle], on_cycle, label[to_cycle]


def kernel_codes(m: int, n: int, cap: int = ENUM_NODE_CAP) -> np.ndarray:
  '''Sorted codes of the cycle states of Z_m^n.'''
  return np.flatnonzero(cycle_mask(successor_array(m, n, cap))[0])
