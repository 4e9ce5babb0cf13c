'''Exact arithmetic on Z_m^n and its two structure maps.

The pair-sum map sends (x_1, ..., x_n) to
(x_1 + x_2, x_2 + x_3, ..., x_n + x_1) with every entry reduced mod m;
the rotation map sends (x_1, ..., x_n) to (x_2, ..., x_n, x_1).  Both
are endomorphisms of Z_m^n, they commute, and the pair-sum map equals
identity plus rotation.

Positions are 1-based in documentation and I/O, 0-based in storage.
States are plain `tuple[int, ...]` with entries already reduced into
[0, m), so equality and hashing are canonical.
'''

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ParameterError

ResidueTuple = tuple[int, ...]

__all__ = [
  'DucciSystem', 'ResidueTuple', 'make_system', 'validate_tuple',
  'reduce_tuple', 'ducci_step', 'ducci_iter', 'shift', 'add', 'scale',
  'basic_tuple', 'format_tuple', 'parse_tuple',
]


def _check_int(value, name: str, low: int = 0) -> None:
  # A bool is an int to Python but never a count, size or index here.
  if not isinstance(value, int) or isinstance(value, bool) or value < low:
    raise ParameterError(f'{name} must be an integer >= {low}, got {value!r}')


def _pow2_exponent(value: int) -> int | None:
  if value >= 1 and value & (value - 1) == 0:
    return value.bit_length() - 1
  return None


@dataclass(frozen=True)
class DucciSystem:
  '''Ambient parameters: modulus m >= 2 and tuple length n >= 1.

  `pow2_m` / `pow2_n` hold the exponent when the corresponding value is
  a power of two and are None otherwise (`pow2_n` is 0 for n = 1).
  '''

  m: int
  n: int
  pow2_m: int | None = field(init=False)
  pow2_n: int | None = field(init=False)

  def __post_init__(self):
    _check_int(self.m, 'modulus', 2)
    _check_int(self.n, 'tuple length', 1)
    object.__setattr__(self, 'pow2_m', _pow2_exponent(self.m))
    object.__setattr__(self, 'pow2_n', _pow2_exponent(self.n))

  @property
  def state_count(self) -> int:
    return self.m ** self.n

  def __str__(self) -> str:
    return f'Z_{self.m}^{self.n}'


def make_system(m: int, n: int) -> DucciSystem:
  '''Validated constructor; rejects m < 2 or n < 1.'''
  return DucciSystem(m, n)


def validate_tuple(sys: DucciSystem, u: Sequence[int]) -> ResidueTuple:
  '''Check length and entry range against `sys`; return `u` as a tuple.'''
  if len(u) != sys.n:
    raise ParameterError(f'expected {sys.n} entries, got {len(u)}')
  for entry in u:
    if not isinstance(entry, int):
      raise ParameterError(f'entry {entry!r} has type '
                           f'{type(entry).__name__}, not a Python int')
    if not 0 <= entry < sys.m:
      raise ParameterError(f'entry {entry!r} outside [0, {sys.m})')
  return tuple(u)


def reduce_tuple(sys: DucciSystem, entries: Iterable[int]) -> ResidueTuple:
  '''Reduce arbitrary integers entrywise into [0, m).'''
  out = tuple(int(e) % sys.m for e in entries)
  if len(out) != sys.n:
    raise ParameterError(f'expected {sys.n} entries, got {len(out)}')
  return out


def _step(u: ResidueTuple, m: int) -> ResidueTuple:
  # Unchecked single step.  Entries are residues, so a pair sums to
  # less than 2m and one conditional subtract reduces it.
  return tuple([s - m if s >= m else s
                for s in map(operator.add, u, u[1:] + u[:1])])


def ducci_step(sys: DucciSystem, u: Sequence[int]) -> ResidueTuple:
  '''One application of the pair-sum map.'''
  return _step(validate_tuple(sys, u), sys.m)


def ducci_iter(sys: DucciSystem, u: Sequence[int], r: int) -> ResidueTuple:
  '''r-fold application of the pair-sum map, by repeated stepping.

  Repeated stepping is deliberate: analytic shortcuts live elsewhere
  and are checked against this function, never substituted for it.
  '''
  _check_int(r, 'iteration count')
  cur = validate_tuple(sys, u)
  m = sys.m
  for _ in range(r):
    cur = _step(cur, m)
  return cur


def shift(sys: DucciSystem, u: Sequence[int]) -> ResidueTuple:
  '''One application of the rotation map: (x_1, ..., x_n) -> (x_2, ..., x_1).'''
  cur = validate_tuple(sys, u)
  return cur[1:] + cur[:1]


def add(sys: DucciSystem, u: Sequence[int], v: Sequence[int]) -> ResidueTuple:
  '''Entrywise sum mod m.'''
  a = validate_tuple(sys, u)
  b = validate_tuple(sys, v)
  return tuple((x + y) % sys.m for x, y in zip(a, b))


def scale(sys: DucciSystem, lam: int, u: Sequence[int]) -> ResidueTuple:
  '''Entrywise scalar multiple mod m; the scalar itself is reduced mod m.'''
  if not isinstance(lam, int):
    raise ParameterError(f'scalar must be an integer, got {lam!r}')
  cur = validate_tuple(sys, u)
  lam %= sys.m
  return tuple((lam * x) % sys.m for x in cur)


def basic_tuple(sys: DucciSystem) -> ResidueTuple:
  '''The distinguished start state (0, ..., 0, 1).'''
  return (0,) * (sys.n - 1) + (1,)


def format_tuple(u: Sequence[int]) -> str:
  '''Canonical text form, e.g. "(3,1,3)".'''
  return '(' + ','.join(str(int(e)) for e in u) + ')'


def parse_tuple(text: str) -> tuple[int, ...]:
  '''Parse "(3,1,3)" or "3,1,3" into a tuple of raw integers.

  Entries are not reduced here; callers reduce against a system with
  `reduce_tuple` so that out-of-range input can be reported.
  '''
  body = text.strip()
  if body.startswith('(') and body.endswith(')'):
    body = body[1:-1]
  body = body.strip().rstrip(',')
  if not body:
    raise ParameterError(f'empty tuple text: {text!r}')
  try:
    return tuple(int(part.strip()) for part in body.split(','))
  except ValueError as exc:
    raise ParameterError(f'bad tuple text {text!r}: {exc}') from None
