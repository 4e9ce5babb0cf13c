'''Seeded single-state queries for the point_queries workload.

One caller sends the queries one after another (a closed loop) and
times each call.  The systems are too large to enumerate: m in 2..12
and n between the first length with m^n > 2^20 and 64.

Sizes are drawn in strata, so every round covers the same spread of
row indices r, binomial sizes N and tuple lengths n; the seed moves
each draw inside its stratum and draws every state.  Orbit walks use a
fixed split of lengths: half the walks use an n from FIT_N, where the
orbit of every system with m in 2..12 fits in WALK_CAP states, and
half an n from BEYOND_N, where it does not and the walk is refused by
the cap.  That keeps the refused share, which sets the latency tail,
the same from seed to seed.

Each answer is checked after the timed loop against a slower route
that does not share the code under test: repeated stepping for orbits,
iterates and coefficients, `math.comb` for small binomials and
Pascal's rule above that.
'''

from __future__ import annotations

import math
import random
import time

# Most states an orbit query may store before it is refused.
WALK_CAP = 1 << 13
FIT_N = (24, 30, 40, 60)
BEYOND_N = (29, 37, 53, 59)

# Queries of each kind in one round.  Refused walks come from 'orbit'
# and 'basic' on BEYOND_N, 18 of 264 queries (6.8%).
MIX = (('orbit', 24), ('basic', 12), ('iter', 24), ('apply', 48),
       ('coeff', 48), ('preds', 48), ('binom', 60))
R_MAX = 10 ** 4
ITER_R_MAX = 10 ** 3
BINOM_N_MAX = 1 << 20
BINOM_L_MAX = 8
# Largest N whose binomial is checked against math.comb directly.
COMB_N_MAX = 1 << 14

# A tiny round for the smoke test: every kind, small sizes.
TINY = dict(mix=tuple((kind, 2) for kind, _ in MIX), r_max=50,
            iter_r_max=20, n_max=12, binom_n_max=1 << 12)


def _n_min(m: int) -> int:
  # The shortest n whose state space is past the 2^20 enumeration cap.
  n = 1
  while m ** n <= 1 << 20:
    n += 1
  return n


def _log_strata(rng: random.Random, count: int, top: int) -> list[int]:
  '''`count` integers in 1..top, one per equal slice of log(top).'''
  out = [max(1, int(top ** ((i + rng.random()) / count)))
         for i in range(count)]
  rng.shuffle(out)
  return out


def _pair_sum(u, m: int) -> tuple[int, ...]:
  return tuple((a + b) % m for a, b in zip(u, u[1:] + u[:1]))


def make_queries(seed: int | str, *, mix=MIX, r_max: int = R_MAX,
                 iter_r_max: int = ITER_R_MAX, n_max: int = 64,
                 binom_n_max: int = BINOM_N_MAX) -> list[tuple]:
  '''The round's queries, in the order they are sent.

  A query is a tuple whose first field names the call: ('orbit', m, n,
  u), ('basic', m, n), ('iter', m, n, u, r), ('apply', m, n, u, r),
  ('coeff', m, n, r, s), ('preds', m, n, u, source) or ('binom', N,
  K, l).  `source` is a state that steps to u, or None.
  '''
  rng = random.Random(seed)
  counts = dict(mix)

  def system() -> tuple[int, int]:
    m = rng.randint(2, 12)
    return m, rng.randint(min(_n_min(m), n_max), n_max)

  def state(m: int, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(m) for _ in range(n))

  def walk_systems(count: int) -> list[tuple[int, int]]:
    pool = [FIT_N if i < count // 2 else BEYOND_N for i in range(count)]
    if n_max < min(FIT_N):
      pool = [range(_n_min(12), n_max + 1)] * count
    return [(rng.randint(2, 12), rng.choice(p)) for p in pool]

  queries: list[tuple] = []
  for m, n in walk_systems(counts['orbit']):
    queries.append(('orbit', m, n, state(m, n)))
  for m, n in walk_systems(counts['basic']):
    queries.append(('basic', m, n))
  for r in _log_strata(rng, counts['iter'], iter_r_max):
    m, n = system()
    queries.append(('iter', m, n, state(m, n), r))
  for r in _log_strata(rng, counts['apply'], r_max):
    m, n = system()
    queries.append(('apply', m, n, state(m, n), r))
  for r in _log_strata(rng, counts['coeff'], r_max):
    m, n = system()
    queries.append(('coeff', m, n, r, rng.randint(1, n)))
  for i in range(counts['preds']):
    m, n = system()
    # Half the targets are images, so they have a known predecessor.
    u = state(m, n)
    if i % 2:
      queries.append(('preds', m, n, _pair_sum(u, m), u))
    else:
      queries.append(('preds', m, n, u, None))
  for big in _log_strata(rng, counts['binom'], binom_n_max):
    queries.append(('binom', big, rng.randint(0, big),
                    rng.randint(1, BINOM_L_MAX)))
  rng.shuffle(queries)
  return queries


def query_systems(queries) -> list[tuple[int, int]]:
  '''Distinct (m, n) pairs the queries name, in first-use order.'''
  return list(dict.fromkeys(q[1:3] for q in queries if q[0] != 'binom'))


def answer(query):
  '''Run one query through the package's public API.'''
  import ducci
  kind = query[0]
  if kind == 'binom':
    return ducci.binom_mod_pow2(*query[1:])
  sys_ = ducci.make_system(query[1], query[2])
  if kind == 'orbit':
    return ducci.orbit_summary(sys_, query[3], max_states=WALK_CAP)
  if kind == 'basic':
    return ducci.basic_len_per(sys_, max_states=WALK_CAP)
  if kind == 'iter':
    return ducci.ducci_iter(sys_, query[3], query[4])
  if kind == 'apply':
    return ducci.apply_coeff_expansion(sys_, query[3], query[4])
  if kind == 'coeff':
    return ducci.coeff_at(sys_, query[3], query[4])
  if kind == 'preds':
    return ducci.predecessors(sys_, query[3])
  raise ValueError(f'unknown query kind {kind!r}')


def run_queries(queries) -> tuple[list, list[float], float]:
  '''Send the queries in a closed loop.

  Returns (answers, latencies in ms, timed seconds).  A refused walk
  answers with its CapExceededError and any other exception with
  itself; neither stops the loop.
  '''
  answers, latencies = [], []
  clock = time.perf_counter
  started = clock()
  for query in queries:
    t0 = clock()
    try:
      result = answer(query)
    except Exception as exc:  # a refusal or a crash is an answer to check
      # Without its traceback the error no longer holds the walk's frames.
      result = exc.with_traceback(None)
    latencies.append((clock() - t0) * 1000.0)
    answers.append(result)
  return answers, latencies, clock() - started


def _check_basic(sys_, length: int, per: int) -> bool:
  # The pre-period and period are minimal: D^(len+per) = D^len, the
  # same fails one step earlier and for every per / q, q prime.
  import ducci
  if length < 0 or per < 1:
    return False
  states = [ducci.basic_tuple(sys_)]
  for _ in range(length + per):
    states.append(ducci.ducci_step(sys_, states[-1]))
  if states[length + per] != states[length]:
    return False
  if length and states[length - 1 + per] == states[length - 1]:
    return False
  return all(states[length + per // q] != states[length]
             for q in _primes(per))


def _primes(value: int) -> list[int]:
  out, q = [], 2
  while q * q <= value:
    if value % q == 0:
      out.append(q)
      while value % q == 0:
        value //= q
    q += 1
  return out + ([value] if value > 1 else [])


def check(query, result) -> bool:
  '''True when `result` is a correct answer to `query`.

  A CapExceededError is correct only for an orbit walk, and only when
  it names the query's cap.
  '''
  import ducci
  kind = query[0]
  if isinstance(result, ducci.CapExceededError):
    return kind in ('orbit', 'basic') and result.cap == WALK_CAP
  if isinstance(result, BaseException):
    return False
  if kind == 'binom':
    big, small, l = query[1:]
    mod = 1 << l
    if big <= COMB_N_MAX:
      return result == math.comb(big, small) % mod
    if small in (0, big):
      return result == 1 % mod
    pascal = (ducci.binom_mod_pow2(big - 1, small - 1, l)
              + ducci.binom_mod_pow2(big - 1, small, l)) % mod
    return result == pascal
  sys_ = ducci.make_system(query[1], query[2])
  m, n = sys_.m, sys_.n
  if kind == 'orbit':
    chain = list(result.tail) + list(result.cycle)
    if (len(result.tail) != result.len or len(result.cycle) != result.per
        or not chain or chain[0] != query[3]
        or len(set(chain)) != len(chain)):
      return False
    steps = [ducci.ducci_step(sys_, v) for v in chain]
    return steps == chain[1:] + [result.cycle[0]]
  if kind == 'basic':
    return _check_basic(sys_, *result)
  if kind == 'iter':
    cur = query[3]
    for _ in range(query[4]):
      cur = _pair_sum(cur, m)
    return result == cur
  if kind == 'apply':
    return result == ducci.ducci_iter(sys_, query[3], query[4])
  if kind == 'coeff':
    r, s = query[3], (query[4] - 1) % n + 1
    return result == ducci.ducci_iter(sys_, ducci.basic_tuple(sys_), r)[n - s]
  if kind == 'preds':
    target = query[3]
    if result != sorted(set(result)):
      return False
    if any(ducci.ducci_step(sys_, v) != target for v in result):
      return False
    return query[4] is None or query[4] in result
  return False
