'''Orbit lengths, predecessors, and the cycle subgroup.'''

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ducci.orbits
from ducci import (CapExceededError, ParameterError, _statespace,
                   basic_len_per, basic_tuple, build_graph, ducci_iter,
                   ducci_step, kernel_set, len_per_map, make_system,
                   orbit_len_per_lowmem, orbit_summary, predecessors, vanishes)
from ducci.coeffs import _dtype, _power
from ducci.core import _step
from ducci.limits import COEFF_CELL_CAP, ORBIT_VISIT_CAP
from ducci.orbits import _OPENING, _len_per
from ducci.verify import DEFAULT_SYSTEMS

SMALL_SYSTEMS = [(2, 2), (2, 3), (2, 6), (3, 2), (3, 3), (4, 2), (4, 3),
                 (5, 2), (6, 2), (6, 3)]

# Moduli past the int64 bound of the polynomial engine: object dtype.
BIG_MODULI = (2 ** 63 - 1, 10 ** 19 + 7, 2 ** 70)


def all_states(sys):
  return itertools.product(range(sys.m), repeat=sys.n)


def dict_walk(sys, u, cap):
  '''The former orbit_summary walk: (len, per), or None past cap states.'''
  seen, cur = {}, tuple(u)
  while cur not in seen:
    if len(seen) >= cap:
      return None
    seen[cur] = len(seen)
    cur = _step(cur, sys.m)
  return seen[cur], len(seen) - seen[cur]


def brent(sys, u):
  '''The former orbit_len_per_lowmem: Brent's cycle search, then the tail.'''
  m = sys.m
  power = per = 1
  tortoise, hare = u, _step(u, m)
  while tortoise != hare:
    if power == per:
      tortoise, power, per = hare, power * 2, 0
    hare = _step(hare, m)
    per += 1
  tortoise = hare = u
  for _ in range(per):
    hare = _step(hare, m)
  length = 0
  while tortoise != hare:
    tortoise, hare, length = _step(tortoise, m), _step(hare, m), length + 1
  return length, per


def check_engine(sys, u, cap, truth):
  '''_len_per answers `truth` when len + per <= cap and refuses otherwise.

  `truth` None stands for an orbit longer than cap.
  '''
  if truth is not None and sum(truth) <= cap:
    assert _len_per(sys, u, cap) == truth, (str(sys), u, cap)
    return
  with pytest.raises(CapExceededError) as info:
    _len_per(sys, u, cap)
  assert (info.value.required, info.value.cap) == (cap + 1, cap)


def assert_replays(sys, u, summary, truth):
  '''summary holds truth's (len, per) and the states of u's orbit.'''
  assert (summary.len, summary.per) == truth
  cur = u
  for state in summary.tail + summary.cycle:
    assert state == cur and all(type(e) is int for e in state)
    cur = ducci_step(sys, cur)
  assert cur == summary.cycle[0]


# Orbits of K = len + per states at the edges of the opening walk (16
# states, or cap when smaller) and of orbit_summary's grid of
# B = ceil(sqrt(K)) columns by C = ceil(K / B) checkpoints.
SUMMARY_EDGES = [
  (2, 1, (0,), 1),
  (2, 5, (0, 0, 0, 1, 1), 15),
  (2, 5, (0, 0, 0, 0, 1), 16),                  # the whole opening walk
  (2, 10, (0, 0, 0, 0, 0, 1, 1, 1, 1, 1), 17),  # one past it
  (5, 5, (0, 0, 0, 0, 1), 20),                  # B * C, B = 5, C = 4
  (5, 6, (0, 0, 0, 0, 1, 1), 24),               # B * C - 1, B = C = 5
  (5, 6, (0, 0, 0, 0, 0, 1), 25),               # B * C = B^2
  (3, 10, (0, 0, 0, 0, 0, 1, 2, 1, 2, 1), 41),  # B * C - 1, B = 7, C = 6
]


class TestOrbitSummary:
  @pytest.mark.parametrize('m,n,u,count', SUMMARY_EDGES)
  def test_states_at_walk_and_grid_edges(self, m, n, u, count):
    # At caps count and the default, and refused one state short.
    sys = make_system(m, n)
    truth = dict_walk(sys, u, count)
    assert sum(truth) == count
    for cap in (count, ORBIT_VISIT_CAP):
      assert_replays(sys, u, orbit_summary(sys, u, max_states=cap), truth)
    with pytest.raises(CapExceededError) as info:
      orbit_summary(sys, u, max_states=count - 1)
    assert (info.value.required, info.value.cap) == (count, count - 1)

  @pytest.mark.parametrize('count', [_OPENING, _OPENING + 1])
  def test_opening_orbits_are_stepped(self, monkeypatch, count):
    # An orbit the opening walk closed is listed by stepping; one state
    # longer, it comes from the row stream.  Z_4^5 has both sizes.
    sys = make_system(4, 5)
    u = next(u for u, lp in len_per_map(sys).items() if sum(lp) == count)
    truth = dict_walk(sys, u, count)
    assert_replays(sys, u, orbit_summary(sys, u), truth)

    def no_rows(*args):
      raise AssertionError('the row stream listed the orbit')
    monkeypatch.setattr(ducci.orbits, '_rows', no_rows)
    if count > _OPENING:
      with pytest.raises(AssertionError, match='row stream'):
        orbit_summary(sys, u)
    else:
      assert_replays(sys, u, orbit_summary(sys, u), truth)

  def test_long_orbit_on_the_grid(self):
    # 2,401 states of 60 cells: 49 checkpoints stepped 48 times.
    sys = make_system(7, 60)
    u = basic_tuple(sys)
    truth = dict_walk(sys, u, 1 << 13)
    assert sum(truth) == 2401
    assert_replays(sys, u, orbit_summary(sys, u, max_states=1 << 13), truth)

  def test_component_walk(self):
    sys = make_system(4, 3)
    summary = orbit_summary(sys, (3, 1, 3))
    assert summary.len == 2
    assert summary.per == 3
    assert summary.tail == ((3, 1, 3), (0, 0, 2))
    assert summary.cycle == ((0, 2, 2), (2, 0, 2), (2, 2, 0))

  def test_cycle_member_has_no_tail(self):
    sys = make_system(4, 3)
    summary = orbit_summary(sys, (0, 2, 2))
    assert summary.len == 0
    assert summary.per == 3
    assert summary.tail == ()

  def test_fixed_point(self):
    sys = make_system(5, 3)
    summary = orbit_summary(sys, (0, 0, 0))
    assert (summary.len, summary.per) == (0, 1)
    assert summary.cycle == ((0, 0, 0),)

  def test_json_schema(self):
    summary = orbit_summary(make_system(4, 3), (3, 1, 3))
    obj = summary.to_json_obj()
    assert sorted(obj) == ['cycle', 'len', 'per', 'tail']
    assert obj['tail'] == [[3, 1, 3], [0, 0, 2]]
    assert obj['cycle'] == [[0, 2, 2], [2, 0, 2], [2, 2, 0]]

  def test_visit_cap(self):
    with pytest.raises(CapExceededError) as info:
      orbit_summary(make_system(99991, 3), (1, 2, 3), max_states=5)
    assert info.value.cap == 5
    assert info.value.required == 6

  def test_tail_plus_cycle_replays_the_orbit(self):
    sys = make_system(6, 4)
    u = (1, 4, 2, 5)
    summary = orbit_summary(sys, u)
    walk = list(summary.tail) + list(summary.cycle)
    for i, state in enumerate(walk):
      assert ducci_iter(sys, u, i) == state
    assert ducci_iter(sys, u, len(walk)) == summary.cycle[0]


class TestLenPer:
  def test_pair_system_basic(self):
    assert basic_len_per(make_system(4, 2)) == (3, 1)

  @pytest.mark.parametrize('l', range(1, 7))
  def test_pair_formula_column(self, l):
    assert basic_len_per(make_system(2 ** l, 2)) == (l + 1, 1)

  def test_binary_quadruple(self):
    assert basic_len_per(make_system(2, 4)) == (4, 1)

  def test_lowmem_agrees_with_summary(self):
    for m, n in SMALL_SYSTEMS:
      sys = make_system(m, n)
      for u in itertools.islice(all_states(sys), 0, None, 7):
        summary = orbit_summary(sys, u)
        assert orbit_len_per_lowmem(sys, u) == (summary.len, summary.per)

  @given(st.integers(2, 50), st.integers(1, 6))
  @settings(max_examples=40)
  def test_lowmem_agrees_on_basic(self, m, n):
    sys = make_system(m, n)
    assert orbit_len_per_lowmem(sys, basic_tuple(sys)) == basic_len_per(sys)

  def test_lowmem_step_cap(self):
    with pytest.raises(CapExceededError):
      orbit_len_per_lowmem(make_system(99991, 3), (1, 2, 3), max_steps=10)

  @pytest.mark.parametrize('call', [
    lambda sys, cap: orbit_summary(sys, (1, 2, 3), max_states=cap),
    lambda sys, cap: orbit_len_per_lowmem(sys, (1, 2, 3), max_steps=cap),
    lambda sys, cap: basic_len_per(sys, max_states=cap),
    lambda sys, cap: vanishes(sys, (1, 2, 3), max_states=cap),
    lambda sys, cap: kernel_set(sys, max_states=cap),
    lambda sys, cap: len_per_map(sys, max_states=cap),
    lambda sys, cap: build_graph(sys, max_nodes=cap),
  ])
  @pytest.mark.parametrize('cap', [-1, 2.5, '64', None, True])
  def test_caps_are_integers_at_least_zero(self, call, cap):
    with pytest.raises(ParameterError, match='state cap must be an integer'):
      call(make_system(4, 3), cap)

  def test_map_matches_per_state_walks(self):
    for m, n in [(3, 3), (4, 2), (4, 3), (6, 2)]:
      sys = make_system(m, n)
      table = len_per_map(sys)
      assert len(table) == sys.state_count
      for u in all_states(sys):
        summary = orbit_summary(sys, u)
        assert table[u] == (summary.len, summary.per), (str(sys), u)

  def test_basic_orbit_is_maximal(self):
    # Len(u) <= L_m(n) and Per(u) divides P_m(n), for every state.
    for m, n in SMALL_SYSTEMS:
      sys = make_system(m, n)
      top_len, top_per = basic_len_per(sys)
      for u, (length, per) in len_per_map(sys).items():
        assert length <= top_len, (str(sys), u)
        assert top_per % per == 0, (str(sys), u)


def dict_len_per_map(sys):
  '''The former len_per_map: a dict with one tuple key per state.'''
  succ = _statespace.successor_array(sys.m, sys.n)
  lens, pers, _, _ = _statespace.tail_cycle_tables(succ)
  return dict(zip(all_states(sys), zip(lens.tolist(), pers.tolist())))


class TestLenPerMapping:
  @pytest.mark.parametrize('m,n', DEFAULT_SYSTEMS)
  def test_matches_the_former_dict(self, m, n):
    sys = make_system(m, n)
    table, want = len_per_map(sys), dict_len_per_map(sys)
    assert table == want and want == table
    assert not table != want and not want != table
    assert list(table.items()) == list(want.items())
    assert list(table.keys()) == list(want.keys())
    assert list(table.values()) == list(want.values())
    assert len(table) == len(want) == sys.state_count
    assert all(table[u] == value for u, value in want.items())
    assert all(type(x) is int for x in table[(0,) * n])

  def test_differs_from_another_table(self):
    sys = make_system(3, 3)
    table, want = len_per_map(sys), dict_len_per_map(sys)
    want[(1, 2, 0)] = (0, 1)
    assert table != want and want != table
    assert table != len_per_map(make_system(3, 2))

  @pytest.mark.parametrize('key', [
    (0, 0), (0, 0, 0, 0), (0, 0, 4), (0, 0, 5), (-1, 0, 0), (0, -4, 0),
    [0, 0, 0], '000', 0, None, (0, 0, '0'), (0, 0, 0.5), np.zeros(3),
  ], ids=repr)
  def test_non_states_are_missing(self, key):
    table = len_per_map(make_system(4, 3))
    with pytest.raises(KeyError):
      table[key]
    assert key not in table
    assert table.get(key) is None
    assert table.get(key, 'absent') == 'absent'

  def test_is_read_only(self):
    table = len_per_map(make_system(2, 2))
    with pytest.raises(TypeError):
      table[(0, 0)] = (0, 1)
    with pytest.raises(TypeError):
      del table[(0, 0)]

  def test_keeps_no_tuples(self):
    # The former dict held 262,144 tuple keys: 52 MB retained.
    sys = make_system(4, 9)
    tracemalloc.start()
    try:
      table = len_per_map(sys)
      retained = tracemalloc.get_traced_memory()[0]
    finally:
      tracemalloc.stop()
    assert len(table) == 4 ** 9
    assert retained < 8 << 20


def class_representatives(m, n):
  '''The least state of each class under rotation and unit scaling.

  D commutes with rotation and with multiplication by a unit mod m, and
  so does every step of the engine, so one state stands for its class.
  '''
  codes = np.arange(m ** n)
  mat = _statespace.digits(codes, m, n)
  weights = m ** np.arange(n - 1, -1, -1)
  least = codes
  for lam in (x for x in range(1, m) if math.gcd(x, m) == 1):
    for r in range(n):
      least = np.minimum(least, np.roll(lam * mat % m, r, axis=1) @ weights)
  return list(map(tuple, mat[least == codes].tolist()))


class TestEngine:
  @pytest.mark.parametrize('m,n', DEFAULT_SYSTEMS)
  def test_desk_states_at_caps_around_their_orbit(self, m, n):
    # Caps len + per - 1 and len + per, below len (D^cap(u) is then off
    # the cycle, where a repeat gives a multiple of per), and s^2 and
    # s^2 + 1 for s = len + per - 1, where the opening walk's length
    # ceil(sqrt(cap)) goes from below len + per to len + per.  Systems
    # past 4096 states take one cap per class in turn, to bound the time.
    sys = make_system(m, n)
    table = len_per_map(sys)
    for i, u in enumerate(class_representatives(m, n)):
      truth = table[u]
      s = sum(truth) - 1
      caps = [s, s + 1, truth[0] - 1, s * s, s * s + 1]
      if m ** n > 4096:
        caps = caps[i % 5:i % 5 + 1]
      for cap in caps:
        if cap >= 0:
          check_engine(sys, u, cap, truth)

  @given(st.data())
  @settings(max_examples=60, deadline=None)
  def test_matches_dict_walk(self, data):
    m = data.draw(st.one_of(st.integers(2, 40), st.sampled_from(BIG_MODULI)))
    n = data.draw(st.integers(1, 40))
    u = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n,
                                 max_size=n)))
    sys = make_system(m, n)
    truth = dict_walk(sys, u, 5000)
    caps = [data.draw(st.integers(0, 5000))]
    if truth is not None:
      caps += [sum(truth) - 1, sum(truth), truth[0] - 1]
    for cap in caps:
      if cap >= 0:
        check_engine(sys, u, cap, truth)

  @pytest.mark.parametrize('m,n,u,dtype', [
    (2 ** 63 - 1, 1, (2 ** 63 - 2,), object),
    (10 ** 19 + 7, 3, (1, 10 ** 19 + 6, 0), object),
    (2 ** 64, 3, (0, 0, 1), np.uint64),
    *((m, 4, (m - 1, m - 1, 1, 0), dtype) for m, dtype in [
      (2, np.int64), (128, np.int64), (129, np.int64), (2 ** 15, np.int64),
      (2 ** 15 + 1, np.int64), (2 ** 31, np.uint64), (2 ** 31 + 1, object),
      (2 ** 63 - 1, object), (2 ** 63, np.uint64), (2 ** 64, np.uint64),
      (2 ** 70, object)]),
    (10 ** 19 + 7, 3, (10 ** 19 + 6, 10 ** 19 + 6, 2), object)])
  def test_big_moduli_at_caps_around_their_orbit(self, m, n, u, dtype):
    # States are packed in lanes of W bits, the least multiple of 8 with
    # m <= 2^(W-1): W goes 8 -> 16 past 128, 24 past 2^15, 40 past 2^31
    # and 72 past 2^63, and m = 2^(W-1) fills a lane.  The orbits of
    # (m-1, m-1, 1, 0) sum pairs to exactly m and 2m - 2; past 128 those
    # of odd m have per > b at cap len + per, so giant steps decide, in
    # every cell dtype.
    sys = make_system(m, n)
    assert _power(sys, 0, [1]).dtype == dtype
    truth = dict_walk(sys, u, 5000)
    for cap in (sum(truth) - 1, sum(truth), truth[0] - 1):
      if cap >= 0:
        check_engine(sys, u, cap, truth)
    assert_replays(sys, u, orbit_summary(sys, u, max_states=sum(truth)), truth)

  @pytest.mark.parametrize('m,n,u,dtype', [
    (2, 11, None, np.int64),                          # circulant, n <= b
    (2, 21, None, np.int64),                          # convolution, n > b
    (2 ** 64, 3, (0, 0, 2 ** 49), np.uint64),         # nothing to reduce
    (2 ** 33, 5, (0, 0, 0, 0, 2 ** 30), np.uint64),
    (10 ** 19 + 7, 3, (0, 0, (10 ** 19 + 7) // 191), object),
    (48912491, 3, None, np.int64),          # n(m-1)^2 = 0.80 * 2^53: float64
    (48912491, 4, None, np.int64),          # 1.06 * 2^53: int64
    (536903681, 4, None, np.int64)])        # 128 * 2^53
  def test_giant_steps_at_caps_around_their_orbit(self, m, n, u, dtype):
    # per > b = ceil(sqrt(cap)) at caps len + per and (per - 1)^2: the b
    # baby steps from D^cap(u), on the cycle, see no repeat, so giant
    # steps find per.  At the larger cap (1+x)^b has cells of every size.
    # Circulant products run in float64 below n(m-1)^2 = 2^53, and by
    # convolution from it on, where float64 sums would round.  48912491 and
    # 536903681, prime factors of 2^55 + 1 and 2^58 + 1, have short
    # orbits of unstructured cells.
    sys = make_system(m, n)
    u = u or basic_tuple(sys)
    assert _dtype(sys) == dtype
    truth = dict_walk(sys, u, 5000)
    count = sum(truth)
    assert count > _OPENING and truth[1] > math.isqrt(count - 1) + 1
    for cap in (count - 1, count, (truth[1] - 1) ** 2):
      check_engine(sys, u, cap, truth)
    assert_replays(sys, u, orbit_summary(sys, u, max_states=count), truth)

  def test_decision_steps_no_tuples(self, monkeypatch):
    # An orbit longer than ceil(sqrt(cap)) and a refusal are decided,
    # and the orbit's states built, on coefficient arrays alone:
    # stepping a tuple would raise.
    cap = 1 << 13
    fits, beyond = make_system(6, 30), make_system(7, 29)
    truth = dict_walk(fits, basic_tuple(fits), cap)
    assert truth == (3, 240) and sum(truth) > math.isqrt(cap - 1) + 1

    def no_step(*args):
      raise AssertionError('a state tuple was stepped')
    monkeypatch.setattr('ducci.core._step', no_step)
    monkeypatch.setattr('ducci.orbits._step', no_step)
    assert orbit_len_per_lowmem(fits, basic_tuple(fits),
                                max_steps=cap) == truth
    summary = orbit_summary(fits, basic_tuple(fits), max_states=cap)
    assert (summary.len, summary.per) == truth
    with pytest.raises(CapExceededError) as info:
      orbit_len_per_lowmem(beyond, basic_tuple(beyond), max_steps=cap)
    assert (info.value.required, info.value.cap) == (cap + 1, cap)

  def test_off_cycle_repeat_is_not_the_period(self):
    # The basic orbit of Z_{2^70}^3 has len 70 and per 6.  At a cap
    # below 70, D^cap(u) is off the cycle and its baby and giant steps
    # can first meet 18 steps apart.
    sys = make_system(2 ** 70, 3)
    u = basic_tuple(sys)
    assert brent(sys, u) == (70, 6)
    for cap in range(100):
      check_engine(sys, u, cap, (70, 6))

  def test_refusal_walks_o_sqrt_cap_steps(self, monkeypatch):
    # Below cap 76 the basic orbit of Z_{2^70}^3, (len, per) = (70, 6),
    # is refused.  Baby and giant steps can still meet, and then the
    # lockstep of u and D^p(u) stops after b steps, not after len.
    sys = make_system(2 ** 70, 3)
    steps, step = [], ducci.orbits._lane_step
    monkeypatch.setattr(ducci.orbits, '_lane_step',
                        lambda *args: steps.append(1) or step(*args))
    for cap in range(1, 76):
      steps.clear()
      with pytest.raises(CapExceededError):
        _len_per(sys, basic_tuple(sys), cap)
      assert 0 < len(steps) <= _OPENING + 3 * (math.isqrt(cap - 1) + 1), cap

  def test_lowmem_matches_brent(self):
    for m, n in SMALL_SYSTEMS:
      sys = make_system(m, n)
      for u in all_states(sys):
        assert orbit_len_per_lowmem(sys, u) == brent(sys, u), (m, n, u)

  def test_refusal_stores_nothing(self):
    # Z_7^31's basic orbit is far past 2^18 states; walking that many
    # 31-tuples before refusing held about 130 MB.
    sys = make_system(7, 31)
    tracemalloc.start()
    try:
      with pytest.raises(CapExceededError) as info:
        orbit_summary(sys, basic_tuple(sys), max_states=1 << 18)
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    assert (info.value.required, info.value.cap) == ((1 << 18) + 1, 1 << 18)
    assert peak < 4 << 20

  def test_stored_cells_are_capped(self):
    # The basic orbit of Z_3^37 fits in ORBIT_VISIT_CAP states, but its
    # 728,234 states of 37 cells each do not fit COEFF_CELL_CAP.
    sys = make_system(3, 37)
    length, per = orbit_len_per_lowmem(sys, basic_tuple(sys))
    tracemalloc.start()
    try:
      with pytest.raises(CapExceededError) as info:
        orbit_summary(sys, basic_tuple(sys), max_states=length + per)
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    assert (info.value.required, info.value.cap) == (
      (length + per) * 37, COEFF_CELL_CAP)
    assert info.value.required > COEFF_CELL_CAP
    assert peak < 4 << 20

  def test_stored_peak_is_about_its_tuples(self):
    # 10,924 states of 43 cells are 8.9 bytes a cell as tuples of small
    # ints; with a whole int64 grid, its reordered copy and their lists
    # beside the tuples, the peak was 26.7.
    sys = make_system(4, 43)
    tracemalloc.start()
    try:
      summary = orbit_summary(sys, basic_tuple(sys))
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    count = summary.len + summary.per
    assert count == 10924
    assert summary.cycle[-1] == ducci_iter(sys, basic_tuple(sys), count - 1)
    assert peak / (count * 43) < 12

  def test_stored_python_int_cells_weigh_64(self):
    # 3 * 2^62 does not divide 2^64, so past the int64 bound its cells
    # are Python ints.  3 * e_n vanishes like e_n mod 2^62, after
    # 63 * n / 2 steps: 2017 states of 64 cells are stored, 4033 of 128
    # are refused before their tuples are built.
    m = 3 << 62
    assert orbit_summary(make_system(m, 64), (0,) * 63 + (3,)).len == 2016
    sys, u = make_system(m, 128), (0,) * 127 + (3,)
    assert orbit_len_per_lowmem(sys, u) == (4032, 1)
    with pytest.raises(CapExceededError) as info:
      orbit_summary(sys, u)
    assert (info.value.required, info.value.cap) == (4033 * 128 * 64,
                                                     COEFF_CELL_CAP)

  def test_search_is_weighed_like_a_row(self):
    # Past the opening walk, D^cap(u) is one row's products, min(cap + 1,
    # n) * n cells: n = 2^12 fits the cell cap and n = 2^13 is refused
    # before the search, where it used to step for seconds.
    assert basic_len_per(make_system(2, 1 << 12)) == (4096, 1)
    with pytest.raises(CapExceededError) as info:
      basic_len_per(make_system(2, 1 << 13))
    assert (info.value.required, info.value.cap) == (1 << 26, COEFF_CELL_CAP)
    assert str(info.value) == (
      'orbit search for (0,0,0,0,...,0,0,0,1) in Z_2^8192 of 67108864 '
      f'cells exceeds the {COEFF_CELL_CAP}-cell cap')
    # An orbit that ends in the opening walk is never weighed.
    assert vanishes(make_system(2, 1 << 13), (0,) * (1 << 13))


class TestVanishing:
  def test_power_of_two_system_always_vanishes(self):
    sys = make_system(4, 4)
    for u in [(1, 2, 3, 0), (3, 3, 3, 3), (0, 0, 0, 1)]:
      assert vanishes(sys, u)

  def test_two_cycle_does_not_vanish(self):
    assert not vanishes(make_system(3, 2), (1, 1))

  def test_zero_vanishes_trivially(self):
    assert vanishes(make_system(7, 5), (0, 0, 0, 0, 0))


class TestPredecessors:
  def test_fixed_point_preimage(self):
    sys = make_system(4, 2)
    assert predecessors(sys, (0, 0)) == [(0, 0), (1, 3), (2, 2), (3, 1)]
    assert predecessors(sys, (1, 3)) == []
    assert predecessors(sys, (2, 3)) == []

  def test_component_entry(self):
    sys = make_system(4, 3)
    assert predecessors(sys, (0, 0, 2)) == [(1, 3, 1), (3, 1, 3)]

  def test_every_step_is_invertible_by_search(self):
    # Brute-force inverse oracle: enumerate all v and compare.
    for m, n in SMALL_SYSTEMS:
      sys = make_system(m, n)
      oracle = {}
      for v in all_states(sys):
        oracle.setdefault(ducci_step(sys, v), []).append(v)
      for u in all_states(sys):
        assert predecessors(sys, u) == sorted(oracle.get(u, [])), (m, n, u)

  def test_count_split_even_length(self):
    sys = make_system(6, 4)
    counts = {len(predecessors(sys, u)) for u in all_states(sys)}
    assert counts == {0, 6}

  def test_count_split_odd_length(self):
    # Odd n: gcd(2, m) solutions when solvable.
    odd_m = {len(predecessors(make_system(5, 3), u))
             for u in all_states(make_system(5, 3))}
    assert odd_m == {1}
    even_m = {len(predecessors(make_system(4, 3), u))
              for u in all_states(make_system(4, 3))}
    assert even_m == {0, 2}

  def test_rejects_wrong_length(self):
    with pytest.raises(ParameterError):
      predecessors(make_system(4, 3), (1, 2))

  @settings(max_examples=200, deadline=None)
  @given(st.integers(2, 60).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=8))))
  def test_closed_form_matches_candidate_loop(self, case):
    # The former search: propagate every first entry, keep those that
    # close the wrap-around.
    m, u = case
    want = []
    for first in range(m):
      y = [first]
      for i in range(len(u) - 1):
        y.append((u[i] - y[i]) % m)
      if (y[-1] + y[0]) % m == u[-1]:
        want.append(tuple(y))
    assert predecessors(make_system(m, len(u)), tuple(u)) == want

  @pytest.mark.parametrize('m,n', [(2 ** 64, 5), (10 ** 19 + 7, 7),
                                   (2 ** 70, 3), (2 ** 64 - 1, 9),
                                   (10 ** 6, 31)])
  def test_odd_length_over_big_moduli(self, m, n):
    # Odd n: D is onto for odd m; for even m an image has two
    # predecessors, and a state of odd entry sum none.
    sys = make_system(m, n)
    v = tuple((i * 0x9E3779B97F4A7C15 + 7) % m for i in range(n))
    found = predecessors(sys, _step(v, m))
    assert v in found and found == sorted(found)
    assert len(found) == (1 if m % 2 else 2)
    assert all(_step(w, m) == _step(v, m) for w in found)
    if m % 2 == 0:
      assert predecessors(sys, (1,) + (0,) * (n - 1)) == []

  def test_even_length_refuses_a_whole_family_past_the_cap(self):
    # Z_{10^12}^2: a state of nonzero entry difference has no
    # predecessor; 0 has 10^12 of them, refused before any is built.
    sys = make_system(10 ** 12, 2)
    assert predecessors(sys, (0, 1)) == []
    with pytest.raises(CapExceededError) as info:
      predecessors(sys, (0, 0))
    assert (info.value.required, info.value.cap) == (2 * 10 ** 12,
                                                     COEFF_CELL_CAP)


class TestKernel:
  def test_diagonal_kernel(self):
    kernel = kernel_set(make_system(3, 2))
    assert kernel.members == {(0, 0), (1, 1), (2, 2)}
    assert kernel.order == 3
    assert kernel.to_json_obj() == [[0, 0], [1, 1], [2, 2]]

  def test_trivial_kernel(self):
    assert kernel_set(make_system(4, 2)).members == {(0, 0)}

  def test_invertible_map_keeps_everything(self):
    # Odd m, odd n: the map is a bijection, so every state is cyclic.
    assert kernel_set(make_system(3, 3)).order == 27

  def test_matches_cycle_union_oracle(self):
    # Second route: collect the cycle states of every orbit walk.
    for m, n in SMALL_SYSTEMS:
      sys = make_system(m, n)
      union = set()
      for u in all_states(sys):
        union.update(orbit_summary(sys, u).cycle)
      assert kernel_set(sys).members == union, (m, n)

  def test_matches_deep_image_oracle(self):
    # Third route: the kernel is the image of D^(max pre-period).
    for m, n in [(4, 2), (4, 3), (6, 2), (3, 4)]:
      sys = make_system(m, n)
      depth = max(length for length, _ in len_per_map(sys).values())
      image = {ducci_iter(sys, u, depth) for u in all_states(sys)}
      assert kernel_set(sys).members == image, (m, n)

  def test_enumeration_cap(self):
    with pytest.raises(CapExceededError) as info:
      kernel_set(make_system(6, 8), max_states=1000)
    assert info.value.required == 6 ** 8
    assert info.value.cap == 1000
