'''The coefficient table behind D^r and its identities.

Rows and iterates come from powers of (1+x); they are checked against
the cyclic Pascal recurrence that used to build a shared row table,
and against repeated stepping.
'''

import gc
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ducci import (CapExceededError, ParameterError, apply_coeff_expansion,
                   basic_tuple, binom_mod_pow2, coeff_at, coeff_table,
                   ducci_iter, make_system, orbit_summary, view_f, view_g,
                   view_h)
from ducci.coeffs import _row
from ducci.limits import COEFF_CELL_CAP
from ducci.verify import DEFAULT_SYSTEMS


def recurrence_rows(m, n, r_max):
  '''Rows 0..r_max by the cyclic Pascal recurrence (the slow oracle).'''
  rows = [(1 % m,) + (0,) * (n - 1)]
  while len(rows) <= r_max:
    prev = rows[-1]
    rows.append(tuple((prev[s] + prev[s - 1]) % m for s in range(n)))
  return rows


def engine_row(sys, r):
  return tuple(coeff_at(sys, r, s) for s in range(1, sys.n + 1))


def int64_edge(n):
  '''The largest m with n * (m-1)^2 < 2^63.'''
  return math.isqrt(((1 << 63) - 1) // n) + 1


class TestTable:
  def test_defining_identity(self):
    # Row r read right-to-left is exactly D^r(0, ..., 0, 1).
    for m, n in [(4, 4), (3, 5), (2, 8), (6, 3)]:
      sys = make_system(m, n)
      for r in range(3 * n):
        row = [coeff_at(sys, r, s) for s in range(1, n + 1)]
        assert tuple(reversed(row)) == ducci_iter(sys, basic_tuple(sys), r)

  def test_plain_pascal_below_the_wrap(self):
    for m, n in [(4, 4), (5, 6), (2, 7)]:
      sys = make_system(m, n)
      for r in range(n):
        for s in range(1, n + 1):
          assert coeff_at(sys, r, s) == math.comb(r, s - 1) % m

  def test_first_wrapped_row(self):
    # Row n is binomial except the doubled first column.
    for m, n in [(8, 4), (5, 4), (2, 6), (3, 3)]:
      sys = make_system(m, n)
      assert coeff_at(sys, n, 1) == 2 % m
      for s in range(2, n + 1):
        assert coeff_at(sys, n, s) == math.comb(n, s - 1) % m

  def test_known_rows_mod4(self):
    sys = make_system(4, 4)
    table = coeff_table(sys, 5)
    assert table.rows[3] == (1, 3, 3, 1)
    assert table.rows[4] == (2, 0, 2, 0)
    assert table.rows[5] == (2, 2, 2, 2)

  def test_column_index_is_cyclic(self):
    sys = make_system(5, 4)
    table = coeff_table(sys, 6)
    for r in range(7):
      for s in range(1, 5):
        assert table.at(r, s) == table.at(r, s + 4) == table.at(r, s - 4)

  def test_row_bounds(self):
    table = coeff_table(make_system(4, 4), 3)
    with pytest.raises(ParameterError):
      table.at(4, 1)
    with pytest.raises(ParameterError):
      coeff_at(make_system(4, 4), -1, 1)
    # Indices are Python ints; a float or a string is refused, not indexed.
    sys = make_system(4, 4)
    for call in (lambda: table.at(1.0, 1), lambda: coeff_at(sys, 3, 1.5),
                 lambda: coeff_at(sys, 3, '2'), lambda: view_f(sys, 1, 1.5)):
      with pytest.raises(ParameterError, match='must be an integer'):
        call()

  def test_bools_are_refused(self):
    # A bool is an int to Python, but True is no row index: coeff_table
    # used to return rows 0 and 1 for it.
    sys = make_system(4, 4)
    for call, message in [
        (lambda: coeff_table(sys, True), 'row index'),
        (lambda: coeff_at(sys, True, 1), 'row index'),
        (lambda: apply_coeff_expansion(sys, (1, 2, 3, 0), False),
         'iteration count'),
        (lambda: binom_mod_pow2(True, 0, 2), 'upper index'),
        (lambda: binom_mod_pow2(4, 2, True), 'modulus exponent')]:
      with pytest.raises(ParameterError, match=f'^{message} must be an '
                                               'integer >= [01], got '):
        call()
    # Nor a column index, nor a row of a table.
    table = coeff_table(sys, 6)
    for call, message in [
        (lambda: coeff_at(sys, 3, True), 'column index must be an integer'),
        (lambda: table.at(True, 1), 'row index must be an integer in 0..6')]:
      with pytest.raises(ParameterError, match=f'^{message}, got True$'):
        call()

  def test_cell_cap(self):
    with pytest.raises(CapExceededError):
      coeff_table(make_system(4, 4), 1 << 24)

  def test_every_route_refuses_past_the_cap(self):
    # A table holds (r + 1) * n cells.  One row is built from products
    # of n by at most min(r + 1, n) coefficients, which pass the cap
    # only for n > 4096, whatever r is.
    def refuses(call, cells, what='row products'):
      with pytest.raises(CapExceededError) as info:
        call()
      assert str(info.value) == (f'{what} of {cells} cells exceeds '
                                 f'the {COEFF_CELL_CAP}-cell cap')
      assert (info.value.required, info.value.cap) == (cells, COEFF_CELL_CAP)

    r = COEFF_CELL_CAP // 4
    refuses(lambda: coeff_table(make_system(4, 4), r), (r + 1) * 4, 'table')
    wide, n = make_system(2, 4097), 4097
    refuses(lambda: coeff_at(wide, 4095, 1), 4096 * n)
    refuses(lambda: coeff_at(wide, 10 ** 18, 1), n * n)
    refuses(lambda: apply_coeff_expansion(wide, basic_tuple(wide), 4095),
            4096 * n)
    refuses(lambda: view_f(make_system(2, 8192), 1, 1), 4097 * 8192)
    # The last row the cap allows is still answered, below the wrap by
    # plain Pascal.
    assert coeff_at(wide, 4094, 2048) == math.comb(4094, 2047) % 2
    # Past the int64 bound a modulus that does not divide 2^64 holds
    # Python-int cells, which weigh 64 each: n <= 512 is answered.
    m = 10 ** 19 + 7
    big = make_system(m, 513)
    refuses(lambda: coeff_at(big, 512, 1), 513 * 513 * 64)
    refuses(lambda: apply_coeff_expansion(big, basic_tuple(big), 512),
            513 * 513 * 64)
    assert coeff_at(make_system(m, 512), 511, 256) == math.comb(511, 255) % m
    # A table weighs them alike: r_max = 4095 fills the cap at n = 64.
    wide = make_system(m, 64)
    refuses(lambda: coeff_table(wide, 262143), 1 << 30, 'table')
    assert coeff_table(wide, 4095).at(4095, 1) == coeff_at(wide, 4095, 1)

  def test_single_rows_ignore_the_table_cap(self):
    # Past r = COEFF_CELL_CAP / n a table is refused, one row is not.  The
    # oracle steps the reduced count len + (r - len) % per.
    sys, r = make_system(5, 4), 10 ** 7
    with pytest.raises(CapExceededError):
      coeff_table(sys, r)
    for u in ((1, 2, 3, 4), basic_tuple(sys)):
      summary = orbit_summary(sys, u)
      want = ducci_iter(sys, u, summary.len + (r - summary.len) % summary.per)
      assert apply_coeff_expansion(sys, u, r) == want
    assert engine_row(sys, r) == want[::-1]

  def test_table_peak_is_about_its_tuples(self):
    # The rows kept are 8.8 bytes a cell (pointers to small ints); the
    # int64 grid and lists they came from peaked at 17.8 when whole.
    sys, r_max = make_system(7, 64), (1 << 14) - 1
    tracemalloc.start()
    try:
      table = coeff_table(sys, r_max)
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    assert table.rows[r_max] == tuple(engine_row(sys, r_max))
    assert peak / ((r_max + 1) * 64) < 12

  def test_csv_snapshot(self):
    csv = coeff_table(make_system(4, 2), 2).to_csv()
    assert csv == ('r,s,value\n'
                   '0,1,1\n0,2,0\n'
                   '1,1,1\n1,2,1\n'
                   '2,1,2\n2,2,2\n')


class TestAgainstRecurrence:
  @pytest.mark.parametrize('m,n', DEFAULT_SYSTEMS)
  def test_desk_systems(self, m, n):
    sys = make_system(m, n)
    rows = recurrence_rows(m, n, 4 * n + 8)
    for r, row in enumerate(rows):
      assert engine_row(sys, r) == row, r
    assert coeff_table(sys, len(rows) - 1).rows == tuple(rows)

  # Tables step row 0 on a sqrt grid in each dtype of the engine: int64,
  # uint64 wrapping mod 2^64, and Python ints; rows hold Python ints.
  @pytest.mark.parametrize('m,n,r_max', [
    (4, 4, 8), (2, 1, 5), (7, 13, 500), (3, 1, 0), (12, 64, 3000),
    (2 ** 64, 3, 70), (10 ** 19 + 7, 5, 40), (2 ** 70, 6, 33)])
  def test_table_matches_recurrence(self, m, n, r_max):
    rows = coeff_table(make_system(m, n), r_max).rows
    assert rows == tuple(recurrence_rows(m, n, r_max))
    assert {type(value) for row in rows for value in row} == {int}

  @given(st.integers(2, 12), st.integers(1, 69), st.integers(0, 3000))
  @settings(max_examples=40, deadline=None)
  def test_random_systems(self, m, n, r):
    sys = make_system(m, n)
    assert engine_row(sys, r) == recurrence_rows(m, n, r)[r]

  @pytest.mark.parametrize('n', [1, 2, 5, 8])
  def test_expansion_across_the_int64_bound(self, n):
    rng = random.Random(n)
    edge = int64_edge(n)
    assert n * (edge - 1) ** 2 < 1 << 63 <= n * edge ** 2
    for m in (edge, edge + 1, 2 ** 63 - 1, 10 ** 19 + 7, 2 ** 70):
      sys = make_system(m, n)
      for u in ((m - 1,) * n, tuple(rng.randrange(m) for _ in range(n))):
        for r in range(0, 40, 3):
          assert apply_coeff_expansion(sys, u, r) == ducci_iter(sys, u, r)

  @given(st.sampled_from([2 ** 31, 2 ** 40, 2 ** 63, 2 ** 64, 2 ** 63 - 1,
                          10 ** 19 + 7]),
         st.integers(1, 24), st.integers(0, 10 ** 9),
         st.randoms(use_true_random=False))
  @settings(max_examples=80, deadline=None)
  def test_wide_moduli_match_python_ints_and_steps(self, m, n, r, rnd):
    # Past the int64 bound a modulus dividing 2^64 runs in wrapping
    # uint64.  The oracles are stepping, and the Python-int path at the
    # multiple (3 * m) << 64 of m, which divides no power of two.
    sys = make_system(m, n)
    row = _row(sys, r)
    wraps = n * (m - 1) ** 2 >= 1 << 63 and (1 << 64) % m == 0
    assert (row.dtype == np.uint64) == wraps
    ints = _row(make_system(3 * m << 64, n), r)
    assert ints.dtype == object
    assert row.tolist() == [x % m for x in ints.tolist()]
    u = tuple(rnd.randrange(m) for _ in range(n))
    assert apply_coeff_expansion(sys, u, r % 60) == ducci_iter(sys, u, r % 60)


class TestIdentities:
  @given(st.integers(0, 20), st.integers(0, 20), st.integers(-6, 12))
  @settings(max_examples=60)
  def test_convolution(self, r, t, s):
    # a(r+t, s) = sum_i a(t, i) * a(r, s-i+1), all columns cyclic.
    sys = make_system(4, 4)
    total = sum(coeff_at(sys, t, i) * coeff_at(sys, r, s - i + 1)
                for i in range(1, 5))
    assert coeff_at(sys, r + t, s) == total % 4

  def test_convolution_odd_modulus(self):
    sys = make_system(3, 5)
    for r, t in itertools.product(range(8), repeat=2):
      for s in range(1, 6):
        total = sum(coeff_at(sys, t, i) * coeff_at(sys, r, s - i + 1)
                    for i in range(1, 6))
        assert coeff_at(sys, r + t, s) == total % 3

  def test_half_turn_shift_is_invisible(self):
    # For n = 2^k the columns s + 2^(k-1) and s - 2^(k-1) coincide.
    for m, k in [(4, 2), (2, 3), (8, 2)]:
      sys = make_system(m, 2 ** k)
      half = 2 ** (k - 1)
      for r in range(2 ** k + 5):
        for s in range(1, 2 ** k + 1):
          assert coeff_at(sys, r, s + half) == coeff_at(sys, r, s - half)

  def test_row_symmetry(self):
    # a(r, s) = a(r, r-s+2) under cyclic column indexing.
    for m, n in [(4, 4), (2, 8), (5, 3)]:
      sys = make_system(m, n)
      for r in range(1, 3 * n):
        for s in range(1, n + 1):
          assert coeff_at(sys, r, s) == coeff_at(sys, r, r - s + 2), (m, n, r, s)

  def test_expansion_equals_iteration_exhaustively(self):
    for m, n in [(3, 3), (4, 2), (2, 4)]:
      sys = make_system(m, n)
      for u in itertools.product(range(m), repeat=n):
        for r in range(2 * n + 1):
          assert apply_coeff_expansion(sys, u, r) == ducci_iter(sys, u, r)

  @given(st.integers(0, 40))
  def test_expansion_on_one_state(self, r):
    sys = make_system(6, 5)
    u = (3, 1, 4, 1, 5)
    assert apply_coeff_expansion(sys, u, r) == ducci_iter(sys, u, r)

  def test_expansion_validates(self):
    sys = make_system(4, 3)
    with pytest.raises(ParameterError):
      apply_coeff_expansion(sys, (1, 2), 1)
    with pytest.raises(ParameterError):
      apply_coeff_expansion(sys, (1, 2, 3), -1)


class TestViews:
  def test_f_is_a_plain_cell(self):
    sys = make_system(4, 4)
    assert view_f(sys, 2, 1) == coeff_at(sys, 4, 1) == 2
    assert view_f(sys, 2, 3) == coeff_at(sys, 4, 3)

  def test_g_offsets_the_column(self):
    sys = make_system(4, 4)
    # gamma=2, eps=2, delta=1 lands on a(4, 3) = 6 mod 4 = 2.
    assert view_g(sys, 2, 2, 1) == 2
    sys8 = make_system(4, 8)
    assert view_g(sys8, 2, 2, 1) == coeff_at(sys8, 8, 5)

  def test_h_is_one_row_up(self):
    sys = make_system(4, 4)
    assert view_h(sys, 3, 1) == coeff_at(sys, 5, 1) == 2
    with pytest.raises(ParameterError):
      view_h(sys, 0, 1)

  def test_needs_power_of_two_length(self):
    with pytest.raises(ParameterError):
      view_f(make_system(4, 3), 1, 1)
    with pytest.raises(ParameterError):
      view_f(make_system(4, 1), 1, 1)

  def test_g_needs_k_at_least_two(self):
    with pytest.raises(ParameterError):
      view_g(make_system(4, 2), 1, 1, 1)


class TestMemory:
  def test_no_call_keeps_tables(self):
    # Rows, iterates and binomials leave nothing behind that grows with
    # r or N; the only memos are one small table per l <= 16.
    rng = random.Random(7)
    tracemalloc.start()
    try:
      before = tracemalloc.get_traced_memory()[0]
      for i in range(48):
        sys = make_system(rng.randint(2, 12), 64)
        r = rng.randint(10 ** 3, 10 ** 4)
        if i % 2:
          coeff_at(sys, r, rng.randint(1, 64))
        else:
          u = tuple(rng.randrange(sys.m) for _ in range(64))
          apply_coeff_expansion(sys, u, r)
      for _ in range(24):
        big = rng.randint(1 << 19, 1 << 20)
        binom_mod_pow2(big, rng.randint(0, big), rng.randint(1, 8))
      gc.collect()
      held = tracemalloc.get_traced_memory()[0] - before
    finally:
      tracemalloc.stop()
    assert held < 1 << 20, held
