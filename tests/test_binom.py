'''Binomial coefficients modulo powers of two.'''

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ducci import (CapExceededError, ParameterError, binom_mod_pow2,
                   binom_mod_pow2_range)
from ducci.coeffs import _odd_factorial, _odd_prefix
from ducci.limits import COEFF_CELL_CAP


def pascal_rows_mod(limit, mod):
  '''Rows 0..limit of Pascal's triangle mod `mod` (the slow oracle).'''
  row = [1]
  while True:
    yield row
    if len(row) > limit:
      return
    row = [1] + [(a + b) % mod for a, b in zip(row, row[1:])] + [1]


class TestScalar:
  def test_central_examples(self):
    assert binom_mod_pow2(4, 2, 2) == 2       # C(4,2) = 6
    assert binom_mod_pow2(4, 2, 3) == 6
    assert binom_mod_pow2(8, 4, 2) == 2       # C(8,4) = 70
    assert binom_mod_pow2(7, 4, 1) == 1       # C(7,4) = 35, odd
    assert binom_mod_pow2(7, 4, 2) == 3

  def test_edges(self):
    assert binom_mod_pow2(0, 0, 5) == 1
    assert binom_mod_pow2(9, 0, 3) == 1
    assert binom_mod_pow2(9, 9, 3) == 1

  def test_matches_comb_everywhere_small(self):
    for big in range(0, 121):
      for small in range(0, big + 1):
        want = math.comb(big, small)
        for l in (1, 2, 3, 5, 8, 12):
          assert binom_mod_pow2(big, small, l) == want % (1 << l), \
            (big, small, l)

  def test_huge_indices_stay_cheap(self):
    # Mod 4 the odd part comes from a 4-cell table read once per bit of
    # N; mod 2 the carry count alone decides.
    assert binom_mod_pow2(1 << 20, 1 << 19, 2) == 2
    assert binom_mod_pow2((1 << 20) - 1, 1 << 19, 1) == 1

  def test_central_binomials_up_to_2_62(self):
    for j in range(2, 63):
      assert binom_mod_pow2(2 ** j, 2 ** (j - 1), 3) == 6, j

  @given(st.integers(0, 3000), st.data(), st.integers(1, 40))
  @settings(max_examples=300)
  def test_matches_comb(self, big, data, l):
    small = data.draw(st.integers(0, big))
    assert binom_mod_pow2(big, small, l) == math.comb(big, small) % (1 << l)

  @given(st.integers(2, 1 << 62), st.data(), st.integers(1, 16))
  @settings(max_examples=200)
  def test_pascal_rule_large(self, big, data, l):
    small = data.draw(st.integers(1, big - 1))
    mod = 1 << l
    assert binom_mod_pow2(big, small, l) == (
      binom_mod_pow2(big - 1, small - 1, l)
      + binom_mod_pow2(big - 1, small, l)) % mod

  def test_odd_part_of_factorial(self):
    # Mod 4 the odd residues multiply to -1, a sign that cancels in every
    # binomial, so only the intermediate shows whether periods count.
    for big in range(300):
      fact = math.factorial(big)
      odd = fact >> ((fact & -fact).bit_length() - 1)
      for l in (1, 2, 3, 7, 20, 64, 65):
        table = _odd_prefix(min(big + 1, 1 << l), l)
        assert _odd_factorial(big, l, table) == odd % (1 << l), (big, l)

  def test_large_exponent_table_is_capped(self):
    # The odd-residue table has min(N + 1, 2^l) cells.
    big = 1 << 25
    with pytest.raises(CapExceededError) as info:
      binom_mod_pow2(big, big >> 1, 30)
    assert (info.value.required, info.value.cap) == (big + 1, COEFF_CELL_CAP)

  def test_python_int_table_weighs_64_cells(self):
    # Above l = 64 a table cell is a Python int and counts as 64 cells,
    # so the cap answers N < 2^18 there and refuses from 2^18 on.
    big = 1 << 18
    with pytest.raises(CapExceededError) as info:
      binom_mod_pow2(big, 12345, 100)
    assert (info.value.required, info.value.cap) == ((big + 1) * 64,
                                                     COEFF_CELL_CAP)
    assert binom_mod_pow2(big - 1, 3, 100) == math.comb(big - 1, 3) % (1 << 100)

  def test_large_exponent_table_is_one_uint64_pass(self):
    # Each call builds its own table of min(N + 1, 2^l) cells: 8 bytes
    # each, not a Python int apiece.
    big = (1 << 20) + 5
    for _ in range(2):
      tracemalloc.start()
      try:
        got = binom_mod_pow2(big, 3, 30)
        peak = tracemalloc.get_traced_memory()[1]
      finally:
        tracemalloc.stop()
      assert got == math.comb(big, 3) % (1 << 30)
      assert peak < 12 << 20

  def test_scalar_keeps_nothing(self):
    # Every l builds its odd-residue table per call and drops it, so no
    # module-level cache grows with the l that callers have used.
    tracemalloc.start()
    try:
      for l in range(1, 17):
        binom_mod_pow2(2 ** 40 + 3, 2 ** 39, l)
      kept = tracemalloc.get_traced_memory()[0]
    finally:
      tracemalloc.stop()
    assert kept < 64 << 10

  def test_large_exponent_scalar_path(self):
    # l beyond the vectorized table limit still works scalar-wise.
    assert binom_mod_pow2(10, 5, 300) == 252

  def test_rejects_bad_arguments(self):
    with pytest.raises(ParameterError):
      binom_mod_pow2(4, 2, 0)
    with pytest.raises(ParameterError):
      binom_mod_pow2(-1, 0, 2)
    with pytest.raises(ParameterError):
      binom_mod_pow2(4, 5, 2)
    with pytest.raises(ParameterError):
      binom_mod_pow2(4, -1, 2)
    # True is no lower index.
    with pytest.raises(ParameterError,
                       match=r'^lower index must be an integer in 0\.\.5, '
                             'got True$'):
      binom_mod_pow2(5, True, 3)


class TestRange:
  @pytest.mark.parametrize('big', [0, 1, 2, 7, 64, 255, 300])
  @pytest.mark.parametrize('l', [1, 2, 4, 8, 16, 17, 32, 63])
  def test_agrees_with_scalar(self, big, l):
    row = binom_mod_pow2_range(big, l)
    assert row.dtype == np.int64
    assert list(row) == [binom_mod_pow2(big, k, l) for k in range(big + 1)]

  def test_agrees_with_pascal_oracle(self):
    for l in (1, 3, 6):
      mod = 1 << l
      for big, row in enumerate(pascal_rows_mod(256, mod)):
        assert list(binom_mod_pow2_range(big, l)) == row, (big, l)

  @given(st.integers(0, 2000), st.integers(1, 63))
  @settings(max_examples=200)
  def test_matches_comb(self, big, l):
    mod = 1 << l
    assert binom_mod_pow2_range(big, l).tolist() == [
      math.comb(big, k) % mod for k in range(big + 1)]

  def test_rejects_large_exponent(self):
    with pytest.raises(ParameterError):
      binom_mod_pow2_range(4, 64)

  def test_row_memory_is_bounded(self):
    # The uint64 odd-part factorials, their inverses and one Newton
    # temporary: 25 bytes per cell measured.
    big = 1 << 20
    tracemalloc.start()
    try:
      binom_mod_pow2_range(big, 16)
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    assert peak <= 32 * (big + 1), peak / (big + 1)

  def test_row_cap(self):
    big = 1 << 24
    tracemalloc.start()
    try:
      with pytest.raises(CapExceededError) as info:
        binom_mod_pow2_range(big, 3)
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    assert (info.value.required, info.value.cap) == (big + 1, COEFF_CELL_CAP)
    assert peak < 1 << 16, peak  # refused before any array was built


class TestClassicalIdentities:
  @given(st.integers(0, 2000), st.integers(0, 2000), st.integers(1, 10))
  @settings(max_examples=30)
  def test_vandermonde_convolution(self, a, b, l):
    # C(a+b, k) = sum_j C(a, j) * C(b, k-j), checked mod 2^l.
    mod = 1 << l
    k = (a + b) // 2
    total = sum(
      binom_mod_pow2(a, j, l) * binom_mod_pow2(b, k - j, l)
      for j in range(max(0, k - b), min(a, k) + 1)) % mod
    assert binom_mod_pow2(a + b, k, l) == total

  def test_parity_is_the_submask_rule(self):
    # Base-2 digit comparison: C(N, K) is odd iff K's bits lie in N's.
    for big in range(256):
      row = binom_mod_pow2_range(big, 1)
      for small in range(big + 1):
        assert row[small] == (1 if small & big == small else 0)

  @given(st.integers(0, 1 << 40), st.integers(0, 1 << 40))
  @settings(max_examples=200)
  def test_parity_submask_rule_large(self, big, small):
    # Parity needs only the carry count, so any index size is fine.
    if small > big:
      big, small = small, big
    want = 1 if small & big == small else 0
    assert binom_mod_pow2(big, small, 1) == want
