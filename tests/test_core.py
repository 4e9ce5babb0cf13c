'''Residue-tuple arithmetic and the algebra of the pair-sum map.'''

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ducci import (ParameterError, add, basic_tuple, ducci_iter, ducci_step,
                   format_tuple, make_system, parse_tuple, reduce_tuple,
                   scale, shift, validate_tuple)
from ducci.core import _step


def systems(max_m=9, max_n=8):
  return st.tuples(st.integers(2, max_m), st.integers(1, max_n)).map(
    lambda mn: make_system(*mn))


@st.composite
def system_and_tuple(draw, count=1):
  sys = draw(systems())
  tuples = [tuple(draw(st.integers(0, sys.m - 1)) for _ in range(sys.n))
            for _ in range(count)]
  return (sys, *tuples)


class TestSystem:
  def test_fields(self):
    sys = make_system(4, 3)
    assert (sys.m, sys.n) == (4, 3)
    assert sys.state_count == 64
    assert str(sys) == 'Z_4^3'

  @pytest.mark.parametrize('m,n', [(1, 3), (0, 3), (-2, 3), (4, 0), (4, -1)])
  def test_rejects_bad_parameters(self, m, n):
    with pytest.raises(ParameterError):
      make_system(m, n)

  def test_rejects_non_integers(self):
    with pytest.raises(ParameterError):
      make_system(4.0, 3)
    with pytest.raises(ParameterError):
      make_system(4, '3')

  def test_rejects_bools(self):
    # A bool is an int to Python; Z_4^True is not a system.
    for m, n in [(4, True), (True, 3), (4, False)]:
      with pytest.raises(ParameterError, match='must be an integer'):
        make_system(m, n)
    # Nor is True a scalar.
    with pytest.raises(ParameterError,
                       match='^scalar must be an integer, got True$'):
      scale(make_system(4, 3), True, (3, 1, 3))


class TestStep:
  def test_triple_system_steps(self):
    sys = make_system(4, 3)
    assert ducci_step(sys, (3, 1, 3)) == (0, 0, 2)
    assert ducci_step(sys, (0, 0, 2)) == (0, 2, 2)
    assert ducci_step(sys, (0, 2, 2)) == (2, 0, 2)

  def test_binary_pair(self):
    sys = make_system(2, 2)
    assert ducci_step(sys, (0, 1)) == (1, 1)
    assert ducci_step(sys, (1, 1)) == (0, 0)
    assert ducci_step(sys, (0, 0)) == (0, 0)

  @given(st.data())
  def test_unchecked_step_matches_pair_sums_mod_m(self, data):
    # _step reduces a pair sum by one conditional subtract, not % m.
    m = data.draw(st.one_of(
      st.integers(2, 40), st.sampled_from((2, 2 ** 63 - 1, 10 ** 19 + 7,
                                           2 ** 70))))
    u = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                 max_size=12)))
    assert _step(u, m) == tuple(
      (a + b) % m for a, b in zip(u, u[1:] + u[:1]))

  def test_iter_zero_is_identity(self):
    sys = make_system(5, 4)
    assert ducci_iter(sys, (1, 2, 3, 4), 0) == (1, 2, 3, 4)

  def test_iter_matches_repeated_step(self):
    sys = make_system(4, 4)
    cur = (0, 0, 0, 1)
    for r in range(10):
      assert ducci_iter(sys, (0, 0, 0, 1), r) == cur
      cur = ducci_step(sys, cur)

  def test_iter_rejects_negative_count(self):
    sys = make_system(4, 2)
    with pytest.raises(ParameterError):
      ducci_iter(sys, (1, 1), -1)
    with pytest.raises(ParameterError,
                       match='^iteration count must be an integer >= 0, '
                             'got True$'):
      ducci_iter(sys, (1, 1), True)

  def test_validates_input(self):
    sys = make_system(4, 3)
    with pytest.raises(ParameterError):
      ducci_step(sys, (1, 2))
    with pytest.raises(ParameterError):
      ducci_step(sys, (1, 2, 4))

  @given(system_and_tuple(count=2))
  def test_additive(self, case):
    sys, u, v = case
    assert ducci_step(sys, add(sys, u, v)) == add(
      sys, ducci_step(sys, u), ducci_step(sys, v))

  @given(system_and_tuple(), st.integers(-20, 20))
  def test_commutes_with_scaling(self, case, lam):
    sys, u = case
    assert ducci_step(sys, scale(sys, lam, u)) == scale(
      sys, lam, ducci_step(sys, u))

  @given(system_and_tuple())
  def test_commutes_with_rotation(self, case):
    sys, u = case
    assert ducci_step(sys, shift(sys, u)) == shift(sys, ducci_step(sys, u))

  @given(system_and_tuple())
  def test_equals_identity_plus_rotation(self, case):
    sys, u = case
    assert ducci_step(sys, u) == add(sys, u, shift(sys, u))

  @given(system_and_tuple(), st.integers(0, 12), st.integers(0, 12))
  def test_iteration_composes(self, case, r, t):
    sys, u = case
    assert ducci_iter(sys, u, r + t) == ducci_iter(
      sys, ducci_iter(sys, u, r), t)

  def test_zero_is_the_only_fixed_point_everywhere(self):
    # Exhaustive over every desk-scale system in the structure sweep.
    for m in range(2, 7):
      for n in range(1, 9):
        if m ** n > 1 << 16:
          continue
        sys = make_system(m, n)
        fixed = [u for u in itertools.product(range(m), repeat=n)
                 if ducci_step(sys, u) == u]
        assert fixed == [(0,) * n], str(sys)


class TestHelpers:
  def test_shift_rotates_left(self):
    sys = make_system(5, 4)
    assert shift(sys, (1, 2, 3, 4)) == (2, 3, 4, 1)

  def test_add_and_scale(self):
    sys = make_system(4, 3)
    assert add(sys, (3, 1, 3), (1, 3, 1)) == (0, 0, 0)
    assert scale(sys, 2, (3, 1, 3)) == (2, 2, 2)
    assert scale(sys, -1, (3, 1, 3)) == (1, 3, 1)

  def test_basic_tuple(self):
    assert basic_tuple(make_system(4, 4)) == (0, 0, 0, 1)
    assert basic_tuple(make_system(3, 1)) == (1,)

  def test_validate_checks_range(self):
    sys = make_system(4, 2)
    assert validate_tuple(sys, [3, 0]) == (3, 0)
    with pytest.raises(ParameterError):
      validate_tuple(sys, (4, 0))
    with pytest.raises(ParameterError):
      validate_tuple(sys, (-1, 0))

  def test_validate_messages_name_the_fault(self):
    sys = make_system(4, 2)
    with pytest.raises(ParameterError,
                       match='has type int64, not a Python int'):
      validate_tuple(sys, (np.int64(3), 0))
    with pytest.raises(ParameterError, match='has type float'):
      validate_tuple(sys, (3.0, 0))
    with pytest.raises(ParameterError, match=r'^entry 4 outside \[0, 4\)$'):
      validate_tuple(sys, (4, 0))

  def test_reduce_wraps_entries(self):
    sys = make_system(4, 3)
    assert reduce_tuple(sys, (7, -1, 4)) == (3, 3, 0)
    with pytest.raises(ParameterError):
      reduce_tuple(sys, (1, 2))


class TestText:
  def test_format(self):
    assert format_tuple((3, 1, 3)) == '(3,1,3)'
    assert format_tuple((0,)) == '(0)'

  @pytest.mark.parametrize('text', ['(3,1,3)', '3,1,3', ' ( 3 , 1 , 3 ) ',
                                    '3,1,3,'])
  def test_parse_accepted_spellings(self, text):
    assert parse_tuple(text) == (3, 1, 3)

  def test_parse_keeps_raw_integers(self):
    assert parse_tuple('(7,-1,4)') == (7, -1, 4)

  @pytest.mark.parametrize('text', ['', '()', '(a,b)', '1;2', '1,,2'])
  def test_parse_rejects_garbage(self, text):
    with pytest.raises(ParameterError):
      parse_tuple(text)

  @given(st.lists(st.integers(0, 8), min_size=1, max_size=8))
  def test_round_trip(self, entries):
    assert parse_tuple(format_tuple(entries)) == tuple(entries)
