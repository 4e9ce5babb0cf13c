'''Acceptance gate: ten exact criteria with pinned runtime budgets.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS line per
criterion. Budgets are wall-clock upper bounds on warmed library calls;
sub-millisecond criteria take the best of three runs to shed scheduler
noise, never to relax the assertion.
'''

import time
from itertools import product

import numpy as np

from ducci import (apply_coeff_expansion, basic_len_per, binom_mod_pow2_range,
                   build_graph, coeff_at, component_of, ducci_iter,
                   format_tuple, len_per_map, make_system, orbit_summary,
                   predecessors, to_dot, view_g, weak_components)
from ducci.verify import (verify_binomial_congruences, verify_coeff_pair_sum1,
                          verify_coeff_pair_sum2, verify_cycle_subgroup,
                          verify_half_modulus_pivot, verify_length_formula,
                          verify_length_lower_bound,
                          verify_predecessor_count, verify_vanishing_bound)

DESK_SYSTEMS = [(m, n) for m in range(2, 7) for n in range(1, 9)
                if m ** n <= 1 << 16]

# The 12-node component of (3,1,3) in Z_4^3: a 3-cycle fed by a
# two-level tree of predecessors.
COMPONENT_EDGES = {
  ((0, 0, 2), (0, 2, 2)), ((3, 1, 3), (0, 0, 2)), ((1, 3, 1), (0, 0, 2)),
  ((2, 2, 0), (0, 2, 2)), ((0, 2, 0), (2, 2, 0)), ((3, 1, 1), (0, 2, 0)),
  ((1, 3, 3), (0, 2, 0)), ((2, 0, 2), (2, 2, 0)), ((0, 2, 2), (2, 0, 2)),
  ((2, 0, 0), (2, 0, 2)), ((1, 1, 3), (2, 0, 0)), ((3, 3, 1), (2, 0, 0)),
}

# The whole of Z_4^2: sixteen states funneling into the fixed point.
PAIR_EDGES = {
  ((0, 0), (0, 0)), ((1, 3), (0, 0)), ((3, 1), (0, 0)), ((2, 2), (0, 0)),
  ((0, 2), (2, 2)), ((2, 0), (2, 2)), ((3, 3), (2, 2)), ((1, 1), (2, 2)),
  ((0, 3), (3, 3)), ((3, 0), (3, 3)), ((1, 2), (3, 3)), ((2, 1), (3, 3)),
  ((0, 1), (1, 1)), ((1, 0), (1, 1)), ((2, 3), (1, 1)), ((3, 2), (1, 1)),
}


def timed(budget, body, repeats=1):
  best = float('inf')
  for _ in range(repeats):
    start = time.perf_counter()
    body()
    best = min(best, time.perf_counter() - start)
  assert best < budget, f'took {best:.4f}s, budget {budget}s'
  return best


def report(number, label, elapsed):
  print(f'criterion {number:02d} {label}: PASS ({elapsed:.4f}s)')


def test_criterion_01_orbit_fidelity():
  sys = make_system(4, 3)

  def body():
    walk = [(3, 1, 3)]
    for _ in range(5):
      walk.append(ducci_iter(sys, walk[-1], 1))
    assert walk == [(3, 1, 3), (0, 0, 2), (0, 2, 2), (2, 0, 2), (2, 2, 0),
                    (0, 2, 2)]
    summary = orbit_summary(sys, (3, 1, 3))
    assert (summary.len, summary.per) == (2, 3)
    assert orbit_summary(sys, (0, 0, 2)).len == 1
    assert orbit_summary(sys, (0, 2, 2)).len == 0
    component = component_of(build_graph(sys), (3, 1, 3))
    assert len(component.nodes) == 12
    assert all(orbit_summary(sys, u).per == 3 for u in component.nodes)

  body()  # warm caches before timing
  report(1, 'orbit fidelity', timed(0.001, body, repeats=3))


def test_criterion_02_pair_system_facts():
  sys = make_system(4, 2)

  def body():
    assert basic_len_per(sys) == (3, 1)
    assert orbit_summary(sys, (2, 3)).len == 3
    assert orbit_summary(sys, (1, 3)).len == 1
    assert predecessors(sys, (0, 0)) == [(0, 0), (1, 3), (2, 2), (3, 1)]
    assert predecessors(sys, (1, 3)) == []
    assert predecessors(sys, (2, 3)) == []

  body()
  report(2, 'pair-system facts', timed(0.001, body, repeats=3))


def test_criterion_03_length_formula_sweep():
  def body():
    formula = verify_length_formula(range(1, 6), range(1, 7))
    lower = verify_length_lower_bound(range(1, 6), range(1, 7))
    for rep in (formula, lower):
      assert rep.verdict == 'pass'
      assert len(rep.cases) == 30
      assert all(c.verdict == 'pass' for c in rep.cases)
    for case in formula.cases:
      k, l = case.params['k'], case.params['l']
      assert case.observed == {'len': (l + 1) * 2 ** (k - 1), 'per': 1}

  report(3, 'length formula sweep', timed(5.0, body))


def test_criterion_04_vanishing_bound():
  def body():
    rep = verify_vanishing_bound(range(1, 6), range(1, 7))
    assert rep.verdict == 'pass'
    assert all(c.verdict == 'pass' for c in rep.cases)
    for case in rep.cases:
      k, l = case.params['k'], case.params['l']
      assert case.observed == {'mode': 'certificate',
                               'bound': (l + 1) * 2 ** (k - 1)}, (k, l)

  report(4, 'vanishing bound', timed(5.0, body))


def test_criterion_05_binomial_congruences():
  def body():
    assert verify_binomial_congruences(range(2, 17)).verdict == 'pass'
    top = 1 << 12
    for l in range(1, 9):
      mod = 1 << l
      row = np.zeros(top + 1, dtype=np.int64)
      row[0] = 1
      for n in range(top + 1):
        got = binom_mod_pow2_range(n, l)
        assert np.array_equal(got, row[:n + 1]), (l, n)
        if n < top:
          row[1:n + 2] = (row[1:n + 2] + row[:n + 1]) % mod

  report(5, 'binomial congruences + Pascal oracle', timed(30.0, body))


def test_criterion_06_coefficient_sums():
  def body():
    assert verify_coeff_pair_sum1(range(1, 7), range(1, 7)).verdict == 'pass'
    assert verify_coeff_pair_sum2(range(2, 7), range(3, 7)).verdict == 'pass'
    assert verify_half_modulus_pivot(range(2, 7),
                                     range(2, 7)).verdict == 'pass'
    # Same pivot claim through the public view API as a second route.
    for l, k in product(range(2, 7), range(2, 7)):
      sys = make_system(2 ** l, 2 ** k)
      assert view_g(sys, l, l, 1) == 2 ** (l - 1), (l, k)

  report(6, 'coefficient sums', timed(5.0, body))


def test_criterion_07_coefficient_calculus():
  def body():
    for m, n in [(4, 4), (2, 8)]:
      sys = make_system(m, n)
      top = 2 * basic_len_per(sys)[0]
      states = list(product(range(m), repeat=n))
      for r in range(top + 1):
        for u in states:
          assert apply_coeff_expansion(sys, u, r) == ducci_iter(sys, u, r)
      for r in range(top + 1):
        for s in range(1, r + 2):
          assert coeff_at(sys, r, s) == coeff_at(sys, r, r - s + 2)
      for r, t in product(range(top + 1), repeat=2):
        if r + t > top:
          continue
        for s in range(1, n + 1):
          lhs = coeff_at(sys, r + t, s)
          rhs = sum(coeff_at(sys, t, i) * coeff_at(sys, r, s - i + 1)
                    for i in range(1, n + 1)) % m
          assert lhs == rhs, (m, n, r, t, s)

  report(7, 'coefficient calculus', timed(10.0, body))


def test_criterion_08_binary_lengths():
  def body():
    for n in range(1, 17):
      two_part = n & -n
      assert basic_len_per(make_system(2, n))[0] == two_part, n

  report(8, 'binary pre-period lengths', timed(10.0, body))


def test_criterion_09_structure_invariants():
  def body():
    assert len(DESK_SYSTEMS) == 36
    for m, n in DESK_SYSTEMS:
      assert verify_cycle_subgroup(m, n).verdict == 'pass', (m, n)
      if n % 2 == 0:
        assert verify_predecessor_count(m, n).verdict == 'pass', (m, n)
      sys = make_system(m, n)
      cap_len, cap_per = basic_len_per(sys)
      for state, (length, per) in len_per_map(sys).items():
        assert length <= cap_len, (m, n, state)
        assert cap_per % per == 0, (m, n, state)

  report(9, 'structure invariants', timed(60.0, body))


def test_criterion_10_graph_reproduction():
  def dot_edge(pair):
    return f'  "{format_tuple(pair[0])}" -> "{format_tuple(pair[1])}";'

  def body():
    component = component_of(build_graph(make_system(4, 3)), (3, 1, 3))
    assert set(component.nodes) == {u for e in COMPONENT_EDGES for u in e}
    assert len(component.nodes) == 12
    assert set(component.edges) == COMPONENT_EDGES
    dot_lines = set(to_dot(component).splitlines())
    assert {dot_edge(e) for e in COMPONENT_EDGES} <= dot_lines

    graph = build_graph(make_system(4, 2))
    assert graph.node_count == 16
    assert graph.edge_count == 16
    assert set(graph.edges) == PAIR_EDGES
    assert [e for e in graph.edges if e[0] == e[1]] == [((0, 0), (0, 0))]
    assert len(weak_components(graph)) == 1
    assert {dot_edge(e) for e in PAIR_EDGES} <= set(
        to_dot(graph).splitlines())

  report(10, 'graph reproduction', timed(1.0, body))
