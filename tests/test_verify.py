'''The identity-check suite: verdicts, skips, reports, exit codes.'''

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ducci.verify
from ducci import (_statespace, coeffs, exit_code, make_system,
                   reports_to_jsonl, run_checks, summary_table)
from ducci.cli import main
from ducci.errors import CapExceededError, ParameterError
from ducci.limits import COEFF_CELL_CAP
from ducci.orbits import basic_len_per
from ducci.verify import (CHECK_NAMES, DEFAULT_SYSTEMS, CaseResult,
                          CheckReport, verify_binary_length_formula,
                          verify_binomial_congruences, verify_coeff_pair_sum1,
                          verify_coeff_pair_sum2, verify_cycle_subgroup,
                          verify_half_modulus_pivot, verify_length_formula,
                          verify_length_lower_bound,
                          verify_predecessor_count, verify_trivial_kernel,
                          verify_vanishing_bound)

# Check ids in the order of the CLI names that run them.
CHECK_IDS = ('length_formula', 'length_lower_bound', 'vanishing_bound',
             'binary_length_formula', 'trivial_kernel', 'cycle_subgroup',
             'predecessor_count', 'binomial_congruences', 'coeff_pair_sum1',
             'coeff_pair_sum2', 'half_modulus_pivot')


class TestChecksPass:
  def test_length_formula(self):
    report = verify_length_formula(range(1, 4), range(1, 4))
    assert report.verdict == 'pass'
    assert report.counterexample is None
    assert [c.observed['len'] for c in report.cases[:3]] == [2, 3, 4]

  def test_length_lower_bound(self):
    assert verify_length_lower_bound(range(1, 4), range(1, 4)).verdict == 'pass'

  def test_vanishing_bound_modes(self):
    report = verify_vanishing_bound(range(1, 4), range(1, 3), samples=10)
    assert report.verdict == 'pass'
    modes = {(c.params['k'], c.params['l']): c.observed['mode']
             for c in report.cases}
    assert modes[(1, 1)] == 'exhaustive'
    assert modes[(3, 2)] == 'exhaustive'     # 2^16 states, right at the edge
    assert 'samples' in report.parameters

  @pytest.mark.parametrize('samples', [0, -3])
  def test_vanishing_bound_refuses_no_samples(self, samples):
    with pytest.raises(ParameterError, match='samples'):
      verify_vanishing_bound(range(4, 5), range(1, 2), samples=samples)

  def test_binary_length_formula(self):
    report = verify_binary_length_formula(16)
    assert report.verdict == 'pass'
    assert len(report.cases) == 16

  def test_trivial_kernel(self):
    report = verify_trivial_kernel(range(1, 3), range(1, 3))
    assert report.verdict == 'pass'
    assert [c.observed for c in report.cases] == [
      {'mode': 'certificate', 'row': l * 2 ** k}
      for k in (1, 2) for l in (1, 2)]

  def test_cycle_subgroup(self):
    for m, n in [(3, 2), (4, 3), (5, 2), (2, 6)]:
      report = verify_cycle_subgroup(m, n)
      assert report.verdict == 'pass', (m, n)
    assert verify_cycle_subgroup(3, 2).cases[0].observed == {'order': 3}

  def test_predecessor_count(self):
    for m, n in [(4, 2), (2, 4), (6, 4)]:
      assert verify_predecessor_count(m, n).verdict == 'pass', (m, n)

  def test_binomial_congruences(self):
    report = verify_binomial_congruences(range(2, 11))
    assert report.verdict == 'pass'
    first = report.cases[0].observed
    assert (first['center_mod4'], first['center_mod8']) == (2, 6)

  def test_coeff_pair_sums_and_pivot(self):
    assert verify_coeff_pair_sum1(range(1, 5), range(1, 5)).verdict == 'pass'
    assert verify_coeff_pair_sum2(range(2, 5), range(3, 5)).verdict == 'pass'
    assert verify_half_modulus_pivot(range(2, 5), range(2, 5)).verdict == 'pass'


class TestSkips:
  def test_odd_length_is_a_hypothesis_skip(self):
    report = verify_predecessor_count(4, 3)
    assert report.verdict == 'skip'
    assert report.cases[0].reason.startswith('hypothesis')
    assert exit_code([report]) == 0

  def test_sum2_hypothesis_cases(self):
    report = verify_coeff_pair_sum2(range(1, 4), range(2, 5))
    skipped = [c for c in report.cases if c.verdict == 'skip']
    assert skipped and all(c.reason.startswith('hypothesis') for c in skipped)
    assert report.verdict == 'pass'     # the in-hypothesis cases still ran

  @pytest.mark.parametrize('argv', [('sum1', '--l-min', '-1', '--l-max', '1'),
                                    ('all', '--l-min', '-1')])
  def test_negative_l_is_a_hypothesis_skip_in_sum1(self, capsys, argv):
    assert main(['verify', *argv]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    [sum1] = [r for r in reports if r['check_id'] == 'coeff_pair_sum1']
    below = [c for c in sum1['cases'] if c['params']['l'] < 0]
    assert len(below) == 6 and sum1['verdict'] == 'pass'
    assert {c['reason'] for c in below} == {'hypothesis: l must be >= 0'}

  def test_all_hypothesis_skips_skip_the_report(self):
    report = verify_binomial_congruences(range(0, 2))
    assert report.verdict == 'skip'
    assert exit_code([report]) == 0

  def test_cap_skip_sets_exit_three(self):
    report = verify_cycle_subgroup(4, 3, max_states=10)
    assert report.verdict == 'skip'
    assert report.cases[0].reason.startswith('cap')
    assert exit_code([report]) == 3

  def test_subgroup_cap_skip(self):
    report = verify_cycle_subgroup(6, 8)
    assert report.verdict == 'skip'
    assert report.cases[0].reason.startswith('cap')


class TestRunner:
  def test_runs_everything_by_default(self):
    reports = run_checks(systems=[(3, 2), (4, 2)], k_max=2, l_max=2,
                         j_max=4, n_max=4, samples=5)
    assert {r.check_id for r in reports} == set(CHECK_IDS)
    assert exit_code(reports) == 0

  def test_refused_walk_in_l2_is_a_cap_skip(self, monkeypatch):
    # A refused walk must not abort the run: it is one cap skip.
    walk = ducci.verify.basic_len_per

    def refuse_n5(sys, **kwargs):
      if sys.n == 5:
        raise CapExceededError('walk refused', required=100, cap=10)
      return walk(sys, **kwargs)

    monkeypatch.setattr(ducci.verify, 'basic_len_per', refuse_n5)
    reports = run_checks(systems=[(3, 2), (4, 2)], k_max=2, l_max=2,
                         j_max=4, n_max=6, samples=5)
    assert {r.check_id for r in reports} == set(CHECK_IDS)
    (l2,) = [r for r in reports if r.check_id == 'binary_length_formula']
    not_passed = [(c.params, c.verdict, c.reason) for c in l2.cases
                  if c.verdict != 'pass']
    assert not_passed == [({'n': 5}, 'skip', 'cap: walk refused')]
    assert l2.verdict == 'pass'
    assert exit_code(reports) == 3

  def test_checks_are_called_through_the_module(self, monkeypatch):
    # The benchmark traces a check by rebinding ducci.verify.verify_<id>;
    # run_checks must call whatever that name holds when it runs.
    called = []
    for check_id in CHECK_IDS:
      check = getattr(ducci.verify, f'verify_{check_id}')

      def record(*args, _check=check, _id=check_id, **kwargs):
        called.append(_id)
        return _check(*args, **kwargs)

      monkeypatch.setattr(ducci.verify, f'verify_{check_id}', record)
    run_checks(systems=[(3, 2)], k_max=2, l_max=3, j_max=3, n_max=2,
               samples=5)
    assert called == list(CHECK_IDS)
    assert CHECK_NAMES == ('main', 'lower', 'bound', 'l2', 'kernel',
                           'subgroup', 'preds', 'binom', 'sum1', 'sum2',
                           'pivot')

  def test_reports_are_sorted(self):
    reports = run_checks(['subgroup', 'main'], systems=[(4, 2), (3, 2)],
                         k_max=2, l_max=2)
    keys = [(r.check_id, json.dumps(r.parameters, sort_keys=True))
            for r in reports]
    assert keys == sorted(keys)

  def test_single_named_check(self):
    reports = run_checks(['l2'], n_max=8)
    assert [r.check_id for r in reports] == ['binary_length_formula']

  def test_odd_length_systems_skip_in_predecessor_sweep(self):
    reports = run_checks(['preds'], systems=[(4, 2), (4, 3)])
    verdicts = {tuple(r.parameters.values()): r.verdict for r in reports}
    assert verdicts == {(4, 2): 'pass', (4, 3): 'skip'}
    assert exit_code(reports) == 0

  def test_default_system_sweep(self):
    assert (2, 2) in DEFAULT_SYSTEMS
    assert (6, 6) in DEFAULT_SYSTEMS
    assert (6, 7) not in DEFAULT_SYSTEMS      # 6^7 exceeds 2^16
    assert all(m ** n <= 1 << 16 for m, n in DEFAULT_SYSTEMS)

  def test_unknown_name_rejected(self):
    with pytest.raises(ValueError):
      run_checks(['nonsense'])

  def test_seeded_rerun_is_byte_identical(self):
    first = run_checks(['bound'], k_max=3, l_max=3, samples=20, seed=7)
    second = run_checks(['bound'], k_max=3, l_max=3, samples=20, seed=7)
    assert reports_to_jsonl(first) == reports_to_jsonl(second)

  # sha256 of the full default sweep's JSONL, pinned so that a faster
  # check must reproduce every verdict, witness and byte of the old one.
  @pytest.mark.parametrize('seed,sha256', [
    (0, '63ea6f4efd504886229933962077efe3271ae24dfc4b03081f3df2ea7b35fc46'),
    (701,
     '75a3d7115aa090c770174b0f013b3807f159218c40e015b1bee67bfe67fa277a'),
  ])
  def test_default_sweep_jsonl_is_pinned(self, seed, sha256):
    reports = run_checks(seed=seed)
    assert hashlib.sha256(reports_to_jsonl(reports).encode()).hexdigest() == (
      sha256)
    assert exit_code(reports) == 0     # every case decided, none capped

  def test_narrow_sweep_jsonl_is_pinned(self):
    # Ranges starting at 0 reach every check's hypothesis skip (sum1's
    # per-k {'k': 0} case included), and a cap of 64 states reaches the
    # cap skips of subgroup and preds; the default sweeps reach none of
    # these.  The kernel check reads one row and ignores the state cap.
    text = reports_to_jsonl(run_checks(
      k_min=0, k_max=2, l_min=0, l_max=3, j_min=0, j_max=3, n_max=3,
      systems=[(2, 3), (3, 2), (6, 8)], samples=5, seed=3, max_states=64))
    assert hashlib.sha256(text.encode()).hexdigest() == (
      '7e40c1eb059c736c64441e8e7034404ed2c21ec21624c052ff1fbd0bea4a4f7d')


class TestReports:
  FAIL_CASE = CaseResult({'k': 1}, 'fail', witness={'state': [1, 0]})
  PASS_CASE = CaseResult({'k': 2}, 'pass', observed={'len': 3})
  CAP_CASE = CaseResult({'k': 3}, 'skip', reason='cap: too big')

  def synthetic(self, cases, verdict, counterexample=None):
    return CheckReport('synthetic', {'k': [1, 2, 3]}, verdict,
                       counterexample, tuple(cases), 0.25)

  def test_exit_code_precedence(self):
    failing = self.synthetic([self.FAIL_CASE], 'fail', {'k': 1})
    capped = self.synthetic([self.CAP_CASE], 'skip')
    passing = self.synthetic([self.PASS_CASE], 'pass')
    assert exit_code([passing]) == 0
    assert exit_code([passing, capped]) == 3
    assert exit_code([passing, capped, failing]) == 1

  def test_jsonl_shape(self):
    report = self.synthetic([self.PASS_CASE, self.CAP_CASE], 'pass')
    lines = reports_to_jsonl([report, report]).splitlines()
    assert len(lines) == 2
    obj = json.loads(lines[0])
    assert obj['check_id'] == 'synthetic'
    assert obj['verdict'] == 'pass'
    assert 'elapsed' not in obj
    assert obj['cases'][1]['reason'] == 'cap: too big'

  def test_jsonl_can_include_elapsed_on_request(self):
    report = self.synthetic([self.PASS_CASE], 'pass')
    obj = json.loads(reports_to_jsonl([report], include_elapsed=True))
    assert obj['elapsed'] == 0.25

  def test_real_fail_records_minimal_counterexample(self):
    # Deliberately out-of-hypothesis arithmetic cannot occur; exercise
    # the fail path through the aggregation of synthetic cases instead.
    report = self.synthetic([self.FAIL_CASE, self.PASS_CASE], 'fail',
                            {'k': 1, 'state': [1, 0]})
    obj = json.loads(reports_to_jsonl([report]))
    assert obj['counterexample'] == {'k': 1, 'state': [1, 0]}
    assert obj['cases'][0]['witness'] == {'state': [1, 0]}

  def test_summary_table_alignment(self):
    report = self.synthetic([self.PASS_CASE, self.CAP_CASE], 'pass')
    table = summary_table([report])
    lines = table.splitlines()
    assert lines[0].split() == ['check_id', 'cases', 'pass', 'fail', 'skip',
                                'verdict', 'elapsed']
    assert lines[1].split() == ['synthetic', '2', '1', '0', '1', 'pass',
                                '0.250s']
    assert len(set(len(line) for line in lines)) <= 2  # aligned columns


# --- closure against a generating set -----------------------------------

def span_oracle(gens, m, n):
  '''Codes of the subgroup generated by the given codes, by search.'''
  rows = [tuple(row) for row in
          _statespace.digits(np.array(gens, dtype=np.int64), m, n).tolist()]
  seen, todo = {(0,) * n}, [(0,) * n]
  while todo:
    u = todo.pop()
    for g in rows:
      v = tuple((a + b) % m for a, b in zip(u, g))
      if v not in seen:
        seen.add(v)
        todo.append(v)
  return sorted(_statespace.encode(u, m) for u in seen)


@st.composite
def sets_holding_zero(draw):
  '''(m, n, ascending codes) in a Z_m^n of at most 64 states: a random
  subgroup, one with a member added or removed, or any set holding 0.'''
  m, n = draw(st.sampled_from([(m, n) for m in range(2, 7)
                               for n in range(1, 7) if m ** n <= 64]))
  code = st.integers(0, m ** n - 1)
  kind = draw(st.sampled_from(['subgroup', 'added', 'removed', 'any']))
  if kind == 'any':
    return m, n, sorted({0, *draw(st.lists(code, max_size=20))})
  members = span_oracle(draw(st.lists(code, max_size=3)), m, n)
  if kind == 'added' and len(members) < m ** n:
    members.append(draw(code.filter(lambda c: c not in members)))
  if kind == 'removed' and len(members) > 1:
    members.remove(draw(st.sampled_from(members[1:])))
  return m, n, sorted(members)


class TestClosure:
  @settings(max_examples=300, deadline=None)
  @given(sets_holding_zero())
  def test_generators_match_pairwise_scan(self, case):
    m, n, codes = case
    codes = np.array(codes, dtype=np.int64)
    mat = _statespace.digits(codes, m, n)
    gens, escape = _statespace.closure_generators(codes, mat, m)
    want = old_subgroup_witness(codes, mat, m, n)
    closed = want is None or want['violation'] != 'sum_escapes'
    assert (escape is None) == closed
    if closed:
      assert span_oracle(gens, m, n) == codes.tolist()
      assert len(gens) <= len(codes).bit_length() - 1
    else:
      assert [mat[i].tolist() for i in escape] == [want['u'], want['v']]

  @pytest.mark.parametrize('m,n', DEFAULT_SYSTEMS)
  def test_at_most_log2_generators(self, m, n):
    # The pass count that replaced the |K|^2 pair scan, pinned without a
    # wall-clock bound: each generator at least doubles the span.
    codes = _statespace.kernel_codes(m, n)
    gens, escape = _statespace.closure_generators(
      codes, _statespace.digits(codes, m, n), m)
    assert escape is None
    assert len(gens) <= len(codes).bit_length() - 1


# --- failure paths against the former per-pair and per-state loops ---------
#
# The pair-sum map never breaks these claims, so each test feeds a broken
# kernel, successor array or step into the check through the `_statespace`
# functions it calls, and compares the verdict and witness with a copy of
# the loop the check used before its numpy passes.

def old_subgroup_witness(codes, mat, m, n):
  '''The former verify_cycle_subgroup checks, in order, over all pairs.'''
  weights = np.array([m ** (n - 1 - i) for i in range(n)], dtype=np.int64)
  mask = np.zeros(m ** n, dtype=bool)
  mask[codes] = True

  def escape(kind, inside, **extra):
    return dict(violation=kind, **extra,
                u=mat[int(np.argmax(~inside))].tolist())

  if codes[0] != 0:
    return {'violation': 'identity_missing'}
  for pos, row in enumerate(mat):
    inside = mask[((mat + row) % m) @ weights]
    if not inside.all():
      return {'violation': 'sum_escapes', 'u': mat[pos].tolist(),
              'v': mat[int(np.argmax(~inside))].tolist()}
  inside = mask[((-mat) % m) @ weights]
  if not inside.all():
    return escape('inverse_escapes', inside)
  for lam in range(m):
    inside = mask[((mat * lam) % m) @ weights]
    if not inside.all():
      return escape('scale_escapes', inside, lam=lam)
  inside = mask[np.roll(mat, -1, axis=1) @ weights]
  if not inside.all():
    return escape('rotation_escapes', inside)
  image = ((mat + np.roll(mat, -1, axis=1)) % m) @ weights
  if not mask[image].all():
    return escape('image_escapes', mask[image])
  if np.unique(image).size != codes.size:
    return {'violation': 'image_not_injective'}
  return None


def old_predecessor_witness(succ, m, n):
  '''The former per-state loop of verify_predecessor_count, with each
  state's preimages under `succ` in place of `predecessors()`.'''
  indeg = np.bincount(succ, minlength=m ** n)
  bad = np.nonzero((indeg != 0) & (indeg != m))[0]
  if bad.size:
    return {'state': _statespace.digits(bad[:1], m, n)[0].tolist(),
            'count': int(indeg[bad[0]])}
  states = list(itertools.product(range(m), repeat=n))
  preimages = [[] for _ in states]
  for code, target in enumerate(succ.tolist()):
    preimages[target].append(states[code])
  alt = tuple(1 if i % 2 == 0 else m - 1 for i in range(n))
  for code in np.nonzero(indeg == m)[0]:
    preds = preimages[code]
    base = preds[0]
    family = sorted(tuple((base[i] + z * alt[i]) % m for i in range(n))
                    for z in range(m))
    if len(preds) != m or preds != family:
      return {'state': list(states[code]), 'count': len(preds)}
  return None


def old_vanishing_cases(k_range, l_range, samples, seed, exhaustive_limit,
                        walk):
  '''The former verify_vanishing_bound loop with `walk(u, m, bound)` as
  the bound-th iterate of the map on tuples: walk every state, or draw
  samples and stop at the first failing one.'''
  rng = random.Random(seed)
  cases = []
  for k in k_range:
    for l in l_range:
      m, n, bound = 2 ** l, 2 ** k, l * 2 ** k
      if m ** n <= exhaustive_limit:
        candidates = itertools.product(range(m), repeat=n)
      else:
        candidates = (tuple(rng.randrange(m) for _ in range(n))
                      for _ in range(samples))
      bad_state = next((u for u in candidates if any(walk(u, m, bound))),
                       None)
      cases.append(None if bad_state is None
                   else {'state': list(bad_state), 'bound': bound})
  return cases


def iterate(step):
  '''The walk that applies `step`, a map on tuples, r times.'''
  def walk(u, m, r):
    for _ in range(r):
      u = step(u, m)
    return u
  return walk


def row_map(row, u, m):
  '''The linear map that coefficient row r defines, D^r on tuples:
  coordinate i is sum_s a(r, s-i+1) * u_s mod m.'''
  n = len(u)
  return tuple(sum(int(row[(s - i) % n]) * u[s] for s in range(n)) % m
               for i in range(n))


class TestFailurePaths:
  @settings(max_examples=300, deadline=None)
  @given(sets_holding_zero())
  def test_subgroup_witness_matches_pairwise_scan(self, case):
    m, n, members = case
    codes = np.array(members, dtype=np.int64)
    mat = _statespace.digits(codes, m, n)
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(_statespace, 'kernel_codes', lambda m_, n_, cap: codes)
      report = verify_cycle_subgroup(m, n)
    want = old_subgroup_witness(codes, mat, m, n)
    assert report.cases[0].witness == want
    assert report.verdict == ('pass' if want is None else 'fail')

  def test_sum_escape_names_the_smallest_pair(self):
    # {0, (0,1), (1,0)} in Z_3^2: (0,1) + (0,1) = (0,2) is outside.
    codes = np.array([0, 1, 3])
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(_statespace, 'kernel_codes', lambda m, n, cap: codes)
      report = verify_cycle_subgroup(3, 2)
    assert report.counterexample == {'m': 3, 'n': 2,
                                     'violation': 'sum_escapes',
                                     'u': [0, 1], 'v': [0, 1]}

  def test_trivial_kernel_witness_is_the_flipped_row(self):
    # A nonzero row r is (1+x)^r; flipped, it is D^r(1, 0, 0, 0).
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(ducci.verify, '_row',
                    lambda sys, r: np.array([1, 2, 0, 0]))
      report = verify_trivial_kernel(range(2, 3), range(2, 3))
    assert report.counterexample == {'k': 2, 'l': 2, 'row': 8,
                                     'cycle_state': [1, 0, 0, 2]}

  def test_lower_bound_fails_on_a_zero_row(self):
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(ducci.verify, '_row', lambda sys, r: np.zeros(sys.n))
      report = verify_length_lower_bound(range(1, 2), range(2, 3))
    assert report.counterexample == {'k': 1, 'l': 2, 'steps': 2,
                                     'iterate': 'zero'}

  @settings(max_examples=60, deadline=None)
  @given(st.sampled_from([(2, 2), (3, 2), (2, 4), (4, 2), (3, 4), (6, 2)]),
         st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.booleans())
  def test_predecessor_witness_matches_per_state_loop(self, mn, a, b, swap):
    m, n = mn
    succ = _statespace.successor_array(m, n)
    a, b = a % succ.size, b % succ.size
    if swap:     # in-degrees stay 0 or m, families break
      succ[[a, b]] = succ[[b, a]]
    else:        # one state changes target: in-degrees break
      succ[a] = succ[b]
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(_statespace, 'successor_array', lambda m_, n_, cap: succ)
      report = verify_predecessor_count(m, n)
    want = old_predecessor_witness(succ, m, n)
    assert report.cases[0].witness == want
    assert report.verdict == ('pass' if want is None else 'fail')

  @settings(max_examples=40, deadline=None)
  @given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                  min_size=4, max_size=4))
  def test_exhaustive_vanishing_witness_matches_walks(self, draws):
    # Each system's certificate row is replaced by a drawn one; the walk
    # applies the linear map that row defines to every state.
    systems = [(2, 2), (4, 2), (2, 4), (4, 4)]
    rows = {(m, n): np.array(draw[:n]) % m
            for (m, n), draw in zip(systems, draws)}
    asked = []

    def fake_row(sys, r):
      asked.append((sys.m, sys.n, r))
      return rows[sys.m, sys.n]

    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(ducci.verify, '_row', fake_row)
      report = verify_vanishing_bound(range(1, 3), range(1, 3))
    want = old_vanishing_cases(
      range(1, 3), range(1, 3), 100, 0, 1 << 16,
      lambda u, m, bound: row_map(rows[m, len(u)], u, m))
    assert asked == [(m, n, (m.bit_length() - 1) * n) for m, n in systems]
    assert [c.witness for c in report.cases] == want
    assert all(c.observed is None or c.observed['mode'] == 'exhaustive'
               for c in report.cases)

  @settings(max_examples=40, deadline=None)
  @given(st.integers(0, 2 ** 32), st.integers(1, 20))
  def test_sampled_vanishing_witness_matches_sample_loop(self, seed, samples):
    # A broken step that keeps states whose first two entries are equal
    # and odd, and zeroes the rest.
    def keeps(first, second):
      return (first == second) & (first % 2 == 1)

    def batch_step(states, m):
      return states * keeps(states[:, :1], states[:, 1:2])

    def step(u, m):
      return u if keeps(u[0], u[1]) else (0,) * len(u)

    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(_statespace, 'batch_step', batch_step)
      patch.setattr(ducci.verify, '_EXHAUSTIVE_STATES', 0)
      report = verify_vanishing_bound(range(1, 3), range(1, 4),
                                      samples=samples, seed=seed)
    want = old_vanishing_cases(range(1, 3), range(1, 4), samples, seed, 0,
                               iterate(step))
    got = [c.witness for c in report.cases]
    # All samples of a case are drawn even after a failing one, so the
    # seeded stream agrees with the former loop up to the first fail.
    first_fail = next((i for i, w in enumerate(want) if w), len(want))
    assert got[:first_fail + 1] == want[:first_fail + 1]
    assert all(c.observed['mode'] == 'sampled'
               for c in report.cases[:first_fail])


# --- the kernel certificate against enumeration ---------------------------
#
# The images D^r(Z_m^n) are nested subgroups, each strict shrink at least
# halves them, so from r = log2 m^n on they are the cycle states: row
# n * bitlen(m - 1) is zero exactly when the kernel is {0}, and otherwise
# flips to a nonzero cycle state.

class TestKernelCertificate:
  @pytest.mark.parametrize('m,n', DEFAULT_SYSTEMS)
  def test_certificate_matches_enumeration(self, m, n):
    row = coeffs._row(make_system(m, n), n * (m - 1).bit_length())
    codes = _statespace.kernel_codes(m, n).tolist()
    assert (not row.any()) == (codes == [0])
    if row.any():
      assert _statespace.encode(coeffs._flip(row.tolist()), m) in codes

  def test_check_matches_enumeration(self):
    grid = [(k, l) for k in range(1, 5) for l in range(1, 11)
            if l * 2 ** k <= 20]
    report = verify_trivial_kernel(range(1, 5), range(1, 11))
    verdicts = {(c.params['k'], c.params['l']): c.verdict
                for c in report.cases}
    for k, l in grid:
      codes = _statespace.kernel_codes(2 ** l, 2 ** k).tolist()
      assert (verdicts[k, l] == 'pass') == (codes == [0]), (k, l)

  def test_check_never_enumerates(self, monkeypatch):
    def refuse(*args):
      raise AssertionError('a certificate check enumerated a state space')

    monkeypatch.setattr(_statespace, 'kernel_codes', refuse)
    monkeypatch.setattr(_statespace, 'successor_array', refuse)
    report = verify_trivial_kernel()
    assert report.verdict == 'pass'
    assert all(c.verdict == 'pass' for c in report.cases)
    # The vanishing bound reads the same row on its 13 spaces of at most
    # 2^16 states and steps samples on the other 17.
    report = verify_vanishing_bound()
    assert [c.verdict for c in report.cases] == ['pass'] * 30
    modes = [c.observed['mode'] for c in report.cases]
    assert (modes.count('exhaustive'), modes.count('sampled')) == (13, 17)

  def test_rows_past_the_cell_cap_are_cap_skips(self):
    # A row of Z_{2^l}^{2^k} multiplies 2^k by 2^k cells: k = 12 fits.
    for check in (verify_trivial_kernel, verify_length_lower_bound,
                  verify_length_formula):
      report = check(range(12, 14), range(1, 2))
      assert [c.verdict for c in report.cases] == ['pass', 'skip']
      assert report.cases[1].reason == (
        f'cap: row products of {2 ** 26} cells exceeds the '
        f'{COEFF_CELL_CAP}-cell cap')
      assert exit_code([report]) == 3


# --- the length formula from rows L - 1 and L ------------------------------
#
# The basic iterate D^r(0, ..., 0, 1) is row r reversed and 0 is a fixed
# point, so len = L and per = 1 exactly when row L - 1 is nonzero and row L
# is zero; the basic orbit's walk is the oracle.

class TestLengthFormulaRows:
  def test_matches_orbit_walks(self):
    report = verify_length_formula(range(1, 8), range(1, 9))
    assert len(report.cases) == 56
    for case in report.cases:
      k, l = case.params['k'], case.params['l']
      length, per = basic_len_per(make_system(2 ** l, 2 ** k))
      assert case.observed == {'len': length, 'per': per}, (k, l)

  def test_never_walks_the_orbit(self, monkeypatch):
    def refuse(*args, **kwargs):
      raise AssertionError('the length formula walked the basic orbit')

    monkeypatch.setattr(ducci.verify, 'basic_len_per', refuse)
    report = verify_length_formula()
    assert [c.verdict for c in report.cases] == ['pass'] * 30

  def test_zero_row_before_the_formula_fails(self, monkeypatch):
    monkeypatch.setattr(ducci.verify, '_row',
                        lambda sys, r: np.zeros(sys.n, np.int64))
    report = verify_length_formula(range(2, 3), range(2, 3))
    assert report.counterexample == {'k': 2, 'l': 2, 'steps': 5,
                                     'iterate': 'zero'}

  def test_nonzero_row_at_the_formula_fails(self, monkeypatch):
    # Rows one step early: row L - 2 is nonzero, and so is (1+x) times it.
    monkeypatch.setattr(ducci.verify, '_row',
                        lambda sys, r: coeffs._row(sys, r - 1))
    report = verify_length_formula(range(2, 3), range(2, 3))
    assert report.counterexample == {'k': 2, 'l': 2, 'steps': 6,
                                     'iterate': 'nonzero'}


def test_congruence_checks_read_one_row_at_their_own_modulus(monkeypatch):
  asked = []

  def row(sys, r):
    asked.append((sys.m, sys.n, r))
    return coeffs._row(sys, r)

  monkeypatch.setattr(ducci.verify, '_row', row)
  assert verify_coeff_pair_sum1(range(2, 3), range(0, 3)).verdict == 'pass'
  assert verify_coeff_pair_sum2(range(2, 3), range(3, 5)).verdict == 'pass'
  assert verify_half_modulus_pivot(range(2, 3), range(2, 4)).verdict == 'pass'
  assert asked == [(2, 4, 0), (2, 4, 2), (4, 4, 4),    # sum1, l = 0..2
                   (8, 4, 4), (16, 4, 6),              # sum2, l = 3..4
                   (4, 4, 4), (8, 4, 6)]               # pivot, l = 2..3
