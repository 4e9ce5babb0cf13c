'''The identity-check suite: verdicts, skips, reports, exit codes.'''

import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ducci.verify
from ducci import (_statespace, coeffs, exit_code, make_system,
                   reports_to_jsonl, run_checks, summary_table)
from ducci.cli import main
from ducci.errors import CapExceededError, ParameterError
from ducci.limits import COEFF_CELL_CAP
from ducci.orbits import basic_len_per, predecessors
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
    # Every case is a certificate at the paper's bound (l+1) * 2^(k-1),
    # whatever the size of its space.
    report = verify_vanishing_bound(range(1, 4), range(1, 4))
    assert report.verdict == 'pass'
    assert report.parameters == {'k': [1, 2, 3], 'l': [1, 2, 3]}
    assert [c.observed for c in report.cases] == [
      {'mode': 'certificate', 'bound': (l + 1) * 2 ** (k - 1)}
      for k in (1, 2, 3) for l in (1, 2, 3)]

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
    report = verify_predecessor_count(2, 258)
    assert report.verdict == 'skip'
    assert report.cases[0].reason.startswith('cap')
    assert exit_code([report]) == 3

  def test_subgroup_cap_skip(self):
    # Elimination touches n^3 cells, so n = 256 is the last n decided.
    assert verify_cycle_subgroup(2, 256).cases[0].observed == {'order': 1}
    report = verify_cycle_subgroup(2, 257)
    assert report.verdict == 'skip'
    assert report.cases[0].reason == (
      f'cap: elimination of {257 ** 3} cells exceeds the '
      f'{COEFF_CELL_CAP}-cell cap')

  def test_python_int_cells_weigh_sixty_four(self):
    # Once (m-1)^2 >= 2^62 each cell is a Python int and counts as 64
    # cells, so such moduli are decided up to n = 64.
    report = verify_cycle_subgroup(10 ** 19 + 7, 128)
    assert report.cases[0].reason == (
      f'cap: elimination of {64 * 128 ** 3} cells exceeds the '
      f'{COEFF_CELL_CAP}-cell cap')
    assert exit_code([report]) == 3


class TestRunner:
  def test_runs_everything_by_default(self):
    reports = run_checks(systems=[(3, 2), (4, 2)], k_max=2, l_max=2,
                         j_max=4, n_max=4)
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
                         j_max=4, n_max=6)
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
    run_checks(systems=[(3, 2)], k_max=2, l_max=3, j_max=3, n_max=2)
    assert called == list(CHECK_IDS)
    assert CHECK_NAMES == ('main', 'lower', 'bound', 'l2', 'kernel',
                           'subgroup', 'preds', 'binom', 'sum1', 'sum2',
                           'pivot')

  @pytest.mark.parametrize('name, check_id', zip(CHECK_NAMES, CHECK_IDS))
  def test_each_name_runs_its_checks_default_sweep(self, name, check_id):
    # The default ranges are written twice, in each verify_* signature and
    # in its _CHECKS row; the two must sweep the same cases.
    check = getattr(ducci.verify, f'verify_{check_id}')
    if name in ('subgroup', 'preds'):
      direct = [check(m, n) for m, n in DEFAULT_SYSTEMS]
    else:
      direct = [check()]
    assert (sorted(reports_to_jsonl([r]) for r in run_checks([name]))
            == sorted(reports_to_jsonl([r]) for r in direct))

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
    with pytest.raises(ParameterError):
      run_checks(['nonsense'])

  def test_seeded_rerun_is_byte_identical(self, capsys):
    # `verify --seed` is accepted and ignored: no check draws, so runs
    # under different seeds print the same bytes.
    outputs = []
    for seed in ('7', '701'):
      assert main(['verify', 'bound', '--k-max', '3', '--l-max', '3',
                   '--seed', seed]) == 0
      outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

  # sha256 of the full default sweep's JSONL, pinned so that a faster
  # check must reproduce every verdict, witness and byte of the old one.
  def test_default_sweep_jsonl_is_pinned(self):
    reports = run_checks()
    assert hashlib.sha256(reports_to_jsonl(reports).encode()).hexdigest() == (
      'f7b8a51ea0e99619c17369ab6ba4173ecf33ace026ccafa898d270217ccf857f')
    assert exit_code(reports) == 0     # every case decided, none capped

  def test_narrow_sweep_jsonl_is_pinned(self):
    # Ranges starting at 0 reach every check's hypothesis skip (sum1's
    # per-k {'k': 0} case included), and Z_2^258 reaches the cap skips
    # of subgroup and preds; the default sweeps reach none of these.
    text = reports_to_jsonl(run_checks(
      k_min=0, k_max=2, l_min=0, l_max=3, j_min=0, j_max=3, n_max=3,
      systems=[(2, 3), (3, 2), (2, 258)]))
    assert hashlib.sha256(text.encode()).hexdigest() == (
      '79a65e96e17a7a848c26b914e0651bd2e0c0596bd8c8022febae5fbefb5701a5')


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


# --- closure of the enumerated kernel against a generating set --------------
#
# The enumeration side of the subgroup claim: the cycle states that
# kernel_codes lists are closed under +, shown by a greedy generating set
# that is itself checked against a scan of all pairs.

def encode_rows(rows, m):
  '''Codes of the digit rows along the last axis; inverts `digits`.'''
  return rows @ m ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)


def closure_generators(codes, rows, m):
  '''(gens, escape) for a set K of states holding 0 (ascending codes,
  digit matrix `rows`).  A member outside the span so far is a generator
  g once one pass shows K + g in K.  The span grows by multiples of g,
  at least doubling: at most log2 |K| passes, not |K|^2 sums.  If K is
  closed under +, K = <gens> and escape is None.  Else the first g fails
  and escape holds the positions of g and of its first partner v with
  g + v outside K: the first such pair over all members, as K + u is in
  K for each u in the span, which holds every member before g.'''
  n = rows.shape[1]
  member, span = np.zeros(m ** n, dtype=bool), np.zeros(m ** n, dtype=bool)
  member[codes] = span[0] = True
  span_rows, gens = np.zeros((1, n), dtype=np.int64), []
  while (outside := np.flatnonzero(~span[codes])).size:
    g = rows[outside[0]]
    inside = member[encode_rows((rows + g) % m, m)]
    if not inside.all():
      return gens, (int(outside[0]), int(np.argmax(~inside)))
    multiples = np.arange(m + 1)[:, None] * g % m
    order = int(np.argmax(span[encode_rows(multiples[1:], m)])) + 1
    span_rows = ((span_rows + multiples[:order, None]) % m).reshape(-1, n)
    span[encode_rows(span_rows, m)] = True
    gens.append(int(codes[outside[0]]))
  return gens, None


def span_oracle(gens, m, n):
  '''Codes of the subgroup generated by the given codes, ascending, by
  breadth-first search from 0.'''
  rows = _statespace.digits(np.array(gens, dtype=np.int64), m, n)
  seen = np.zeros(m ** n, dtype=bool)
  seen[0] = True
  frontier = np.zeros((1, n), dtype=np.int64)
  while frontier.size:
    ahead = ((frontier[:, None] + rows) % m).reshape(-1, n)
    codes, first = np.unique(encode_rows(ahead, m), return_index=True)
    new = ~seen[codes]
    seen[codes[new]] = True
    frontier = ahead[first[new]]
  return np.flatnonzero(seen).tolist()


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


def pairwise_witness(codes, mat, m, n):
  '''The checks of a set of states holding 0, in order, over all pairs.'''
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


class TestClosure:
  @settings(max_examples=300, deadline=None)
  @given(sets_holding_zero())
  def test_generators_match_pairwise_scan(self, case):
    m, n, codes = case
    codes = np.array(codes, dtype=np.int64)
    mat = _statespace.digits(codes, m, n)
    gens, escape = closure_generators(codes, mat, m)
    want = pairwise_witness(codes, mat, m, n)
    closed = want is None or want['violation'] != 'sum_escapes'
    assert (escape is None) == closed
    if closed:
      assert span_oracle(gens, m, n) == codes.tolist()
      assert len(gens) <= len(codes).bit_length() - 1
    else:
      assert [mat[i].tolist() for i in escape] == [want['u'], want['v']]

  @pytest.mark.parametrize('m,n', DEFAULT_SYSTEMS)
  def test_at_most_log2_generators(self, m, n):
    # The enumerated cycle states are closed under +; each generator at
    # least doubles the span.
    codes = _statespace.kernel_codes(m, n)
    gens, escape = closure_generators(
      codes, _statespace.digits(codes, m, n), m)
    assert escape is None
    assert len(gens) <= len(codes).bit_length() - 1


# --- failure paths ---------------------------------------------------------
#
# The pair-sum map never breaks these claims, so each test feeds a broken
# coefficient row into the check, and pins the verdict and witness by
# hand or against a slow loop.

def walked_vanishing_cases(k_range, l_range, walk):
  '''Case witnesses of verify_vanishing_bound found by walking, with
  `walk(u, m, bound)` as the bound-th iterate of the map on tuples: the
  first state, in code order, still nonzero after L = (l+1) * 2^(k-1)
  steps, or None when every state vanishes.'''
  cases = []
  for k in k_range:
    for l in l_range:
      m, n, bound = 2 ** l, 2 ** k, (l + 1) * 2 ** (k - 1)
      bad_state = next((u for u in itertools.product(range(m), repeat=n)
                        if any(walk(u, m, bound))), None)
      cases.append(None if bad_state is None
                   else {'state': list(bad_state), 'bound': bound})
  return cases


def row_map(row, u, m):
  '''The linear map that coefficient row r defines, D^r on tuples:
  coordinate i is sum_s a(r, s-i+1) * u_s mod m.'''
  n = len(u)
  return tuple(sum(int(row[(s - i) % n]) * u[s] for s in range(n)) % m
               for i in range(n))


class TestFailurePaths:
  def test_subgroup_witness_names_both_orders(self):
    # Row R = 4 of Z_3^2 faked as (1, 0), so D^4 would be onto, and row 5
    # as zero: the images would still shrink past log2 |Z|.
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(ducci.verify, '_row', lambda sys, r: np.array(
        [int(r == 4), 0]))
      report = verify_cycle_subgroup(3, 2)
    assert report.counterexample == {'m': 3, 'n': 2,
                                     'violation': 'image_still_shrinking',
                                     'row': 4, 'orders': [9, 1]}

  @pytest.mark.parametrize('row,count', [([1, 0, 0, 0], 1),
                                         ([0, 0, 0, 0], 81)])
  def test_predecessor_witness_is_the_zero_state(self, row, count):
    # With row 1 faked, D would be a bijection or zero: the zero state
    # would have 1 or 3^4 predecessors, not 3.
    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(ducci.verify, '_row', lambda sys, r: np.array(row))
      report = verify_predecessor_count(3, 4)
    assert report.counterexample == {'m': 3, 'n': 4, 'state': [0, 0, 0, 0],
                                     'count': count}

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

  @settings(max_examples=40, deadline=None)
  @given(st.lists(st.lists(st.integers(0, 7), min_size=4, max_size=4),
                  min_size=6, max_size=6))
  def test_exhaustive_vanishing_witness_matches_walks(self, draws):
    # Each system's certificate row is replaced by a drawn one; the walk
    # applies the linear map that row defines to every state.  A nonzero
    # row fails with code 1, (0, ..., 0, 1), which that map leaves nonzero.
    systems = [(2 ** l, 2 ** k) for k in range(1, 3) for l in range(1, 4)]
    rows = {(m, n): np.array(draw[:n]) % m
            for (m, n), draw in zip(systems, draws)}
    asked = []

    def fake_row(sys, r):
      asked.append((sys.m, sys.n, r))
      return rows[sys.m, sys.n]

    with pytest.MonkeyPatch.context() as patch:
      patch.setattr(ducci.verify, '_row', fake_row)
      report = verify_vanishing_bound(range(1, 3), range(1, 4))
    want = walked_vanishing_cases(
      range(1, 3), range(1, 4),
      lambda u, m, bound: row_map(rows[m, len(u)], u, m))
    assert asked == [(m, n, m.bit_length() * n // 2) for m, n in systems]
    assert [c.witness for c in report.cases] == want
    for case, (m, n) in zip(report.cases, systems):
      if case.observed is not None:
        assert case.observed == {'mode': 'certificate',
                                 'bound': m.bit_length() * n // 2}
        assert not rows[m, n].any()


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
    def refuse(*args, **kwargs):
      raise AssertionError('a certificate check enumerated a state space')

    for name in ('kernel_codes', 'successor_array', 'cycle_mask'):
      monkeypatch.setattr(_statespace, name, refuse)
    report = verify_trivial_kernel()
    assert report.verdict == 'pass'
    assert all(c.verdict == 'pass' for c in report.cases)
    # The vanishing bound reads row (l+1) * 2^(k-1) on all 30 spaces.
    report = verify_vanishing_bound()
    assert [c.observed for c in report.cases] == [
      {'mode': 'certificate', 'bound': (l + 1) * 2 ** (k - 1)}
      for k in range(1, 6) for l in range(1, 7)]
    # All eleven default checks decide every case; only preds skips odd n.
    reports = run_checks()
    assert exit_code(reports) == 0
    assert {c.reason for r in reports for c in r.cases
            if c.verdict != 'pass'} == {'hypothesis: n must be even'}

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


# --- subgroup and preds from image orders ----------------------------------
#
# |D^r(Z_m^n)| is the span of the n rotations of row r, found by
# elimination; breadth-first search over the span (span_oracle) and the
# enumerated kernel and successor array are the oracles.

@st.composite
def row_sets(draw):
  '''(m, 1-4 rows) over a composite modulus, in at most 40000 states.'''
  m = draw(st.sampled_from([4, 6, 8, 9, 12, 16, 18, 27, 30, 32]))
  n = draw(st.sampled_from([n for n in range(1, 16) if m ** n <= 40000]))
  entry = st.integers(0, m - 1)
  rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                       min_size=1, max_size=4))
  return m, rows


# The 73 systems of at most 2^16 states with m <= 12.
SMALL_SYSTEMS = [(m, n) for m in range(2, 13) for n in range(1, 17)
                 if m ** n <= 1 << 16]


class TestImageOrders:
  @settings(max_examples=300, deadline=None)
  @given(row_sets())
  def test_span_order_matches_search(self, case):
    # Rotations of one row rarely need the Howell step; random rows over
    # composite moduli do.
    m, rows = case
    codes = encode_rows(np.array(rows), m)
    assert ducci.verify._span_order(rows, m) == len(
      span_oracle(codes, m, len(rows[0])))

  @pytest.mark.parametrize('m,n', SMALL_SYSTEMS)
  def test_certificates_match_enumeration(self, m, n):
    succ = _statespace.successor_array(m, n)
    targets = np.unique(succ).size
    assert ducci.verify._image_order(make_system(m, n), 1) == targets
    assert verify_cycle_subgroup(m, n).cases[0].observed == {
      'order': _statespace.kernel_codes(m, n).size}
    [case] = verify_predecessor_count(m, n).cases
    if n % 2 == 0:
      assert set(np.bincount(succ).tolist()) <= {0, m}
      assert case.observed == {'states': m ** n, 'with_preds': targets}
    else:
      assert case.reason == 'hypothesis: n must be even'

  def test_zero_state_predecessors_are_the_translation_family(self):
    for m, n in [(m, n) for m, n in SMALL_SYSTEMS if n % 2 == 0]:
      alt = [1 if i % 2 == 0 else m - 1 for i in range(n)]
      family = sorted(tuple(z * a % m for a in alt) for z in range(m))
      assert predecessors(make_system(m, n), (0,) * n) == family, (m, n)

  @pytest.mark.parametrize('m,n,order', [
    (2 ** 70, 4, 1),                  # only 0 cycles in Z_{2^l}^{2^k}
    (10 ** 19 + 7, 3, (10 ** 19 + 7) ** 3),   # odd m and n: D is onto
    (3 << 64, 2, 3),                  # D^r(a, b) = 2^(r-1) (a+b) (1, 1)
  ])
  def test_moduli_past_int64(self, m, n, order):
    # Rows past the int64 bound are eliminated as Python ints.
    assert verify_cycle_subgroup(m, n).cases[0].observed == {'order': order}
    if n % 2 == 0:
      assert verify_predecessor_count(m, n).cases[0].observed == {
        'states': m ** n, 'with_preds': m ** (n - 1)}
