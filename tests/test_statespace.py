'''The integer-coded whole-space passes against slow oracles.

The numpy passes in `_statespace` (pointer doubling for cycle states,
cycle labels and periods, forward passes for pre-periods) are checked
against orbit walks of every state, against the pure-Python peel and
breadth-first search they replaced, and against a plain union-find;
the vanishing certificate row against powers of the successor array
and, past 2^16 states, against seeded samples stepped in a batch; the
paper's bound against the pre-periods of every state;
the export text is pinned byte for byte.
'''

import hashlib
import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ducci import (_statespace, build_graph, coeffs, component_of,
                   kernel_set, len_per_map, make_system, orbit_summary,
                   predecessors, to_dot, weak_components)
from ducci.cli import main
from ducci.core import _step
from ducci.verify import DEFAULT_SYSTEMS, verify_vanishing_bound

# The 36 desk systems: every Z_m^n with 2 <= m <= 6, n <= 8, m^n <= 2^16.
DESK_SYSTEMS = list(DEFAULT_SYSTEMS)
SMALL_DESK = [(m, n) for m, n in DESK_SYSTEMS if m ** n <= 4096]


# --- oracles --------------------------------------------------------------

def peel_oracle(succ):
  '''On-cycle flags by peeling states of in-degree 0 until none is left.'''
  succ_list = list(succ)
  indeg = [0] * len(succ_list)
  for w in succ_list:
    indeg[w] += 1
  stack = [v for v, d in enumerate(indeg) if d == 0]
  while stack:
    v = stack.pop()
    w = succ_list[v]
    indeg[w] -= 1
    if indeg[w] == 0:
      stack.append(w)
  return [d > 0 for d in indeg]


def bfs_oracle(succ):
  '''(pre-periods, periods, on-cycle flags): walk each cycle once, then
  push outward from the cycles along reversed edges.'''
  succ_list = list(succ)
  on_cycle = peel_oracle(succ_list)
  count = len(succ_list)
  lens = [0] * count
  pers = [0] * count
  labeled = [False] * count
  for v in range(count):
    if on_cycle[v] and not labeled[v]:
      cyc = [v]
      labeled[v] = True
      w = succ_list[v]
      while w != v:
        labeled[w] = True
        cyc.append(w)
        w = succ_list[w]
      for node in cyc:
        pers[node] = len(cyc)
  preds = [[] for _ in range(count)]
  for v in range(count):
    if not on_cycle[v]:
      preds[succ_list[v]].append(v)
  queue = deque(v for v in range(count) if on_cycle[v])
  while queue:
    w = queue.popleft()
    for v in preds[w]:
      lens[v] = lens[w] + 1
      pers[v] = pers[w]
      queue.append(v)
  return lens, pers, on_cycle


def union_find_roots(succ):
  '''Root of each state's weak component, joining every edge v -> succ[v].'''
  parent = list(range(len(succ)))

  def find(v):
    while parent[v] != v:
      parent[v] = parent[parent[v]]
      v = parent[v]
    return v

  for v, w in enumerate(succ):
    parent[find(v)] = find(int(w))
  return [find(v) for v in range(len(succ))]


def same_partition(labels, roots):
  pairs = set(zip(labels, roots))
  return len(pairs) == len(set(labels)) == len(set(roots))


def walk_tables(sys):
  '''(pre-period, period, smallest cycle code) per state code, by walking
  the orbit of every state.'''
  rows = []
  for u in itertools.product(range(sys.m), repeat=sys.n):
    summary = orbit_summary(sys, u)
    rows.append((summary.len, summary.per,
                 _statespace.encode(min(summary.cycle), sys.m)))
  return [list(col) for col in zip(*rows)]


def successor_power(succ, r):
  '''succ applied r times to every state, by square-and-multiply.'''
  acc = np.arange(len(succ))
  while r:
    if r & 1:
      acc = succ[acc]
    succ, r = succ[succ], r >> 1
  return acc


def batch_step(states, m):
  '''The pair-sum map applied to every row of an (N, n) state matrix.'''
  return (states + np.roll(states, -1, axis=1)) % m


def _max_modulus(n, limit=4096):
  m = 2
  while (m + 1) ** n <= limit:
    m += 1
  return m


small_systems = st.integers(1, 12).flatmap(
  lambda n: st.tuples(st.integers(2, _max_modulus(n)), st.just(n)))


# --- against orbit walks --------------------------------------------------

def check_against_walks(m, n):
  sys = make_system(m, n)
  lens, pers, labels = walk_tables(sys)
  succ = _statespace.successor_array(m, n)
  got_lens, got_pers, on_cycle, got_labels = (
    _statespace.tail_cycle_tables(succ))
  assert got_lens.tolist() == lens
  assert got_pers.tolist() == pers
  assert on_cycle.tolist() == [length == 0 for length in lens]
  assert got_labels.tolist() == labels
  states = list(itertools.product(range(m), repeat=n))
  kernel = kernel_set(sys)
  assert kernel.sorted_members() == [u for u, length in zip(states, lens)
                                     if length == 0]
  assert list(len_per_map(sys).items()) == list(zip(states, zip(lens, pers)))


@pytest.mark.parametrize('m,n', SMALL_DESK)
def test_desk_systems_match_orbit_walks(m, n):
  check_against_walks(m, n)


@settings(max_examples=12, deadline=None)
@given(small_systems)
def test_small_systems_match_orbit_walks(mn):
  check_against_walks(*mn)


# --- against the pure-Python peel and BFS ---------------------------------

def check_against_oracles(succ):
  lens, pers, on_cycle = bfs_oracle(succ)
  flags, to_cycle = _statespace.cycle_mask(succ)
  assert flags.tolist() == on_cycle
  assert all(on_cycle[w] for w in to_cycle.tolist())
  got_lens, got_pers, got_flags, labels = _statespace.tail_cycle_tables(succ)
  assert got_lens.tolist() == lens
  assert got_pers.tolist() == pers
  assert got_flags.tolist() == on_cycle
  labels = labels.tolist()
  assert same_partition(labels, union_find_roots(succ))
  for v, label in enumerate(labels):
    assert on_cycle[label] and labels[label] == label
    assert label <= v or not on_cycle[v]


@pytest.mark.parametrize('m,n', DESK_SYSTEMS)
def test_desk_systems_match_python_passes(m, n):
  succ = _statespace.successor_array(m, n)
  check_against_oracles(succ)
  codes = _statespace.kernel_codes(m, n)
  assert codes.tolist() == [v for v, flag in enumerate(peel_oracle(succ))
                            if flag]
  states = list(itertools.product(range(m), repeat=n))
  rows = _statespace.digits(codes, m, n)
  assert rows.tolist() == [list(states[v]) for v in codes]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200).flatmap(
  lambda size: st.lists(st.integers(0, size - 1), min_size=size,
                        max_size=size)))
def test_any_successor_array_matches_python_passes(succ):
  # Arbitrary maps of a finite set: many cycles of mixed lengths and
  # long tails, beyond what the pair-sum map produces.
  check_against_oracles(np.array(succ, dtype=np.int64))


def test_successor_array_matches_stepping():
  for m, n in [(2, 1), (5, 1), (3, 2), (4, 5), (6, 3), (7, 4)]:
    want = [_statespace.encode(_step(u, m), m)
            for u in itertools.product(range(m), repeat=n)]
    assert _statespace.successor_array(m, n).tolist() == want, (m, n)


# --- verification passes against their slow forms ---------------------------

EVEN_DESK = [(m, n) for m, n in DESK_SYSTEMS if n % 2 == 0]
# (k, l) of verify_vanishing_bound's default cases, split at 2^16 states.
EXHAUSTIVE_KL = [(k, l) for k in range(1, 6) for l in range(1, 7)
                 if l * 2 ** k <= 16]
SAMPLED_KL = [(k, l) for k in range(1, 6) for l in range(1, 7)
              if l * 2 ** k > 16]


@pytest.mark.parametrize('m,n', EVEN_DESK)
def test_predecessors_match_successor_array(m, n):
  sys = make_system(m, n)
  states = list(itertools.product(range(m), repeat=n))
  preimages = [[] for _ in states]
  for code, target in enumerate(_statespace.successor_array(m, n).tolist()):
    preimages[target].append(states[code])
  for state, want in zip(states, preimages):
    assert predecessors(sys, state) == want


@pytest.mark.parametrize('k,l', EXHAUSTIVE_KL)
def test_successor_power_matches_batch_iter(k, l):
  m, n = 2 ** l, 2 ** k
  succ = _statespace.successor_array(m, n)
  states = _statespace.digits(np.arange(m ** n), m, n)
  weights = m ** np.arange(n - 1, -1, -1)
  for r in range(l * 2 ** k + 1):
    assert np.array_equal(successor_power(succ, r), states @ weights), r
    states = batch_step(states, m)


@pytest.mark.parametrize('k,l', SAMPLED_KL)
def test_seeded_samples_vanish_by_stepping(k, l):
  # The certificate row proves every state of these spaces vanishes
  # within L = (l+1) * 2^(k-1) steps; 100 seeded states stepped L times
  # are the independent check.
  m, n, bound = 2 ** l, 2 ** k, (l + 1) * 2 ** (k - 1)
  states = np.random.default_rng([k, l]).integers(0, m, size=(100, n))
  for _ in range(bound):
    states = batch_step(states, m)
  assert not states.any()
  [case] = verify_vanishing_bound(range(k, k + 1), range(l, l + 1)).cases
  assert case.observed == {'mode': 'certificate', 'bound': bound}


# The 15 systems Z_{2^l}^{2^k}, k, l >= 1, of at most 2^16 states.
THEOREM_KL = [(k, l) for k in range(1, 5) for l in range(1, 9)
              if l * 2 ** k <= 16]


@pytest.mark.parametrize('k,l', THEOREM_KL)
def test_paper_bound_matches_enumeration(k, l):
  # The paper's theorem on every state: each one vanishes within
  # L = (l+1) * 2^(k-1) steps, and some state needs all L of them.
  bound = (l + 1) * 2 ** (k - 1)
  lens, pers = zip(*len_per_map(make_system(2 ** l, 2 ** k)).values())
  assert (max(lens), set(pers)) == (bound, {1})
  [case] = verify_vanishing_bound(range(k, k + 1), range(l, l + 1)).cases
  assert case.observed == {'mode': 'certificate', 'bound': bound}


@pytest.mark.parametrize('m,n', DESK_SYSTEMS)
def test_row_is_zero_exactly_when_the_power_is(m, n):
  # The vanishing certificate: D^r is multiplication by row r, so it
  # sends every state to 0 exactly when the row is zero.  Otherwise
  # D^r(0, ..., 0, 1) is the row reversed: code 1 is the first state
  # left nonzero, the witness verify_vanishing_bound reports.
  sys, succ = make_system(m, n), _statespace.successor_array(m, n)
  for r in range(3 * n * (m - 1).bit_length() + 3):
    nonzero = np.flatnonzero(successor_power(succ, r))
    assert coeffs._row(sys, r).any() == bool(nonzero.size), r
    assert nonzero[:1].tolist() in ([], [1]), r


# --- components against a union-find ---------------------------------------

@pytest.mark.parametrize('m,n', DESK_SYSTEMS)
def test_components_match_union_find(m, n):
  sys = make_system(m, n)
  graph = build_graph(sys)
  roots = union_find_roots(_statespace.successor_array(m, n))
  groups = {}
  for code, root in enumerate(roots):
    groups.setdefault(root, []).append(code)
  want = sorted(groups.values())
  parts = weak_components(graph)
  assert [part.codes.tolist() for part in parts] == want
  last = want[-1]
  part = component_of(graph, graph.nodes[last[-1]])
  assert part.codes.tolist() == last


# --- pinned export bytes ----------------------------------------------------

# The sha256 of each command's stdout, as pinned by the benchmark's
# whole_space workload (bench/workloads.py), so byte identity of the
# machine formats is guarded here too.  The last two are the argv shapes
# of its verify_sweep workload, full and tiny, which must keep parsing.
PINNED = [
  (('kernel', '--m', '4', '--n', '10'),
   'c0d59f021e1d08f0e6c20483d9b47fa1b9068d67f491d45584441f814a0dcadc'),
  (('graph', '--m', '3', '--n', '8', '--format', 'json'),
   'a450c7fc74f9c713ca4882af26377fb225611c6eee714cb51e4d5e96cc129e9d'),
  (('graph', '--m', '4', '--n', '8', '--format', 'dot'),
   'b47d93e81ce75c96154af3432c56779b85ad3c9196605907d33c1b720058d9e7'),
  (('graph', '--m', '4', '--n', '8', '--format', 'csv'),
   'e18b6f8adad04673518fbb08a422278409b35c0562e747d7244d020e0ef1e241'),
  # Z_4^8 is one weak component, so any tuple's component is the graph.
  (('graph', '--m', '4', '--n', '8', '--component', '3,0,1,2,2,0,3,1'),
   'b47d93e81ce75c96154af3432c56779b85ad3c9196605907d33c1b720058d9e7'),
  (('kernel', '--m', '3', '--n', '4'),
   '8fc1cee4f53526923447994c7681e279f9af6149a2982f0fef9cca2fbcef5b77'),
  (('graph', '--m', '3', '--n', '3', '--format', 'json'),
   '26460eba200e282d7601fb104a7a22424ed152eeae47c2e69876959a45dbf509'),
  (('graph', '--m', '2', '--n', '4', '--format', 'dot'),
   '62fdeb924b19b9a8626519921055538a4c0ec9ba1f2b540ff428bb0fdb062104'),
  (('graph', '--m', '2', '--n', '4', '--format', 'csv'),
   '87dc125760f5e5525224f64c5538f7986a556ae5217db8f08f275f9676816273'),
  (('verify', 'all', '--seed', '0'),
   'f7b8a51ea0e99619c17369ab6ba4173ecf33ace026ccafa898d270217ccf857f'),
  (('verify', 'all', '--seed', '1951', '--k-max', '2', '--l-max', '2',
    '--j-max', '4', '--n-max', '4', '--m', '3', '--n', '4',
    '--max-states', '64'),
   '9b4027ce901ae5f161dd4c6271196627e4cb19c6ee2652369332c25e06bf0142'),
]


@pytest.mark.parametrize('argv,sha256', PINNED)
def test_machine_formats_are_pinned(argv, sha256, capsys):
  assert main(list(argv)) == 0
  out = capsys.readouterr().out.encode()
  assert hashlib.sha256(out).hexdigest() == sha256


@pytest.mark.parametrize('m,n,sha256', [
  (4, 9, 'afc35d0518b2982e76bc5e804d3fb5e9befa63135ff5fa095966f4a50f593794'),
  (3, 4, '2ad4b14c6c368c9443a65533c8f14ebf2ddeaeed52f0aaed3f5da59235b05249'),
])
def test_len_per_map_is_pinned(m, n, sha256):
  text = ''.join(f'{",".join(map(str, state))} {length} {per}\n'
                 for state, (length, per)
                 in len_per_map(make_system(m, n)).items())
  assert hashlib.sha256(text.encode()).hexdigest() == sha256


# --- memory ---------------------------------------------------------------

def traced_peak_mb(body):
  tracemalloc.start()
  try:
    body()
    return tracemalloc.get_traced_memory()[1] / 2 ** 20
  finally:
    tracemalloc.stop()


def test_kernel_memory_is_bounded():
  # Z_4^10 has 2^20 states: the successor array and two doubling
  # generations are three 8 MB int64 arrays (25 MB measured).  One more
  # full-size int64 copy would pass 30 MB.
  peak = traced_peak_mb(lambda: kernel_set(make_system(4, 10)))
  assert peak < 30, f'peak {peak:.1f} MB'


def test_dot_export_memory_is_bounded():
  # Z_4^8: the two lists of tuple text and the 4.5 MB document dominate
  # (26 MB measured).
  peak = traced_peak_mb(lambda: to_dot(build_graph(make_system(4, 8))))
  assert peak < 32, f'peak {peak:.1f} MB'
