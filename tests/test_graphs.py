'''Transition graphs and their DOT/CSV exports.'''

import re

import pytest

from ducci import (CapExceededError, ParameterError, build_graph,
                   component_of, format_tuple, kernel_set, make_system,
                   predecessors, to_dot, to_edge_csv, vanishes,
                   weak_components)
from ducci.cli import main
from ducci.limits import ENUM_NODE_CAP

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

_DOT_EDGE = re.compile(r'^  "(\([0-9,]*\))" -> "(\([0-9,]*\))";$')
_DOT_NODE = re.compile(r'^  "(\([0-9,]*\))";$')


def dot_nodes_and_edges(text):
  lines = text.splitlines()
  assert lines[0] == 'digraph ducci {'
  assert lines[-1] == '}'
  nodes = [m.group(1) for m in map(_DOT_NODE.match, lines[1:-1]) if m]
  edges = [(m.group(1), m.group(2))
           for m in map(_DOT_EDGE.match, lines[1:-1]) if m]
  assert len(nodes) + len(edges) == len(lines) - 2
  return nodes, edges


class TestBuild:
  def test_pair_system_shape(self):
    graph = build_graph(make_system(4, 2))
    assert graph.node_count == 16
    assert graph.edge_count == 16
    assert set(graph.edges) == PAIR_EDGES
    self_loops = [e for e in graph.edges if e[0] == e[1]]
    assert self_loops == [((0, 0), (0, 0))]
    assert len(weak_components(graph)) == 1

  def test_pair_system_indegrees(self):
    graph = build_graph(make_system(4, 2))
    assert graph.indegree[(0, 0)] == 4
    assert graph.indegree[(1, 3)] == 0
    assert sorted(set(graph.indegree.values())) == [0, 4]

  def test_binary_pair_indegrees(self):
    graph = build_graph(make_system(2, 2))
    assert graph.indegree == {(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): 2}
    assert set(graph.edges) == {((0, 0), (0, 0)), ((1, 1), (0, 0)),
                                ((0, 1), (1, 1)), ((1, 0), (1, 1))}

  def test_nodes_are_sorted(self):
    graph = build_graph(make_system(3, 3))
    assert list(graph.nodes) == sorted(graph.nodes)
    assert [u for u, _ in graph.edges] == list(graph.nodes)

  def test_indegree_sum_equals_node_count(self):
    for m, n in [(2, 5), (3, 3), (4, 3), (6, 2)]:
      graph = build_graph(make_system(m, n))
      assert sum(graph.indegree.values()) == graph.node_count

  def test_even_length_indegrees_are_zero_or_m(self):
    for m, n in [(4, 2), (6, 2), (3, 4), (5, 2)]:
      graph = build_graph(make_system(m, n))
      assert set(graph.indegree.values()) <= {0, m}, (m, n)

  def test_indegree_equals_predecessor_count(self):
    sys = make_system(6, 3)
    graph = build_graph(sys)
    for u in graph.nodes:
      assert graph.indegree[u] == len(predecessors(sys, u))

  def test_node_cap(self, capsys):
    with pytest.raises(CapExceededError) as info:
      build_graph(make_system(4, 11))
    assert (info.value.required, info.value.cap) == (4 ** 11, ENUM_NODE_CAP)
    with pytest.raises(CapExceededError) as info:
      build_graph(make_system(3, 3), max_nodes=10)
    assert (info.value.required, info.value.cap) == (27, 10)
    assert main(['graph', '--m', '4', '--n', '11']) == 3
    captured = capsys.readouterr()
    assert captured.out == '' and 'error:' in captured.err


class TestComponents:
  def test_frozen_component(self):
    graph = build_graph(make_system(4, 3))
    part = component_of(graph, (3, 1, 3))
    assert part.node_count == 12
    assert part.edge_count == 12
    assert set(part.edges) == COMPONENT_EDGES
    assert set(part.nodes) == {u for u, _ in COMPONENT_EDGES}

  def test_component_indegrees_match_full_graph(self):
    graph = build_graph(make_system(4, 3))
    part = component_of(graph, (3, 1, 3))
    for u in part.nodes:
      assert part.indegree[u] == graph.indegree[u]

  def test_zero_component_is_the_vanishing_set(self):
    sys = make_system(4, 3)
    part = component_of(build_graph(sys), (0, 0, 0))
    assert all(vanishes(sys, u) for u in part.nodes)
    assert (0, 0, 0) in part.indegree

  def test_membership_errors(self):
    graph = build_graph(make_system(4, 3))
    with pytest.raises(ParameterError):
      component_of(graph, (1, 2))
    part = component_of(graph, (3, 1, 3))
    with pytest.raises(ParameterError):
      component_of(part, (0, 0, 0))

  def test_partition(self):
    graph = build_graph(make_system(4, 3))
    parts = weak_components(graph)
    seen = [u for part in parts for u in part.nodes]
    assert sorted(seen) == list(graph.nodes)
    assert sum(p.edge_count for p in parts) == graph.edge_count

  def test_one_cycle_per_component(self):
    for m, n in [(4, 2), (4, 3), (3, 3), (6, 2), (2, 6)]:
      sys = make_system(m, n)
      kernel = kernel_set(sys).members
      for part in weak_components(build_graph(sys)):
        cyclic = [u for u in part.nodes if u in kernel]
        assert cyclic, 'every component carries a cycle'
        # Walking the cycle visits each of its states exactly once.
        walk, cur = set(), cyclic[0]
        while cur not in walk:
          walk.add(cur)
          cur = dict(part.edges)[cur]
        assert walk == set(cyclic), (m, n)

  def test_cycles_union_to_kernel(self):
    for m, n in [(4, 3), (6, 2), (3, 4)]:
      sys = make_system(m, n)
      kernel = kernel_set(sys).members
      parts = weak_components(build_graph(sys))
      union = {u for part in parts for u in part.nodes if u in kernel}
      assert union == kernel


class TestExport:
  def test_dot_golden_binary_pair(self):
    text = to_dot(build_graph(make_system(2, 2)))
    assert text == ('digraph ducci {\n'
                    '  "(0,0)";\n  "(0,1)";\n  "(1,0)";\n  "(1,1)";\n'
                    '  "(0,0)" -> "(0,0)";\n'
                    '  "(0,1)" -> "(1,1)";\n'
                    '  "(1,0)" -> "(1,1)";\n'
                    '  "(1,1)" -> "(0,0)";\n'
                    '}\n')

  def test_dot_round_trip(self):
    graph = build_graph(make_system(4, 3))
    part = component_of(graph, (3, 1, 3))
    nodes, edges = dot_nodes_and_edges(to_dot(part))
    assert nodes == [format_tuple(u) for u in part.nodes]
    assert set(edges) == {(format_tuple(u), format_tuple(v))
                          for u, v in part.edges}

  def test_dot_is_byte_stable(self):
    first = to_dot(build_graph(make_system(4, 2)))
    second = to_dot(build_graph(make_system(4, 2)))
    assert first == second

  def test_edge_csv_round_trip(self):
    graph = build_graph(make_system(4, 2))
    lines = to_edge_csv(graph).splitlines()
    assert lines[0] == 'source,target'
    parsed = set()
    for line in lines[1:]:
      src, dst = line.split('","')
      parsed.add((src.strip('"'), dst.strip('"')))
    assert parsed == {(format_tuple(u), format_tuple(v))
                      for u, v in graph.edges}
