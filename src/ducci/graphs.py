'''Transition graphs of the pair-sum map, with DOT and CSV export.

Every state has exactly one out-edge (to its image), so each weakly
connected component contains exactly one cycle and the union of those
cycles over all components is the kernel of the system.  Graphs are
held as state codes (see `_statespace`), and components and export text
are computed from the codes without making tuples.
'''

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from . import _statespace
from .core import DucciSystem, ResidueTuple, format_tuple, validate_tuple
from .errors import ParameterError
from .limits import ENUM_NODE_CAP

__all__ = [
  'TransitionGraph', 'build_graph', 'component_of', 'weak_components',
  'to_dot', 'to_edge_csv',
]


@dataclass(frozen=True, eq=False)
class TransitionGraph:
  '''A set of states with their out-edges under the pair-sum map.

  `codes` holds the node codes in ascending order and `targets` the code
  of each node's image, always a node too.  `nodes` is lexicographically
  sorted; `edges` holds one (u, image) pair per node, aligned with
  `nodes`; `indegree` covers every node, zeros included.  All three are
  built on first use.
  '''

  sys: DucciSystem
  codes: np.ndarray
  targets: np.ndarray

  @cached_property
  def _succ(self) -> np.ndarray:
    # The position among the nodes of each node's image.
    return np.searchsorted(self.codes, self.targets)

  @cached_property
  def nodes(self) -> tuple[ResidueTuple, ...]:
    rows = _statespace.digits(self.codes, self.sys.m, self.sys.n)
    return tuple(map(tuple, rows.tolist()))

  @cached_property
  def edges(self) -> tuple[tuple[ResidueTuple, ResidueTuple], ...]:
    nodes = self.nodes
    return tuple(zip(nodes, map(nodes.__getitem__, self._succ.tolist())))

  @cached_property
  def indegree(self) -> dict[ResidueTuple, int]:
    counts = np.bincount(self._succ, minlength=len(self.codes))
    return dict(zip(self.nodes, counts.tolist()))

  @property
  def node_count(self) -> int:
    return len(self.codes)

  @property
  def edge_count(self) -> int:
    return len(self.targets)

  def __eq__(self, other) -> bool:
    return (isinstance(other, TransitionGraph) and self.sys == other.sys
            and np.array_equal(self.codes, other.codes))


def build_graph(sys: DucciSystem, *,
                max_nodes: int = ENUM_NODE_CAP) -> TransitionGraph:
  '''The full transition graph on all m^n states.'''
  succ = _statespace.successor_array(sys.m, sys.n, max_nodes)
  return TransitionGraph(sys, np.arange(len(succ)), succ)


def component_of(graph: TransitionGraph,
                 u: ResidueTuple) -> TransitionGraph:
  '''The weakly connected component of `u`, as its own graph.

  In-degrees within a component equal those in the full graph, since
  every predecessor of a node belongs to the same component.
  '''
  start = validate_tuple(graph.sys, u)
  code = _statespace.encode(start, graph.sys.m)
  pos = np.searchsorted(graph.codes, code)
  if pos == graph.node_count or graph.codes[pos] != code:
    raise ParameterError(f'{format_tuple(start)} is not in this graph')
  labels = _statespace.tail_cycle_tables(graph._succ)[3]
  keep = labels == labels[pos]
  return TransitionGraph(graph.sys, graph.codes[keep], graph.targets[keep])


def weak_components(graph: TransitionGraph) -> list[TransitionGraph]:
  '''All weakly connected components, ordered by their smallest node.'''
  labels = _statespace.tail_cycle_tables(graph._succ)[3]
  order = np.argsort(labels, kind='stable')
  groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
  return [TransitionGraph(graph.sys, graph.codes[g], graph.targets[g])
          for g in sorted(groups, key=lambda g: g[0])]


def to_dot(graph: TransitionGraph) -> str:
  '''DOT text: node lines in lexicographic order, then edge lines in
  source order.  Output is byte-stable for a given graph.'''
  m, n = graph.sys.m, graph.sys.n
  nodes = _statespace.texts(graph.codes, m, n, '  "(', ')"')
  tails = _statespace.texts(graph.targets, m, n, ' -> "(', ')";\n')
  return ''.join(['digraph ducci {\n',
                  *map(str.__add__, nodes, repeat(';\n')),
                  *map(str.__add__, nodes, tails), '}\n'])


def to_edge_csv(graph: TransitionGraph) -> str:
  '''Edge list as CSV with header source,target; fields are quoted
  because canonical tuple text contains commas.'''
  m, n = graph.sys.m, graph.sys.n
  sources = _statespace.texts(graph.codes, m, n, '"(', ')",')
  targets = _statespace.texts(graph.targets, m, n, '"(', ')"\n')
  return ''.join(['source,target\n', *map(str.__add__, sources, targets)])
