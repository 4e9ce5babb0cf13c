'''Exact pair-sum (Ducci) dynamics on Z_m^n.

The map D sends (x_1, ..., x_n) to (x_1+x_2, x_2+x_3, ..., x_n+x_1)
with entries reduced mod m.  This package iterates it exactly,
analyzes orbits (pre-period, period, predecessors, cycle states),
manipulates the cyclic-Pascal coefficient table behind D^r, computes
binomial coefficients modulo powers of two, exports transition
graphs, and machine-checks the identity catalog in `ducci.verify`.
'''

from .coeffs import (CoeffTable, apply_coeff_expansion, binom_mod_pow2,
                     binom_mod_pow2_range, coeff_at, coeff_table, view_f,
                     view_g, view_h)
from .core import (DucciSystem, ResidueTuple, add, basic_tuple, ducci_iter,
                   ducci_step, format_tuple, make_system, parse_tuple,
                   reduce_tuple, scale, shift, validate_tuple)
from .errors import CapExceededError, DucciError, ParameterError
from .graphs import (TransitionGraph, build_graph, component_of, to_dot,
                     to_edge_csv, weak_components)
from .limits import COEFF_CELL_CAP, ENUM_NODE_CAP, ORBIT_VISIT_CAP
from .orbits import (KernelSet, OrbitSummary, basic_len_per, kernel_set,
                     len_per_map, orbit_len_per_lowmem, orbit_summary,
                     predecessors, vanishes)
from .verify import (CaseResult, CheckReport, exit_code, reports_to_jsonl,
                     run_checks, summary_table)

__version__ = '0.1.0'

__all__ = [
  'DucciSystem', 'ResidueTuple', 'make_system', 'ducci_step', 'ducci_iter',
  'shift', 'add', 'scale', 'basic_tuple', 'validate_tuple', 'reduce_tuple',
  'format_tuple', 'parse_tuple',
  'OrbitSummary', 'KernelSet', 'orbit_summary', 'orbit_len_per_lowmem',
  'basic_len_per', 'vanishes', 'predecessors', 'kernel_set', 'len_per_map',
  'CoeffTable', 'coeff_table', 'coeff_at', 'apply_coeff_expansion',
  'view_f', 'view_g', 'view_h',
  'binom_mod_pow2', 'binom_mod_pow2_range',
  'TransitionGraph', 'build_graph', 'component_of', 'weak_components',
  'to_dot', 'to_edge_csv',
  'CaseResult', 'CheckReport', 'run_checks', 'reports_to_jsonl',
  'summary_table', 'exit_code',
  'DucciError', 'ParameterError', 'CapExceededError',
  'ORBIT_VISIT_CAP', 'ENUM_NODE_CAP', 'COEFF_CELL_CAP',
  '__version__',
]
