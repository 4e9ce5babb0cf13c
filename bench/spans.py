'''Call spans around the public functions of each ducci module.

Tracing lives in the benchmark, not in the package.  `Tracer.install`
replaces every attribute of a loaded ducci module that binds a traced
function, so calls that reach it through `from .orbits import
kernel_set` style imports open a span too.  Spans nest: a function's
self time is its span time minus the time of the traced spans it
caused.  With `memory` on, tracemalloc measures what each call that
returns leaves allocated, its result included.  A call that raises
adds nothing: its traceback still holds its frames at that point.
'''

from __future__ import annotations

import sys
import time
import tracemalloc

# Traced functions per module.  core._step is left out on purpose: it
# runs once per step, so a wrapper would swamp what it measures; steps
# are counted from returned results instead.
LAYERS = {
  'core': ('ducci_step', 'ducci_iter'),
  '_statespace': ('successor_array', 'cycle_mask', 'tail_cycle_tables',
                  'states_matrix', 'batch_iter'),
  'orbits': ('orbit_summary', 'orbit_len_per_lowmem', 'basic_len_per',
             'predecessors', 'kernel_set', 'len_per_map'),
  'coeffs': ('_rows', 'coeff_table', 'coeff_at', 'apply_coeff_expansion',
             'binom_mod_pow2', 'binom_mod_pow2_range'),
  'graphs': ('build_graph', 'component_of', 'weak_components', 'to_dot',
             'to_edge_csv'),
  'cli': ('main', 'build_parser', '_emit'),
}

# The eleven verify checks, traced as verify.verify_<check_id>.
CHECK_IDS = ('length_formula', 'length_lower_bound', 'vanishing_bound',
             'binary_length_formula', 'trivial_kernel', 'cycle_subgroup',
             'predecessor_count', 'binomial_congruences', 'coeff_pair_sum1',
             'coeff_pair_sum2', 'half_modulus_pivot')

COUNTERS = (('_statespace.states_enumerated', 'count'),
            ('orbits.steps_walked', 'count'),
            ('graphs.bytes_out', 'B'),
            ('cli.bytes_out', 'B'),
            ('verify.cases', 'count'),
            ('verify.cap_skips', 'count'))


def metric_units() -> dict[str, str]:
  '''Every per-layer metric name with its unit, in report order.'''
  units = {}
  for layer, names in LAYERS.items():
    for name in names:
      units[f'{layer}.{name}.calls'] = 'count'
      units[f'{layer}.{name}.self_s'] = 's'
      units[f'{layer}.{name}.retained_kb'] = 'KB'
  for check_id in CHECK_IDS:
    units[f'verify.{check_id}.self_s'] = 's'
  units.update(COUNTERS)
  units['trace.overhead_ratio'] = 'ratio'
  return units


def _states(counts, args, result, exc):
  if exc is None:
    counts['_statespace.states_enumerated'] += len(result)


def _walk(counts, args, result, exc):
  # A refused walk stored `cap` states before giving up.
  if exc is None:
    counts['orbits.steps_walked'] += result[0] + result[1]
  elif getattr(exc, 'cap', None) is not None:
    counts['orbits.steps_walked'] += exc.cap


def _summary(counts, args, result, exc):
  _walk(counts, args, None if exc else (result.len, result.per), exc)


def _iterate(counts, args, result, exc):
  if exc is None:
    counts['orbits.steps_walked'] += args[2]


def _graph_text(counts, args, result, exc):
  if exc is None:
    counts['graphs.bytes_out'] += len(result.encode())


def _emit(counts, args, result, exc):
  counts['cli.bytes_out'] += len(args[0].encode())


def _report(counts, args, result, exc):
  if exc is None:
    counts['verify.cases'] += len(result.cases)
    counts['verify.cap_skips'] += sum(
      case.verdict == 'skip' and (case.reason or '').startswith('cap')
      for case in result.cases)


_COUNT_HOOKS = {
  '_statespace.successor_array': _states,
  '_statespace.states_matrix': _states,
  'orbits.orbit_summary': _summary,
  'orbits.orbit_len_per_lowmem': _walk,
  'core.ducci_iter': _iterate,
  'graphs.to_dot': _graph_text,
  'graphs.to_edge_csv': _graph_text,
  'cli._emit': _emit,
}


class Tracer:
  '''Per-function span totals: calls, self seconds, retained bytes.'''

  def __init__(self, memory: bool):
    self.memory = memory
    self.totals: dict[str, list] = {}
    self.counts = {name: 0 for name, _ in COUNTERS}
    self._open: list[float] = []   # child time of each open span

  def _wrap(self, key: str, fn, hook):
    totals = self.totals.setdefault(key, [0, 0.0, 0])
    counts, open_spans, memory = self.counts, self._open, self.memory
    clock, traced = time.perf_counter, tracemalloc.get_traced_memory

    def wrapper(*args, **kwargs):
      open_spans.append(0.0)
      held = traced()[0] if memory else 0
      started = clock()
      result = exc = None
      try:
        result = fn(*args, **kwargs)
        return result
      except Exception as err:
        exc = err
        raise
      finally:
        spent = clock() - started
        child = open_spans.pop()
        if open_spans:
          open_spans[-1] += spent
        totals[0] += 1
        totals[1] += spent - child
        if memory and exc is None:
          totals[2] += traced()[0] - held
        if hook is not None:
          hook(counts, args, result, exc)

    wrapper.__wrapped__ = fn
    return wrapper

  def install(self) -> None:
    '''Wrap every traced function on every ducci module binding it.'''
    import ducci.cli  # noqa: F401  loads every module of the package
    modules = [mod for name, mod in list(sys.modules.items())
               if name == 'ducci' or name.startswith('ducci.')]
    targets = [(f'{layer}.{name}', f'ducci.{layer}', name)
               for layer, names in LAYERS.items() for name in names]
    targets += [(f'verify.{cid}', 'ducci.verify', f'verify_{cid}')
                for cid in CHECK_IDS]
    for key, module_name, attr in targets:
      fn = getattr(sys.modules[module_name], attr, None)
      if fn is None:
        continue
      hook = _report if key.startswith('verify.') else _COUNT_HOOKS.get(key)
      wrapper = self._wrap(key, fn, hook)
      for mod in modules:
        for name, value in list(vars(mod).items()):
          if value is fn:
            setattr(mod, name, wrapper)
    if self.memory:
      tracemalloc.start()

  def stop(self) -> dict[str, float]:
    '''Stop memory tracing and return the metrics gathered so far.'''
    if self.memory:
      tracemalloc.stop()
    out: dict[str, float] = {}
    for key, (calls, self_s, retained) in self.totals.items():
      if key.startswith('verify.'):
        out[f'{key}.self_s'] = self_s
        continue
      out[f'{key}.calls'] = calls
      out[f'{key}.self_s'] = self_s
      if self.memory:
        out[f'{key}.retained_kb'] = retained / 1024
    out.update(self.counts)
    return out
