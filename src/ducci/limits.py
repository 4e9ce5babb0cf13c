'''Default resource caps for enumerating walks and state spaces.

Every potentially large computation takes an explicit cap and raises
`CapExceededError` beyond it; nothing is ever truncated silently.
'''

# Most states an orbit walk may visit before giving up.
ORBIT_VISIT_CAP = 1 << 24

# Most states a full state-space enumeration (kernel, graph) may touch.
ENUM_NODE_CAP = 1 << 20

# Most cells a coefficient table or row may span, (r + 1) * n; also the
# most cells of a binomial row (N + 1) or odd-residue table.
COEFF_CELL_CAP = 1 << 24
