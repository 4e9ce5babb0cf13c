'''Default resource caps for enumerating walks and state spaces.

Every potentially large computation takes an explicit cap and raises
`CapExceededError` beyond it; nothing is ever truncated silently.
'''

# Most states an orbit may span, len + per; decided in O(sqrt(cap)) steps.
ORBIT_VISIT_CAP = 1 << 24

# Most states a full state-space enumeration (kernel, graph) may touch.
ENUM_NODE_CAP = 1 << 20

# Most cells a coefficient table ((r + 1) * n), the products of one row's
# convolutions (min(r + 1, n) * n; an orbit search past its opening walk
# is weighed as row r = cap), a binomial row (N + 1), an odd-residue
# table (min(N + 1, 2^l)), a stored orbit ((len + per) * n), a predecessor
# list (m * n) or the elimination behind verify's subgroup and preds (n^3)
# may span.  A Python-int cell weighs 64: elimination answers n <= 256 (64
# once (m-1)^2 >= 2^62), a row any r for n <= 4096 (512 in Python ints), a
# table or stored orbit 2^18 Python ints, an odd-residue table N < 2^18.
COEFF_CELL_CAP = 1 << 24
