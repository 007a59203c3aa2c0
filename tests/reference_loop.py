"""The encoder's step rule as a plain loop over p's whole residue vector.

Tests compare cns_encode with it: it never walks a factor q of
p = q(X^m), never jumps and has no kernel, so it is an engine beside the
encoder's, not a copy of it.
"""

import itertools

from cnskit.cns import CnsDigits, CnsExhausted, CnsNotRepresentable, Residue
from cnskit.negabase import CnsBase, Representation


def reference_walk(z, p, max_steps):
    """cns_encode's docstring as a plain loop: the zero residue ends it,
    then the step budget, then a revisited residue.  Returns the outcome
    and the steps taken."""
    pc = p.coeffs
    d = len(pc) - 1
    radix = abs(pc[0])
    state = (z,) + (0,) * (d - 1)
    digits, seen = [], set()
    for steps in itertools.count():
        if not any(state):
            return CnsDigits(Representation(CnsBase(p), tuple(digits) or (0,))), steps
        if steps >= max_steps:
            return CnsExhausted(max_steps), steps
        if state in seen:
            return CnsNotRepresentable(Residue(state)), steps
        seen.add(state)
        u = state[0] % radix
        q = (state[0] - u) // pc[0]
        digits.append(u)
        state = tuple(state[i + 1] - q * pc[i + 1] for i in range(d - 1)) + (-q,)


def reference_encode(z, p, max_steps):
    return reference_walk(z, p, max_steps)[0]


def least_budget(z, p, max_steps):
    """The least step budget on which the plain loop decides z over p, or
    None if max_steps does not: an expansion needs its steps (and a
    budget is at least 1), a revisit one step more than it took."""
    outcome, steps = reference_walk(z, p, max_steps)
    if isinstance(outcome, CnsExhausted):
        return None
    return max(steps, 1) if isinstance(outcome, CnsDigits) else steps + 1
