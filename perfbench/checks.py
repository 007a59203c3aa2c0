"""Correctness checks the benchmark applies to every output it times.

The arithmetic here is the benchmark's own: digit strings are evaluated
by Horner's rule in the quotient ring and cycles are replayed with a
separate backward-division step, so a check never trusts the library
function whose output it judges.  Every check returns True when the
output is right; callers count the False results.
"""

from __future__ import annotations

import json

# verdicts of `cnskit verify --suite all` at its default bounds
SUITE_ORDER = ("length_formula", "length_set", "sign_disjoint", "boundary_jumps",
               "pair_subsequences", "gap3", "lambda_bounds", "additive_bounds",
               "digit_sums", "scheme_counterexample")
DEFAULT_FAILING = frozenset({"additive_bounds"})

# a cycle of the backward-division map is short; replaying longer than
# this without returning means the reported residue is not on a cycle
CYCLE_REPLAY_LIMIT = 10_000


def denoted_value(digits, coeffs) -> int | None:
    """The integer that digits (least significant first) denote over the
    monic polynomial with these coefficients, or None for a residue that
    is not an integer."""
    d = len(coeffs) - 1
    acc = [0] * d
    for u in reversed(digits):
        top = acc[-1]
        acc = [u - top * coeffs[0]] + [acc[i - 1] - top * coeffs[i] for i in range(1, d)]
    if any(acc[1:]):
        return None
    return acc[0]


def backward_step(state: tuple, coeffs) -> tuple:
    """One backward-division step: strip the forced digit, divide by X."""
    p0 = coeffs[0]
    a0 = state[0]
    q = (a0 - a0 % abs(p0)) // p0
    d = len(coeffs) - 1
    return tuple(state[i + 1] - q * coeffs[i + 1] for i in range(d - 1)) + (-q,)


def is_representable(z: int, coeffs) -> bool:
    """Whether backward division from z reaches zero before repeating."""
    state = (z,) + (0,) * (len(coeffs) - 2)
    zero = (0,) * (len(coeffs) - 1)
    seen = set()
    while state != zero:
        if state in seen:
            return False
        seen.add(state)
        state = backward_step(state, coeffs)
    return True


def is_cycle_residue(residue: tuple, coeffs) -> bool:
    """A nonzero residue that backward division carries back to itself."""
    if not any(residue):
        return False
    state = backward_step(residue, coeffs)
    for _ in range(CYCLE_REPLAY_LIMIT):
        if state == residue:
            return True
        state = backward_step(state, coeffs)
    return False


def is_canonical(digits, radix: int) -> bool:
    return (len(digits) >= 1 and all(0 <= u < radix for u in digits)
            and (len(digits) == 1 or digits[-1] != 0))


def expansion_ok(digits, z: int, coeffs) -> bool:
    """digits form a canonical expansion of z over the polynomial."""
    return is_canonical(digits, abs(coeffs[0])) and denoted_value(digits, coeffs) == z


def negabase_value(digits, b: int) -> int:
    """The integer that digits (least significant first) denote in base -b."""
    acc = 0
    for u in reversed(digits):
        acc = acc * -b + u
    return acc


def report_without_timing(lines: list[str]) -> list[dict]:
    """Report entries with elapsed_ms removed, for comparison across runs."""
    entries = []
    for line in lines:
        entry = json.loads(line)
        entry.pop("elapsed_ms", None)
        entries.append(entry)
    return entries


def verify_run_ok(exit_code: int, stdout: str, report: list[dict],
                  failing: frozenset = DEFAULT_FAILING) -> bool:
    """One `verify --suite all` run printed and reported the expected
    verdicts: every check passes except those in failing, and the exit
    code says whether any failed."""
    expected = [(check_id, check_id not in failing) for check_id in SUITE_ORDER]
    printed = []
    for line in stdout.splitlines():
        verdict, _, rest = line.partition(" ")
        printed.append((rest.split(" ")[0], verdict == "PASS"))
    reported = [(entry.get("check_id"), entry.get("passed")) for entry in report]
    return (printed == expected and reported == expected
            and exit_code == (1 if failing else 0))


class Tally:
    """Checks attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok
