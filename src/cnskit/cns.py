"""Canonical digit extraction for polynomial bases.

The encoder runs backward division on a residue vector of the remaining
value: the next digit is forced by the constant coefficient modulo
|p(0)|, the stripped residue is divided by X, and the process repeats.
Monic quadratics with p(0) > 0, X^2 + 2X + 2 among them, walk on one
kernel over two plain integers, quadratic_walk, which keeps a cycle set
only of the states in cycle_box, the only ones that can be periodic.
quadratic_length keeps its rules to count steps instead of digits, for a
whole sequence of integers in one loop, each walk stopping at a length
stored by the ones before it (verify's sweeps use both; its length table
is one call).  Every other base walks a state tuple, and one
insertion-ordered dict of the states stepped from is its cycle set,
digit record and step count.
A base p = q(X^m), m > 1, the paper's X^(2m) + 2X^m + 2 among them,
walks q instead, so the trinomial takes the kernel and the byte walk
below: p's digits are q's spread m apart, and q's outcome on the budget
(B - 2) // m + 2 maps exactly to p's on budget B.  m is the gcd of the
indices of p's nonzero coefficients.  X^2 + c with c > 0 keeps the
kernel, as its q = X + c would walk a state tuple.

On a quadratic where X^j = 256 mod p (j = 16 over X^2 +- 2X + 2, so
over the trinomial's q, and X^2 + 2; j = 8 over X^2 + 4) an integer
skips j interpreter steps for each byte of it read, at any size that
leaves its kept bits (below) after a byte.  The first j digits of
A depend only on A mod X^j = A mod 256, i.e. on a0 and a1 mod 256, and
with D their residue the walk lands exactly on (A - D)/256: Knuth's
radix trick on Penney's base -1 + i, whose 16th power is 256.  From
(z, 0) the walk is at (z >> 8g + c0, c1) after g groups of j steps,
(c0, c1) one of a few carries, and one table of j plain steps from
(c0 + b, c1) per carry and byte b gives a group's digits and the next
carry.  On every byte base but X^2 - 2X + 2 the carries are (0, 0) and
(1, 0), and a group from (v, 0), v <= 256, carries 1 out exactly when v
>= t, so adding 256 - t to each of z's low bytes makes every carry in
one big-integer addition: each byte of the sum picks its group's digits
alone, and the sum shifted down is the landing.  Such a p has complex
roots, as real j-th roots of 256 are +-alpha (p0 < 0) or a double root
(X^j mod p not constant).
Every other base walks the plain loop at every size.  Three rules keep
every outcome the plain loop's:
  - a group is kept only if it lands outside the box that holds every
    periodic state, as keeping the base's kept bits of z ensures (6 over
    X^2 +- 2X + 2, so z reads a byte from 14 bits on, see _byte_base);
    a state it skips is then not periodic, so it is never revisited and
    is not zero, and the cycle residue stays;
  - a group counts j steps, taken only while they remain;
  - the plain walk from the last landing gets the steps left, and its
    running out of them is the whole budget running out.
The kept bits come from a bound on the carries, not from the table, so
an integer that reads no byte builds none.
A digit string is read back by Penney's interleave where the base
allows it: if X^e = 256 mod p, then sum d_j X^j = sum_{r<e} X^r N_r with
N_r = sum_k d_{ek+r} 256^k, and each N_r is digits[r::e] read as one
little-endian integer by int.from_bytes, linear in its length.  e is
found over q, p = q(X^m) with m as in the encoder, as the least e <= 16
with X^e = 256 mod q, and X^(me) = 256 mod p follows.  That covers the
byte bases, with e = j (so the trinomial X^(2m) + 2X^m + 2), and X + b
for b = 2, 4 and 16, so base -b digits (decode_negabase reads them over
X + b, where X = -b).  Any other base (X^2 + 3X + 3 has X^6 = -27, X + 8
no power 256), and a string of fewer than _PARSE_MIN_DIGITS digits, is
read k digits at a time from the top, the chunked Horner rule:
acc <- chunk + X^k acc mod p, one dot product per coefficient against a
table of X^j mod p.

Correctness is established externally: every emitted expansion reduces
back to its integer (see reduce_digits), and an exhaustive search over
short digit strings must agree with the encoder wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import gcd, inf, isqrt
from operator import add, mul
from typing import Callable, Iterable

from .negabase import CnsBase, NegaBase, Representation, digit_buffer, spread_digits
from .poly import IntPoly, x_powers_mod

DEFAULT_MAX_STEPS = 10_000

# the byte walk reads z a byte per j steps where X^j = 256 mod p, j <= this,
# and the decoder reads a string a byte per e digits where X^e = 256
_BYTE_MAX_STEPS = 16
# a digit string is reduced this many digits at a time, unless some X^e,
# e <= _BYTE_MAX_STEPS over q, is 256 mod q and the string has at least
# _PARSE_MIN_DIGITS digits: below that the reads cost more than the
# reduction (X^2 + 2X + 2, 64 digits 5.9 against 6.7 us, 80 digits 7.1
# against 6.9, 128 digits 11.5 against 7.3; X^6 + 2X^3 + 2 also crosses at
# 80; medians of 7, 2 cores, Python 3.11.7)
_CHUNK_DIGITS = 256
_PARSE_MIN_DIGITS = 80

# Guard for the exhaustive oracle; radix**max_len strings get enumerated.
_ORACLE_NODE_LIMIT = 20_000_000

# error messages abbreviate integers and digit strings longer than this
_MESSAGE_DIGITS = 40


class NotRepresentableError(ValueError):
    """The integer admits no canonical digit expansion in the given base."""


class StepBudgetError(RuntimeError):
    """Digit extraction ran out of steps before reaching a decision."""


@dataclass(frozen=True)
class Residue:
    """Element of the quotient ring by p, as a vector of length deg(p)."""

    coeffs: tuple[int, ...]

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def constant_value(self) -> int:
        if not self.is_constant:
            raise ValueError(f"residue {self.coeffs} is not a constant")
        return self.coeffs[0]


@dataclass(frozen=True)
class CnsDigits:
    representation: Representation


@dataclass(frozen=True)
class CnsNotRepresentable:
    cycle: Residue


@dataclass(frozen=True)
class CnsExhausted:
    max_steps: int


CnsOutcome = CnsDigits | CnsNotRepresentable | CnsExhausted
QuadraticWalk = tuple[bytearray | list[int], int] | CnsNotRepresentable | CnsExhausted


def quadratic_walk(z: int, p0: int, p1: int, max_steps: int,
                   known: Callable[[int], int] | None = None, a1: int = 0) -> QuadraticWalk:
    """Backward division of z + a1 X over X^2 + p1 X + p0, p0 > 0, on the
    residue (a0, a1): emit a0 mod p0, then step to (a1 - q p1, -q),
    q = a0 // p0, appending each digit to a digit_buffer(p0); zero steps
    once, to itself, so its digits are "0".  Its rules, which
    quadratic_length keeps: only states inside cycle_box(p0, p1) enter the
    cycle set, as a revisited state is periodic, so inside the box at both
    visits, and the revisit is caught at the same step with the same residue;
    known(w), when given, is read at each integer state (w, 0) but zero,
    and a nonzero answer, the digit count of w, ends the walk there; more
    than max_steps digits or steps, counting known's answer and a revisit
    found only at step max_steps, exhaust the budget.  Returns (digits, w),
    w the state it stopped at or 0, CnsNotRepresentable at a revisit or
    CnsExhausted.
    """
    box0, box1 = cycle_box(p0, p1)
    low0, low1 = -box0, -box1
    digits = digit_buffer(p0)
    seen = None  # made at the first state inside the box: a walk stopped outside it makes none
    a0 = z
    for _ in range(max_steps):
        if low0 <= a0 <= box0 and low1 <= a1 <= box1:
            state = (a0, a1)
            if seen is None:
                seen = {state}
            elif state in seen:
                return CnsNotRepresentable(Residue(state))
            else:
                seen.add(state)
        q = a0 // p0
        digits.append(a0 - q * p0)
        a0, a1 = a1 - q * p1, -q
        if not a1:
            if not a0:
                return digits, 0
            if known is not None:
                rest = known(a0)
                if rest:
                    if len(digits) + rest > max_steps:
                        break
                    return digits, a0
    return CnsExhausted(max_steps)


def quadratic_length(zs: Iterable[int], p0: int, p1: int, data: bytearray, bound: int,
                     max_steps: int = DEFAULT_MAX_STEPS) -> int:
    """The length of each z of zs in turn, stored at data[z + bound] when
    |z| <= bound, so that the walks after it can stop there; returns the
    last.  A length is quadratic_walk(z, p0, p1, max_steps, known) with
    known(w) = data[w + bound] for |w| <= bound, counting steps instead of
    recording digits, plus the stored length it stops at.  A walk without
    digits raises as expansion_of does on the kernel's outcome, after the
    lengths before it are stored.  verify's length table is one call: the
    kernel with a hook, one call per z, fills it 2.3x slower.
    """
    box0, box1 = cycle_box(p0, p1)
    low0, low1, low = -box0, -box1, -bound
    steps = 0
    for z in zs:
        seen = None
        a0, a1 = z, 0
        steps = 0
        while steps < max_steps:  # a counter is faster than a range per walk
            steps += 1
            if low0 <= a0 <= box0 and low1 <= a1 <= box1:
                state = (a0, a1)
                if seen is None:
                    seen = {state}
                elif state in seen:
                    expansion_of(CnsNotRepresentable(Residue(state)), z, IntPoly((p0, p1, 1)))
                else:
                    seen.add(state)
            q = a0 // p0
            a0, a1 = a1 - q * p1, -q
            if not a1:
                if not a0:
                    break
                if low <= a0 <= bound:
                    rest = data[a0 + bound]
                    if rest:
                        steps += rest
                        break
        else:
            steps = max_steps + 1  # out of steps
        if steps > max_steps:  # so is a stored length that overruns the budget
            expansion_of(CnsExhausted(max_steps), z, IntPoly((p0, p1, 1)))  # raises
        if low <= z <= bound:
            data[z + bound] = steps
    return steps


@lru_cache(maxsize=32)  # read once per quadratic_walk and once per quadratic_length batch
def cycle_box(p0: int, p1: int) -> tuple[float, float]:
    """Bounds (b0, b1) with |a0| <= b0 and |a1| <= b1 at every periodic
    state over X^2 + p1 X + p0, p0 > 0.  Over complex roots a periodic A
    has |A(alpha)| <= (p0 - 1)/(|alpha| - 1) = sqrt(p0) + 1 at both roots,
    |alpha| = sqrt(p0), which lie at least 1 apart.  Over real roots there
    is none: 7 over X^2 + 3X + 2 cycles at (-14, -7), outside (15, 6), the
    box over complex roots for p0 = 2."""
    if p1 * p1 >= 4 * p0:
        return inf, inf
    s = isqrt(p0) + 1
    return (s + 1) * (2 * s + 1), 2 * (s + 1)


@lru_cache(maxsize=32)  # read once per quadratic walk
def _byte_base(p0: int, p1: int) -> tuple[int, int]:
    """(j, keep) for X^2 + p1 X + p0: the least j <= _BYTE_MAX_STEPS with
    X^j = 256 mod p, or (0, 0) if there is none, and the bits of z a byte
    walk keeps, so that every landing lies outside cycle_box(p0, p1).

    j steps from (a0, a1) emit digits d_i < p0 and land on a state whose
    first entry is (a0 - D0) / 256, D0 = sum d_i u_i, u_i the constant
    term of X^i mod p, so low <= D0 <= high for the sums of (p0 - 1) u_i
    below and above zero.  A carry is such a landing from (c0 + b, c1),
    0 <= b < 256, c0 a carry or 0, and -(high // 255) <= c0 <=
    (255 - low) // 255 maps into itself, so every carry has |c0| <= c.
    A landing at |z >> 8n| >= 2^(keep - 1) > box0 + c lies outside the
    box.  This needs no carry table, which _walk builds only for a z that
    reads a byte.
    """
    # X^j = 256 puts p's complex roots at |alpha| = 2^(8/j), so p0 = 2^(16/j)
    # <= 256 and p1^2 < 4 p0; any other p skips the powers of X, which grow
    # j-fold in size (encoding 5 over a 10^5-digit p0 took 0.9 s without this)
    if p0 > 256 or p1 * p1 >= 4 * p0:
        return 0, 0
    powers = list(islice(x_powers_mod(IntPoly((p0, p1, 1))), _BYTE_MAX_STEPS + 1))
    j = next((j for j, power in enumerate(powers) if power == (256, 0)), 0)
    if not j:
        return 0, 0
    low = (p0 - 1) * sum(min(u, 0) for u, _ in powers[:j])
    high = (p0 - 1) * sum(max(u, 0) for u, _ in powers[:j])
    c = max(255 - low, high) // 255
    return j, (cycle_box(p0, p1)[0] + c).bit_length() + 1


@lru_cache(maxsize=8)
def _carry_table(p0: int, p1: int, j: int) -> tuple[tuple, tuple[tuple[int, int], ...], int]:
    """(groups, carries, t) for X^2 + p1 X + p0 with X^j = 256 mod p.

    carries[0] is (0, 0), and the carries are every landing of j plain
    steps from (c0 + b, c1), (c0, c1) a carry and 0 <= b < 256, so the set
    is closed.  If they are only (0, 0) and (1, 0), a group from (v, 0),
    v <= 256, carries 1 out exactly when v >= t, checked at every v, and
    v = 0 and v = 256 take the same digits: then groups[r] is the digits
    from v = (r + t) mod 256, read by the byte r of z + M (see _byte_walk).
    Otherwise t is 0 and groups[256 i + b] is (digits, 256 i') for the
    steps from carries[i] plus b, which land on carries[i'].
    """
    carries = [(0, 0)]
    groups = []
    for c0, c1 in carries:  # grows as new landings are found
        for b in range(256):
            a0, a1 = c0 + b, c1
            digits = bytearray()
            for _ in range(j):
                q = a0 // p0
                digits.append(a0 - q * p0)
                a0, a1 = a1 - q * p1, -q
            if (a0, a1) not in carries:
                carries.append((a0, a1))
            groups.append((bytes(digits), carries.index((a0, a1)) << 8))
    if carries != [(0, 0), (1, 0)]:
        return tuple(groups), tuple(carries), 0
    # v < 256 steps from carry 0, v = 256 from carry 1 plus 255
    keys = [key for _, key in groups[:256]] + [groups[511][1]]
    t = keys.index(256)
    if keys != [0] * t + [256] * (257 - t) or groups[0][0] != groups[511][0]:
        raise ArithmeticError(f"no carry threshold over X^2 + {p1}X + {p0}")
    return tuple(groups[(r + t) % 256][0] for r in range(256)), tuple(carries), t


def _byte_walk(z: int, p0: int, p1: int, j: int, n: int, max_steps: int
               ) -> bytearray | CnsNotRepresentable | CnsExhausted:
    """The digits of quadratic_walk(z, p0, p1, max_steps) over a base with
    X^j = 256, or the outcome that ends it: the digits of n groups of j
    steps, one per low byte of z, extended in place by the plain walk
    from (z >> 8n + c0, c1) on the steps left.  _walk picks n so that the
    groups fit the budget and keep the base's kept bits of z, which put
    the landing outside cycle_box(p0, p1).

    With a threshold t, adding M = (256 - t)(256^n - 1)/255 to z carries 1
    into byte i + 1 exactly when the walk does, byte i plus its carry
    being at least t, so byte i of z + M picks group i and (z + M) >> 8n
    is the landing; over X^2 - 2X + 2 a keyed loop reads each group's
    carry from the one before."""
    groups, carries, t = _carry_table(p0, p1, j)
    low = (1 << 8 * n) - 1
    digits, key = bytearray(), 0
    if t:  # the landing's carry stays carries[0] = (0, 0)
        z += (256 - t) * low // 255
        for byte in (z & low).to_bytes(n, "little"):
            digits += groups[byte]
    else:
        for byte in (z & low).to_bytes(n, "little"):
            group, key = groups[key + byte]
            digits += group
    c0, c1 = carries[key >> 8]
    walk = quadratic_walk((z >> 8 * n) + c0, p0, p1, max_steps - n * j, a1=c1)
    if isinstance(walk, tuple):
        digits += walk[0]
        return digits
    # running out of the steps left is the whole budget running out
    return CnsExhausted(max_steps) if isinstance(walk, CnsExhausted) else walk


def cns_encode(z: int, p: IntPoly, max_steps: int = DEFAULT_MAX_STEPS) -> CnsOutcome:
    """Extract the canonical digits of z in base p.

    One step: with residue A of length d = deg(p), emit u = A[0] mod |p(0)|,
    set q = (A[0] - u) / p(0), and replace A[i] by A[i+1] - q * p[i+1]
    (reading A[d] = 0).  Terminates at the zero residue; a revisited
    residue proves no expansion exists; otherwise the step budget applies.

    A base p = q(X^m) with m > 1 as large as it goes is walked over q,
    m steps of p to each of q, with q's digits spread m apart; the budget
    and the cycle residue map exactly (see _lift_outcome), so every
    outcome is the one this loop gives over p.  X^2 + c with c > 0 keeps
    the quadratic kernel.
    """
    base = CnsBase(p)  # rejects non-monic p and |p(0)| <= 1
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    pc = p.coeffs
    # pc[1] != 0 means m = 1, so X^2 + 2X + 2 skips the scan
    m = 1 if pc[1] or (len(pc) == 3 and pc[0] > 0) else _stride(pc)
    walk = _walk(z, pc, max_steps) if m == 1 else _lift_outcome(z, pc, m, max_steps)
    if isinstance(walk, (bytearray, list)):
        return CnsDigits(Representation(base, walk))
    return walk


def _stride(pc: tuple[int, ...]) -> int:
    """The largest m with p = q(X^m), q = pc[::m]: the gcd of the indices
    of the nonzero coefficients pc."""
    return gcd(*[i for i, c in enumerate(pc) if c])


def _walk(z: int, pc: tuple[int, ...], max_steps: int
          ) -> bytearray | list[int] | CnsNotRepresentable | CnsExhausted:
    """The digits of z over the base with coefficients pc, or the outcome
    that ends its walk."""
    p0 = pc[0]
    if len(pc) == 3 and p0 > 0:
        j, keep = _byte_base(p0, pc[1])
        # as many groups as leave keep bits of z and fit the budget; none without j
        n = j and min((z.bit_length() - keep) // 8, max_steps // j)
        if n > 0:
            return _byte_walk(z, p0, pc[1], j, n, max_steps)
        walk = quadratic_walk(z, p0, pc[1], max_steps)
        return walk[0] if isinstance(walk, tuple) else walk
    radix = abs(p0)
    d = len(pc) - 1
    state = (z,) + (0,) * (d - 1)
    zero = (0,) * d
    states = {}
    while state != zero:
        if len(states) >= max_steps:
            return CnsExhausted(max_steps)
        if state in states:
            return CnsNotRepresentable(Residue(state))
        states[state] = None
        q = (state[0] - state[0] % radix) // p0
        state = tuple(state[i + 1] - q * pc[i + 1] for i in range(d - 1)) + (-q,)
    digits = digit_buffer(radix)
    digits.extend([s[0] % radix for s in states])
    return digits or [0]


def _lift_outcome(z: int, pc: tuple[int, ...], m: int, max_steps: int
                  ) -> bytearray | list[int] | CnsNotRepresentable | CnsExhausted:
    """The outcome over p = q(X^m), with coefficients pc, from the walk
    over q.  From lift(B) one step lands on X^(m-1) lift(B') and m - 1
    more shift it down to lift(B'), emitting zeros, so with q's states
    B_0, B_1, ... p's step n reaches lift(B_j) at n = m j and
    X^(m-r) lift(B_j) at n = m (j - 1) + r:
      - q's s digits take p m (s - 1) + 1 steps;
      - a revisit of B_t, t > 0, at q's state count n is p's revisit of
        X^(m-1) lift(B_t) at step m (n - 1) + 1;
      - a revisit of the start B_0 = (z, 0, ...) is p's revisit of
        lift(B_0) at step m n.
    q decides everything p decides within max_steps on the budget
    (max_steps - 2) // m + 2, and p's own budget decides the rest."""
    qc = pc[::m]
    walk = _walk(z, qc, (max_steps - 2) // m + 2)
    if isinstance(walk, (bytearray, list)):
        if m * (len(walk) - 1) + 1 > max_steps:
            return CnsExhausted(max_steps)
        return spread_digits(walk, abs(pc[0]), m)
    if isinstance(walk, CnsExhausted):
        return CnsExhausted(max_steps)
    cycle = walk.cycle.coeffs
    lifted = [0] * (len(pc) - 1)
    if cycle[0] != z or any(cycle[1:]):
        lifted[m - 1::m] = cycle
    elif isinstance(_walk(z, qc, (max_steps - 1) // m + 1), CnsNotRepresentable):
        # q's walk is a cycle through its start, which p revisits at its
        # step m n: the walk on the budget that sees n <= (max_steps - 1) // m
        # decides it, as the kernel keeps no count of its states
        lifted[::m] = cycle
    else:
        return CnsExhausted(max_steps)
    return CnsNotRepresentable(Residue(tuple(lifted)))


def reduce_digits(digits, p: IntPoly) -> Residue:
    """Reduce sum(digits[j] * X^j) modulo p; digits least significant first.

    Low level: digit range is not checked here, callers that need the
    canonical guarantees go through Representation.
    """
    pc = p.coeffs
    if pc[-1] != 1:
        raise ValueError("base polynomial must be monic")
    if len(pc) == 1:
        raise ValueError("base polynomial must have positive degree")
    return _chunked_horner(tuple(digits), p)


def _chunked_horner(digits: bytes | tuple[int, ...], p: IntPoly) -> Residue:
    """reduce_digits on bytes or a tuple, over a p known to be monic of
    positive degree, as a CnsBase's is."""
    d = len(p.coeffs) - 1
    k = _CHUNK_DIGITS
    # chunk + X^k acc reads at most k + d rows of the table; a short string
    # builds only the rows it reads, as the entries of row j can have j
    # times the digits of p's, rounded up to a power of two so that few
    # tables are cached per base
    rows = min(1 << (len(digits) + d - 1).bit_length(), k + d)
    columns = _x_power_columns(p.coeffs, rows)
    acc = ()  # nothing is carried into the top chunk, which is read as it is
    for start in reversed(range(0, len(digits), k)):
        row = (*digits[start:start + k], *acc) if acc else digits[start:start + k]
        acc = tuple(sum(map(mul, row, column)) for column in columns)
    return Residue(acc or (0,) * d)


@lru_cache(maxsize=32)
def _x_power_columns(pc: tuple[int, ...], rows: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient i of X^j mod p for j < rows, one column per i, p the
    polynomial with coefficients pc: a tuple hashes in C, an IntPoly in
    Python (65 against 273 ns), which a short string would notice."""
    return tuple(zip(*islice(x_powers_mod(IntPoly(pc)), rows)))


@lru_cache(maxsize=32)
def _interleave(p: IntPoly) -> tuple[int, int, tuple[tuple[int, ...], ...]] | None:
    """(m, m e, columns) when X^(m e) = 256 mod p, else None: p = q(X^m),
    X^e = 256 mod q, and columns[k] holds coefficient k of X^j mod q for
    j < e.  Digit r = s + m j, s < m, then stands for X^s (X^j mod q)(X^m),
    whose coefficient k lands on X^(s + m k) of p, so no reduction mod p
    is needed."""
    pc = p.coeffs
    m = _stride(pc)
    qc = pc[::m]
    # X^e = 256 puts q's roots at absolute value 256^(1/e), so |q(0)| <= 256;
    # a larger q(0) skips the powers of X, which would multiply it out
    if len(qc) > 3 or abs(qc[0]) > 256:
        return None
    powers = list(islice(x_powers_mod(IntPoly(qc)), _BYTE_MAX_STEPS + 1))
    power_256 = (256,) + (0,) * (len(qc) - 2)
    if power_256 not in powers:
        return None
    e = powers.index(power_256)
    return m, m * e, tuple(zip(*powers[:e]))


def cns_decode(rep: Representation) -> Residue:
    """Reduce a digit expansion modulo its base polynomial.

    The result is constant exactly when the expansion denotes an integer.
    Over a base with X^e = 256 mod p (the byte bases, so X^2 + 2X + 2
    and the trinomials X^(2m) + 2X^m + 2 among them), a string of
    _PARSE_MIN_DIGITS digits or more is e int.from_bytes reads of every
    e-th digit, linear in its length; any other base or string takes the
    chunked Horner rule of reduce_digits.  Either way the residue is the
    same.
    """
    if not isinstance(rep.base, CnsBase):
        raise ValueError("expected a polynomial-base representation")
    return _decode(rep.digits, rep.base.poly)


def decode_negabase(rep: Representation) -> int:
    """The value of a base -b expansion: its digits are canonical over
    X + b, whose residue is the constant they denote."""
    if not isinstance(rep.base, NegaBase):
        raise ValueError("expected a negative-base representation")
    return _decode(rep.digits, _x_plus(rep.base.b)).coeffs[0]


@lru_cache(maxsize=32)
def _x_plus(b: int) -> IntPoly:
    """X + b, built once per base: IntPoly checks its coefficients, about
    a third of the time a short string takes to decode."""
    return IntPoly((b, 1))


def _decode(digits: bytes | tuple[int, ...], p: IntPoly) -> Residue:
    """cns_decode's residue of digits over a monic p of positive degree."""
    if len(digits) < _PARSE_MIN_DIGITS or (route := _interleave(p)) is None:
        return _chunked_horner(digits, p)
    m, period, columns = route
    values = [int.from_bytes(digits[r::period], "little") for r in range(period)]
    return Residue(tuple(sum(map(mul, values[s::m], column))
                         for column in columns for s in range(m)))


def brief(z: int | str) -> str:
    """An integer in decimal, or a digit string quoted; beyond 40 digits,
    the leading ones and the count."""
    if isinstance(z, str):
        if len(z) <= _MESSAGE_DIGITS:
            return repr(z)
        return f"{z[:_MESSAGE_DIGITS // 2]!r}... ({len(z)} characters)"
    magnitude = abs(z)
    if magnitude < 10 ** _MESSAGE_DIGITS:
        return str(z)
    # count the digits without str(z), which refuses beyond 4300 digits
    count = int(magnitude.bit_length() * 0.30103) - 1
    while 10 ** count <= magnitude:
        count += 1
    leading = magnitude // 10 ** (count - _MESSAGE_DIGITS // 2)
    return f"{'-' if z < 0 else ''}{leading}... ({count} digits)"


def brief_coeffs(coeffs: tuple[int, ...], sep: str) -> str:
    """Coefficients joined by sep, each by brief; beyond 40 of them, the
    leading ones and the count."""
    if len(coeffs) <= _MESSAGE_DIGITS:
        return sep.join(map(brief, coeffs))
    shown = sep.join(map(brief, coeffs[:_MESSAGE_DIGITS // 2]))
    return f"{shown}{sep}... ({len(coeffs)} coefficients)"


def expansion_of(outcome: CnsOutcome, z: int, p: IntPoly) -> Representation:
    """The expansion in an encoder outcome for z over p; the other two
    outcomes raise NotRepresentableError or StepBudgetError."""
    if isinstance(outcome, CnsDigits):
        return outcome.representation
    if isinstance(outcome, CnsNotRepresentable):
        residue = outcome.cycle.coeffs
        # printed as the tuple it is: (-1, 0) or (-1,)
        shown = brief_coeffs(residue, ", ") + ("," if len(residue) == 1 else "")
        raise NotRepresentableError(f"{brief(z)} is not representable over "
                                    f"{brief_coeffs(p.coeffs, ',')} (cycle residue ({shown}))")
    raise StepBudgetError(f"no decision for {brief(z)} within {outcome.max_steps} steps")


def cns_length(z: int, p: IntPoly, max_steps: int = DEFAULT_MAX_STEPS) -> int:
    """Digit count of the canonical expansion; zero counts as one digit."""
    return expansion_of(cns_encode(z, p, max_steps), z, p).length


def brute_force_oracle(z: int, p: IntPoly, max_len: int) -> Representation | None:
    """Search every digit string of length <= max_len for one denoting z.

    Fully independent of the encoder: candidates are checked by reduction
    alone, and a value reachable by two distinct strings raises, so the
    search also asserts uniqueness.  Returns None when no string that
    short denotes z.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    table = _expansion_table(p, max_len)
    digits = table.get(z)
    if digits is None:
        return None
    return Representation(CnsBase(p), digits)


@lru_cache(maxsize=32)
def _expansion_table(p: IntPoly, max_len: int) -> dict[int, tuple[int, ...]]:
    base = CnsBase(p)
    radix = base.radix
    # count strings incrementally so absurd max_len fails fast
    nodes = 0
    for length in range(1, max_len + 1):
        nodes += radix ** length
        if nodes > _ORACLE_NODE_LIMIT:
            raise ValueError(
                f"enumerating over {_ORACLE_NODE_LIMIT} digit strings is too large")
    # steps[depth][u] is u X^depth mod p
    steps = [[tuple(u * x for x in power) for u in range(radix)]
             for power in islice(x_powers_mod(p), max_len)]
    table: dict[int, tuple[int, ...]] = {}

    def record(value: int, digits: tuple[int, ...]) -> None:
        other = table.get(value)
        if other is not None and other != digits:
            raise RuntimeError(f"two expansions denote {value}: {other} and {digits}")
        table[value] = digits

    def visit(depth: int, residue: tuple[int, ...], digits: list[int]) -> None:
        deeper = depth + 1 < max_len
        for u, step in enumerate(steps[depth]):
            new_res = tuple(map(add, residue, step))
            digits.append(u)
            # a candidate string never carries a leading zero, except "0"
            if (u or not depth) and not any(new_res[1:]):
                record(new_res[0], tuple(digits))
            if deeper:
                visit(depth + 1, new_res, digits)
            digits.pop()

    visit(0, (0,) * (len(p.coeffs) - 1), [])
    return table
