"""Executable checks for the expansion-length claims, with machine-readable reports.

Each check sweeps a stated range exactly (no floating point, no tolerance)
and returns a VerificationReport whose content is deterministic given its
parameters; only the elapsed-time field varies between runs.  The whole
suite runs in one process.  The per-integer sweeps walk backward
division on cns's rules (see cns.quadratic_walk), cut short at the first
integer state whose answer is already stored: the LengthTable that
checks ii, iii, v, vi and viii read is filled by one
cns.quadratic_length call, which counts the steps of every walk in one
loop, and the expansion sweep that check i compares digit for digit and
check ix sums takes the digit buffer of quadratic_walk.  When both run, the
sweep runs once: check i records the digit-sum failures as it walks,
and check ix reads them.  Check i takes each integer's block
substitution and formula length from those of the integer it steps down
to by its base -4 digit, met earlier in the same order; it builds a
Representation, through convert and predicted_length, only for a
counterexample row.  Check vii reads
leading block lengths from a LengthTable of its own, laid out by length
intervals and read beyond its bound by the base -4 step.

No check reads a store's layout: a LengthTable answers by value
(table[z]), by side (the values at 1, 2, ... or at -1, -2, ...), by sign
set (each side's sorted distinct values, computed once per table) and
by grid row.  Checks vii and viii take their pair grid a row at a time:
for fixed x, the stored values of y, x + y and xy over the grid are
slices of the byte store, compared at C speed.  Only a row with
something to record, or one whose slices would leave the store, is
probed pair by pair.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Callable, Iterable, Iterator

from .cns import (DEFAULT_MAX_STEPS, NotRepresentableError, cns_encode, cns_length,
                  expansion_of, quadratic_length, quadratic_walk)
from .negabase import Representation, extremal_of_length, format_digits, length_negabase
from .penney import (STANDARD_POLY, PenneyScheme, SchemeViolation, ViolationKind,
                     build_scheme, convert, leading_digit_length, penney_standard,
                     predicted_length)
from .poly import IntPoly
from .trinomial import seq_a

COUNTEREXAMPLE_POLY = IntPoly((8, 4, 1))

# expansions over X^2 + 4X + 8 that hold even though no (64, 4) scheme exists
COUNTEREXAMPLE_EXPANSIONS = {
    8: "1340", 16: "1200", 24: "2540", 32: "2400",
    40: "3740", 48: "3600", 56: "1470140",
}

# the range of checks i and ix, which share one sweep of direct expansions
EXPANSION_BOUND = 10_000
SWEEP_BOUND = 100_000
GRID_BOUND = 300
SAMPLE_COUNT = 10_000
SAMPLE_BOUND = 100_000
DEFAULT_SEED = 1729
BOUNDARY_MAX_LENGTH = 7
PAIR_COUNT = 4

# at most this many counterexamples/witnesses are stored per report
MAX_RECORDED = 20

SUITE_ORDER = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "remark")


@dataclass
class VerificationReport:
    """Outcome of one check; passed holds exactly when no counterexamples.

    Everything except elapsed is a pure function of the parameters, so two
    runs with the same arguments serialize identically apart from the
    trailing elapsed_ms entry.
    """

    check_id: str
    params: dict
    passed: bool
    counterexamples: list
    witnesses_of_equality: list
    elapsed: float

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": self.params,
            "passed": self.passed,
            "counterexamples": self.counterexamples,
            "witnesses": self.witnesses_of_equality,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extras = ""
        if not self.passed:
            shown = self.counterexamples[:3]
            extras = f" counterexamples={self.params.get('counterexample_count')} first={shown}"
        return f"{verdict} {self.check_id}{extras}"


@dataclass
class DigitSumProbe:
    """Digit-sum identities for one integer, with the literal recurrence trace."""

    z: int
    digit_sum: int
    s_k_derived: int
    recurrence_trace: list[Fraction]
    stabilized: bool


def _finish(check_id: str, params: dict, counterexamples: list,
            witnesses: list, started: float) -> VerificationReport:
    params = dict(params)
    params["counterexample_count"] = len(counterexamples)
    return VerificationReport(
        check_id=check_id,
        params=params,
        passed=not counterexamples,
        counterexamples=counterexamples[:MAX_RECORDED],
        witnesses_of_equality=witnesses[:MAX_RECORDED],
        elapsed=time.perf_counter() - started,
    )


def _expansion(z: int, p: IntPoly) -> Representation:
    return expansion_of(cns_encode(z, p), z, p)


def _walk_ends(bound: int) -> None:
    """Walk -bound and then bound in full, with nothing stored, so that a
    range beyond the step budget raises at its lowest value before any
    sweep from 0 starts: one from 0 outwards would never reach the end of
    such a range."""
    quadratic_length((-bound, bound), 2, 2, bytearray(1), 0)


def _outward(bound: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ..., bound, -bound.

    A walk from (z, 0) reaches ((z - z mod 4) / -4, 0) within four steps,
    and for |z| >= 2 that integer is smaller in magnitude, so in this
    order its answer is always stored already.
    """
    yield 0
    for magnitude in range(1, bound + 1):
        yield magnitude
        yield -magnitude


def _store(bound: int, make: Callable[[int], bytearray | list]) -> bytearray | list:
    """make(2 * bound + 1): one entry per integer |z| <= bound, at index
    z + bound.  A bound whose entries cannot be indexed or allocated
    raises ValueError."""
    size = 2 * bound + 1
    if size > sys.maxsize:
        raise ValueError(f"bound must be at most {sys.maxsize // 2}")
    try:
        return make(size)
    except MemoryError:
        raise ValueError(f"bound {bound} needs {size} entries, "
                         "more memory than can be allocated") from None


@dataclass(frozen=True)
class LengthTable:
    """Lengths over X^2 + 2X + 2 of every |z| <= bound, one byte each.

    data[z + bound] is the length of z.  The checks read the store only
    through table[z], side, sign_sets and row; table[z] beyond the bound
    counts quadratic_length's steps down to a stored value.  No caller
    changes data once the table is built, so sign_sets is kept.
    """

    bound: int
    data: bytearray

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, z: int) -> int:
        bound = self.bound
        if -bound <= z <= bound:
            return self.data[z + bound]
        return quadratic_length((z,), 2, 2, self.data, bound)

    def side(self, sign: int) -> bytearray:
        """The values at sign * 1, sign * 2, ..., sign * bound."""
        bound = self.bound
        return self.data[bound + 1:] if sign > 0 else self.data[:bound][::-1]

    @cached_property
    def sign_sets(self) -> tuple[list[int], list[int]]:
        """The sorted distinct values on the positives and on the negatives."""
        return sorted(set(self.side(1))), sorted(set(self.side(-1)))

    def row(self, offset: int, step: int, grid_bound: int) -> bytearray | None:
        """The values at offset + step * y for the nonzero |y| <= grid_bound
        in ascending y, or None if one of them lies beyond the bound."""
        reach = abs(step) * grid_bound
        low, high = self.bound + offset - reach, self.bound + offset + reach
        if low < 0 or high >= len(self.data):
            return None
        row = self.data[low:high + 1:abs(step)]
        if step < 0:
            row.reverse()
        del row[grid_bound]  # y = 0
        return row


def compute_length_table(bound: int) -> LengthTable:
    """Length over X^2 + 2X + 2 of every |z| <= bound, by direct digit extraction.

    One quadratic_length batch over 0, 1, -1, 2, -2, ...: each walk stops
    at the first integer state whose length is already stored, and stores
    the steps taken plus that length.  Every length still comes from
    backward division steps, never from the block formula.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _walk_ends(bound)
    data = _store(bound, bytearray)
    quadratic_length(_outward(bound), 2, 2, data, bound)
    return LengthTable(bound, data)


def _direct_expansions(bound: int) -> Iterator[tuple[int, bytes]]:
    """(z, digits of z over X^2 + 2X + 2) for every |z| <= bound, least
    significant digit first, in the order of _outward.

    Each digit string is the emitted prefix of z's walk plus the stored
    digits of the integer it stopped at, memo[w + reach].  Only
    |w| <= reach = bound // 4 + 2 are stored: no walk from the range
    stops anywhere else.
    """
    _walk_ends(bound)
    reach = bound // 4 + 2
    memo = _store(reach, lambda size: [b""] * size)
    size = len(memo)

    def known(w: int) -> int:
        index = w + reach
        return len(memo[index]) if 0 <= index < size else 0

    for z in _outward(bound):
        walk = quadratic_walk(z, 2, 2, DEFAULT_MAX_STEPS, known)
        if not isinstance(walk, tuple):
            expansion_of(walk, z, STANDARD_POLY)  # raises
        digits, w = walk
        expansion = bytes(digits) + memo[w + reach]
        # the entry of 0 stays empty: a walk that reaches the zero state ends there
        if z and -reach <= z <= reach:
            memo[z + reach] = expansion
        yield z, expansion


def _block_substitutions(bound: int, scheme: PenneyScheme) -> Iterator[tuple[bytes, int]]:
    """(block substitution, formula length) of z in the scheme for every
    |z| <= bound, in the order of _outward.

    z = r + (-c) w with r = z mod c has the base -c digits of w after r,
    so its substitution is r's padded block followed by w's, and its
    formula length d plus w's; when w is 0 they are r's unpadded block
    and lam(r).  In this order w comes before z, so each is read from a
    memo over |w| <= reach = bound // c + 2.  The two are separate
    recurrences: the length is not read off the substitution.
    """
    c, d, lams = scheme.c, scheme.d, scheme.block_lengths
    blocks = [bytes(block) for block in scheme.blocks]
    tops = [block[:lam] for block, lam in zip(blocks, lams)]
    reach = bound // c + 2
    memo = _store(reach, lambda size: [None] * size)
    for z in _outward(bound):
        k, r = divmod(z, c)  # w = -k
        if k:
            substitution, length = memo[reach - k]
            pair = blocks[r] + substitution, d + length
        else:
            pair = tops[r], lams[r]
        if -reach <= z <= reach:
            memo[z + reach] = pair
        yield pair


def _breaks_digit_sum(z: int, digit_sum: int) -> bool:
    """The digit sum of z is not z mod 5, or 2(z - digit_sum)/5 is odd."""
    return (2 * (z - digit_sum)) % 10 != 0


def check_length_formula(bound: int = EXPANSION_BOUND, *,
                         digit_sum_failures: list | None = None) -> VerificationReport:
    """Every |z| <= bound: block substitution reproduces direct digit
    extraction digit for digit, and the length matches
    d * (negabase length - 1) + leading block length.

    Both come from the outward recurrence of _block_substitutions, which
    steps each z down to an integer the sweep met before; only a
    counterexample row goes through convert and predicted_length.  A
    digit_sum_failures list receives [z, digit sum] for each z of the
    sweep whose digits break check ix's identity, in sweep order.
    """
    t0 = time.perf_counter()
    scheme = penney_standard()
    counterexamples = []
    for (z, direct), (substituted, predicted) in zip(_direct_expansions(bound),
                                                     _block_substitutions(bound, scheme)):
        if digit_sum_failures is not None:
            digit_sum = sum(direct)
            if _breaks_digit_sum(z, digit_sum):
                digit_sum_failures.append([z, digit_sum])
        if direct != substituted or predicted != len(direct):
            counterexamples.append([z, format_digits(direct),
                                    convert(z, scheme).digit_string(),
                                    predicted_length(z, scheme)])
    counterexamples.sort()  # ascending z; each z appears at most once
    params = {"bound": bound, "max_steps": DEFAULT_MAX_STEPS}
    return _finish("length_formula", params, counterexamples, [], t0)


def check_length_set(prefix_len: int = 10, *,
                     lengths: LengthTable) -> VerificationReport:
    """Attained expansion lengths over the table's range are integers 0 or
    1 mod 4 (zero excluded), and each such integer below the frontier, the
    lesser of the two signs' largest lengths, is attained: above it, one
    sign may reach a length that the other reaches only beyond the range."""
    t0 = time.perf_counter()
    pos, neg = lengths.sign_sets
    attained = sorted({*pos, *neg, lengths[0]})
    top = attained[-1]
    frontier = min(pos[-1], neg[-1]) if pos and neg else 0
    # a(n) >= n, so indices up to top reach every a(n) <= top
    expected = [v for v in map(seq_a, range(1, top + 1)) if v <= top]
    counterexamples = []
    for L in attained:
        if L % 4 not in (0, 1):
            counterexamples.append(["bad_mod4", L])
    unexpected = sorted(set(attained) - set(expected))
    missing = sorted(L for L in set(expected) - set(attained) if L < frontier)
    for L in unexpected:
        counterexamples.append(["unexpected_length", L])
    for L in missing:
        counterexamples.append(["missing_length", L])
    if len(attained) < prefix_len:
        counterexamples.append(["insufficient_range", len(attained), prefix_len])
    params = {"bound": lengths.bound, "prefix_len": prefix_len, "attained": attained,
              "frontier": frontier}
    return _finish("length_set", params, counterexamples, [], t0)


def check_sign_disjoint(*, lengths: LengthTable) -> VerificationReport:
    """Positive and negative integers attain disjoint length sets:
    1 or 4 mod 8 on the positives, 5 or 0 mod 8 on the negatives."""
    t0 = time.perf_counter()
    pos, neg = lengths.sign_sets
    counterexamples = []
    for L in sorted(set(pos) & set(neg)):
        counterexamples.append(["shared_length", L])
    for L in pos:
        if L % 8 not in (1, 4):
            counterexamples.append(["positive_mod8", L])
    for L in neg:
        if L % 8 not in (5, 0):
            counterexamples.append(["negative_mod8", L])
    # copies, so that a report's params share no list with the table
    params = {"bound": lengths.bound, "positive_lengths": list(pos),
              "negative_lengths": list(neg)}
    return _finish("sign_disjoint", params, counterexamples, [], t0)


def check_boundary_jumps(max_length: int = BOUNDARY_MAX_LENGTH) -> VerificationReport:
    """At each negabase-length boundary of the standard scheme the leading
    block length drops from 4 to 1 and the expansion length jumps by
    exactly 5.

    Odd lengths are probed at their largest positive, even lengths at
    their least (most negative) integer; the step beyond the boundary is
    +1 respectively -1.
    """
    t0 = time.perf_counter()
    scheme = penney_standard()
    counterexamples = []
    witnesses = []
    for L in range(1, max_length + 1):
        if L % 2:
            n = extremal_of_length(4, L)[1]
            step = 1
        else:
            n = extremal_of_length(4, L)[0]
            step = -1
        lam_n = leading_digit_length(n, scheme)
        lam_next = leading_digit_length(n + step, scheme)
        len_n = cns_length(n, STANDARD_POLY)
        len_next = cns_length(n + step, STANDARD_POLY)
        ok = (length_negabase(n, 4) == L
              and length_negabase(n + step, 4) == L + 2
              and lam_n == 4 and lam_next == 1
              and len_n % 4 == 0 and len_next == len_n + 5)
        if ok:
            witnesses.append([L, n, len_n, len_next])
        else:
            counterexamples.append([L, n, lam_n, lam_next, len_n, len_next])
    params = {"max_length": max_length}
    return _finish("boundary_jumps", params, counterexamples, witnesses, t0)


def check_pair_subsequences(count: int = PAIR_COUNT, *,
                            lengths: LengthTable) -> VerificationReport:
    """Sorted attained lengths interleave in pairs: positives take the
    (4n-3, 4n-2)-th members of the mod-4 sequence, negatives the
    (4n-1, 4n)-th, verified for the first count pairs on each side."""
    t0 = time.perf_counter()
    pos, neg = lengths.sign_sets
    counterexamples = []
    witnesses = []
    for side, attained, indices in (
        ("positive", pos, lambda n: (4 * n - 3, 4 * n - 2)),
        ("negative", neg, lambda n: (4 * n - 1, 4 * n)),
    ):
        expected = []
        n = 1
        while len(expected) < len(attained) + 2 or len(expected) < 2 * count:
            i, j = indices(n)
            expected.extend([seq_a(i), seq_a(j)])
            n += 1
        if attained != expected[:len(attained)]:
            first_bad = next(k for k, (got, want)
                             in enumerate(zip(attained, expected)) if got != want)
            counterexamples.append([side, first_bad, attained[first_bad],
                                    expected[first_bad]])
            continue
        if len(attained) < 2 * count:
            counterexamples.append([side, "insufficient_pairs", len(attained) // 2, count])
            continue
        for k in range(count):
            witnesses.append([side, expected[2 * k], expected[2 * k + 1]])
    params = {"count": count, "bound": lengths.bound}
    return _finish("pair_subsequences", params, counterexamples, witnesses, t0)


def check_gap3(*, lengths: LengthTable) -> VerificationReport:
    """Walking away from zero on either side of the table's range, the
    expansion length never increases by less than 3 between consecutive
    distinct values."""
    t0 = time.perf_counter()
    counterexamples = []
    for side, sign in (("positive", 1), ("negative", -1)):
        prev = None
        for magnitude, L in enumerate(lengths.side(sign), 1):
            if prev is not None and L != prev and L - prev < 3:
                counterexamples.append([side, sign * magnitude, prev, L])
            prev = L
    params = {"bound": lengths.bound}
    return _finish("gap3", params, counterexamples, [], t0)


def _sample_pairs(count: int, seed: int, bound: int) -> Iterator[tuple[int, int]]:
    """count seeded pairs of nonzero integers |x|, |y| <= bound, drawn one
    at a time, so that a huge count holds no list of pairs."""
    rng = random.Random(seed)
    # randint(-bound, bound) draws the same integers through more argument handling
    draw, width = rng.randrange, 2 * bound + 1
    for _ in range(count):
        x = y = 0
        while not (x and y):
            x = draw(width) - bound
            y = draw(width) - bound
        yield x, y


def _sweep_pairs(probe: Callable[[int, int], None], row_done: Callable[[int], bool],
                 grid_bound: int, samples: int, seed: int) -> None:
    """probe(x, y) on the nonzero grid |x|, |y| <= grid_bound, row by row,
    then on the seeded random pairs.  A row x for which row_done(x) is
    true is skipped: row_done has then taken from the whole row all that
    probe would record there."""
    nonzero = [v for v in range(-grid_bound, grid_bound + 1) if v]
    for x in nonzero:
        if not row_done(x):
            for y in nonzero:
                probe(x, y)
    for x, y in _sample_pairs(samples, seed, SAMPLE_BOUND):
        probe(x, y)


class _LeadingBlockLengths(LengthTable):
    """lam[v], the unpadded block length of the leading base -4 digit of v
    in the standard scheme, laid out by length intervals; beyond the bound
    v takes the base -4 step 4k + r -> -k, which keeps its leading digit."""

    def __getitem__(self, v: int) -> int:
        bound = self.bound
        while v > bound or v < -bound:
            v = -(v >> 2)
        return self.data[v + bound]


def _leading_block_lengths(bound: int) -> _LeadingBlockLengths:
    """lam, stored one byte per |v| <= bound, laid out by length intervals:
    the integers of at most n base -c digits form an interval [low, high]
    holding 0, and those of n + 1 digits with leading digit u form
    [low, high] + u (-c)^n, one constant slice each.  No |v| <= bound has
    more digits than the longer of +-bound.  The bound is raised to c - 1
    so that every single digit is stored.
    """
    scheme = penney_standard()
    c, lams = scheme.c, scheme.block_lengths
    bound = max(bound, c - 1)
    data = _store(bound, bytearray)
    data[bound] = lams[0]
    low, high, place = 0, 0, 1
    for _ in range(max(length_negabase(bound, c), length_negabase(-bound, c))):
        for u in range(1, c):
            first, last = max(low + u * place, -bound), min(high + u * place, bound)
            if first <= last:
                data[first + bound:last + bound + 1] = bytes((lams[u],)) * (last - first + 1)
        reach = (c - 1) * place
        low, high = min(low, low + reach), max(high, high + reach)
        place *= -c
    return _LeadingBlockLengths(bound, data)


def check_lambda_bounds(samples: int = SAMPLE_COUNT, seed: int = DEFAULT_SEED, *,
                        grid_bound: int = GRID_BOUND) -> VerificationReport:
    """-2 <= lam(x) + lam(y) - lam(xy) <= 7 for nonzero x, y, where lam is
    the leading block length in the standard scheme.

    Swept over the full nonzero grid |x|, |y| <= grid_bound plus seeded
    random pairs; the pairs (4, 5) and (2, 410) hit the bounds exactly
    and are always included as witnesses.  Pairs with a zero member are
    excluded: they reduce to the convention lam(0) = 1 and are not part
    of the claim.
    """
    t0 = time.perf_counter()
    lam = _leading_block_lengths(grid_bound * grid_bound)
    counterexamples = []
    witnesses = []
    for x, y, expected in ((4, 5, -2), (2, 410, 7)):
        value = lam[x] + lam[y] - lam[x * y]
        witnesses.append([x, y, value])
        if value != expected:
            counterexamples.append([x, y, value, f"expected {expected}"])

    equality_hits = []

    def probe(x: int, y: int) -> None:
        value = lam[x] + lam[y] - lam[x * y]
        if not -2 <= value <= 7:
            counterexamples.append([x, y, value])
        elif value in (-2, 7) and len(equality_hits) < MAX_RECORDED:
            equality_hits.append([x, y, value])

    # the store reaches grid_bound^2, so every grid row is a pair of slices
    ys = lam.row(0, 1, grid_bound)

    def row_done(x: int) -> bool:
        lx = lam[x]
        differences = list(map(sub, ys, lam.row(0, x, grid_bound)))
        low, high = lx + min(differences), lx + max(differences)
        if low < -2 or high > 7:
            return False
        return len(equality_hits) >= MAX_RECORDED or (low > -2 and high < 7)

    _sweep_pairs(probe, row_done, grid_bound, samples, seed)
    witnesses.extend(equality_hits)

    # pairs with a zero member collapse to lam(0) + lam(y) - lam(0) = lam(y)
    # under the lam(0) = 1 convention; record the observed values without
    # asserting them, since the claim's status at zero is unsettled
    zero_pair_values = {*ys, lam[0]}
    params = {"grid_bound": grid_bound, "samples": samples, "seed": seed,
              "sample_bound": SAMPLE_BOUND,
              "zero_pair_values_observed": sorted(zero_pair_values)}
    return _finish("lambda_bounds", params, counterexamples, witnesses, t0)


def check_additive_bounds(samples: int = SAMPLE_COUNT, seed: int = DEFAULT_SEED, *,
                          grid_bound: int = GRID_BOUND,
                          lengths: LengthTable) -> VerificationReport:
    """Claimed: len(x + y) <= len(x) + len(y) + 2 and
    len(xy) <= len(x) + len(y) + 10 over the same grid and seeded pairs as
    the leading-block check.

    The sum bound as stated is false.  Adding 1 and 3 crosses a base -4
    length boundary by two positions at once (1 and 3 are single digits,
    their sum is 130), so len(4) = 9 exceeds len(1) + len(3) + 2 = 7.  The
    check asserts the stated slack anyway and reports every violating pair;
    on the default grid these are exactly (1, 3), (1, 51) and their swaps,
    each exceeding the sum slack by 2.  The product slack of 10 holds
    everywhere probed.  Observed maximal excesses over both slacks are
    recorded in the params.
    """
    t0 = time.perf_counter()
    counterexamples = []
    max_sum_excess = None
    max_product_excess = None

    def note(sum_excess: int, product_excess: int) -> None:
        nonlocal max_sum_excess, max_product_excess
        if max_sum_excess is None or sum_excess > max_sum_excess:
            max_sum_excess = sum_excess
        if max_product_excess is None or product_excess > max_product_excess:
            max_product_excess = product_excess

    def probe(x: int, y: int) -> None:
        lx, ly = lengths[x], lengths[y]
        sum_excess = lengths[x + y] - lx - ly
        product_excess = lengths[x * y] - lx - ly
        note(sum_excess, product_excess)
        if sum_excess > 2:
            counterexamples.append(["sum", x, y, lx, ly, lx + ly + sum_excess])
        if product_excess > 10:
            counterexamples.append(["product", x, y, lx, ly,
                                    lx + ly + product_excess])

    # a row leaves a table smaller than its reach; probe then reads table[v]
    ys = lengths.row(0, 1, grid_bound)

    def row_done(x: int) -> bool:
        sums = lengths.row(x, 1, grid_bound)
        products = lengths.row(0, x, grid_bound)
        if ys is None or sums is None or products is None:
            return False
        lx = lengths[x]
        sum_excess = max(map(sub, sums, ys)) - lx
        product_excess = max(map(sub, products, ys)) - lx
        note(sum_excess, product_excess)
        return sum_excess <= 2 and product_excess <= 10

    _sweep_pairs(probe, row_done, grid_bound, samples, seed)
    params = {"grid_bound": grid_bound, "samples": samples, "seed": seed,
              "sample_bound": SAMPLE_BOUND,
              "max_sum_excess": max_sum_excess,
              "max_product_excess": max_product_excess}
    return _finish("additive_bounds", params, counterexamples, [], t0)


def digit_sum_probe(z: int, max_iter: int = 48) -> DigitSumProbe:
    """Digit-sum identities for one integer, with a recurrence trace.

    Asserts only the arithmetic consequences: the digit sum matches z
    modulo 5, equivalently the derived term 2(z - digit_sum)/5 is an even
    integer.  The literal recurrence s(0) = z, s(1) = 0, s(2) = z/2,
    s(k+1) = (s(k-1) + s(k-2))/2 is traced exactly but only recorded:
    iterated exactly it converges without becoming constant, so eventual
    constancy is not a checkable consequence.
    """
    if max_iter < 2:
        raise ValueError("max_iter must be at least 2")
    digit_sum = sum(_expansion(z, STANDARD_POLY).digits)
    gap = z - digit_sum
    if _breaks_digit_sum(z, digit_sum):
        raise ArithmeticError(
            f"digit sum {digit_sum} of {z} breaks the mod-5 identity")
    s_k = 2 * gap // 5
    trace = [Fraction(z), Fraction(0), Fraction(z, 2)]
    while len(trace) <= max_iter:
        trace.append((trace[-2] + trace[-3]) / 2)
    stabilized = any(trace[i] == trace[i + 1] == trace[i + 2]
                     for i in range(len(trace) - 2))
    return DigitSumProbe(z, digit_sum, s_k, trace, stabilized)


def check_digit_sums(bound: int = EXPANSION_BOUND, *, trace_bound: int = 20,
                     max_iter: int = 48, failures: list | None = None) -> VerificationReport:
    """digit_sum(z) = z mod 5 and 2(z - digit_sum)/5 even for |z| <= bound.

    failures, when given, are the [z, digit sum] pairs that check i
    recorded on its sweep of the same bound; otherwise this check sweeps.
    How often the literal recurrence happens to stabilize near zero is
    recorded in the params, never asserted.
    """
    t0 = time.perf_counter()
    if failures is None:
        sums = ((z, sum(digits)) for z, digits in _direct_expansions(bound))
        failures = [[z, digit_sum] for z, digit_sum in sums
                    if _breaks_digit_sum(z, digit_sum)]
    # sorted into ascending z: the sweep runs outward from 0
    counterexamples = sorted(failures)
    stabilized = 0
    for z in range(-trace_bound, trace_bound + 1):
        if digit_sum_probe(z, max_iter).stabilized:
            stabilized += 1
    params = {"bound": bound, "trace_bound": trace_bound, "max_iter": max_iter,
              "stabilized_traces": stabilized}
    return _finish("digit_sums", params, counterexamples, [], t0)


def check_scheme_counterexample() -> VerificationReport:
    """The base X^2 + 4X + 8 expands every listed multiple of 8 as claimed,
    yet no (64, 4) scheme exists: digit 56 needs a 7-digit block."""
    t0 = time.perf_counter()
    counterexamples = []
    witnesses = []
    for value in sorted(COUNTEREXAMPLE_EXPANSIONS):
        expect = COUNTEREXAMPLE_EXPANSIONS[value]
        try:
            got = _expansion(value, COUNTEREXAMPLE_POLY).digit_string()
        except NotRepresentableError:
            counterexamples.append([value, "not_representable"])
            continue
        if got != expect:
            counterexamples.append([value, got, expect])
        else:
            witnesses.append([value, got])
    result = build_scheme(COUNTEREXAMPLE_POLY, 64, 4)
    if not isinstance(result, SchemeViolation):
        counterexamples.append(["scheme_built", 64, 4])
    elif (result.kind is not ViolationKind.BLOCK_TOO_LONG
          or result.digit != 56 or result.block_length != 7):
        counterexamples.append(["wrong_violation", result.kind.value,
                                result.digit, result.block_length])
    else:
        witnesses.append(["block_too_long", result.digit, result.block_length])
    params = {"c": 64, "d": 4}
    return _finish("scheme_counterexample", params, counterexamples, witnesses, t0)


def run_suite(names: Iterable[str] = ("all",), *,
              bound: int | None = None,
              samples: int = SAMPLE_COUNT,
              seed: int = DEFAULT_SEED,
              grid_bound: int = GRID_BOUND) -> list[VerificationReport]:
    """Run the named checks in canonical order and return their reports.

    bound, when given, replaces the range of i, of the length table and of
    ix; the table is computed once and shared by the checks that read it.
    When i and ix both run, ix reads the digit-sum failures that i's sweep
    recorded.
    """
    selected: list[str] = []
    for name in names:
        if name == "all":
            selected.extend(SUITE_ORDER)
        elif name in SUITE_ORDER:
            selected.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}")
    if not selected:
        raise ValueError("no suite selected")
    ordered = [s for s in SUITE_ORDER if s in selected]
    table_bound, expansion_bound = (
        (SWEEP_BOUND, EXPANSION_BOUND) if bound is None else (bound, bound))
    lengths = None
    if {"ii", "iii", "v", "vi", "viii"} & set(ordered):
        lengths = compute_length_table(table_bound)
    digit_sum_failures = [] if {"i", "ix"} <= set(ordered) else None
    # each entry looks its check up when it runs, so a wrapper patched onto
    # the module-level name is the one called
    suite = {
        "i": lambda: check_length_formula(expansion_bound,
                                          digit_sum_failures=digit_sum_failures),
        "ii": lambda: check_length_set(lengths=lengths),
        "iii": lambda: check_sign_disjoint(lengths=lengths),
        "iv": lambda: check_boundary_jumps(),
        "v": lambda: check_pair_subsequences(lengths=lengths),
        "vi": lambda: check_gap3(lengths=lengths),
        "vii": lambda: check_lambda_bounds(samples, seed, grid_bound=grid_bound),
        "viii": lambda: check_additive_bounds(samples, seed, grid_bound=grid_bound,
                                              lengths=lengths),
        "ix": lambda: check_digit_sums(expansion_bound, failures=digit_sum_failures),
        "remark": lambda: check_scheme_counterexample(),
    }
    return [suite[name]() for name in ordered]
