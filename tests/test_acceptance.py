"""The acceptance gate: twelve exact checks, one verdict line each.

Every test asserts the verified state of affairs, so the module stays
green; the printed verdict says whether the claim under test held.  Two
claims are refuted by the arithmetic itself and print FAIL: the additive
sum slack (criterion 8) and the negabase sum bound (criterion 12).  The
refuting witnesses are pinned below so any behavior drift is caught.
"""

import pytest

from cnskit.cns import DEFAULT_MAX_STEPS, cns_encode, cns_length
from cnskit.negabase import (encode_negabase, extremal_of_length,
                             format_digits, length_negabase)
from cnskit.poly import IntPoly
from cnskit.trinomial import lift_representation, seq_a, seq_b
from cnskit.verify import (DEFAULT_SEED, STANDARD_POLY,
                           check_additive_bounds, check_boundary_jumps,
                           check_digit_sums, check_gap3, check_lambda_bounds,
                           check_length_formula, check_length_set,
                           check_pair_subsequences,
                           check_scheme_counterexample, check_sign_disjoint,
                           compute_length_table)
from reference_loop import reference_encode

RESULTS = []

NEGABASES = (2, 3, 4, 10)

# grid |x|, |y| <= 200: how often length(x + y) exceeds max + 1, per base
SUM_BOUND_GRID_VIOLATIONS = {2: 21168, 3: 18717, 4: 20716, 10: 4140}
# 10^4 seeded nonzero pairs in |x|, |y| <= 10^5: same count, per base
SUM_BOUND_SAMPLE_VIOLATIONS = {2: 1341, 3: 858, 4: 383, 10: 1017}
FIRST_GRID_VIOLATION = {2: (-170, -170, 8, 8, 10), 3: (-60, -60, 4, 4, 6),
                        4: (-200, -200, 4, 4, 6), 10: (-90, -90, 2, 2, 4)}


def announce(num, ok, desc):
    RESULTS.append(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")


@pytest.fixture(scope="module")
def lengths():
    return compute_length_table(100_000)


def enc(z, poly=STANDARD_POLY):
    return format_digits(cns_encode(z, poly).representation.digits)


def test_criterion_01_digit_tables():
    table = {z: enc(z) for z in range(4)}
    ok = table == {0: "0", 1: "1", 2: "1100", 3: "1101"}
    announce(1, ok, "digit table over X^2+2X+2 is 0, 1, 1100, 1101")
    assert ok


def test_criterion_02_block_substitution_equivalence():
    report = check_length_formula(10_000)
    ok = report.passed and report.counterexamples == []
    announce(2, ok, "block substitution matches backward division on "
                    "|z| <= 10^4 with length 4(l-1)+lambda")
    assert ok
    assert report.params["bound"] == 10_000


def test_criterion_03_length_set(lengths):
    report = check_length_set(lengths=lengths)
    recurrence = all(seq_a(n) == seq_a(n - 1) + (-1) ** n + 2
                     for n in range(1, 200))
    ok = report.passed and recurrence
    announce(3, ok, "attained lengths on |z| <= 10^5 are the recurrence "
                    "prefix 1, 4, 5, 8, 9, ...")
    assert ok
    assert report.params["attained"][:6] == [1, 4, 5, 8, 9, 12]


def test_criterion_04_sign_disjointness(lengths):
    signs = check_sign_disjoint(lengths=lengths)
    pairs = check_pair_subsequences(4, lengths=lengths)
    ok = signs.passed and pairs.passed
    announce(4, ok, "positive lengths are {1,4}, negative {5,0} mod 8, "
                    "disjoint, in consecutive pairs")
    assert ok


def test_criterion_05_boundary_jumps():
    report = check_boundary_jumps(7)
    concrete = cns_length(3, STANDARD_POLY) == 4 \
        and cns_length(4, STANDARD_POLY) == 9
    ok = report.passed and concrete
    announce(5, ok, "length jumps by 5 at every negabase boundary up to "
                    "l = 7, including 3 -> 4 digits, 4 -> 9")
    assert ok


def test_criterion_06_gap3(lengths):
    report = check_gap3(lengths=lengths)
    announce(6, report.passed, "consecutive attained lengths differ by "
                               ">= 3 within each sign on |z| <= 10^5")
    assert report.passed


def test_criterion_07_lambda_bounds():
    report = check_lambda_bounds(samples=10_000, seed=DEFAULT_SEED,
                                 grid_bound=300)
    witnesses = report.witnesses_of_equality[:2] == [[4, 5, -2], [2, 410, 7]]
    ok = report.passed and witnesses
    announce(7, ok, "-2 <= lambda(x)+lambda(y)-lambda(xy) <= 7 on grid 300 "
                    "and 10^4 pairs; equality at (4,5) and (2,410)")
    assert ok


def test_criterion_08_additive_bounds(lengths):
    """Refuted: adding 1 and 3 crosses a negabase length boundary twice,
    so len(4) = 9 exceeds len(1) + len(3) + 2 = 7.  The product slack of
    10 holds everywhere probed."""
    report = check_additive_bounds(samples=10_000, seed=DEFAULT_SEED,
                                   grid_bound=300, lengths=lengths)
    announce(8, report.passed, "sum slack 2 refuted: len(4) = 9 > "
                               "len(1) + len(3) + 2; product slack 10 "
                               "holds on grid 300 and 10^4 pairs")
    assert not report.passed
    assert report.counterexamples == [
        ["sum", 1, 3, 1, 4, 9],
        ["sum", 1, 51, 1, 12, 17],
        ["sum", 3, 1, 4, 1, 9],
        ["sum", 51, 1, 12, 1, 17],
    ]
    assert report.params["max_sum_excess"] == 4
    assert report.params["max_product_excess"] <= 10
    assert not any(kind == "product" for kind, *_ in report.counterexamples)


def test_criterion_09_digit_sums():
    report = check_digit_sums(10_000)
    ok = report.passed
    announce(9, ok, "digit sum is z mod 5 with even derived s_K on "
                    "|z| <= 10^4; recurrence stabilization recorded only")
    assert ok
    # the literal averaging recurrence stabilizes just for z = 0; this is
    # informational, not gating
    assert report.params["stabilized_traces"] == 1


def test_criterion_10_counterexample_base():
    report = check_scheme_counterexample()
    ok = report.passed \
        and [56, "1470140"] in report.witnesses_of_equality \
        and ["block_too_long", 56, 7] in report.witnesses_of_equality
    announce(10, ok, "X^2+4X+8 digit table reproduced (56 -> 1470140) and "
                     "no 4-digit block table exists for c = 64")
    assert ok


def test_criterion_11_zero_interleaved_lift():
    quartic = IntPoly((2, 0, 2, 0, 1))
    sextic = IntPoly((2, 0, 0, 2, 0, 0, 1))
    attained = {}
    ok = True
    for m, lifted_poly in ((2, quartic), (3, sextic)):
        seen = set()
        for z in range(-1000, 1001):
            base_rep = cns_encode(z, STANDARD_POLY).representation
            lifted = lift_representation(base_rep, m)
            # the plain loop over p: cns_encode itself walks the quadratic
            direct = reference_encode(z, lifted_poly, DEFAULT_MAX_STEPS).representation
            ok = ok and lifted.digits == direct.digits
            ok = ok and direct.length == m * (base_rep.length - 1) + 1
            seen.add(direct.length)
        lift_set = {m * (seq_a(n) - 1) + 1 for n in range(1, 40)}
        ok = ok and seen <= lift_set
        attained[m] = sorted(seen)
    b_prefix = [seq_b(n) for n in range(11)]
    ok = ok and attained[2][:11] == b_prefix
    ok = ok and all(seq_b(n) == 2 * seq_a(n + 1) - 1 for n in range(101))
    announce(11, ok, "direct encoding over X^(2m)+2X^m+2 equals the "
                     "zero-interleaved lift for m in {2,3}, |z| <= 10^3; "
                     "quartic lengths follow b(n) = 2a(n+1)-1")
    assert ok
    # range artifact, not a gap in the claim: length 47 = 2(24 - 1) + 1
    # needs |z| >= 1229, outside this sweep, while 49 is hit at z = 820
    assert attained[2] == [1, 7, 9, 15, 17, 23, 25, 31, 33, 39, 41, 49]
    assert seq_b(11) == 47 and seq_b(12) == 49
    assert cns_length(-1229, quartic) == 47
    assert cns_length(820, quartic) == 49


def test_criterion_12_negabase_length_laws():
    """Parity, monotone steps, extremal formulas, the product offset, and
    oracle agreement all hold.  The sum bound max + 1 is refuted on every
    base; each violation stays within max + 2."""
    structure_ok = True
    for b in NEGABASES:
        prev_pos = 1
        prev_neg = length_negabase(-1, b)
        for n in range(1, 100_001):
            ln = length_negabase(n, b)
            structure_ok = structure_ok and ln % 2 == 1 \
                and ln - prev_pos in (0, 2)
            prev_pos = ln
            lm = length_negabase(-n - 1, b)
            structure_ok = structure_ok and lm % 2 == 0 \
                and lm - prev_neg in (0, 2)
            prev_neg = lm
    assert structure_ok

    extremal_ok = True
    for b in (2, 3, 4):
        by_length = {}
        for z in range(-b ** 7, b ** 7 + 1):
            by_length.setdefault(length_negabase(z, b), []).append(z)
        for ell in range(1, 7):
            lo, hi = extremal_of_length(b, ell)
            values = by_length[ell]
            if ell == 1:
                values = [z for z in values if z]  # zero is conventional
            extremal_ok = extremal_ok \
                and (lo, hi) == (min(values), max(values))
    assert extremal_ok

    from cnskit.verify import _sample_pairs
    sum_grid = {}
    first_hits = {}
    sum_samples = {}
    product_ok = True
    bound_plus_two_ok = True
    for b in NEGABASES:
        cache = {z: length_negabase(z, b) for z in range(-40_000, 40_001)}
        bad = 0
        first = None
        for x in range(-200, 201):
            lx = cache[x]
            for y in range(-200, 201):
                ly = cache[y]
                ls = cache[x + y]
                if ls > max(lx, ly) + 1:
                    bad += 1
                    first = first or (x, y, lx, ly, ls)
                bound_plus_two_ok = bound_plus_two_ok \
                    and ls <= max(lx, ly) + 2
                if x and y:
                    product_ok = product_ok \
                        and cache[x * y] - lx - ly in (-3, -1, 1)
        sum_grid[b] = bad
        first_hits[b] = first
        bad = 0
        for x, y in _sample_pairs(10_000, DEFAULT_SEED, 100_000):
            lx, ly = length_negabase(x, b), length_negabase(y, b)
            ls = length_negabase(x + y, b)
            if ls > max(lx, ly) + 1:
                bad += 1
            bound_plus_two_ok = bound_plus_two_ok and ls <= max(lx, ly) + 2
            if length_negabase(x * y, b) - lx - ly not in (-3, -1, 1):
                product_ok = False
        sum_samples[b] = bad

    from cnskit.cns import brute_force_oracle
    # max length on this range is 17, at z = 52; 12 digits would not reach
    oracle_ok = all(
        brute_force_oracle(z, STANDARD_POLY, 17).digits
        == cns_encode(z, STANDARD_POLY).representation.digits
        for z in range(-200, 201))

    sum_ok = not any(sum_grid.values()) and not any(sum_samples.values())
    ok = structure_ok and extremal_ok and product_ok and oracle_ok and sum_ok
    announce(12, ok, "negabase sum bound max+1 refuted on every base "
                     f"(grid violations {sum_grid[2]}/{sum_grid[3]}/"
                     f"{sum_grid[4]}/{sum_grid[10]}, all within max+2); "
                     "parity, monotone, extremal, product, oracle pass")
    assert not sum_ok
    assert sum_grid == SUM_BOUND_GRID_VIOLATIONS
    assert sum_samples == SUM_BOUND_SAMPLE_VIOLATIONS
    assert first_hits == FIRST_GRID_VIOLATION
    assert bound_plus_two_ok
    assert product_ok and oracle_ok
