"""Canonical expansion by backward division: digit tables, cycles, the oracle."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnskit import cns, negabase
from cnskit.cns import (DEFAULT_MAX_STEPS, CnsDigits, CnsExhausted, CnsNotRepresentable,
                        NotRepresentableError, Residue, StepBudgetError, brief,
                        brute_force_oracle, cns_decode, cns_encode, cns_length,
                        cycle_box, expansion_of, quadratic_length, quadratic_walk,
                        reduce_digits)
from cnskit.negabase import CnsBase, Representation
from cnskit.poly import IntPoly, compose_x_power, poly_divrem
from cnskit.trinomial import lift_representation
from cnskit.verify import compute_length_table
from reference_loop import least_budget, reference_encode

P = IntPoly((2, 2, 1))
COUNTER = IntPoly((8, 4, 1))
QUARTIC = IntPoly((2, 0, 2, 0, 1))
SEXTIC = IntPoly((2, 0, 0, 2, 0, 0, 1))
NONCNS = IntPoly((2, -2, 1))


def digits_of(z, p=P):
    outcome = cns_encode(z, p)
    assert isinstance(outcome, CnsDigits)
    return outcome.representation.digit_string()


def test_digit_table():
    assert digits_of(0) == "0"
    assert digits_of(1) == "1"
    assert digits_of(2) == "1100"
    assert digits_of(3) == "1101"
    assert digits_of(4) == "111010000"
    assert digits_of(-1) == "11101"


def test_counterexample_base_digit_table():
    expected = {8: "1340", 16: "1200", 24: "2540", 32: "2400",
                40: "3740", 48: "3600", 56: "1470140"}
    for value, digits in expected.items():
        assert digits_of(value, COUNTER) == digits


def test_encode_validates_base():
    with pytest.raises(ValueError):
        cns_encode(3, IntPoly((3, 2)))       # not monic
    with pytest.raises(ValueError):
        cns_encode(3, IntPoly((1, 2, 1)))    # |p(0)| = 1
    with pytest.raises(ValueError):
        cns_encode(3, P, max_steps=0)


def test_not_representable_reports_cycle():
    outcome = cns_encode(-1, NONCNS)
    assert isinstance(outcome, CnsNotRepresentable)
    assert outcome.cycle.coeffs == (-1, 1)


def test_budget_exhaustion():
    outcome = cns_encode(10**6, P, max_steps=3)
    assert isinstance(outcome, CnsExhausted)
    assert outcome.max_steps == 3


def test_budget_exactly_sufficient():
    # a value whose expansion needs exactly the allowed number of digits
    need = cns_length(820, P)
    outcome = cns_encode(820, P, max_steps=need)
    assert isinstance(outcome, CnsDigits)
    assert outcome.representation.length == need


def test_cns_length_errors():
    assert cns_length(2, P) == 4
    with pytest.raises(NotRepresentableError):
        cns_length(-1, NONCNS)
    with pytest.raises(StepBudgetError):
        cns_length(10**6, P, max_steps=3)


def test_expansion_of_maps_each_outcome():
    assert expansion_of(cns_encode(3, P), 3, P).digit_string() == "1101"
    with pytest.raises(NotRepresentableError,
                       match=r"^-1 is not representable over 2,-2,1 "
                             r"\(cycle residue \(-1, 1\)\)$"):
        expansion_of(cns_encode(-1, NONCNS), -1, NONCNS)
    with pytest.raises(StepBudgetError, match=r"^no decision for 1000000 within 3 steps$"):
        expansion_of(cns_encode(10**6, P, max_steps=3), 10**6, P)


def test_error_abbreviates_huge_integer():
    # 2**15000 has 4516 digits, more than str() converts by default
    with pytest.raises(StepBudgetError, match=r"^no decision for 28179608796313976374"
                                              r"\.\.\. \(4516 digits\) within 10000 steps$"):
        cns_length(2**15000, P)
    with pytest.raises(StepBudgetError, match=r"for -(9{20})\.\.\. \(41 digits\) within"):
        cns_length(1 - 10**41, P, max_steps=3)
    with pytest.raises(StepBudgetError, match=r"for -(9{40}) within"):
        cns_length(1 - 10**40, P, max_steps=3)


def test_decode_inverts_encode():
    for z in range(-500, 501):
        outcome = cns_encode(z, P)
        residue = cns_decode(outcome.representation)
        assert residue.is_constant
        assert residue.constant_value() == z


def test_decode_non_constant_residue():
    rep = Representation(CnsBase(P), (1, 1))
    residue = cns_decode(rep)
    assert not residue.is_constant
    assert residue.coeffs == (1, 1)
    with pytest.raises(ValueError):
        residue.constant_value()


def test_reduce_digits_matches_decode():
    # X^2 = -2X - 2 over P, so digits (0, 0, 1) reduce to -2 - 2X
    assert reduce_digits((0, 0, 1), P).coeffs == (-2, -2)
    assert reduce_digits((2,), P).coeffs == (2, 0)
    assert reduce_digits((), P).coeffs == (0, 0)


def test_quadratic_and_generic_paths_agree():
    """The quadratic kernel's digits are the ones the exhaustive oracle
    finds, and, with zeros interleaved, the ones the plain state loop
    finds over the quartic lift X^4 + 2X^2 + 2, which cns_encode itself
    walks over X^2 + 2X + 2."""
    max_len = 12
    for z in range(-300, 301):
        digits, w = quadratic_walk(z, 2, 2, DEFAULT_MAX_STEPS)
        assert w == 0
        fast = Representation(CnsBase(P), bytes(digits))
        found = brute_force_oracle(z, P, max_len)
        if fast.length <= max_len:
            assert found == fast
        else:
            assert found is None
        generic = reference_encode(z, QUARTIC, DEFAULT_MAX_STEPS)
        assert isinstance(generic, CnsDigits)
        assert generic.representation == lift_representation(fast, 2)


@pytest.mark.parametrize("p, reach", [
    pytest.param(p, reach, id=str(p)) for p, reach in [
        # the quadratic kernel; over real roots every state enters the
        # cycle set, over complex roots only those in cycle_box, here
        # with p0 > 256 and list digits
        (P, 3000), (NONCNS, 3000), (COUNTER, 3000),
        (IntPoly((2, 3, 1)), 300), (IntPoly((300, 1, 1)), 300),
        # the generic loop: a negative p(0); over q(X^m), q's walk: the
        # quartic and the sextic on the kernel, X^4 - 2X^2 + 2, which
        # cycles, q(0) < 0, and q = X - 3, X + 2 on a state of one integer
        (QUARTIC, 1000), (IntPoly((-2, 1, 1)), 1000), (IntPoly((2, 0, 0, 1)), 1000),
        (SEXTIC, 400), (IntPoly((2, 0, -2, 0, 1)), 400), (IntPoly((-2, 0, 1, 0, 1)), 400),
        (IntPoly((-3, 0, 0, 0, 1)), 400), (IntPoly((-3, 0, 1)), 400)]])
def test_encode_outcomes_equal_the_reference_loop(p, reach):
    """Also on the budgets around each decision: the least budget that
    decides z, one and two short of it, and one over.  Over q(X^m) with
    q's s digits, these are m (s - 1) + 1 and m (s - 1)."""
    for z in range(-reach, reach + 1):
        budgets = {1, 3, 5, 30, 10_000}
        need = least_budget(z, p, 10_000)
        if need is not None:
            budgets.update(b for b in (need - 2, need - 1, need, need + 1) if b >= 1)
        for max_steps in budgets:
            assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)


@pytest.mark.parametrize("p", [QUARTIC, SEXTIC], ids=str)
def test_big_integers_over_the_trinomial_equal_the_reference_loop(p):
    """2^10- to 2^12-bit integers, whose walks over X^2 + 2X + 2 read bytes, on
    the budget of their expansion's length, one short of it and one over."""
    rng = random.Random(17)
    for bits in (1024, 2048, 4096):
        for sign in (1, -1):
            z = sign * (rng.getrandbits(bits) | 1 << (bits - 1))
            need = least_budget(z, p, 10 * bits)
            for max_steps in (need - 1, need, need + 1):
                assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)


def spy_on_walks(monkeypatch):
    """(p0, p1, j) for every _byte_walk call from here on."""
    calls = []
    byte_walk = cns._byte_walk

    def spy(z, p0, p1, j, n, max_steps):
        calls.append((p0, p1, j))
        return byte_walk(z, p0, p1, j, n, max_steps)

    monkeypatch.setattr(cns, "_byte_walk", spy)
    return calls


def test_x_squared_plus_c_stays_on_the_kernel_and_reads_bytes(monkeypatch):
    """X^2 + c with c > 0 is q(X^2) with q = X + c, but stays on the
    kernel: over X + c it would take one interpreter step per digit.  At
    600 bits X^2 + 2 (X^16 = 256) and X^2 + 4 (X^8 = 256) read z a byte
    at a time, and X^2 + 3 and X^2 + 7 take the plain kernel."""
    calls = spy_on_walks(monkeypatch)
    z = random.Random(5).getrandbits(600) | 1 << 599
    expected = {2: [(2, 0, 16)], 3: [], 4: [(4, 0, 8)], 7: []}
    for c, walks in expected.items():
        p = IntPoly((c, 0, 1))
        del calls[:]
        assert cns_encode(z, p, 4000) == reference_encode(z, p, 4000)
        assert calls == walks


def test_the_trinomial_reads_bytes_over_its_quadratic(monkeypatch):
    """X^(2m) + 2X^m + 2 walks X^2 + 2X + 2, a byte of z per 16 steps,
    here at 600 bits."""
    calls = spy_on_walks(monkeypatch)
    z = -(random.Random(6).getrandbits(600) | 1 << 599)
    for p in (QUARTIC, SEXTIC):
        del calls[:]
        assert cns_encode(z, p, 8000) == reference_encode(z, p, 8000)
        assert calls == [(2, 2, 16)]


def test_real_roots_cycle_outside_the_box():
    """7 over X^2 + 3X + 2 = (X + 1)(X + 2) cycles at (-14, -7), outside
    the box of X^2 + X + 2, which has complex roots and the same p0, so the
    kernel keeps every state over real roots."""
    outcome = cns_encode(7, IntPoly((2, 3, 1)))
    assert outcome == CnsNotRepresentable(Residue((-14, -7)))
    a0, a1 = outcome.cycle.coeffs
    box0, box1 = cycle_box(2, 1)
    assert not (abs(a0) <= box0 and abs(a1) <= box1)
    assert cycle_box(2, 3) == (float("inf"), float("inf"))


def test_revisit_at_the_budget_exhausts_it():
    # -1 over X^2 - 2X + 2 steps to (-2, 1), then (-1, 1) twice
    assert cns_encode(-1, NONCNS, 3) == CnsExhausted(3)
    assert cns_encode(-1, NONCNS, 4) == CnsNotRepresentable(Residue((-1, 1)))


@pytest.mark.parametrize("p", [P, COUNTER], ids=str)
def test_memo_hook_changes_no_digit(p):
    """A walk that stops where known(w) answers, completed by w's stored
    digits, gives the digits of the walk without the hook; an expansion
    one digit over the budget exhausts it either way."""
    p0, p1, _ = p.coeffs

    def digits_of_walk(walk):
        digits, w = walk
        return list(digits) + memo.get(w, [])

    memo = {}
    for w in range(-500, 501):
        if w:
            memo[w] = digits_of_walk(quadratic_walk(w, p0, p1, DEFAULT_MAX_STEPS))
    for z in range(-3000, 3001):
        full = digits_of_walk(quadratic_walk(z, p0, p1, DEFAULT_MAX_STEPS))
        walk = quadratic_walk(z, p0, p1, DEFAULT_MAX_STEPS, lambda w: len(memo.get(w, ())))
        assert walk[1] == 0 or walk[1] in memo
        assert digits_of_walk(walk) == full
        short = quadratic_walk(z, p0, p1, len(full) - 1 or 1, lambda w: len(memo.get(w, ())))
        assert isinstance(short, CnsExhausted) == (len(full) > 1)


# the length table that quadratic_length fills for verify, and reads
TABLE_BOUND = 3000


@pytest.fixture(scope="module")
def table():
    return compute_length_table(TABLE_BOUND)


def walked(walk, *args, **kwargs):
    """walk(*args, **kwargs), or the type and text of the error it raises."""
    try:
        return walk(*args, **kwargs)
    except (NotRepresentableError, StepBudgetError) as exc:
        return type(exc), str(exc)


def kernel_length(z, p0, p1, data, bound, max_steps=DEFAULT_MAX_STEPS):
    """len(digits) of quadratic_walk reading the stored lengths
    data[w + bound], plus the length stored for the w it stops at; a walk
    without digits raises through expansion_of."""
    def known(w):
        return data[w + bound] if -bound <= w <= bound else 0

    walk = quadratic_walk(z, p0, p1, max_steps, known)
    if not isinstance(walk, tuple):
        expansion_of(walk, z, IntPoly((p0, p1, 1)))
    digits, w = walk
    return len(digits) + (known(w) if w else 0)


def test_quadratic_length_counts_the_kernel_steps_below_the_table(table):
    small = compute_length_table(40)
    for z in range(-TABLE_BOUND, TABLE_BOUND + 1):
        assert (quadratic_length((z,), 2, 2, small.data, 40)
                == kernel_length(z, 2, 2, small.data, 40))
        assert quadratic_length((z,), 2, 2, small.data, 40) == table[z]


def test_quadratic_length_counts_the_kernel_steps_beyond_the_table(table):
    rng = random.Random(23)
    for z in (rng.randint(-10**10, 10**10) for _ in range(200)):
        assert (quadratic_length((z,), 2, 2, table.data, TABLE_BOUND)
                == kernel_length(z, 2, 2, table.data, TABLE_BOUND))


@pytest.mark.parametrize("p0, p1", [(2, -2), (7, -5), (2, 3)])
def test_quadratic_length_raises_as_the_kernel_on_bases_with_cycles(p0, p1):
    """Over X^2 - 2X + 2 the negative integers cycle, over X^2 - 5X + 7
    cycles reach |a0| = 8, deep inside cycle_box, and over X^2 + 3X + 2,
    with real roots, 7 cycles at (-14, -7), outside the box for p0 = 2
    over complex roots; a table of what is representable below 30 (0 for
    the rest) is read as the kernel reads it."""
    bound = 30
    data = bytearray(2 * bound + 1)
    for z in range(-bound, bound + 1):
        length = walked(kernel_length, z, p0, p1, data, 0)
        data[z + bound] = length if isinstance(length, int) else 0
    if (p0, p1) == (2, -2):
        assert walked(quadratic_length, (-42,), 2, -2, data, bound) == (
            NotRepresentableError, "-42 is not representable over 2,-2,1 (cycle residue (-1, 1))")
    if (p0, p1) == (2, 3):
        assert walked(quadratic_length, (7,), 2, 3, bytearray(1), 0) == (
            NotRepresentableError, "7 is not representable over 2,3,1 (cycle residue (-14, -7))")
    outcomes = set()
    for z in range(-3000, 3001):
        outcome = walked(quadratic_length, (z,), p0, p1, data, bound)
        assert outcome == walked(kernel_length, z, p0, p1, data, bound)
        outcomes.add(type(outcome))
    assert outcomes == {int, tuple}


@pytest.mark.parametrize("p1", [2, -2])
def test_quadratic_length_runs_out_at_the_kernel_budget(table, p1):
    """On every budget up to one past the walk, the same length or the
    same error: a stored length that would overrun, and a revisit found
    only at the last step, count as running out."""
    data = table.data if p1 == 2 else bytearray(1)
    bound = TABLE_BOUND if p1 == 2 else 0
    for z in (-1, -42, 7, 4000, -123_456, 10**9 + 7):
        full = walked(kernel_length, z, 2, p1, data, bound)
        for budget in range(1, (full if isinstance(full, int) else 20) + 2):
            assert (walked(quadratic_length, (z,), 2, p1, data, bound, budget)
                    == walked(kernel_length, z, 2, p1, data, bound, budget))


def test_quadratic_length_beyond_the_budget_raises_the_kernel_message(table):
    z = 10**4000
    assert walked(quadratic_length, (z,), 2, 2, table.data, TABLE_BOUND) == (
        StepBudgetError, f"no decision for {brief(z)} within 10000 steps")
    assert (walked(lambda: table[z])
            == walked(kernel_length, z, 2, 2, table.data, TABLE_BOUND))


@pytest.mark.parametrize("p1, zs, budget", [
    (-2, (0, 1, 2, 3, -3, 4), DEFAULT_MAX_STEPS),  # 2 cycles over X^2 - 2X + 2
    (2, (0, 1, -1, 2, -2, 3, -3, 4, 5), 8),  # 4's stored rest overruns the budget
    (2, (0, 1, -1, 2, 10**4000, 3), DEFAULT_MAX_STEPS),  # the loop runs out of steps
])
def test_a_batch_raises_the_kernel_message_for_its_failing_z(p1, zs, budget):
    """A batch stops at the first z whose walk has no length, with the
    kernel's error for that z; the lengths before it are stored, its own
    entry and those after it are not."""
    bound = 5
    data = bytearray(2 * bound + 1)
    failing = next(z for z in zs if not isinstance(
        walked(kernel_length, z, 2, p1, bytearray(1), 0, budget), int))
    assert failing != zs[0]
    before = zs[:zs.index(failing)]
    expected = bytearray(2 * bound + 1)
    for z in before:
        expected[z + bound] = kernel_length(z, 2, p1, expected, bound, budget)
    assert (walked(quadratic_length, zs, 2, p1, data, bound, budget)
            == walked(kernel_length, failing, 2, p1, expected, bound, budget))
    assert data == expected


def test_a_batch_stores_no_z_beyond_the_bound(table):
    data = bytearray(table.data)
    zs = (TABLE_BOUND + 1, -TABLE_BOUND - 1, 10**12)
    assert quadratic_length(zs, 2, 2, data, TABLE_BOUND) == table[10**12]
    assert data == table.data


@given(st.integers(-10**12, 10**12))
@settings(max_examples=300)
def test_encode_decode_round_trip(z):
    outcome = cns_encode(z, P)
    assert isinstance(outcome, CnsDigits)
    rep = outcome.representation
    assert cns_decode(rep).constant_value() == z
    assert max(rep.digits) < 2
    if z != 0:
        assert rep.digits[-1] != 0


@given(st.integers(-10**10, 10**10))
@settings(max_examples=200)
def test_counterexample_base_round_trip(z):
    outcome = cns_encode(z, COUNTER)
    assert isinstance(outcome, CnsDigits)
    rep = outcome.representation
    assert cns_decode(rep).constant_value() == z
    assert max(rep.digits) < 8


def test_oracle_agreement_small_window():
    """The exhaustive search and backward division agree on every |z| <= 200.

    The oracle only sees expansions up to its digit budget, so values whose
    expansion is longer must come back as None from it.
    """
    max_len = 12
    for z in range(-200, 201):
        expected = cns_encode(z, P)
        assert isinstance(expected, CnsDigits)
        rep = expected.representation
        found = brute_force_oracle(z, P, max_len)
        if rep.length <= max_len:
            assert found is not None and found.digits == rep.digits
        else:
            assert found is None


def test_oracle_counterexample_base():
    for z in range(0, 64):
        found = brute_force_oracle(z, COUNTER, 7)
        expected = cns_encode(z, COUNTER)
        assert found is not None
        assert found.digits == expected.representation.digits


def test_oracle_rejects_huge_enumeration():
    with pytest.raises(ValueError):
        brute_force_oracle(1, P, 10**9)


@pytest.mark.parametrize("p, max_len", [(P, 9), (COUNTER, 4), (QUARTIC, 8),
                                        (IntPoly((3, 1)), 5), (IntPoly((-2, 1)), 7)])
def test_oracle_table_is_every_string_that_denotes_an_integer(p, max_len):
    """The oracle's table holds exactly the strings of at most max_len
    digits, without a leading zero, that reduce to an integer."""
    radix = abs(p.constant_term)
    expected = {}
    for length in range(1, max_len + 1):
        for digits in itertools.product(range(radix), repeat=length):
            if length > 1 and digits[-1] == 0:
                continue
            residue = reduce_digits(digits, p)
            if residue.is_constant:
                expected[residue.constant_value()] = digits
    assert cns._expansion_table(p, max_len) == expected


# complex-root quadratics on which big integers read bytes (the first
# two) or take the plain kernel; X^2 - 2X + 2 represents no big integer,
# so its walks end in a cycle
COMPLEX_BASES = [P, NONCNS, IntPoly((3, 1, 1)), IntPoly((5, -3, 1))]
# and one whose digits do not fit in a byte
WIDE_COMPLEX_BASES = COMPLEX_BASES + [IntPoly((300, 1, 1))]


@st.composite
def big_integers(draw, max_bits):
    bits = draw(st.integers(0, max_bits))
    magnitude = draw(st.integers(0, 2**bits - 1)) | (1 << bits >> 1)
    return magnitude if draw(st.booleans()) else -magnitude


@pytest.mark.parametrize("p", WIDE_COMPLEX_BASES, ids=str)
@given(z=big_integers(4000))
@settings(max_examples=30, deadline=None)
def test_big_integer_outcomes_equal_the_reference_loop(p, z):
    """Every outcome of the encoder on big integers, cycle residue
    included, is the plain loop's, at a budget that settles every size drawn."""
    max_steps = 4 * z.bit_length() + 64
    assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)


def plain_steps(z, p):
    """Steps of the plain walk from z until it reaches zero or steps to a
    state it has stepped from."""
    p0, p1, _ = p.coeffs
    state, seen = (z, 0), set()
    while any(state) and state not in seen:
        seen.add(state)
        q = state[0] // p0
        state = (state[1] - q * p1, -q)
    return len(seen)


@pytest.mark.parametrize("p", COMPLEX_BASES, ids=str)
def test_big_integers_exhaust_the_budget_at_the_same_step(p):
    """From 257 to 293 bits, a budget one short of the plain walk's n
    steps, exactly n or one more, gives the plain loop's outcome."""
    rng = random.Random(13)
    for bits in range(257, 297, 4):
        for sign in (1, -1):
            z = sign * (rng.getrandbits(bits) | 1 << (bits - 1))
            n = plain_steps(z, p)
            for max_steps in (n - 1, n, n + 1):
                assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)


@pytest.mark.parametrize("q", [P, NONCNS, COUNTER, IntPoly((3, 1, 1))], ids=str)
@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_q_of_x_to_the_m_equals_the_oracle_and_the_reference_loop(q, m):
    """From every |z| <= 300, close to the periodic states, the outcomes
    over p = q(X^m), walked over q for m > 1, equal the plain loop's over
    p at every budget, cycle residue included, and the digits the oracle's."""
    p = compose_x_power(q, m)
    # about 10^4 strings or fewer for the oracle to enumerate
    max_len = {2: 12, 3: 8, 8: 4}[p.coeffs[0]]
    for z in range(-300, 301):
        for max_steps in (1, 3, 5, 30, 10_000):
            assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)
        outcome = cns_encode(z, p)
        if isinstance(outcome, CnsDigits) and outcome.representation.length <= max_len:
            assert brute_force_oracle(z, p, max_len) == outcome.representation


# bases with X^j = 256 mod p, and j
BYTE_BASES = [(P, 16), (NONCNS, 16), (IntPoly((2, 0, 1)), 16), (IntPoly((4, 0, 1)), 8),
              (IntPoly((16, 0, 1)), 4)]


def test_only_bases_with_a_power_256_read_bytes():
    """Of every X^2 + p1 X + p0 with 1 <= p0 < 400 and |p1| <= 60, real
    roots included, only BYTE_BASES have X^j = 256 mod p for a j <= 16, as
    only complex roots can: so a byte group, kept only when it lands
    outside cycle_box, never meets the unbounded box of real roots."""
    found = {(p0, p1): j for p0 in range(1, 400) for p1 in range(-60, 61)
             if (j := cns._byte_base.__wrapped__(p0, p1)[0])}
    assert found == {p.coeffs[:2]: j for p, j in BYTE_BASES}


@pytest.mark.parametrize("p, j", BYTE_BASES, ids=str)
def test_carry_table_equals_plain_steps(p, j):
    """Every (carry, byte) entry holds the digits of j plain steps from
    (c0 + b, c1) and the index of the carry they land on, also from
    states off the key by random multiples of 256, which land off that
    carry by the same multiples.  The carries start at (0, 0), are closed
    under the table and are far too small to bring a landing from 2^23
    into cycle_box."""
    p0, p1, _ = p.coeffs
    groups, carries, t = cns._carry_table(p0, p1, j)
    assert carries[0] == (0, 0) and len(set(carries)) == len(carries)
    assert len(groups) == (256 if t else 256 * len(carries))
    assert max(abs(c) for carry in carries for c in carry) <= 2
    rng = random.Random(j)
    for i, (c0, c1) in enumerate(carries):
        for b in range(256):
            if t:  # the digits from (v, 0) sit at byte (v - t) mod 256; v >= t carries 1
                v = c0 + b
                group, key = groups[(v - t) % 256], 256 * (v >= t)
            else:
                group, key = groups[256 * i + b]
            assert key % 256 == 0 and key // 256 < len(carries)
            for r0, r1 in ((0, 0), (rng.randint(-9, 9), rng.randint(-9, 9))):
                state, digits = (c0 + b + 256 * r0, c1 + 256 * r1), []
                for _ in range(j):
                    q = state[0] // p0
                    digits.append(state[0] - q * p0)
                    state = (state[1] - q * p1, -q)
                e0, e1 = carries[key // 256]
                assert bytes(digits) == group
                assert state == (e0 + r0, e1 + r1)


# each base's carry threshold t and the byte 256 - t that the addition adds,
# the mask byte of base -4, -2, -4 and -16 (s = 2, 1, 2, 4)
THRESHOLDS = {P: (52, 2), IntPoly((2, 0, 1)): (86, 1), IntPoly((4, 0, 1)): (52, 2),
              IntPoly((16, 0, 1)): (16, 4)}


@pytest.mark.parametrize("p, j", BYTE_BASES, ids=str)
def test_byte_bases_carry_at_a_threshold_or_by_a_keyed_table(p, j):
    """j plain steps from (v, 0), 0 <= v <= 256, land on (1, 0) exactly
    when v >= t and on (0, 0) below it, and groups[(v - t) mod 256] holds
    their digits, so v = 0 and v = 256 share one group; 256 - t is the
    base -2^s negabase mask byte, 0xCC, 0xAA, 0xCC and 0xF0.  X^2 - 2X + 2
    has four carries and keeps the keyed table, t = 0."""
    p0, p1, _ = p.coeffs
    groups, carries, t = cns._carry_table(p0, p1, j)
    if p == NONCNS:
        assert (t, carries) == (0, ((0, 0), (-1, 1), (1, 0), (0, 1)))
        assert len(groups) == 4 * 256 and all(key % 256 == 0 for _, key in groups)
        return
    want_t, s = THRESHOLDS[p]
    assert (t, carries, len(groups)) == (want_t, ((0, 0), (1, 0)), 256)
    assert bytes([256 - t]) == negabase._mask_tables(s)[0][:1]
    for v in range(257):
        a0, a1, digits = v, 0, bytearray()
        for _ in range(j):
            q = a0 // p0
            digits.append(a0 - q * p0)
            a0, a1 = a1 - q * p1, -q
        assert (a0, a1) == ((1, 0) if v >= t else (0, 0))
        assert groups[(v - t) % 256] == digits


@pytest.mark.parametrize("p, j", BYTE_BASES[:4], ids=str)
@pytest.mark.parametrize("sign", [1, -1])
def test_byte_walks_equal_the_reference_loop(p, j, sign):
    """From every size of 33 to 300 bits, on budgets of 1, j - 1, j, j + 1,
    around the n j steps of the n groups taken, and around the length of
    the expansion (or the step that finds the cycle, over X^2 - 2X + 2)."""
    keep = cns._byte_base(*p.coeffs[:2])[1]
    rng = random.Random(33)
    for bits in range(33, 301, 7):
        z = sign * (rng.getrandbits(bits) | 1 << (bits - 1))
        n = (bits - keep) // 8
        need = least_budget(z, p, 10_000)
        budgets = {1, j - 1, j, j + 1, n * j - 1, n * j, n * j + 1, need - 1, need, need + 1}
        for max_steps in budgets:
            assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)


@pytest.mark.parametrize("p, j", BYTE_BASES, ids=str)
@pytest.mark.parametrize("sign", [1, -1])
def test_small_byte_walks_equal_the_reference_loop(p, j, sign):
    """From one bit below the size at which z reads a byte up to 40 bits,
    three integers a size, on budgets of 1, j - 1, j, j + 1, around the
    n j steps of the n groups taken, and around the step that decides z.
    Over X^2 - 2X + 2 about half the walks end in a cycle, whose residue
    is compared."""
    keep = cns._byte_base(*p.coeffs[:2])[1]
    rng = random.Random(keep * sign)
    cycles = 0
    for bits in range(keep + 7, 41):
        for _ in range(3):
            z = sign * (rng.getrandbits(bits) | 1 << (bits - 1))
            n = (bits - keep) // 8
            need = least_budget(z, p, 10_000)
            budgets = {1, j - 1, j, j + 1, n * j - 1, n * j, n * j + 1,
                       need - 1, need, need + 1}
            for max_steps in budgets - {0, -1}:
                assert cns_encode(z, p, max_steps) == reference_encode(z, p, max_steps)
            cycles += isinstance(cns_encode(z, p, need), CnsNotRepresentable)
    assert bool(cycles) == (p == NONCNS)


@pytest.mark.parametrize("p, j", BYTE_BASES, ids=str)
def test_kept_bits_put_every_landing_outside_the_box(p, j):
    """A landing at |z >> 8n| >= 2^(keep - 1) on any carry lies outside
    cycle_box, and one bit fewer lets some landing in: so z reads a byte
    from keep + 8 bits on, 14 over X^2 +- 2X + 2."""
    p0, p1, _ = p.coeffs
    keep = 8 if p0 == 16 else 6
    assert cns._byte_base(p0, p1) == (j, keep)
    box0, box1 = cycle_box(p0, p1)
    carries = cns._carry_table(p0, p1, j)[1]

    def inside(h):
        return any(abs(h + c0) <= box0 and abs(c1) <= box1 for c0, c1 in carries)

    top = 1 << (keep - 1)
    assert not inside(top) and not inside(-top)
    assert inside(top // 2) or inside(-top // 2)


def test_small_integers_build_no_digit_table():
    """Importing cnskit builds no carry table, nor does penney_standard(),
    nor any |z| < 2^13 over X^2 +- 2X + 2, as no such walk reads a byte;
    2^13 builds one.  In a fresh interpreter."""
    code = ("import cnskit\n"
            "from cnskit import cns\n"
            "sizes = [cns._carry_table.cache_info().currsize]\n"
            "cnskit.penney_standard()\n"
            "sizes.append(cns._carry_table.cache_info().currsize)\n"
            "p, nonrep = cnskit.IntPoly((2, 2, 1)), cnskit.IntPoly((2, -2, 1))\n"
            "for z in range(1 - 2**13, 2**13):\n"
            "    cns.cns_encode(z, p)\n"
            "    cns.cns_encode(z, nonrep)\n"
            "sizes.append(cns._carry_table.cache_info().currsize)\n"
            "cns.cns_encode(2**13, p)\n"
            "sizes.append(cns._carry_table.cache_info().currsize)\n"
            "print(sizes)\n")
    src = str(Path(cns.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0, 0, 1]\n", "")


def test_the_sextic_reads_bytes_by_the_carry_table(monkeypatch):
    """X^6 + 2X^3 + 2 at 2^11 bits walks X^2 + 2X + 2 on the carry table
    of 16 steps a byte; on budgets around its decision and on a budget a
    few groups long, the outcome is the plain loop's over the sextic."""
    tables = []
    carry_table = cns._carry_table

    def spy(*key):
        tables.append(key)
        return carry_table(*key)

    monkeypatch.setattr(cns, "_carry_table", spy)
    rng = random.Random(11)
    for sign in (1, -1):
        z = sign * (rng.getrandbits(2048) | 1 << 2047)
        need = least_budget(z, SEXTIC, 30_000)
        for max_steps in (need - 1, need, need + 1, 3 * 3 * 16 + 1):
            assert cns_encode(z, SEXTIC, max_steps) == reference_encode(z, SEXTIC, max_steps)
    assert set(tables) == {(2, 2, 16)}


def test_big_integer_digits_are_pinned():
    """The digits of one 2^14-bit integer, as the plain loop found them."""
    rng = random.Random(2023)
    z = -(rng.getrandbits(16384) | 1 << 16383)
    rep = cns_encode(z, P, 4 * 16384 + 64).representation
    text = rep.digit_string()
    assert len(text) == 32768
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "68131c590468a4fdb5ba4ab1bd4b6e496d23a8e14263c47e235bb16144539f75")
    assert cns_decode(rep).coeffs == (z, 0)


def test_every_periodic_state_lies_in_the_box():
    """Over every quadratic with complex roots and p0 <= 8, the walk from
    every start with |a_i| <= 60 ends in a cycle or at zero, whose states
    lie inside cycle_box(p0, p1).  A byte group is kept only because this
    holds."""
    reach = 60
    bases = [(p0, p1) for p0 in range(2, 9) for p1 in range(-5, 6) if p1 * p1 < 4 * p0]
    assert len(bases) == 59
    for p0, p1 in bases:
        box0, box1 = cycle_box(p0, p1)
        done: set[tuple[int, int]] = set()
        for start in itertools.product(range(-reach, reach + 1), repeat=2):
            path: dict[tuple[int, int], None] = {}
            state = start
            while state not in done and state not in path:
                path[state] = None
                q = state[0] // p0
                state = (state[1] - q * p1, -q)
            if state in path:
                cycle = list(path)[list(path).index(state):]
                assert all(abs(a0) <= box0 and abs(a1) <= box1
                           for a0, a1 in cycle), (p0, p1, cycle)
            done.update(path)


def reference_decode(digits, p):
    """Horner's rule on residue vectors, one digit at a time."""
    pc = p.coeffs
    d = len(pc) - 1
    acc = [0] * d
    for u in reversed(digits):
        h = acc[-1]
        acc = [u - h * pc[0]] + [acc[i - 1] - h * pc[i] for i in range(1, d)]
    return tuple(acc)


@pytest.mark.parametrize("p", [P, NONCNS, QUARTIC, IntPoly((3, 1, 1)), IntPoly((-2, 1, 1)),
                               IntPoly((3, 1)), IntPoly((2, 0, 0, 1))], ids=str)
def test_long_strings_reduce_as_horner(p):
    """Strings of one chunk, of several and of a partial top chunk reduce
    as Horner's rule and as polynomial division do; random digits mostly
    denote non-constant residues."""
    rng = random.Random(7)
    radix = abs(p.coeffs[0])
    d = len(p.coeffs) - 1
    k = cns._CHUNK_DIGITS
    for length in (k - 1, k, k + 1, 2 * k, 2 * k + 1, 4 * k - 3, 5000):
        digits = [rng.randrange(radix) for _ in range(length)]
        remainder = poly_divrem(IntPoly(digits), p)[1].coeffs
        assert reduce_digits(digits, p).coeffs == reference_decode(digits, p)
        assert reduce_digits(digits, p).coeffs == remainder + (0,) * (d - len(remainder))


@pytest.mark.parametrize("split", [1, 2, 3, 5])
def test_tiny_leaves_reduce_as_horner(monkeypatch, split):
    """Chunks of a few digits: every string of more than one chunk carries
    a residue from above."""
    monkeypatch.setattr(cns, "_CHUNK_DIGITS", split)
    rng = random.Random(split)
    for p in (P, QUARTIC, IntPoly((5, -3, 1))):
        radix = abs(p.coeffs[0])
        for length in range(0, 70):
            digits = tuple(rng.randrange(radix) for _ in range(length))
            assert reduce_digits(digits, p).coeffs == reference_decode(digits, p)


def test_short_strings_build_only_the_rows_they_read(monkeypatch):
    """A 3-digit string over X^2 + 10^1000 X + 2 builds a table of a few
    rows, not of a whole chunk: row j has coefficients near 10^(1000 j)."""
    p = IntPoly((2, 10 ** 1000, 1))
    digits = (1, 0, 1)
    table = cns._x_power_columns
    table.cache_clear()
    built = []

    def recording(p, rows):
        columns = table(p, rows)
        built.append(len(columns[0]))
        return columns

    monkeypatch.setattr(cns, "_x_power_columns", recording)
    assert reduce_digits(digits, p).coeffs == reference_decode(digits, p)
    # the string and the carried residue, rounded up to a power of two
    assert built and max(built) < 2 * (len(digits) + 2)
    assert table.cache_info().currsize == len(set(built))


# bases with X^period = 256 mod p, as (p, period, m), p = q(X^m), whose
# strings cns_decode reads by int.from_bytes; and bases without
POWER_BASES = [(P, 16, 1), (QUARTIC, 32, 2), (SEXTIC, 48, 3), (IntPoly((2, 0, 1)), 16, 2),
               (IntPoly((4, 0, 1)), 8, 2), (IntPoly((-2, 0, 1)), 16, 2), (NONCNS, 16, 1)]
HORNER_BASES = [IntPoly((3, 3, 1)), IntPoly((3, 1, 1)), IntPoly((2, 1, 1, 1)),
                IntPoly((4, 2, 1))]


def test_interleave_finds_the_constant_power():
    for p, period, m in POWER_BASES:
        assert cns._interleave(p)[:2] == (m, period)
        powers = [reference_decode((0,) * k + (1,), p) for k in range(period + 1)]
        t = (256,) + (0,) * (len(p.coeffs) - 2)
        assert powers.index(t) == period
    for p in HORNER_BASES:
        assert cns._interleave(p) is None
    # X^6 = -27 mod X^2 + 3X + 3 and X^3 = 8 mod X^2 + 2X + 4: constant, but not 256
    assert reference_decode((0,) * 6 + (1,), HORNER_BASES[0]) == (-27, 0)
    assert reference_decode((0,) * 3 + (1,), HORNER_BASES[3]) == (8, 0)


def test_a_huge_constant_term_skips_the_power_search(monkeypatch):
    """X^e = 256 mod q needs |q(0)| <= 256, so over X^2 + 3X + c, c of
    10^5 digits, _interleave returns None and computes no power of X: a
    string shorter than the parse length and one as long both decode by
    the chunked Horner rule, whose tables are the only powers of X built.
    The parse length is lowered to 4 so that the tables stay small."""
    c = 10 ** 100_000 + 7
    p = IntPoly((c, 3, 1))
    monkeypatch.setattr(cns, "_PARSE_MIN_DIGITS", 4)
    calls = []
    real = cns.x_powers_mod

    def spy(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(cns, "x_powers_mod", spy)
    cns._x_power_columns.cache_clear()
    for digits in ((5, c - 1), (1, 2, 0, c - 3, 1)):
        rep = Representation(CnsBase(p), digits)
        assert cns_decode(rep).coeffs == reference_decode(digits, p)
    assert cns._interleave(p) is None
    assert len(calls) == cns._x_power_columns.cache_info().misses == 2


@pytest.mark.parametrize("parse_min", [None, 1], ids=["short-by-reduction", "all-parsed"])
@pytest.mark.parametrize("p", [p for p, _, _ in POWER_BASES] + HORNER_BASES, ids=str)
def test_decode_routes_agree(monkeypatch, p, parse_min):
    """cns_decode, reduce_digits and Horner's rule agree on random strings
    of lengths 1, e - 1, e, e + 1, 300 and either side of the length
    from which cns_decode parses, e the period of the base's constant
    power (6 for a base without one); also when every string is parsed."""
    if parse_min is not None:
        monkeypatch.setattr(cns, "_PARSE_MIN_DIGITS", parse_min)
    rng = random.Random(20)
    radix = abs(p.coeffs[0])
    route = cns._interleave(p)
    e = route[0] * len(route[2][0]) if route else 6
    edge = cns._PARSE_MIN_DIGITS
    for length in sorted({1, max(e - 1, 1), e, e + 1, max(edge - 1, 1), edge, 300}):
        for _ in range(20):
            digits = [rng.randrange(radix) for _ in range(length)]
            if length > 1 and not digits[-1]:
                digits[-1] = 1
            want = reference_decode(digits, p)
            assert cns_decode(Representation(CnsBase(p), tuple(digits))).coeffs == want
            assert reduce_digits(digits, p).coeffs == want


@pytest.mark.parametrize("p", [P, QUARTIC, SEXTIC, IntPoly((2, 0, 1)), IntPoly((4, 0, 1))],
                         ids=str)
@pytest.mark.parametrize("sign", [1, -1])
def test_big_expansions_decode_to_their_integer(p, sign):
    """The expansions of a 2^14-bit integer of either sign read back to it
    by both routes."""
    rng = random.Random(16384)
    z = sign * (rng.getrandbits(16384) | 1 << 16383)
    degree = len(p.coeffs) - 1
    rep = cns_encode(z, p, 2 * degree * 16384 + 64).representation
    want = (z,) + (0,) * (degree - 1)
    assert cns_decode(rep).coeffs == want
    assert reduce_digits(rep.digits, p).coeffs == want


def test_only_bases_without_a_power_take_reduce_digits(monkeypatch):
    """The 2^14-bit trinomial expansion is read without reduce_digits;
    X^2 + 3X + 3 goes through it, and so does a string too short to
    parse."""
    calls = []
    real = cns._chunked_horner

    def spy(digits, p):
        calls.append(p)
        return real(digits, p)

    monkeypatch.setattr(cns, "_chunked_horner", spy)
    z = random.Random(6).getrandbits(16384) | 1 << 16383
    rep = cns_encode(z, SEXTIC, 6 * 16384 + 64).representation
    assert cns_decode(rep).coeffs == (z,) + (0,) * 5
    assert calls == []
    slow = HORNER_BASES[0]
    rep = cns_encode(-z, slow, 8 * 16384).representation
    assert cns_decode(rep).coeffs == (-z, 0)
    assert calls == [slow]
    short = cns_encode(-100, SEXTIC).representation
    assert short.length < cns._PARSE_MIN_DIGITS
    assert cns_decode(short).coeffs == (-100,) + (0,) * 5
    assert calls == [slow, SEXTIC]


def test_decode_is_exempt_from_the_int_string_limit():
    """With str/int conversions capped at 640 digits, 2^14-bit expansions
    and long random strings still decode: neither int.from_bytes nor the
    chunked Horner rule converts a string."""
    limit = sys.get_int_max_str_digits()
    rng = random.Random(640)
    z = -(rng.getrandbits(16384) | 1 << 16383)
    reps = [cns_encode(z, p, 6 * 16384 + 64).representation for p in (P, SEXTIC)]
    digits = tuple(rng.randrange(4) for _ in range(4999)) + (1,)
    long_rep = Representation(CnsBase(IntPoly((4, 2, 1))), digits)
    want = reference_decode(digits, long_rep.base.poly)
    sys.set_int_max_str_digits(640)
    try:
        assert [cns_decode(rep).coeffs[0] for rep in reps] == [z, z]
        assert cns_decode(long_rep).coeffs == want
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("p", [IntPoly((300, 1, 1)), IntPoly((300, 0, 1, 0, 1))], ids=str)
def test_wide_radix_keeps_tuple_digits(p):
    """Over X^2 + X + 300, on the plain kernel at every size, and over
    X^4 + X^2 + 300, walked on it, the digits are a tuple of ints, equal to
    the plain loop's, and decode back; bytes cannot hold a digit of 256."""
    rng = random.Random(300)
    for bits in (10, 1100, 3000):
        z = rng.getrandbits(bits) | 1 << (bits - 1)
        for value in (z, -z):
            outcome = cns_encode(value, p)
            assert outcome == reference_encode(value, p, DEFAULT_MAX_STEPS)
            rep = outcome.representation
            assert type(rep.digits) is tuple and all(type(d) is int for d in rep.digits)
            assert cns_decode(rep).constant_value() == value
    assert max(cns_encode(-10**6, p).representation.digits) >= 256
