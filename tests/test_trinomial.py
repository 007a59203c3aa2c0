"""Length sequences and zero-interleaved lifting onto composed bases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnskit.cns import CnsDigits, cns_encode, cns_length
from cnskit.negabase import CnsBase, NegaBase, Representation
from cnskit.poly import IntPoly, compose_x_power
from cnskit.trinomial import (SequenceConsistencyError, SequenceId,
                              lift_representation, seq_a, seq_b, seq_c,
                              seq_values, trinomial_length_set)
from reference_loop import reference_encode

P = IntPoly((2, 2, 1))

A_PREFIX = [0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21]
B_PREFIX = [1, 7, 9, 15, 17, 23, 25, 31, 33]
C_PREFIX = [1, 7, 11, 29, 37, 67, 79, 121, 137]


def test_seq_a_prefix():
    assert [seq_a(n) for n in range(len(A_PREFIX))] == A_PREFIX


def test_seq_a_is_zero_one_mod_four():
    for n in range(1, 500):
        assert seq_a(n) % 4 in (0, 1)
        assert seq_a(n) > seq_a(n - 1)


def test_seq_c_prefix():
    assert [seq_c(n) for n in range(1, len(C_PREFIX) + 1)] == C_PREFIX
    assert seq_c(3) == 11


def test_seq_b_prefix():
    assert [seq_b(n) for n in range(len(B_PREFIX))] == B_PREFIX


def test_seq_b_double_identity():
    # b(n) = 2 a(n+1) - 1 ties the square root form to the step recurrence
    for n in range(0, 101):
        assert seq_b(n) == 2 * seq_a(n + 1) - 1


def test_seq_b_is_one_seven_mod_eight():
    for n in range(0, 200):
        assert seq_b(n) % 8 in (1, 7)


def test_seq_values_dispatch():
    assert seq_values(SequenceId.A, 5) == [0, 1, 4, 5, 8]
    assert seq_values(SequenceId.B, 5) == [1, 7, 9, 15, 17]
    assert seq_values(SequenceId.C, 5) == [1, 7, 11, 29, 37]
    assert seq_values(SequenceId.A, 0) == []
    with pytest.raises(ValueError):
        seq_values(SequenceId.A, -1)


def test_trinomial_length_set():
    assert trinomial_length_set(1, 6) == [1, 4, 5, 8, 9, 12][:6]
    assert trinomial_length_set(2, 5) == [1, 7, 9, 15, 17]
    assert trinomial_length_set(3, 4) == [1, 10, 13, 22]


def test_lift_known_value():
    rep = cns_encode(3, P).representation
    lifted = lift_representation(rep, 2)
    assert lifted.digit_string() == "1010001"
    assert isinstance(lifted.base, CnsBase)
    assert lifted.base.poly == compose_x_power(P, 2)
    # one digit, zero included, is its own lift
    for digits in ("0", "1"):
        rep = Representation.from_string(CnsBase(P), digits)
        for k in (2, 3):
            lifted = lift_representation(rep, k)
            assert lifted.digit_string() == digits
            assert lifted.base.poly == compose_x_power(P, k)


def test_lift_validates():
    rep = cns_encode(3, P).representation
    with pytest.raises(ValueError):
        lift_representation(rep, 1)
    nega = Representation(NegaBase(4), (0, 3, 1))
    with pytest.raises(ValueError):
        lift_representation(nega, 2)


@pytest.mark.parametrize("m", (2, 3))
def test_lift_matches_direct_encode(m):
    """Over X^2 + 2X + 2, whose digits are bytes, and over X^2 + X + 300,
    whose digits are a tuple."""
    for q in (P, IntPoly((300, 1, 1))):
        big = compose_x_power(q, m)
        for z in range(-400, 401):
            rep = cns_encode(z, q).representation
            lifted = lift_representation(rep, m)
            direct = reference_encode(z, big, 10_000)
            assert isinstance(direct, CnsDigits)
            assert lifted.digits == direct.representation.digits
            assert lifted.length == m * (rep.length - 1) + 1


@pytest.mark.parametrize("m", (2, 3))
def test_composed_base_lengths_in_predicted_set(m):
    big = compose_x_power(P, m)
    allowed = set(trinomial_length_set(m, 60))
    seen = set()
    for z in range(-1000, 1001):
        seen.add(cns_length(z, big))
    assert seen <= allowed


def test_composed_base_first_lengths_match_square_root_sequence():
    big = compose_x_power(P, 2)
    seen = sorted({cns_length(z, big) for z in range(-1000, 1001)})
    targets = [seq_b(n) for n in range(14)]
    assert set(seen) <= set(targets)
    # an exact prefix up to the first member whose smallest witness lies
    # outside the sweep: 47 is first attained at -1229, while 49 already
    # appears at 820
    assert seen[:11] == targets[:11]
    assert seen[11] == 49
    assert cns_length(-1229, big) == 47


@given(st.integers(-10**9, 10**9), st.sampled_from((2, 3, 4)))
@settings(max_examples=150)
def test_lift_round_trip_random(z, m):
    rep = cns_encode(z, P).representation
    lifted = lift_representation(rep, m)
    direct = reference_encode(z, compose_x_power(P, m), 10_000)
    assert isinstance(direct, CnsDigits)
    assert lifted.digits == direct.representation.digits


def test_sequence_consistency_guard():
    assert issubclass(SequenceConsistencyError, ArithmeticError)
    # the radicand stays a perfect square at every index we rely on; the
    # guard exists so a future closed-form edit cannot silently round
    for n in range(300):
        seq_b(n)
