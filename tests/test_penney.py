"""Block-substitution schemes: hypothesis checks, conversion, leading blocks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnskit.cns import CnsDigits, StepBudgetError, cns_encode
from cnskit import penney
from cnskit.negabase import FAST_PATH_BITS, encode_negabase, length_negabase, negabase_digits
from cnskit.penney import (MAX_BLOCK_DIGITS, PenneyScheme, SchemeViolation,
                           ViolationKind, build_scheme, convert, formula_length,
                           leading_digit_length, penney_standard, predicted_length,
                           scheme_pairs, substitute_digits)
from cnskit.poly import IntPoly, divides_xd_plus_c, x_power_mod

P = IntPoly((2, 2, 1))
COUNTER = IntPoly((8, 4, 1))


def test_standard_scheme_blocks():
    scheme = penney_standard()
    assert scheme.poly == P
    assert (scheme.c, scheme.d) == (4, 4)
    table = scheme.to_dict()["blocks"]
    assert table == ["0000", "0001", "1100", "1101"]
    assert scheme.block_lengths == (1, 1, 4, 4)


def test_build_scheme_validates_inputs():
    with pytest.raises(ValueError):
        build_scheme(P, 0, 4)
    with pytest.raises(ValueError):
        build_scheme(P, 4, 0)


@pytest.mark.parametrize("poly,c,d,kind", [
    ((2, 2, 2), 4, 4, ViolationKind.NOT_MONIC),
    ((1, 2, 1), 4, 4, ViolationKind.CONSTANT_TERM_TOO_SMALL),
    ((4, 4, 1), 16, 4, ViolationKind.REPEATED_ROOTS),
    ((2, 2, 1), 4, 3, ViolationKind.NO_DIVISIBILITY),
    ((4, 0, 1), 4, 2, ViolationKind.D_TOO_SMALL_FOR_DEGREE),
    ((8, 4, 1), 64, 4, ViolationKind.BLOCK_TOO_LONG),
])
def test_violations_in_fixed_order(poly, c, d, kind):
    result = build_scheme(IntPoly(poly), c, d)
    assert isinstance(result, SchemeViolation)
    assert result.kind is kind


def test_block_too_long_witness():
    result = build_scheme(COUNTER, 64, 4)
    assert isinstance(result, SchemeViolation)
    assert result.kind is ViolationKind.BLOCK_TOO_LONG
    assert result.digit == 56
    assert result.block_length == 7
    assert "56" in result.describe()


def test_exhausted_budget_is_not_a_violation():
    """Digit 2 needs 4 steps; one step decides nothing about it."""
    with pytest.raises(StepBudgetError, match="digit 2 within 1 steps"):
        build_scheme(P, 4, 4, max_steps=1)


def test_wider_windows_also_fail_for_hard_bases():
    """Divisibility pairs are necessary, not sufficient.  The standard base
    admits (64, 12) divisibility yet digit 52 needs 17 positions, and the
    hard quadratic fails its next divisibility pair (8^6, 12) as well."""
    result = build_scheme(P, 64, 12)
    assert isinstance(result, SchemeViolation)
    assert result.kind is ViolationKind.BLOCK_TOO_LONG
    assert (result.digit, result.block_length) == (52, 17)
    result = build_scheme(COUNTER, 8 ** 6, 12)
    assert isinstance(result, SchemeViolation)
    assert result.kind is ViolationKind.BLOCK_TOO_LONG
    assert (result.digit, result.block_length) == (225848, 15)


def test_block_digits_above_the_limit_raise_before_any_block():
    """X^2 + 2X + 2 divides X^100 + 4^25, a valid scheme of 4^25 blocks;
    its c * d is refused before the first digit is encoded.  The limit
    sits above the (8^6, 12) table, which still reports its violation."""
    assert MAX_BLOCK_DIGITS >= 2 ** 22 > 8 ** 6 * 12
    assert divides_xd_plus_c(P, 100, 4 ** 25)
    with pytest.raises(ValueError, match="c \\* d = 112589990684262400 block digits"):
        build_scheme(P, 4 ** 25, 100)
    with pytest.raises(ValueError, match="block digits"):
        build_scheme(P, 4 ** 9, 36)      # the smallest refused (4^k, 4k)
    # the hypotheses come first: a violation still wins over the limit
    assert build_scheme(P, 4 ** 25, 101).kind is ViolationKind.NO_DIVISIBILITY


def test_quartic_lift_scheme_builds():
    scheme = build_scheme(IntPoly((2, 0, 2, 0, 1)), 4, 8)
    assert isinstance(scheme, PenneyScheme)
    assert scheme.block_lengths == (1, 1, 7, 7)
    assert scheme.to_dict()["blocks"] == [
        "00000000", "00000001", "01010000", "01010001"]


def test_scheme_pairs():
    assert scheme_pairs(P, 64, 12) == [(4, 4), (64, 12)]
    assert scheme_pairs(COUNTER, 64, 8) == [(64, 4)]
    assert scheme_pairs(COUNTER, 8 ** 6, 12) == [(64, 4), (262144, 12)]


@pytest.mark.parametrize("p", [P, COUNTER, IntPoly((2, 0, 2, 0, 1)), IntPoly((2, 0, 0, 2, 0, 0, 1)),
                               IntPoly((3, 1)), IntPoly((-2, 1)), IntPoly((3, 1, 1))])
def test_scheme_pairs_is_a_loop_over_x_power_mod(p):
    """scheme_pairs walks the powers of X once; it finds exactly the pairs
    that squaring to each X^d mod p separately finds."""
    expected = []
    for d in range(1, 61):
        residue = x_power_mod(d, p).coeffs
        if len(residue) == 1 and 1 <= -residue[0] <= 10 ** 12:
            expected.append((-residue[0], d))
    assert scheme_pairs(p, 10 ** 12, 60) == expected


def test_round_trip_via_dict():
    scheme = penney_standard()
    rebuilt = PenneyScheme.from_dict(scheme.to_dict())
    assert rebuilt == scheme


def test_from_dict_rejects_tampering():
    data = penney_standard().to_dict()
    bad = dict(data)
    bad["blocks"] = list(data["blocks"])
    bad["blocks"][2] = "1101"            # decodes to 3, not 2
    with pytest.raises(ValueError):
        PenneyScheme.from_dict(bad)
    short = dict(data)
    short["blocks"] = data["blocks"][:3]
    with pytest.raises(ValueError):
        PenneyScheme.from_dict(short)


def _standard_data(**changes):
    data = penney_standard().to_dict()
    data.update(changes)
    return data


@pytest.mark.parametrize("data", [
    _standard_data(blocks=["0000", "00001", "1100", "1101"]),   # wrong width
    _standard_data(blocks=["0000", "0002", "1100", "1101"]),    # digit 2 over radix 2
    _standard_data(blocks=["0000", "0001", "1101", "1101"]),    # block 2 denotes 3
    _standard_data(blocks=["0000", "0001", "1100"]),            # three blocks for c = 4
    _standard_data(c=0, blocks=[]),
    _standard_data(d=0),
    _standard_data(poly="2,2,2"),                               # not monic
    _standard_data(d=3, blocks=["000", "001", "100", "101"]),   # X^3 + 4 not divisible
    {"poly": "2,2,1", "c": 4, "d": 4},                          # no blocks key
    _standard_data(poly="2,x,1"),
], ids=["width", "digit_set", "value", "count", "c_below_1", "d_below_1",
        "not_monic", "no_divisibility", "missing_key", "bad_poly_text"])
def test_from_dict_rejects(data):
    with pytest.raises(ValueError):
        PenneyScheme.from_dict(data)


def test_quartic_scheme_round_trips_via_dict():
    scheme = build_scheme(IntPoly((2, 0, 2, 0, 1)), 4, 8)
    rebuilt = PenneyScheme.from_dict(scheme.to_dict())
    assert rebuilt == scheme
    assert rebuilt.block_lengths == (1, 1, 7, 7)


def test_convert_known_values():
    scheme = penney_standard()
    assert convert(0, scheme).digit_string() == "0"
    assert convert(2, scheme).digit_string() == "1100"
    assert convert(4, scheme).digit_string() == "111010000"
    assert convert(7, scheme).digit_string() == "111011101"
    assert convert(-1, scheme).digit_string() == "11101"


def test_leading_digit_length_values():
    scheme = penney_standard()
    assert leading_digit_length(0, scheme) == 1
    assert leading_digit_length(1, scheme) == 1
    assert leading_digit_length(2, scheme) == 4
    assert leading_digit_length(4, scheme) == 1
    assert leading_digit_length(20, scheme) == 4
    assert leading_digit_length(410, scheme) == 4
    assert leading_digit_length(820, scheme) == 1


def test_leading_digit_length_image_is_one_and_four():
    scheme = penney_standard()
    assert {leading_digit_length(z, scheme)
            for z in range(-2000, 2001)} == {1, 4}


def test_predicted_length_formula():
    scheme = penney_standard()
    for z in (-50, -1, 0, 1, 2, 3, 4, 20, 410, 820):
        expected = (scheme.d * (length_negabase(z, scheme.c) - 1)
                    + leading_digit_length(z, scheme))
        assert predicted_length(z, scheme) == expected


def test_convert_and_predicted_length_read_raw_digits(monkeypatch):
    """Both read the base -c digits without encode_negabase, so neither
    builds a Representation only to read its digits; their values are
    those of block substitution over encode_negabase's digits."""
    scheme = penney_standard()
    expected = {z: block_by_block(z, scheme) for z in range(-300, 301)}

    def refuse(z, b):
        raise AssertionError("encode_negabase called")

    monkeypatch.setattr(penney, "encode_negabase", refuse)
    for z, digits in expected.items():
        assert tuple(convert(z, scheme).digits) == digits
        assert predicted_length(z, scheme) == len(digits)


@given(st.integers(-10**6, 10**6))
@settings(max_examples=400)
def test_convert_matches_direct_encode(z):
    scheme = penney_standard()
    outcome = cns_encode(z, P)
    assert isinstance(outcome, CnsDigits)
    assert convert(z, scheme).digits == outcome.representation.digits
    assert predicted_length(z, scheme) == outcome.representation.length


@given(st.integers(-10**5, 10**5))
@settings(max_examples=200)
def test_quartic_lift_scheme_converts_correctly(z):
    quartic = IntPoly((2, 0, 2, 0, 1))
    scheme = build_scheme(quartic, 4, 8)
    assert isinstance(scheme, PenneyScheme)
    outcome = cns_encode(z, quartic)
    assert convert(z, scheme).digits == outcome.representation.digits


def test_leading_block_of_negabase_msd():
    # the leading block length is the expansion length of the top -c digit
    scheme = penney_standard()
    for z in range(1, 500):
        msd = encode_negabase(z, 4).digits[-1]
        assert leading_digit_length(z, scheme) == scheme.block_lengths[msd]


def block_by_block(z, scheme):
    """Block substitution one base -c digit at a time, the top block's
    padding popped zero by zero."""
    out = []
    for v in encode_negabase(z, scheme.c).digits:
        out.extend(scheme.blocks[v])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@pytest.mark.parametrize("poly, c, d", [((2, 2, 1), 4, 4), ((2, 0, 2, 0, 1), 4, 8)])
def test_raw_digit_functions_are_convert_and_predicted_length(poly, c, d):
    """substitute_digits and formula_length on z's raw base -c digits give
    convert's digits and predicted_length, and both agree with the
    block-by-block loop: every |z| <= 2000 and integers above
    FAST_PATH_BITS bits, whose digits take the mask path."""
    scheme = build_scheme(IntPoly(poly), c, d)
    rng = random.Random(29)
    big = [sign * (rng.getrandbits(bits) | 1 << (bits - 1))
           for bits in (FAST_PATH_BITS + 1, FAST_PATH_BITS + 9, 2**12) for sign in (1, -1)]
    for z in [*range(-2000, 2001), *big]:
        neg = negabase_digits(z, c)
        digits = substitute_digits(neg, scheme)
        assert digits == convert(z, scheme).digits
        assert tuple(digits) == block_by_block(z, scheme), z
        assert formula_length(neg, scheme) == predicted_length(z, scheme) == len(digits), z
    # 0 has no base -c digits, and its expansion is the single digit 0
    assert len(negabase_digits(0, c)) == 0
    assert substitute_digits(negabase_digits(0, c), scheme) == b"\0"
    assert formula_length(negabase_digits(0, c), scheme) == 1
    assert convert(0, scheme).digit_string() == "0"


def seeded_values(seed):
    rng = random.Random(seed)
    values = list(range(-300, 301)) + [rng.randint(-10**5, 10**5) for _ in range(2000)]
    for bits in (2**10, 2**14):
        values += [sign * (rng.getrandbits(bits) | 1 << (bits - 1)) for sign in (1, -1)]
    return values


@pytest.mark.parametrize("poly, c, d", [((2, 2, 1), 4, 4), ((2, 0, 2, 0, 1), 4, 8)])
def test_convert_equals_block_by_block_substitution(poly, c, d):
    """Seeded |z| <= 10^5 and 2^10- and 2^14-bit integers: convert's
    translates give the digits of the block-by-block loop, as bytes."""
    scheme = build_scheme(IntPoly(poly), c, d)
    for z in seeded_values(c * d):
        rep = convert(z, scheme)
        assert type(rep.digits) is bytes
        assert tuple(rep.digits) == block_by_block(z, scheme), z


def test_a_scheme_that_holds_with_c_above_256_raises(monkeypatch):
    """convert reads base -c digits as bytes.  No base seen builds a scheme
    with c > 256, so the bound is lowered to 3 to reach the refusal, which
    comes only once every hypothesis has held."""
    monkeypatch.setattr(penney, "BYTE_RADIX", 3)
    with pytest.raises(ValueError, match="c = 4 holds, .* c may be at most 3"):
        build_scheme(P, 4, 4)
    assert build_scheme(P, 4, 3).kind is ViolationKind.NO_DIVISIBILITY
