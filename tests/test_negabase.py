"""Negative-base expansions: round trips, length structure, extremal integers."""

import random
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnskit import negabase
from cnskit.cns import decode_negabase
from cnskit.negabase import (CnsBase, NegaBase, Representation, encode_negabase,
                             extremal_of_length, format_digits,
                             length_negabase, negabase_digits, parse_digits)
from cnskit.poly import IntPoly, poly_eval

BASES = (2, 3, 4, 10)


def digits_of(z, b):
    return encode_negabase(z, b).digit_string()


def test_known_base_minus_4_strings():
    assert digits_of(4, 4) == "130"
    assert digits_of(820, 4) == "1303030"
    assert digits_of(410, 4) == "22222"
    assert digits_of(20, 4) == "230"
    assert digits_of(0, 4) == "0"
    assert digits_of(-1, 4) == "13"
    assert digits_of(-12, 4) == "30"


def test_base_validation():
    with pytest.raises(ValueError):
        encode_negabase(5, 1)
    with pytest.raises(ValueError):
        NegaBase(0)


def test_decode_known_values():
    base = NegaBase(4)
    assert decode_negabase(Representation.from_string(base, "230")) == 20
    assert decode_negabase(Representation.from_string(base, "22222")) == 410
    assert decode_negabase(Representation.from_string(base, "0")) == 0


def test_decode_rejects_cns_representation():
    rep = Representation(CnsBase(IntPoly((2, 2, 1))), (1, 0, 1, 1))
    with pytest.raises(ValueError):
        decode_negabase(rep)


def test_representation_validation():
    base = NegaBase(4)
    with pytest.raises(ValueError):
        Representation(base, ())
    # a digit out of range; the first of several is named
    for digits, first in (((4,), 4), ([4], 4), (iter((1, 4)), 4), ((-1, 2), -1),
                          ((1, 5, -2, 7), 5), ((True, 9, 4), 9)):
        with pytest.raises(ValueError, match=f"^digit {first} outside 0\\.\\.3$"):
            Representation(base, digits)
    with pytest.raises(ValueError):
        Representation(base, (1, 0))     # zero MSD
    assert Representation(base, (0,)).digit_string() == "0"


class Colour(IntEnum):
    RED = 1
    BLUE = 3


def checked_loop(base, digits):
    """The constructor's checks as one Python step per digit: the stored
    digits, as bytes up to radix 256, or the ValueError that names the
    first bad digit."""
    digits = tuple(int(d) for d in digits)
    if not digits:
        raise ValueError("a representation needs at least one digit")
    radix = base.radix
    for d in digits:
        if not 0 <= d < radix:
            raise ValueError(f"digit {d} outside 0..{radix - 1}")
    if len(digits) > 1 and digits[-1] == 0:
        raise ValueError("most significant digit must be nonzero")
    return bytes(digits) if radix <= 256 else digits


def outcome(build):
    """("ok", the stored digits), or the error's type name and text."""
    try:
        return "ok", build()
    except (TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


HUGE = CnsBase(IntPoly((10**1000, 0, 1)))
LONG = tuple(random.Random(1).randrange(4) for _ in range(30_000)) + (1,)


@pytest.mark.parametrize("base, make", [
    (NegaBase(4), lambda: (1, 0, 3)),
    (NegaBase(4), lambda: [1, 0, 3]),
    (NegaBase(4), lambda: (d for d in (1, 0, 3))),
    (NegaBase(4), lambda: "301"),
    (NegaBase(4), lambda: "130"),
    (NegaBase(4), lambda: (True, False, True)),
    (NegaBase(4), lambda: (1, True)),
    (NegaBase(4), lambda: (Colour.BLUE, 0, Colour.RED)),
    (NegaBase(4), lambda: (2.0, 3.0)),
    (NegaBase(4), lambda: (-1, 2)),
    (NegaBase(4), lambda: (4,)),
    (NegaBase(4), lambda: (1, 5, -2, 7)),
    (NegaBase(4), lambda: (1, -2, 5, 7)),
    (NegaBase(4), lambda: [3, 9, 4]),
    (NegaBase(4), lambda: ()),
    (NegaBase(4), lambda: []),
    (NegaBase(4), lambda: (1, 0)),
    (NegaBase(4), lambda: (0,)),
    (NegaBase(4), lambda: ("a",)),
    (NegaBase(4), lambda: (None,)),
    (NegaBase(4), lambda: LONG),
    (NegaBase(4), lambda: LONG[:-1] + (4,)),
    (NegaBase(2), lambda: (1, 0, 1, 2, 3)),
    (HUGE, lambda: (10**1000 - 1, 5, 10**999)),
    (HUGE, lambda: (0, 10**1000)),
    (HUGE, lambda: (1, -10**1000, 10**1000)),
])
def test_constructor_equals_the_per_digit_loop(base, make):
    """Representation stores what the per-digit loop stores, as bytes up
    to radix 256 and otherwise as a tuple of plain ints, and refuses what
    it refuses with the same text."""
    kind, got = outcome(lambda: Representation(base, make()).digits)
    assert (kind, got) == outcome(lambda: checked_loop(base, make()))
    if kind == "ok":
        assert type(got) is (bytes if base.radix <= 256 else tuple)
        assert all(type(d) is int for d in got)


def test_digit_string_formats():
    assert format_digits((0, 3, 1)) == "130"
    assert format_digits((7, 0, 13)) == "13.0.7"
    assert format_digits(b"\0\3\1") == "130"
    assert format_digits(b"\7\0\x0d") == "13.0.7"
    assert parse_digits("130") == b"\0\3\1"
    assert parse_digits("13.0.7") == (7, 0, 13)
    with pytest.raises(ValueError):
        parse_digits("")
    with pytest.raises(ValueError):
        parse_digits("1.-2")


def test_pretty():
    assert encode_negabase(4, 4).pretty() == "(130)_-4"


@pytest.mark.parametrize("b", BASES)
def test_round_trip_small(b):
    for z in range(-2000, 2001):
        assert decode_negabase(encode_negabase(z, b)) == z


@given(st.integers(-10**18, 10**18), st.sampled_from(BASES))
def test_round_trip_random(z, b):
    rep = encode_negabase(z, b)
    assert decode_negabase(rep) == z
    assert max(rep.digits) < b
    if z != 0:
        assert rep.digits[-1] != 0


@pytest.mark.parametrize("b", BASES)
def test_length_parity(b):
    # positive integers have odd length, negative even, zero is length 1
    for n in range(1, 3000):
        assert length_negabase(n, b) % 2 == 1
        assert length_negabase(-n, b) % 2 == 0
    assert length_negabase(0, b) == 1


@pytest.mark.parametrize("b", (2, 3, 4))
def test_length_monotone_steps(b):
    prev_pos = length_negabase(0, b)
    prev_neg = length_negabase(-1, b)
    for n in range(1, 5000):
        cur = length_negabase(n, b)
        assert cur - prev_pos in (0, 2)
        prev_pos = cur
    for n in range(2, 5000):
        cur = length_negabase(-n, b)
        assert cur - prev_neg in (0, 2)
        prev_neg = cur


def test_lengths_cover_initial_segment():
    for b in (2, 3, 4):
        seen = {length_negabase(z, b) for z in range(-b**7, b**7 + 1)}
        assert set(range(1, 8)) <= seen


@pytest.mark.parametrize("b", (2, 3, 4))
@pytest.mark.parametrize("length", (1, 2, 3, 4, 5, 6))
def test_extremal_matches_scan(b, length):
    lo, hi = extremal_of_length(b, length)
    assert length_negabase(lo, b) == length
    assert length_negabase(hi, b) == length
    if length % 2:
        assert 1 <= lo <= hi
        assert length_negabase(hi + 1, b) == length + 2
        if length > 1:
            assert length_negabase(lo - 1, b) == length - 2
    else:
        assert lo <= hi <= -1
        assert length_negabase(lo - 1, b) == length + 2
        assert length_negabase(hi + 1, b) == max(length - 2, 1)
    # everything between the ends has exactly this length
    span = range(lo, hi + 1)
    if len(span) <= 5000:
        assert all(length_negabase(z, b) == length for z in span)


def test_extremal_known_values():
    assert extremal_of_length(4, 1) == (1, 3)
    assert extremal_of_length(4, 3) == (4, 51)
    assert extremal_of_length(4, 2) == (-12, -1)
    assert extremal_of_length(4, 4) == (-204, -13)
    assert extremal_of_length(4, 5) == (52, 819)
    assert extremal_of_length(4, 7) == (820, 13107)


def test_sum_length_bound_is_max_plus_two_not_one():
    """The claimed bound max(len x, len y) + 1 for sums is false: two
    single-digit values can cross a length boundary by two positions at
    once (3 + 3 = 6 = (132) in base -4).  The true observed bound is
    max + 2; both facts are pinned here."""
    assert length_negabase(3, 4) == 1
    assert length_negabase(6, 4) == 3      # max + 2, violating max + 1
    assert length_negabase(1, 4) == 1
    assert length_negabase(4, 4) == 3
    assert length_negabase(-12, 4) == 2
    assert length_negabase(-24, 4) == 4    # negative pairs cross too
    for b in BASES:
        for x in range(-150, 151):
            for y in range(-150, 151):
                bound = max(length_negabase(x, b), length_negabase(y, b)) + 2
                assert length_negabase(x + y, b) <= bound


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
       st.sampled_from(BASES))
@settings(max_examples=300)
def test_sum_length_bound_random(x, y, b):
    bound = max(length_negabase(x, b), length_negabase(y, b)) + 2
    assert length_negabase(x + y, b) <= bound


@given(st.integers(-10**9, 10**9).filter(bool),
       st.integers(-10**9, 10**9).filter(bool), st.sampled_from(BASES))
@settings(max_examples=300)
def test_product_length_offset(x, y, b):
    offset = (length_negabase(x * y, b)
              - length_negabase(x, b) - length_negabase(y, b))
    assert offset in (-3, -1, 1)


def plain_negabase_digits(z, b):
    """The base -b digits of z, one division at a time, as Representation
    stores them: bytes for b <= 256, else a tuple."""
    digits = []
    while z:
        r = z % b
        digits.append(r)
        z = (r - z) // b
    return (bytes if b <= 256 else tuple)(digits or [0])


@pytest.mark.parametrize("b", [2, 4, 10, 300])
def test_raw_digits_are_the_expansion_without_its_zero(b):
    """negabase_digits holds encode_negabase's digits, in a buffer of its
    own, and none for 0."""
    assert not negabase_digits(0, b)
    for z in (*range(-200, 201), 3**400, -(5**300)):
        digits = negabase_digits(z, b)
        assert isinstance(digits, bytearray if b <= 256 else list)
        assert tuple(digits or [0]) == tuple(encode_negabase(z, b).digits)


@pytest.mark.parametrize("b", BASES + (16,))
def test_big_integers_equal_the_plain_loop(b):
    rng = random.Random(b)
    for bits in (negabase.FAST_PATH_BITS + 1, 300, 1000, 4000, 12_000):
        for _ in range(4):
            z = rng.getrandbits(bits) | 1 << (bits - 1)
            for value in (z, -z):
                assert encode_negabase(value, b).digits == plain_negabase_digits(value, b)


@pytest.mark.parametrize("min_bits", ["module", 0])
@pytest.mark.parametrize("b", BASES)
def test_size_bound_edges_equal_the_plain_loop(monkeypatch, b, min_bits):
    """Every z within b^2 of 0, +-b^8, +-2 b^8, +-b^64 and
    +-2^FAST_PATH_BITS, where the digit count turns or z crosses the size
    bound, at the module's bound and with the bound at 0, so that bases 2
    and 4 take the mask from every size and 3 and 10 the plain loop."""
    if min_bits != "module":
        monkeypatch.setattr(negabase, "FAST_PATH_BITS", min_bits)
    for edge in (0, b**8, 2 * b**8, b**64, 2**negabase.FAST_PATH_BITS):
        for centre in {edge, -edge}:
            for z in range(centre - b * b, centre + b * b + 1):
                assert encode_negabase(z, b).digits == plain_negabase_digits(z, b)


MASK_BASES = (2, 4, 16, 256)


def mask_edge_values(b):
    """Integers where the mask's window is tightest or its bytes turn:
    both ends of every expansion length near the size bound, +-1; the
    extremes of FAST_PATH_BITS +- 1 bits; +-(b^k - 1) and +-b^k over
    several bytes."""
    s = b.bit_length() - 1
    first = negabase.FAST_PATH_BITS // s
    for length in range(first - 2, first + 48 // s + 4):
        for end in extremal_of_length(b, length):
            yield from (end - 1, end, end + 1)
    for bits in (negabase.FAST_PATH_BITS - 1, negabase.FAST_PATH_BITS,
                 negabase.FAST_PATH_BITS + 1):
        for z in (1 << (bits - 1), (1 << bits) - 1):
            yield from (z, -z)
    for k in range(first - 1, first + 40 // s + 2):
        for z in (b**k - 1, b**k):
            yield from (z, -z)


@pytest.mark.parametrize("b", MASK_BASES)
def test_mask_edges_equal_the_plain_loop(b):
    for z in mask_edge_values(b):
        assert encode_negabase(z, b).digits == plain_negabase_digits(z, b), z


@pytest.mark.parametrize("b", MASK_BASES + (3, 8, 10))
def test_only_bases_2_to_the_s_with_s_dividing_8_take_the_mask(monkeypatch, b):
    """Above FAST_PATH_BITS, b in {2, 4, 16, 256} reads its digits through
    the mask and every other b takes the plain loop, with the same digits.
    At or below the bound nothing takes the mask."""
    masked = []

    def spy(z, s):
        masked.append(z)
        return mask(z, s)

    mask = negabase._masked_digits
    monkeypatch.setattr(negabase, "_masked_digits", spy)
    rng = random.Random(b)
    sizes = (1, 100, negabase.FAST_PATH_BITS, negabase.FAST_PATH_BITS + 1, 3000)
    values = [z for bits in sizes
              for z in (1 << (bits - 1), -(1 << (bits - 1) | rng.getrandbits(bits)))]
    for z in values:
        assert encode_negabase(z, b).digits == plain_negabase_digits(z, b)
    big = [z for z in values if z.bit_length() > negabase.FAST_PATH_BITS]
    assert masked == (big if b in MASK_BASES else [])


def random_digits(rng, b, length):
    digits = [rng.randrange(b) for _ in range(length)]
    if length > 1 and not digits[-1]:
        digits[-1] = 1
    return digits


def pieces_eval(digits, x, size=10_000):
    """poly_eval on pieces of size digits, joined by powers of x: Horner's
    rule on 10^5 digits alone takes seconds."""
    return sum(poly_eval(IntPoly(digits[i:i + size]), x) * x ** i
               for i in range(0, len(digits), size))


@pytest.mark.parametrize("b", [2, 4, 8, 16, 32, 3, 10, 257, 1000])
def test_decode_equals_horner(b):
    """Every string of length 1 to 300, and one of 10^5 digits, decodes
    to its value at -b, also while str/int conversions of more than 640
    digits are refused: neither the int.from_bytes reads for b = 2, 4, 16
    nor the chunked reduction over X + b converts a string.  Beyond
    b = 256 the digits are a tuple."""
    rng = random.Random(b)
    limit = sys.get_int_max_str_digits()
    try:
        for cap in (limit, 640):
            sys.set_int_max_str_digits(cap)
            for length in range(1, 301):
                digits = random_digits(rng, b, length)
                rep = Representation(NegaBase(b), tuple(digits))
                assert decode_negabase(rep) == poly_eval(IntPoly(digits), -b)
        digits = random_digits(rng, b, 10**5)
        rep = Representation(NegaBase(b), tuple(digits))
        assert decode_negabase(rep) == pieces_eval(digits, -b)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [(1, 4, 2), (1, 0, 300), (0,) * 3, (2, 0), (), (3, 0, 0)],
                         ids=["out_of_range", "out_of_bytes", "zeros", "leading_zero",
                              "empty", "leading_zeros"])
@pytest.mark.parametrize("base", [NegaBase(4), CnsBase(IntPoly((2, 2, 1)))], ids=str)
def test_bytes_and_list_digits_fail_alike(base, digits):
    """A bytes string and the list of the same digits give the same stored
    digits or the same ValueError text; a byte string cannot hold 300."""
    def build(kind):
        try:
            return "ok", Representation(base, kind(digits)).digits
        except ValueError as exc:
            return "error", str(exc)

    want = build(list)
    assert want == build(tuple)
    if max(digits, default=0) < 256:
        assert want == build(bytes) == build(bytearray)
    assert want[0] == "error"


def test_valid_bytes_are_stored_as_they_are():
    digits = bytes(random.Random(4).randrange(4) for _ in range(5000)) + b"\3"
    rep = Representation(NegaBase(4), digits)
    assert rep.digits is digits
    rep = Representation(NegaBase(4), bytearray(digits))
    assert type(rep.digits) is bytes and rep.digits == digits
    with pytest.raises(ValueError, match=r"^digit 4 outside 0\.\.3$"):
        Representation(NegaBase(4), digits[:100] + b"\4\5\3")


@pytest.mark.parametrize("b", [257, 300, 1000])
def test_wide_bases_keep_tuple_digits(b):
    """Base -b with b > 256 stores a tuple of ints, from small and big
    integers alike, and reads back; so does a dotted digit string."""
    rng = random.Random(b)
    for bits in (1, 20, 300, 3000):
        for z in (rng.getrandbits(bits), -rng.getrandbits(bits) - 1):
            rep = encode_negabase(z, b)
            assert type(rep.digits) is tuple
            assert rep.digits == plain_negabase_digits(z, b)
            assert decode_negabase(rep) == z
            again = Representation.from_string(NegaBase(b), rep.digit_string())
            assert again == rep and type(again.digits) is tuple


def mask_window_values(b):
    """z near +-2^k for every k from 1 to 80: the mask's window grows a
    16-bit pair each time bits(z) + 31 passes a multiple of 16."""
    for k in range(1, 81):
        for z in (1 << k) - 1, 1 << k, (1 << k) + 1, (1 << k) + b - 1:
            yield from (z, -z)


@pytest.mark.parametrize("b", MASK_BASES)
def test_masked_digits_equal_the_plain_loop_at_the_window_edges(b):
    """_masked_digits, called directly on sizes far below the bound that
    routes to it, writes the bytes of the plain loop."""
    s = b.bit_length() - 1
    for z in mask_window_values(b):
        digits = negabase._masked_digits(z, s)
        assert type(digits) is bytearray
        assert bytes(digits) == plain_negabase_digits(z, b), z


def reference_format(digits):
    msd_first = list(reversed(digits))
    if max(msd_first) <= 9:
        return "".join(str(d) for d in msd_first)
    return ".".join(str(d) for d in msd_first)


def reference_parse(text):
    text = text.strip()
    if not text:
        raise ValueError("empty digit string")
    tokens = text.split(".") if "." in text else list(text)
    try:
        msd_first = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"bad digit string {text!r}") from exc
    if any(d < 0 for d in msd_first):
        raise ValueError(f"negative digit in {text!r}")
    return tuple(reversed(msd_first))


@pytest.mark.parametrize("b", [2, 4, 10, 11, 256])
def test_digit_text_equals_the_per_digit_loop(b):
    """format_digits and parse_digits give the per-digit loop's text and
    digits, plain or dotted, for bytes and tuples alike."""
    rng = random.Random(b)
    for length in (1, 2, 10, 33_000):
        digits = random_digits(rng, b, length)
        text = reference_format(digits)
        assert format_digits(bytes(digits)) == format_digits(tuple(digits)) == text
        assert tuple(parse_digits(text)) == reference_parse(text)
        if length > 1:  # a single digit above 9 is written without a dot
            assert reference_parse(text) == tuple(digits)
            assert Representation.from_string(NegaBase(b), text).digit_string() == text


@pytest.mark.parametrize("text", ["", "  ", "12a", "1.-2", "1..2", "-1", "1 2", "x",
                                  " 0012 ", "٣٤", "1.٣", "+1.2", "1_0"])
def test_digit_text_errors_equal_the_per_digit_loop(text):
    def attempt(parse):
        try:
            return "ok", tuple(parse(text))
        except ValueError as exc:
            return "error", str(exc)

    assert attempt(parse_digits) == attempt(reference_parse)
