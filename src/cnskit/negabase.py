"""Negative-base digit expansions and the shared digit-string machinery.

A Representation pairs a base descriptor (negative integer base, or monic
polynomial base) with a digit sequence stored least significant first.
Digit strings are printed most significant first; digits above 9 force a
dotted form so multi-digit entries stay unambiguous.

Base -b digits come one division at a time, z -> -(z div b), for every
b at every size but one case: a big z in base -2^s, s dividing 8
(b = 2, 4, 16, 256), takes no step at all.  With d_i the base -b digits
of z and M = sum over odd i < n of (b-1) b^i,

    z + M = sum_{i even} d_i b^i + sum_{i odd} (b-1-d_i) b^i,

and every coefficient lies in 0..b-1, so the base -b digits of z are the
base-b digits of (z + M) XOR M, read from its bytes.  That holds for any
window of n digits that contains the expansion; an even n with
n s >= bits(z) + 16 does.  Only z of more than FAST_PATH_BITS bits take
the mask, a gate of its own: at |z| <= 10^5 it costs about three times
the plain loop (3.6 against 1.2 us, base -4, 2 cores, Python 3.11).

Reading digits back is cns's job (decode_negabase reads base -b digits
as digits over X + b).  At t = +-2^s, |t| <= 32, its parse is the mask
the other way: every e-th digit as ASCII, most significant first, is one
int(text, |t|) parse y, linear in the length and exempt from
int_max_str_digits for these bases, and for t < 0 the value is
(y XOR M) - M (see values_at_power_of_two).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .poly import IntPoly

# an integer of more bits than this takes the mask when b = 2^s, s dividing 8;
# every other integer and base, the plain loop (cns's byte walk has its own
# gate, the bits its landings need)
FAST_PATH_BITS = 256

# the |t| that values_at_power_of_two reads: int() parses a string in these
# bases in linear time, and exempts them from int_max_str_digits
PARSE_RADICES = (2, 4, 8, 16, 32)
# the characters int() reads as the digits 0..31; every other byte maps to
# one it rejects, so a digit out of range raises ValueError
_DIGIT_TEXT = b"0123456789abcdefghijklmnopqrstuv"
_BYTES = bytes(range(256))
_DIGIT_CHARS = bytes.maketrans(_BYTES, _DIGIT_TEXT + b"!" * (256 - 32))
_DIGIT_VALUES = bytes.maketrans(_DIGIT_TEXT[:10], _BYTES[:10])

# digits below a radix of at most this are stored as bytes
BYTE_RADIX = 256


@dataclass(frozen=True)
class NegaBase:
    """Base -b with digit set {0, ..., b-1}."""

    b: int

    def __post_init__(self) -> None:
        if self.b < 2:
            raise ValueError(f"negative base needs b >= 2, got {self.b}")

    @property
    def radix(self) -> int:
        return self.b


@dataclass(frozen=True)
class CnsBase:
    """Polynomial base with digit set {0, ..., |p(0)|-1}."""

    poly: IntPoly

    def __post_init__(self) -> None:
        if not self.poly.is_monic:
            raise ValueError("base polynomial must be monic")
        if abs(self.poly.constant_term) <= 1:
            raise ValueError("base polynomial needs |p(0)| > 1")

    @property
    def radix(self) -> int:
        return abs(self.poly.constant_term)


def digit_buffer(radix: int, length: int = 0) -> bytearray | list[int]:
    """length zero digits below radix: a bytearray up to BYTE_RADIX."""
    return bytearray(length) if radix <= BYTE_RADIX else [0] * length


def spread_digits(digits: Sequence[int], radix: int, k: int) -> bytearray | list[int]:
    """The digits of u(X^k) from those of u(X) (least significant first,
    below radix): each moves to k times its place, zeros in between, by
    one extended-slice assignment into a digit_buffer."""
    spread = digit_buffer(radix, k * (len(digits) - 1) + 1)
    spread[::k] = digits
    return spread


def format_digits(digits: Sequence[int]) -> str:
    """Digits (least significant first) to text, most significant first."""
    if type(digits) is not bytes or digits.translate(None, _BYTES[:10]):
        return ("." if max(digits) > 9 else "").join(map(str, reversed(digits)))
    return digits[::-1].translate(_DIGIT_CHARS).decode()


def parse_digits(text: str) -> bytes | tuple[int, ...]:
    """Digit string (most significant first, plain or dotted) to digits
    least significant first: bytes for the plain form of ASCII digits."""
    text = text.strip()
    if not text:
        raise ValueError("empty digit string")
    plain = text.encode() if text.isascii() else b"."
    if not plain.translate(None, _DIGIT_TEXT[:10]):
        return plain[::-1].translate(_DIGIT_VALUES)
    tokens = text.split(".") if "." in text else list(text)
    try:
        msd_first = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"bad digit string {text!r}") from exc
    if any(d < 0 for d in msd_first):
        raise ValueError(f"negative digit in {text!r}")
    return tuple(reversed(msd_first))


@dataclass(frozen=True)
class Representation:
    """A digit expansion; the canonical zero is the single digit 0.  The
    digits are bytes up to radix BYTE_RADIX, else a tuple of ints."""

    base: NegaBase | CnsBase
    digits: bytes | tuple[int, ...]

    def __post_init__(self) -> None:
        # one C-level pass checks the digits; only a failure scans in Python
        digits, radix = self.digits, self.base.radix
        if radix > BYTE_RADIX or not isinstance(digits, (bytes, bytearray)):
            digits = tuple(map(int, digits))
        try:
            if radix > BYTE_RADIX:
                ok = not digits or 0 <= min(digits) and max(digits) < radix
            else:  # bytes() raises ValueError for a digit outside 0..255
                digits = bytes(digits)
                ok = not digits.translate(None, _BYTES[:radix])
        except ValueError:
            ok = False
        if not ok:
            bad = next(d for d in digits if not 0 <= d < radix)
            raise ValueError(f"digit {bad} outside 0..{radix - 1}")
        object.__setattr__(self, "digits", digits)
        if not digits:
            raise ValueError("a representation needs at least one digit")
        if len(digits) > 1 and digits[-1] == 0:
            raise ValueError("most significant digit must be nonzero")

    @classmethod
    def from_string(cls, base: NegaBase | CnsBase, text: str) -> Representation:
        return cls(base, parse_digits(text))

    @property
    def length(self) -> int:
        return len(self.digits)

    def digit_string(self) -> str:
        return format_digits(self.digits)

    def pretty(self) -> str:
        suffix = "p" if isinstance(self.base, CnsBase) else f"-{self.base.b}"
        return f"({self.digit_string()})_{suffix}"

    def __str__(self) -> str:
        return self.digit_string()


def negabase_digits(z: int, b: int) -> bytearray | list[int]:
    """The base -b digits of z, least significant first, unchecked; none for 0.

    Beyond FAST_PATH_BITS bits, b = 2^s with s dividing 8 takes the mask
    (see the module docstring); every other b takes one division per digit.
    """
    if b < 2:
        raise ValueError(f"negative base needs b >= 2, got {b}")
    if z.bit_length() > FAST_PATH_BITS:
        s = b.bit_length() - 1
        if b == 1 << s and 8 % s == 0:
            return _masked_digits(z, s)
    digits = digit_buffer(b)
    while z:
        r = z % b
        digits.append(r)
        z = (r - z) // b
    return digits


@lru_cache(maxsize=None)
def _mask_tables(s: int) -> tuple[bytes, tuple[bytes, ...]]:
    """For b = 2^s with s dividing 8: 16 bits of M (b-1 at each odd digit
    place) as two bytes, and per digit place of a byte, least significant
    first, the table translating a byte to its digit there.  Built on first use."""
    b = 1 << s
    pair = sum((b - 1) << (s * i) for i in range(1, 16 // s, 2)).to_bytes(2, "little")
    return pair, tuple(bytes(byte >> i & (b - 1) for byte in range(256)) for i in range(0, 8, s))


def _masked_digits(z: int, s: int) -> bytearray:
    """The base -2^s digits of z != 0 (s dividing 8), least significant
    first: the base-2^s digits of (z + M) XOR M over a window of 16-bit
    pairs with at least 16 bits to spare, one translate per digit place of a byte."""
    pair, tables = _mask_tables(s)
    pairs = (z.bit_length() + 31) // 16
    mask = int.from_bytes(pair * pairs, "little")
    raw = ((z + mask) ^ mask).to_bytes(2 * pairs, "little")
    digits = bytearray(len(tables) * len(raw))
    for i, table in enumerate(tables):
        digits[i::len(tables)] = raw.translate(table)
    return digits.rstrip(b"\0")  # the top digit is the last nonzero one


def values_at_power_of_two(digits: Sequence[int], t: int, e: int) -> list[int]:
    """The e values sum_k digits[e k + r] t^k, r < e, for |t| in
    PARSE_RADICES; a digit outside 0..|t|-1 raises ValueError.

    Each substring digits[r::e] is one int() parse in base |t| of the
    string reversed as ASCII digits; for t < 0 the parse y is mapped to
    (y XOR M) - M, M having |t|-1 at every odd place, which turns digit k
    into (-1)^k times itself (see the module docstring).  One M serves
    every substring, as places beyond a substring's length cancel.
    """
    b = abs(t)
    text = bytes(digits).translate(_DIGIT_CHARS)[::-1]
    n = len(text)
    # digit e k + r sits at n - 1 - r - e k of the reversed text
    values = [int(text[(n - 1 - r) % e::e], b) for r in range(min(e, n))]
    if t < 0 and values:
        # whole (b-1, 0) pairs over the longest substring, ceil(n / e) digits
        pairs = (-(-n // e) + 1) // 2
        mask = int((_DIGIT_TEXT[b - 1:b] + b"0") * pairs, b)
        values = [(y ^ mask) - mask for y in values]
    return values + [0] * (e - len(values))


def encode_negabase(z: int, b: int) -> Representation:
    """Expand z in base -b; every integer has exactly one such expansion."""
    return Representation(NegaBase(b), negabase_digits(z, b) or (0,))


def length_negabase(z: int, b: int) -> int:
    """Digit count of the base -b expansion; 0 counts as one digit."""
    return len(negabase_digits(z, b)) or 1


def extremal_of_length(b: int, length: int) -> tuple[int, int]:
    """Value range attained by a given expansion length, as (smallest, largest).

    Odd lengths are attained by a contiguous run of positive integers (plus
    zero at length 1, which is not included here), even lengths by a run of
    negatives.  All four closed forms divide exactly because b = -1 mod b+1.
    """
    if b < 2:
        raise ValueError(f"negative base needs b >= 2, got {b}")
    if length < 1:
        raise ValueError("length must be positive")
    if length % 2:
        k = (length - 1) // 2
        low = (b ** (2 * k) + b) // (b + 1)
        high = (b ** (2 * k + 2) - 1) // (b + 1)
    else:
        m = length // 2
        low = -((b ** (2 * m + 1) - b) // (b + 1))
        high = -((b ** (2 * m - 1) + 1) // (b + 1))
    return low, high
