"""Negative-base digit expansions and the shared digit-string machinery.

A Representation pairs a base descriptor (negative integer base, or monic
polynomial base) with a digit sequence stored least significant first.
Digit strings are printed most significant first; digits above 9 force a
dotted form so multi-digit entries stay unambiguous.

Base -b digits come one division at a time, z -> -(z div b).  A big z
jumps k digits at once: with z = l + b^k h and 0 <= l < b^k, the k
steps on the small l give the digits, and z becomes l_k + (-1)^k h.
A jump is taken only while |h| >= 2, so no state it skips is 0 and the
digits are the plain loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import IntPoly

# an integer of more bits than this takes its digits _JUMP_DIGITS (even) at a time
_JUMP_MIN_BITS = 256
_JUMP_DIGITS = 64


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


def format_digits(digits: Sequence[int]) -> str:
    """Digits (least significant first) to text, most significant first."""
    msd_first = list(reversed(digits))
    if max(msd_first) <= 9:
        return "".join(str(d) for d in msd_first)
    return ".".join(str(d) for d in msd_first)


def parse_digits(text: str) -> tuple[int, ...]:
    """Digit string (most significant first, plain or dotted) to digits
    least significant first."""
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


@dataclass(frozen=True)
class Representation:
    """A digit expansion; the canonical zero is the single digit 0."""

    base: NegaBase | CnsBase
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        digits = tuple(int(d) for d in self.digits)
        object.__setattr__(self, "digits", digits)
        if not digits:
            raise ValueError("a representation needs at least one digit")
        radix = self.base.radix
        for d in digits:
            if not 0 <= d < radix:
                raise ValueError(f"digit {d} outside 0..{radix - 1}")
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


def _negabase_digits(z: int, b: int) -> list[int]:
    """The base -b digits of z, least significant first; none for 0.

    Beyond _JUMP_MIN_BITS bits, z jumps _JUMP_DIGITS = k digits at a time
    (k is even, so (-1)^k h = h).  The state after j < k steps is
    l_j + (-1)^j b^(k-j) h with |l_j| <= b^(k-j), which |h| >= 2 keeps
    from 0.
    """
    if b < 2:
        raise ValueError(f"negative base needs b >= 2, got {b}")
    digits = []
    if z.bit_length() > _JUMP_MIN_BITS:
        chunk = b ** _JUMP_DIGITS
        while True:
            high, low = divmod(z, chunk)
            if -2 < high < 2:
                break
            for _ in range(_JUMP_DIGITS):
                r = low % b
                digits.append(r)
                low = (r - low) // b
            z = low + high
    while z:
        r = z % b
        digits.append(r)
        z = (r - z) // b
    return digits


def encode_negabase(z: int, b: int) -> Representation:
    """Expand z in base -b; every integer has exactly one such expansion."""
    return Representation(NegaBase(b), tuple(_negabase_digits(z, b)) or (0,))


def decode_negabase(rep: Representation) -> int:
    """Evaluate the expansion at -b."""
    if not isinstance(rep.base, NegaBase):
        raise ValueError("expected a negative-base representation")
    acc = 0
    for d in reversed(rep.digits):
        acc = acc * -rep.base.b + d
    return acc


def length_negabase(z: int, b: int) -> int:
    """Digit count of the base -b expansion; 0 counts as one digit."""
    return len(_negabase_digits(z, b)) or 1


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
