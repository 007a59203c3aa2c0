"""Validated block-substitution schemes.

A scheme pairs a monic polynomial base p with a negative integer base -c
and a block width d such that p divides X^d + c with d above deg(p).
Each digit 0..c-1 then owns a fixed d-digit block, and the expansion of
any integer is read off its base -c expansion block by block.  Building
a scheme checks every hypothesis and reports the first failure as data
rather than raising, because an inapplicable base is an informative
outcome in its own right.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

from .cns import (DEFAULT_MAX_STEPS, CnsExhausted, CnsNotRepresentable, StepBudgetError,
                  brief, cns_encode)
from .negabase import (BYTE_RADIX, CnsBase, Representation, encode_negabase, format_digits,
                       negabase_digits, parse_digits)
from .poly import IntPoly, divides_xd_plus_c, has_simple_roots, x_powers_mod

# X^2 + 2X + 2: the base of the standard scheme and of every standard-base check
STANDARD_POLY = IntPoly((2, 2, 1))

# the most block digits (c * d) a scheme may hold: c encoder runs and c
# padded blocks of d digits; (8^6, 12) holds about 3.1 million
MAX_BLOCK_DIGITS = 2 ** 22


class ViolationKind(Enum):
    NOT_MONIC = "not_monic"
    CONSTANT_TERM_TOO_SMALL = "constant_term_too_small"
    REPEATED_ROOTS = "repeated_roots"
    NO_DIVISIBILITY = "no_divisibility"
    D_TOO_SMALL_FOR_DEGREE = "d_too_small_for_degree"
    DIGIT_NOT_REPRESENTABLE = "digit_not_representable"
    BLOCK_TOO_LONG = "block_too_long"


@dataclass(frozen=True)
class SchemeViolation:
    """First hypothesis that failed while building a scheme, with witness."""

    kind: ViolationKind
    digit: int | None = None
    block_length: int | None = None

    def describe(self) -> str:
        if self.kind is ViolationKind.DIGIT_NOT_REPRESENTABLE:
            return f"digit {self.digit} has no expansion"
        if self.kind is ViolationKind.BLOCK_TOO_LONG:
            return (f"digit {self.digit} needs {self.block_length} digits, "
                    "more than the block width")
        return self.kind.value.replace("_", " ")


@dataclass(frozen=True)
class PenneyScheme:
    """Immutable conversion table from base -c to base p expansions.

    blocks[i] is the expansion of i, least significant digit first and
    zero padded to exactly d digits.
    """

    poly: IntPoly
    c: int
    d: int
    blocks: tuple[tuple[int, ...], ...]

    @cached_property
    def base(self) -> CnsBase:
        return CnsBase(self.poly)

    @cached_property
    def block_lengths(self) -> tuple[int, ...]:
        """Unpadded length of each block; the zero block has length 1."""
        return tuple(max((k for k, u in enumerate(block, 1) if u), default=1)
                     for block in self.blocks)

    @cached_property
    def columns(self) -> tuple[bytes, ...]:
        """Digit i of every block for each i < d, as a table that translates
        a base -c digit to it."""
        return tuple(bytes(column).ljust(256, b"\0") for column in zip(*self.blocks))

    def to_dict(self) -> dict:
        return {
            "poly": self.poly.to_string(),
            "c": self.c,
            "d": self.d,
            "blocks": [format_digits(block) for block in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> PenneyScheme:
        """Rebuild a serialized scheme through build_scheme.  Expansions are
        unique, so a block equal to the built one is exactly an in-range
        d-digit block that denotes its digit."""
        try:
            poly = IntPoly.from_string(data["poly"])
            c = int(data["c"])
            d = int(data["d"])
            blocks = [tuple(parse_digits(text)) for text in data["blocks"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed scheme data: {exc}") from exc
        if len(blocks) != c:
            raise ValueError(f"expected {c} blocks, got {len(blocks)}")
        scheme = build_scheme(poly, c, d)
        if isinstance(scheme, SchemeViolation):
            raise ValueError(f"scheme data violates hypotheses: {scheme.describe()}")
        for i, (block, built) in enumerate(zip(blocks, scheme.blocks)):
            if block != built:
                raise ValueError(f"block {i} is {format_digits(block)}, "
                                 f"not the expansion {format_digits(built)} of {i}")
        return scheme


def build_scheme(p: IntPoly, c: int, d: int,
                 max_steps: int = DEFAULT_MAX_STEPS) -> PenneyScheme | SchemeViolation:
    """Check every scheme hypothesis and populate the digit-block table.

    Hypotheses are tested in a fixed order: monicity, constant term,
    simple roots, divisibility of X^d + c, d against deg(p), then the
    digit blocks in increasing digit order.  A digit whose expansion the
    step budget cannot settle raises StepBudgetError, and a table of more
    than MAX_BLOCK_DIGITS digits raises ValueError before any block is
    built, as a scheme that holds with c > BYTE_RADIX does after: none is
    a violation of any hypothesis.
    """
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive")
    if not p.is_monic:
        return SchemeViolation(ViolationKind.NOT_MONIC)
    if abs(p.constant_term) <= 1:
        return SchemeViolation(ViolationKind.CONSTANT_TERM_TOO_SMALL)
    if not has_simple_roots(p):
        return SchemeViolation(ViolationKind.REPEATED_ROOTS)
    if not divides_xd_plus_c(p, d, c):
        return SchemeViolation(ViolationKind.NO_DIVISIBILITY)
    if d <= p.degree:
        return SchemeViolation(ViolationKind.D_TOO_SMALL_FOR_DEGREE)
    if c * d > MAX_BLOCK_DIGITS:
        raise ValueError(f"c * d = {brief(c * d)} block digits, more than the "
                         f"{MAX_BLOCK_DIGITS} a scheme may hold")
    blocks: list[tuple[int, ...]] = []
    for i in range(c):
        outcome = cns_encode(i, p, max_steps)
        if isinstance(outcome, CnsExhausted):
            raise StepBudgetError(f"no decision for digit {i} within {max_steps} steps")
        if isinstance(outcome, CnsNotRepresentable):
            return SchemeViolation(ViolationKind.DIGIT_NOT_REPRESENTABLE, digit=i)
        digits = outcome.representation.digits
        if len(digits) > d:
            return SchemeViolation(ViolationKind.BLOCK_TOO_LONG, digit=i,
                                   block_length=len(digits))
        blocks.append(tuple(digits) + (0,) * (d - len(digits)))
    # implied by divisibility together with d > deg(p); cheap to confirm
    assert c > abs(p.constant_term)
    if c > BYTE_RADIX:  # no small base has been seen to get this far
        raise ValueError(f"c = {brief(c)} holds, but convert reads base -c digits "
                         f"as bytes, so c may be at most {BYTE_RADIX}")
    return PenneyScheme(p, c, d, tuple(blocks))


def penney_standard() -> PenneyScheme:
    """The quadratic scheme with c = d = 4 over X^2 + 2X + 2."""
    scheme = build_scheme(STANDARD_POLY, 4, 4)
    assert isinstance(scheme, PenneyScheme)
    return scheme


def substitute_digits(neg: bytearray, scheme: PenneyScheme) -> bytes:
    """Block substitution on raw base -c digits (negabase_digits, none for
    0): column i of the blocks fills every d-th digit from i by one
    translate, and the trailing zeros cut are the top block's padding, as
    the top base -c digit is nonzero.  The expansion's digits, least
    significant first; b"\\0" for no digits."""
    out = bytearray(scheme.d * len(neg))
    for i, column in enumerate(scheme.columns):
        out[i::scheme.d] = neg.translate(column)
    return bytes(out.rstrip(b"\0")) or b"\0"


def formula_length(neg: bytearray, scheme: PenneyScheme) -> int:
    """Expansion length implied by block substitution alone, from raw base
    -c digits (none for 0): d * (negabase length - 1) + leading block length."""
    neg = neg or b"\0"
    return scheme.d * (len(neg) - 1) + scheme.block_lengths[neg[-1]]


def convert(z: int, scheme: PenneyScheme) -> Representation:
    """Expand z over the scheme's polynomial base: substitute_digits on z's
    raw base -c digits."""
    return Representation(scheme.base, substitute_digits(negabase_digits(z, scheme.c), scheme))


def leading_digit_length(z: int, scheme: PenneyScheme) -> int:
    """Unpadded block length of the most significant base -c digit of z."""
    neg = encode_negabase(z, scheme.c)
    return scheme.block_lengths[neg.digits[-1]]


def predicted_length(z: int, scheme: PenneyScheme) -> int:
    """Expansion length implied by block substitution alone: formula_length
    on z's raw base -c digits."""
    return formula_length(negabase_digits(z, scheme.c), scheme)


def scheme_pairs(p: IntPoly, c_max: int, d_max: int) -> list[tuple[int, int]]:
    """All (c, d) with c <= c_max, d <= d_max and p dividing X^d + c.

    Exploration helper: X^d mod p must be the constant -c, so each d
    yields at most one candidate c.
    """
    CnsBase(p)  # rejects non-monic p and |p(0)| <= 1
    pairs = []
    for d, residue in enumerate(islice(x_powers_mod(p), 1, d_max + 1), 1):
        if not any(residue[1:]) and 1 <= -residue[0] <= c_max:
            pairs.append((-residue[0], d))
    return pairs
