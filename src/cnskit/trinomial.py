"""Zero-interleaved bases and the length sequences they induce.

Reading an expansion over p as one over p(X^k) spreads the digits k
positions apart, so attainable lengths transform affinely.  The helper
sequences below describe those length sets in closed form; seq_b is
deliberately derived from seq_c by an exact square root so the two
closed forms cross-check each other.
"""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import Iterator

from .negabase import CnsBase, Representation, spread_digits
from .poly import compose_x_power


class SequenceId(Enum):
    A = "a"
    B = "b"
    C = "c"


class SequenceConsistencyError(ArithmeticError):
    """A closed form produced a value its cross-identity rejects."""


def lift_representation(rep: Representation, k: int) -> Representation:
    """Re-read an expansion over p as one over p(X^k).

    The digits u(X) = sum u_j X^j become u(X^k): digit j moves to position
    j*k with zeros in between, so the length becomes k*(len - 1) + 1; the
    digit set and the denoted integer are unchanged.
    """
    if k < 2:
        raise ValueError("interleaving needs k >= 2")
    if not isinstance(rep.base, CnsBase):
        raise ValueError("expected a polynomial-base representation")
    return Representation(CnsBase(compose_x_power(rep.base.poly, k)),
                          spread_digits(rep.digits, rep.base.radix, k))


def seq_a(n: int) -> int:
    """a(n) = 2n - (n mod 2), the closed form of a(0) = 0 and
    a(n) = a(n-1) + (-1)^n + 2: the integers that are 0 or 1 mod 4, in
    increasing order."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return 2 * n - n % 2


def seq_c(n: int) -> int:
    """Closed form (4n^2 + (-1)^n (2n - 1) - 4n + 3) / 2, defined for n >= 1."""
    if n < 1:
        raise ValueError("index must be positive")
    sign = -1 if n % 2 else 1
    numerator = 4 * n * n + sign * (2 * n - 1) - 4 * n + 3
    return numerator // 2


def seq_b(n: int) -> int:
    """sqrt(8 * (seq_c(n+1) - 1) + 1), taken exactly: the integers that are
    1 or 7 mod 8, in increasing order.

    A non-square radicand would mean the closed forms disagree, which is
    reported instead of silently rounding.
    """
    if n < 0:
        raise ValueError("index must be nonnegative")
    radicand = 8 * (seq_c(n + 1) - 1) + 1
    root = isqrt(radicand)
    if root * root != radicand:
        raise SequenceConsistencyError(f"radicand {radicand} is not a perfect square")
    return root


def seq_terms(which: SequenceId, count: int) -> Iterator[int]:
    """First count values, one at a time; a and b start at index 0, c
    starts at index 1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if which is SequenceId.A:
        return map(seq_a, range(count))
    if which is SequenceId.B:
        return map(seq_b, range(count))
    return map(seq_c, range(1, count + 1))


def seq_values(which: SequenceId, count: int) -> list[int]:
    """First count values, as a list."""
    return list(seq_terms(which, count))


def trinomial_length_set(m: int, count: int) -> list[int]:
    """First count attainable expansion lengths over a base interleaved
    m-fold: m * (a(n) - 1) + 1 for n = 1, 2, ... in increasing order."""
    if m < 1:
        raise ValueError("m must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return [m * (seq_a(n) - 1) + 1 for n in range(1, count + 1)]
