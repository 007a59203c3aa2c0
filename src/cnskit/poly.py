"""Exact arithmetic for integer polynomials.

Coefficients are arbitrary-precision integers stored densely, constant
term first.  Nothing in this module touches floating point; the repeated
root test runs Euclid's algorithm exactly over the rationals instead of
computing roots numerically.  One recurrence, x_powers_mod, yields
X^0, X^1, ... mod p for every caller that walks the powers in turn;
x_power_mod squares its way to a single huge exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

# Degree of the zero polynomial.  A distinguished value, never -1.
NEG_INFINITY = float("-inf")


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` multiplies X^i."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        top = len(coeffs) - 1
        while top and coeffs[top] == 0:
            top -= 1
        object.__setattr__(self, "coeffs", coeffs[:top + 1])

    @classmethod
    def from_string(cls, text: str) -> IntPoly:
        """Parse the comma-separated coefficient form, e.g. "2,2,1"."""
        try:
            coeffs = tuple(int(tok.strip()) for tok in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad polynomial text {text!r}") from exc
        return cls(coeffs)

    def to_string(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self) -> str:
        return self.to_string()

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self) -> int | float:
        return NEG_INFINITY if self.is_zero else len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1]

    @property
    def constant_term(self) -> int:
        return self.coeffs[0]

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1


ZERO = IntPoly((0,))
ONE = IntPoly((1,))


def poly_add(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact sum."""
    out = [0] * max(len(a.coeffs), len(b.coeffs))
    for i, c in enumerate(a.coeffs):
        out[i] += c
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return IntPoly(tuple(out))


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact product; schoolbook is plenty at these degrees."""
    if a.is_zero or b.is_zero:
        return ZERO
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return IntPoly(tuple(out))


def poly_eval(p: IntPoly, x: int) -> int:
    """Evaluate at an integer point by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_divrem(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Long division a = q*b + r with deg r < deg b.

    The divisor must be monic so every intermediate coefficient stays an
    integer; anything else is rejected.
    """
    if not b.is_monic:
        raise ValueError("divisor must be monic")
    n = len(b.coeffs) - 1
    if n == 0:
        return a, ZERO
    r = list(a.coeffs)
    if len(r) <= n:
        return ZERO, a
    q = [0] * (len(r) - n)
    for i in reversed(range(len(q))):
        coef = r[i + n]
        if coef:
            q[i] = coef
            r[i + n] = 0
            for j in range(n):
                r[i + j] -= coef * b.coeffs[j]
    return IntPoly(tuple(q)), IntPoly(tuple(r[:n]))


def poly_derivative(p: IntPoly) -> IntPoly:
    if len(p.coeffs) == 1:
        return ZERO
    return IntPoly(tuple(i * c for i, c in enumerate(p.coeffs) if i))


def x_powers_mod(p: IntPoly) -> Iterator[tuple[int, ...]]:
    """X^0, X^1, ... mod a monic p of positive degree d, each as its d
    coefficients: one multiplication by X per step, using
    X^d = -(p[0] + ... + p[d-1] X^(d-1))."""
    pc = p.coeffs
    d = len(pc) - 1
    if not p.is_monic or d < 1:
        raise ValueError("divisor must be monic of positive degree")
    power = (1,) + (0,) * (d - 1)
    while True:
        yield power
        h = power[-1]
        power = (-h * pc[0],) + tuple(power[i - 1] - h * pc[i] for i in range(1, d))


def x_power_mod(d: int, p: IntPoly) -> IntPoly:
    """X^d mod a monic p by repeated squaring; X^d is never written out."""
    if d < 0:
        raise ValueError("exponent must be nonnegative")
    result = poly_divrem(ONE, p)[1]
    square = poly_divrem(IntPoly((0, 1)), p)[1]
    while d:
        if d & 1:
            result = poly_divrem(poly_mul(result, square), p)[1]
        d >>= 1
        if d:
            square = poly_divrem(poly_mul(square, square), p)[1]
    return result


def divides_xd_plus_c(p: IntPoly, d: int, c: int) -> bool:
    """Whether a monic p divides X^d + c exactly: X^d and -c agree mod p.

    Each root of p is then a d-th root of -c, so |p(0)|^d = |c|^deg(p) is
    tested first, on bit lengths before |p(0)|^d is formed: a huge d is
    rejected without the residues of X^d, which grow like |root|^d.
    """
    if d < 1:
        raise ValueError("exponent must be positive")
    if not p.is_monic:
        raise ValueError("divisor must be monic")
    radix, norm = abs(p.constant_term), abs(c) ** (len(p.coeffs) - 1)
    # radix^d has more than (radix.bit_length() - 1) * d bits
    if (radix.bit_length() - 1) * d >= norm.bit_length() or radix ** d != norm:
        return False
    return x_power_mod(d, p) == poly_divrem(IntPoly((-c,)), p)[1]


def compose_x_power(p: IntPoly, k: int) -> IntPoly:
    """p(X^k): spreads the coefficients k positions apart."""
    if k < 1:
        raise ValueError("power must be positive")
    if k == 1 or p.is_zero:
        return p
    out = [0] * ((len(p.coeffs) - 1) * k + 1)
    for i, c in enumerate(p.coeffs):
        out[i * k] = c
    return IntPoly(tuple(out))


def has_simple_roots(p: IntPoly) -> bool:
    """Whether gcd(p, p') is constant, i.e. p has no repeated roots.

    Runs Euclid's algorithm over the rationals, so every remainder is
    exact; the gcd is constant exactly when the last nonzero remainder
    has degree zero.
    """
    if p.is_zero:
        return False
    a = list(map(Fraction, p.coeffs))
    b = list(map(Fraction, poly_derivative(p).coeffs))
    while any(b):
        while not b[-1]:
            b.pop()
        # a mod b, in place: cancel the top coefficient of a until deg a < deg b
        while len(a) >= len(b):
            q = a.pop() / b[-1]
            for i, c in enumerate(b[:-1], len(a) - len(b) + 1):
                a[i] -= q * c
        a, b = b, a
    return len(a) == 1
