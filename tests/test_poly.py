"""Integer polynomial arithmetic: exactness, normalization, root separation."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnskit.poly import (IntPoly, NEG_INFINITY, compose_x_power,
                         divides_xd_plus_c, has_simple_roots, poly_add,
                         poly_derivative, poly_divrem, poly_eval, poly_mul,
                         x_power_mod, x_powers_mod)

small_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=6)


def poly(*coeffs):
    return IntPoly(tuple(coeffs))


def test_normalization_strips_trailing_zeros():
    assert poly(2, 2, 1, 0, 0).coeffs == (2, 2, 1)
    assert poly(0, 0).coeffs == (0,)
    assert poly(0).is_zero


def test_normalization_equals_stripping_one_zero_at_a_time():
    """One slice removes any number of trailing zeros, 40,000 of them
    too, as the loop that removed them one at a time did."""
    def one_at_a_time(coeffs):
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return coeffs

    assert IntPoly((1,) + (0,) * 40_000).coeffs == (1,)
    assert IntPoly((0,) * 40_000).coeffs == (0,)
    rng = random.Random(31)
    cases = [(0,), (0, 0, 0), (5,), (0, 0, 1)]
    for _ in range(500):
        length = rng.randint(1, 12)
        cases.append(tuple(rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(length)))
    assert any(not any(c) for c in cases[4:])
    for coeffs in cases:
        assert IntPoly(coeffs).coeffs == one_at_a_time(coeffs)


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        IntPoly(())


def test_degree_and_leading():
    assert poly(2, 2, 1).degree == 2
    assert poly(5).degree == 0
    assert poly(0).degree == NEG_INFINITY
    assert poly(0).degree < 0
    assert poly(2, 2, 1).leading_coefficient == 1
    assert poly(2, 2, 1).constant_term == 2
    assert poly(2, 2, 1).is_monic
    assert not poly(3, 2).is_monic


def test_string_round_trip():
    p = IntPoly.from_string("2,2,1")
    assert p.coeffs == (2, 2, 1)
    assert p.to_string() == "2,2,1"
    assert IntPoly.from_string("-3, 0, 1").coeffs == (-3, 0, 1)
    with pytest.raises(ValueError):
        IntPoly.from_string("")
    with pytest.raises(ValueError):
        IntPoly.from_string("1,x")


def test_eval_horner():
    p = poly(2, 2, 1)
    assert poly_eval(p, 0) == 2
    assert poly_eval(p, -1) == 1
    assert poly_eval(p, 2) == 10


def test_product_difference_of_quadratics():
    # (X^2+2X+2)(X^2-2X+2) = X^4+4, and the analog with 4X/8 gives X^4+64
    assert poly_mul(poly(2, 2, 1), poly(2, -2, 1)).coeffs == (4, 0, 0, 0, 1)
    assert poly_mul(poly(8, 4, 1), poly(8, -4, 1)).coeffs == (64, 0, 0, 0, 1)


def test_divrem_exact_division():
    q, r = poly_divrem(poly(4, 0, 0, 0, 1), poly(2, 2, 1))
    assert r.is_zero
    assert q.coeffs == (2, -2, 1)


def test_divrem_with_remainder():
    # X^3+X^2+1 over X^2+2X+2: quotient X-1, remainder the constant 3
    q, r = poly_divrem(poly(1, 0, 1, 1), poly(2, 2, 1))
    assert q.coeffs == (-1, 1)
    assert r.coeffs == (3,)
    recombined = poly_add(poly_mul(q, poly(2, 2, 1)), r)
    assert recombined.coeffs == (1, 0, 1, 1)


def test_divrem_requires_monic():
    with pytest.raises(ValueError):
        poly_divrem(poly(1, 1), poly(3, 2))


def test_divides_xd_plus_c():
    assert divides_xd_plus_c(poly(2, 2, 1), 4, 4)
    assert divides_xd_plus_c(poly(2, 2, 1), 12, 64)
    assert not divides_xd_plus_c(poly(2, 2, 1), 3, 4)
    assert divides_xd_plus_c(poly(8, 4, 1), 4, 64)
    assert not divides_xd_plus_c(poly(8, 4, 1), 8, 64)


def test_divides_xd_plus_c_equals_the_residue_comparison():
    """The norm test that comes first changes no answer: on every small p,
    d and c the result is the comparison of X^d and -c mod p, and a
    non-monic p raises as that comparison does."""
    polys = [poly(1)] + [poly(*low, 1) for n, reach in ((1, 9), (2, 4), (3, 2))
                         for low in itertools.product(range(-reach, reach + 1), repeat=n)]
    for p in polys:
        for d in range(1, 9):
            x_power = x_power_mod(d, p)
            for c in range(-70, 71):
                expected = x_power == poly_divrem(IntPoly((-c,)), p)[1]
                assert divides_xd_plus_c(p, d, c) == expected, (p, d, c)
    for p in (poly(2, 2, 2), poly(0, 3), poly(5, 0, -1)):
        with pytest.raises(ValueError, match="monic"):
            poly_divrem(IntPoly((-4,)), p)
        with pytest.raises(ValueError, match="monic"):
            divides_xd_plus_c(p, 4, 4)


def test_compose_x_power():
    p = poly(2, 2, 1)
    assert compose_x_power(p, 2).coeffs == (2, 0, 2, 0, 1)
    assert compose_x_power(p, 3).coeffs == (2, 0, 0, 2, 0, 0, 1)
    assert compose_x_power(p, 1) == p


def test_derivative():
    assert poly_derivative(poly(2, 2, 1)).coeffs == (2, 2)
    assert poly_derivative(poly(7)).is_zero


@pytest.mark.parametrize("coeffs,expected", [
    ((2, 2, 1), True),
    ((1, 2, 1), False),      # (X+1)^2
    ((4, 4, 1), False),      # (X+2)^2
    ((2, 0, 2, 0, 1), True),
    ((8, 4, 1), True),
    ((0, 0, 1), False),      # X^2
    ((0, 1), True),
    ((5,), True),            # constants have no roots at all
])
def test_has_simple_roots(coeffs, expected):
    assert has_simple_roots(IntPoly(coeffs)) is expected


def reference_has_simple_roots(p):
    """The repeated-root test as a primitive integer pseudo-remainder
    sequence, independent of Fraction arithmetic."""
    def trim(v):
        while len(v) > 1 and v[-1] == 0:
            v.pop()
        return v

    def primitive(v):
        v = trim(list(v))
        g = 0
        for c in v:
            g = gcd(g, c)
        return [c // g for c in v] if g > 1 else v

    def pseudo_rem(a, b):
        r, n, lb = list(a), len(b) - 1, b[-1]
        while len(r) - 1 >= n and r != [0]:
            top, shift = r[-1], len(r) - 1 - n
            r = [lb * c for c in r]
            for j in range(n + 1):
                r[shift + j] -= top * b[j]
            r = trim(r)
        return r

    if p.is_zero:
        return False
    a, b = primitive(p.coeffs), primitive(poly_derivative(p).coeffs)
    while b != [0]:
        a, b = b, primitive(pseudo_rem(a, b))
    return len(a) == 1


def test_has_simple_roots_agrees_with_the_pseudo_remainder_sequence():
    """Euclid over the rationals and the integer pseudo-remainder sequence
    agree on a seeded corpus: squares, constants, zero, huge coefficients
    and random polynomials of degree at most 7, leading coefficient any."""
    rng = random.Random(16)
    corpus = [poly(0), poly(5), poly(-1), poly(2, 10 ** 1000, 1), poly(0, 0, 0, 1)]
    for _ in range(300):
        low = poly(*(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))), rng.randint(1, 3))
        corpus.append(poly_mul(low, low))
        corpus.append(poly_mul(poly_mul(low, low), poly(rng.randint(-3, 3), 1)))
    for _ in range(3000):
        corpus.append(poly(*(rng.randint(-6, 6) for _ in range(rng.randint(1, 8)))))
    repeated = 0
    for p in corpus:
        expected = reference_has_simple_roots(p)
        assert has_simple_roots(p) is expected, p
        repeated += not expected
    assert repeated > 600


@pytest.mark.parametrize("coeffs", [(2, 2, 1), (8, 4, 1), (2, 0, 2, 0, 1), (-2, 1), (3, 1),
                                    (5, -3, 1), (2, 0, 0, 2, 0, 0, 1), (7, -1, 0, 1)])
def test_x_powers_mod_is_x_power_mod(coeffs):
    """The recurrence yields X^j mod p for every j, padded to deg(p)
    coefficients, as repeated squaring computes it one j at a time."""
    p = IntPoly(coeffs)
    d = len(coeffs) - 1
    for j, power in zip(range(300), x_powers_mod(p)):
        assert len(power) == d
        assert IntPoly(power) == x_power_mod(j, p), j


@pytest.mark.parametrize("coeffs", [(2, 2, 2), (5,), (1,), (0,)])
def test_x_powers_mod_needs_monic_positive_degree(coeffs):
    with pytest.raises(ValueError):
        next(x_powers_mod(IntPoly(coeffs)))


@given(small_coeffs, small_coeffs)
def test_mul_commutes_and_matches_eval(a, b):
    pa, pb = IntPoly(tuple(a)), IntPoly(tuple(b))
    prod = poly_mul(pa, pb)
    assert prod == poly_mul(pb, pa)
    for x in (-2, -1, 0, 1, 3):
        assert poly_eval(prod, x) == poly_eval(pa, x) * poly_eval(pb, x)


@given(small_coeffs, small_coeffs)
def test_add_matches_eval(a, b):
    pa, pb = IntPoly(tuple(a)), IntPoly(tuple(b))
    total = poly_add(pa, pb)
    for x in (-2, 0, 2):
        assert poly_eval(total, x) == poly_eval(pa, x) + poly_eval(pb, x)


@given(small_coeffs, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
@settings(max_examples=200)
def test_divrem_reconstructs(a, b_low):
    pa = IntPoly(tuple(a))
    pb = IntPoly(tuple(b_low) + (1,))  # force monic divisor
    q, r = poly_divrem(pa, pb)
    assert poly_add(poly_mul(q, pb), r) == pa
    assert r.is_zero or r.degree < pb.degree


@given(small_coeffs)
def test_square_never_has_simple_roots(a):
    pa = IntPoly(tuple(a))
    if pa.degree >= 1:
        assert not has_simple_roots(poly_mul(pa, pa))
