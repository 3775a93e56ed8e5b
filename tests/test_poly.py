import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfectnt.gf import ModulusMismatchError, PrimeField
from perfectnt.poly import CyclicRing, FieldPoly, reversed_coefficient_row

from helpers import poly_gcd, poly_scaled, ring_inverse, ring_reduce

GF2 = PrimeField(2)
GF3 = PrimeField(3)


@st.composite
def polys(draw, max_len=8):
    p = draw(st.sampled_from([2, 3, 5]))
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=max_len))
    return FieldPoly(tuple(coeffs), PrimeField(p))


@st.composite
def poly_tuples(draw, count=2, max_len=8):
    """count polynomials sharing one field."""
    p = draw(st.sampled_from([2, 3, 5]))
    field = PrimeField(p)
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(0, p - 1), max_size=max_len))
        out.append(FieldPoly(tuple(coeffs), field))
    return tuple(out)


def test_normalization():
    f = FieldPoly((1, 2, 0, 0), GF3)
    assert f.coeffs == (1, 2)
    assert f.degree == 1
    assert FieldPoly((0, 0), GF3).is_zero()
    assert FieldPoly((), GF3).degree == -1
    assert FieldPoly((4, 5), GF3).coeffs == (1, 2)  # residues reduced


def test_constructors():
    assert FieldPoly.zero(GF3).is_zero()
    assert FieldPoly.one(GF3).coeffs == (1,)
    assert FieldPoly.monomial(GF3, 3).coeffs == (0, 0, 0, 1)
    assert FieldPoly.monomial(GF3, 2, 5).coeffs == (0, 0, 2)
    with pytest.raises(ValueError):
        FieldPoly.monomial(GF3, -1)


def test_addition_and_negation():
    a = FieldPoly((1, 2, 1), GF3)
    b = FieldPoly((2, 1, 2), GF3)
    assert (a + b).is_zero()
    assert (a - a).is_zero()
    assert (-a).coeffs == (2, 1, 2)


def test_multiplication():
    # (x + 1)(x + 2) = x^2 + 3x + 2 = x^2 + 2 over GF(3)
    a = FieldPoly((1, 1), GF3)
    b = FieldPoly((2, 1), GF3)
    assert (a * b).coeffs == (2, 0, 1)
    assert (a * FieldPoly.zero(GF3)).is_zero()


def test_monomial_shift_in_gf3():
    # multiplying by x^3 shifts coefficients up three slots
    h = FieldPoly((1, 0, 1, 2, 2, 2, 1), GF3)
    shifted = FieldPoly.monomial(GF3, 3) * h
    assert shifted.coeffs == (0, 0, 0, 1, 0, 1, 2, 2, 2, 1)


def test_power():
    a = FieldPoly((2, 1), GF3)  # x + 2
    assert (a**0).coeffs == (1,)
    assert (a**2).coeffs == (1, 1, 1)  # x^2 + 4x + 4 = x^2 + x + 1
    assert a**3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1
    # pow(f, e, g) reduces after every step and agrees with reducing f**e once,
    # for f of degree below, at and above that of the monic g
    rng = random.Random(33)
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        for deg_f, deg_g in ((1, 3), (2, 4), (4, 4), (6, 3), (5, 1)):
            f = FieldPoly(tuple(rng.randrange(p) for _ in range(deg_f)) + (rng.randrange(1, p),), field)
            g = FieldPoly(tuple(rng.randrange(p) for _ in range(deg_g)) + (1,), field)
            power = FieldPoly.one(field)  # f**e by repeated multiplication
            for e in range(65):
                assert f**e == power, (p, f, e)
                assert pow(f, e, g) == (f**e) % g, (p, f, g, e)
                power = power * f
            with pytest.raises(ValueError):
                pow(f, -1, g)


def test_divmod_recovers_generator():
    # (x^7 - 1) / h(x) over GF(2) with h = x^4+x^2+x+1 gives x^3+x+1
    modulus = FieldPoly.monomial(GF2, 7) - FieldPoly.one(GF2)
    h = FieldPoly((1, 1, 1, 0, 1), GF2)
    q, r = divmod(modulus, h)
    assert r.is_zero()
    assert q.coeffs == (1, 1, 0, 1)
    assert modulus % h == r and modulus // h == q


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(FieldPoly.one(GF3), FieldPoly.zero(GF3))


def test_rendering():
    assert str(FieldPoly((1, 1, 1, 0, 1), GF2)) == "x^4+x^2+x+1"
    assert str(FieldPoly((1, 0, 1, 2, 2, 2, 1), GF3)) == "x^6+2x^5+2x^4+2x^3+x^2+1"
    assert str(FieldPoly.zero(GF3)) == "0"
    assert str(FieldPoly((2,), GF3)) == "2"
    assert str(FieldPoly((0, 1), GF3)) == "x"


def test_reversed_coefficient_row():
    h = FieldPoly((1, 1, 1, 0, 1), GF2)
    assert reversed_coefficient_row(h, 7) == (1, 0, 1, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        reversed_coefficient_row(h, 4)


def test_monic_and_gcd():
    x2m1 = FieldPoly((2, 0, 1), GF3)  # x^2 - 1
    xm1 = FieldPoly((2, 1), GF3)  # x - 1
    assert poly_gcd(x2m1, xm1) == xm1
    assert poly_gcd(x2m1, poly_scaled(xm1, 2)) == xm1
    assert poly_gcd(FieldPoly.zero(GF3), xm1) == xm1


def test_mixed_fields_rejected():
    with pytest.raises(ModulusMismatchError):
        _ = FieldPoly((1,), GF2) + FieldPoly((1,), GF3)


def test_cyclic_ring_folding():
    ring = CyclicRing(11, GF3)
    a = FieldPoly.monomial(GF3, 10)
    b = FieldPoly.monomial(GF3, 5)
    assert ring.mul(a, b).coeffs == (0, 0, 0, 0, 1)  # x^15 -> x^4
    big = FieldPoly.monomial(GF3, 13)
    assert ring_reduce(ring, big).coeffs == (0, 0, 1)


def test_cyclic_ring_validation():
    ring = CyclicRing(4, GF3)
    with pytest.raises(ValueError):
        ring.mul(FieldPoly.monomial(GF3, 4), FieldPoly.one(GF3))
    with pytest.raises(ModulusMismatchError):
        ring.mul(FieldPoly.one(GF2), FieldPoly.one(GF2))
    with pytest.raises(ValueError):
        CyclicRing(0, GF3)
    with pytest.raises(ModulusMismatchError):
        ring_inverse(ring, FieldPoly.one(GF2))
    # constants: the resultant with x^n - 1 is c^n, zero has no inverse
    assert ring_inverse(CyclicRing(1, GF3), FieldPoly((2,), GF3)) == (2, FieldPoly((2,), GF3))
    assert ring_inverse(ring, FieldPoly((2,), GF3)) == (1, FieldPoly((2,), GF3))
    assert ring_inverse(ring, FieldPoly.zero(GF3)) == (0, None)


@given(poly_tuples(count=3))
def test_poly_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(poly_tuples(count=2))
def test_divmod_invariant(pair):
    a, b = pair
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(poly_tuples(count=2))
def test_gcd_divides_both(pair):
    a, b = pair
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert not g.is_zero()
    assert (a % g).is_zero()
    assert (b % g).is_zero()
    assert g.coeffs[-1] == 1


@given(poly_tuples(count=2, max_len=6), st.integers(1, 9))
def test_ring_mul_matches_reduce_of_product(pair, n):
    a, b = pair
    if a.degree >= n or b.degree >= n:
        return
    ring = CyclicRing(n, a.field)
    assert ring.mul(a, b) == ring_reduce(ring, a * b)
