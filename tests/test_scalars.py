from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lieyam.errors import BadRationalError, PolynomialEntriesError
from lieyam.scalars import Poly, T, as_fraction, format_scalar, is_zero, parse_scalar

rationals = st.fractions(max_denominator=50)
polys = st.lists(rationals, max_size=5).map(Poly)


def test_zero_forms():
    assert is_zero(Fraction(0))
    assert is_zero(0)
    assert is_zero(Poly())
    assert is_zero(T - T)
    assert not is_zero(T)
    assert not is_zero(Fraction(1, 3))


def test_expand_and_compare():
    # (1+t)^2 - (1 + 2t + t^2) == 0, the expansion done by hand
    lhs = (1 + T) * (1 + T)
    byhand = Poly([1, 2, 1])
    assert is_zero(lhs - byhand)
    assert lhs == byhand


def test_poly_convolution_oracle(rng):
    # product coefficients against an explicit convolution
    for _ in range(50):
        a = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        b = Poly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])
        prod = a * b
        deg = len(a.coeffs) + len(b.coeffs) - 1
        for k in range(max(deg, 0) + 2):
            expected = sum(a.coeff(i) * b.coeff(k - i) for i in range(k + 1))
            assert prod.coeff(k) == expected


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly() == a
    assert a * Poly([1]) == a


@given(polys)
def test_poly_canonical_trailing_zeros(a):
    assert not a.coeffs or a.coeffs[-1] != 0


@given(rationals)
def test_rational_serialization_roundtrip(q):
    assert parse_scalar(format_scalar(q)) == q


@given(polys)
def test_poly_serialization_roundtrip(p):
    assert parse_scalar(format_scalar(p)) == p


def test_poly_eval_and_coeff():
    p = 1 - T * T * Fraction(1, 2)
    assert format_scalar(p) == {"poly": ["1", "0", "-1/2"]}
    assert p.eval(Fraction(2)) == -1


def test_division_rules():
    assert (T * 4) / 2 == T * 2
    with pytest.raises(PolynomialEntriesError):
        (T + 1) / T
    with pytest.raises(PolynomialEntriesError):
        as_fraction(T)
    assert as_fraction(Poly([Fraction(3, 2)])) == Fraction(3, 2)


def test_bad_rational_strings():
    for bad in ("x", "1/0", "", "1/2/3"):
        with pytest.raises(BadRationalError):
            parse_scalar(bad)
    with pytest.raises(BadRationalError):
        parse_scalar({"nope": []})
    for flag in (True, False):
        with pytest.raises(BadRationalError):
            parse_scalar(flag)
