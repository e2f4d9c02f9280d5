"""Exact Laurent arithmetic: ring axioms, evaluation, division, text form."""

import random
from fractions import Fraction

import pytest

from braidrep.errors import NotDivisible, ZeroSubstitution
from braidrep.laurent import LaurentPoly


def rand_poly(rng, max_terms=5, max_exp=6, max_num=9, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, max_terms)
    c = {}
    for _ in range(n):
        k = rng.randint(-max_exp, max_exp)
        c[k] = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_num))
    p = LaurentPoly(c)
    if p.is_zero and not allow_zero:
        return LaurentPoly({0: 1})
    return p


def test_basic_product():
    t = LaurentPoly.t()
    lhs = (t + 1) * (t.inverse() + 1)
    assert lhs == LaurentPoly({1: 1, 0: 2, -1: 1})


def test_no_zero_coefficients_stored():
    p = LaurentPoly({2: 1, 0: 3}) - LaurentPoly({2: 1})
    assert p == LaurentPoly({0: 3})
    assert p.num_terms == 1
    q = LaurentPoly({1: 1}) - LaurentPoly({1: 1})
    assert q.is_zero
    assert q.deg_min is None and q.deg_max is None


def test_degree_bounds():
    p = LaurentPoly({-3: Fraction(-1, 2), 0: 4, 2: 1})
    assert p.deg_min == -3
    assert p.deg_max == 2
    assert p.deg_max >= p.deg_min


def test_rational_normalization():
    assert Fraction(3, 6) == Fraction(1, 2)
    p = LaurentPoly({0: Fraction(3, 6)})
    assert p.coeff(0) == Fraction(1, 2)
    assert p.coeff(0).denominator > 0


def test_ring_axioms_randomized():
    # associativity, commutativity, distributivity on 1000 random triples
    rng = random.Random(20260819)
    for _ in range(1000):
        a = rand_poly(rng)
        b = rand_poly(rng)
        c = rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero() == a
        assert a * LaurentPoly.one() == a
        assert a - a == LaurentPoly.zero()


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng)
        u = Fraction(rng.randint(1, 12), rng.randint(1, 7))
        assert (a * b).eval(u) == a.eval(u) * b.eval(u)
        assert (a + b).eval(u) == a.eval(u) + b.eval(u)
        assert isinstance(a.eval(u), Fraction)


def test_eval_exactness():
    p = LaurentPoly({-2: Fraction(1, 3), 1: 2})
    v = p.eval(Fraction(3, 2))
    assert v == Fraction(1, 3) * Fraction(4, 9) + 2 * Fraction(3, 2)
    assert isinstance(v, Fraction)


def test_eval_complex():
    p = LaurentPoly({1: 1, 0: 1})
    assert p.eval(2.0) == pytest.approx(3.0)
    assert p.eval(1j) == pytest.approx(1j + 1)


def test_eval_zero_substitution():
    p = LaurentPoly.t().inverse()
    with pytest.raises(ZeroSubstitution):
        p.eval(0)
    with pytest.raises(ZeroSubstitution):
        p.eval(0.0)
    # nonnegative exponents evaluate fine at 0
    q = LaurentPoly({0: 5, 3: 1})
    assert q.eval(0) == 5


def test_divide_exact_roundtrip():
    rng = random.Random(99)
    for _ in range(300):
        a = rand_poly(rng)
        b = rand_poly(rng, allow_zero=False)
        assert (a * b).divide_exact(b) == a


def test_divide_exact_failure():
    t = LaurentPoly.t()
    with pytest.raises(NotDivisible):
        (t + 1).divide_exact(t + 2)
    with pytest.raises(NotDivisible):
        LaurentPoly.one().divide_exact(LaurentPoly.zero())


def test_unit_inverse():
    u = LaurentPoly.term(Fraction(-3, 2), 4)
    assert u * u.inverse() == LaurentPoly.one()
    with pytest.raises(NotDivisible):
        (LaurentPoly.t() + 1).inverse()


def test_pow():
    t = LaurentPoly.t()
    assert (t + 1) ** 0 == LaurentPoly.one()
    assert (t + 1) ** 2 == LaurentPoly({2: 1, 1: 2, 0: 1})
    assert t ** -3 == LaurentPoly({-3: 1})


def test_text_form_canonical():
    p = LaurentPoly({-3: Fraction(-1, 2), 0: 4, 2: 1})
    assert p.format() == "-1/2*t^-3 + 4*t^0 + 1*t^2"
    assert LaurentPoly.parse(p.format()) == p
    assert LaurentPoly.zero().format() == "0"
    assert LaurentPoly.parse("0").is_zero


def test_text_form_roundtrip_randomized():
    rng = random.Random(1234)
    for _ in range(500):
        p = rand_poly(rng)
        s = p.format()
        assert LaurentPoly.parse(s) == p
        # printing a parsed canonical string reproduces it bit-exactly
        assert LaurentPoly.parse(s).format() == s


def test_parse_rejects_garbage():
    for bad in ["t^2", "1*t", "1*t^", "1/0*t^2", "2*s^3", "1*t^2 - 3*t^0"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            LaurentPoly.parse(bad)


def test_const_helpers():
    c = LaurentPoly.const(Fraction(7, 2))
    assert c.is_const()
    assert c.const_value() == Fraction(7, 2)
    assert LaurentPoly.zero().const_value() == 0
    with pytest.raises(ValueError):
        LaurentPoly.t().const_value()


def test_content():
    p = LaurentPoly({0: Fraction(2, 3), 1: Fraction(4, 9)})
    c = p.content()
    q_coeffs = [v / c for _, v in p.items()]
    assert all(x.denominator == 1 for x in q_coeffs)
    from math import gcd

    assert gcd(*(abs(x.numerator) for x in q_coeffs)) == 1


@pytest.mark.parametrize("poly, value", [
    (LaurentPoly.const(Fraction(3, 2)), Fraction(3, 2)),
    (LaurentPoly.const(Fraction(-7, 5)), Fraction(-7, 5)),
    (LaurentPoly.const(-4), -4),
    (LaurentPoly.one(), 1),
    (LaurentPoly.zero(), 0),
], ids=str)
def test_constant_hashes_like_its_value(poly, value):
    assert poly == value
    assert hash(poly) == hash(value)
    assert {value: "v"}[poly] == "v"
    assert len({poly, value}) == 1
