"""Tests for the exact polynomial and rational-pair arithmetic in
bgeo._poly, checked against exact Fraction evaluation."""

import random
from fractions import Fraction

import pytest

from bgeo._poly import (
    poly_const,
    poly_mul,
    poly_pow,
    poly_quotient,
    rat_add,
    rat_mul,
)


def _random_poly(rng, nvars):
    out = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, 2) for _ in range(nvars))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            out[key] = c
    return out


def _value(p, point):
    total = Fraction(0)
    for key, c in p.items():
        term = c
        for x, e in zip(point, key):
            term *= x ** e
        total += term
    return total


def _rat_value(r, point):
    return _value(r[0], point) / _value(r[1], point)


def _random_rat(rng, nvars):
    den = {}
    while not den:
        den = _random_poly(rng, nvars)
    return _random_poly(rng, nvars), den


def _points(rng, nvars, dens, count=6):
    """Seeded rational points where no denominator vanishes."""
    out = []
    while len(out) < count:
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(nvars)]
        if all(_value(d, pt) != 0 for d in dens):
            out.append(pt)
    return out


@pytest.mark.parametrize("n", range(6))
def test_pow_matches_repeated_mul(n):
    rng = random.Random(n)
    polys = [{}] + [_random_poly(rng, rng.randint(1, 3)) for _ in range(50)]
    for p in polys:
        want = poly_const(Fraction(1), len(next(iter(p), ())))
        for _ in range(n):
            want = poly_mul(want, p)
        assert poly_pow(p, n) == want


@pytest.mark.parametrize("seed", range(4))
def test_rat_mul_and_add_match_fractions(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        a, b = _random_rat(rng, nvars), _random_rat(rng, nvars)
        same_den = (b[0], a[1])  # the equal-denominator branch of rat_add
        for pt in _points(rng, nvars, [a[1], b[1]]):
            va, vb = _rat_value(a, pt), _rat_value(b, pt)
            assert _rat_value(rat_mul(a, b), pt) == va * vb
            assert _rat_value(rat_add(a, b), pt) == va + vb
            assert _rat_value(rat_add(a, same_den), pt) \
                == va + _rat_value(same_den, pt)
        assert rat_add(a, same_den)[1] is a[1]


@pytest.mark.parametrize("seed", range(4))
def test_poly_quotient_matches_fractions(seed):
    rng = random.Random(200 + seed)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p, q = _random_rat(rng, nvars)
        # an exact multiple divides back to p
        assert poly_quotient(poly_mul(p, q), q) == p
        # a constant denominator scales
        c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        scaled = poly_quotient(p, poly_const(c, nvars))
        # any other quotient is None or agrees with Fraction division
        r = poly_quotient(p, q)
        for pt in _points(rng, nvars, [q]):
            assert _value(scaled, pt) == _value(p, pt) / c
            if r is not None:
                assert _value(r, pt) == _value(p, pt) / _value(q, pt)


def test_poly_quotient_inexact_is_none():
    x2_plus_1 = {(2,): Fraction(1), (0,): Fraction(1)}
    x = {(1,): Fraction(1)}
    assert poly_quotient(x2_plus_1, x) is None
    assert poly_quotient({}, x) == {}
