"""Tests for the exact polynomial arithmetic in bgeo._poly."""

import random
from fractions import Fraction

import pytest

from bgeo._poly import poly_const, poly_mul, poly_pow


def _random_poly(rng, nvars):
    out = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(rng.randint(0, 2) for _ in range(nvars))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            out[key] = c
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
