"""Betti numbers of the common closed models, for the tests' BettiData,
moved unchanged from bgeo.cohomology, where no verdict used them.
"""

import math


def betti_sphere(n):
    """S^n."""
    if n < 1:
        raise ValueError("need n >= 1")
    b = [0] * (n + 1)
    b[0] = 1
    b[n] += 1  # n = 0 would mean two points; disallowed above
    return tuple(b)


def betti_torus(n):
    """T^n: binomial coefficients."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(math.comb(n, k) for k in range(n + 1))


def betti_genus_surface(g):
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return (1, 2 * g, 1)


def betti_product(a, b):
    """Kunneth: Betti numbers of a product from those of the factors."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)
