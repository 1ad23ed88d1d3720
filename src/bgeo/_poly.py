"""Exact multivariate polynomial and rational-function arithmetic over Q,
the one kernel behind rational simplification and the exact branch of
expression equivalence.

Polynomials are dicts mapping exponent tuples (one slot per atom) to
Fraction coefficients.  Atoms are opaque: the caller decides what counts
as an indeterminate (symbols, sin(x), non-integer powers, ...).

A rational function is a plain (numerator, denominator) pair of such
polynomials over the same atoms; it is not kept in lowest terms.
``rat_add`` and ``rat_mul`` combine pairs, and ``poly_quotient`` divides
one polynomial by another when the quotient is again a polynomial.
"""

from __future__ import annotations

from fractions import Fraction

Poly = dict  # {exponents: Fraction}


def poly_const(c: Fraction, nvars: int) -> Poly:
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def poly_var(i: int, nvars: int) -> Poly:
    key = tuple(1 if j == i else 0 for j in range(nvars))
    return {key: Fraction(1)}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def poly_pow(p: Poly, n: int) -> Poly:
    if n < 0:
        raise ValueError("negative power")
    out = poly_const(Fraction(1), len(next(iter(p), ())))
    while n:
        if n & 1:
            out = poly_mul(out, p)
        n >>= 1
        if n:
            p = poly_mul(p, p)
    return out


def _lex_leading(p: Poly):
    return max(p)


def poly_div_exact(num: Poly, den: Poly):
    """Return q with num == q * den, or None if no exact polynomial quotient.

    Lex-order long division; for an exact multiple the leading monomial of the
    remainder is always divisible by the leading monomial of the divisor, so
    this terminates with remainder zero exactly when division is exact.
    """
    if not den:
        return None
    if not num:
        return {}
    lead = _lex_leading(den)
    lead_c = den[lead]
    quot: Poly = {}
    rem = dict(num)
    # Bounded by total number of monomials produced; bail out on blowup.
    for _ in range(10000):
        if not rem:
            return quot
        rk = _lex_leading(rem)
        qk = tuple(a - b for a, b in zip(rk, lead))
        if any(e < 0 for e in qk):
            return None
        qc = rem[rk] / lead_c
        quot[qk] = quot.get(qk, Fraction(0)) + qc
        for dk, dc in den.items():
            k = tuple(a + b for a, b in zip(qk, dk))
            s = rem.get(k, 0) - qc * dc
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return None


def poly_quotient(num: Poly, den: Poly):
    """Return num / den as a polynomial, or None when it is not one (or the
    long division gives up).  A constant denominator just scales."""
    if len(den) == 1:
        (key, c), = den.items()
        if not any(key):
            return {k: v / c for k, v in num.items()}
    return poly_div_exact(num, den)


def rat_mul(a, b):
    """Product of two (numerator, denominator) pairs."""
    return poly_mul(a[0], b[0]), poly_mul(a[1], b[1])


def rat_add(a, b):
    """Sum of two (numerator, denominator) pairs; equal denominators are
    kept rather than multiplied together."""
    if a[1] == b[1]:
        return poly_add(a[0], b[0]), a[1]
    return (poly_add(poly_mul(a[0], b[1]), poly_mul(b[0], a[1])),
            poly_mul(a[1], b[1]))
