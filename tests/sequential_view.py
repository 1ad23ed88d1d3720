"""Reference exact view for the tests: a tree's (numerator, denominator)
pair as the library built it before a sum grouped its terms by
denominator, with an Add's terms folded into the pair one at a time by
rat_add, so that every change of denominator cross-multiplies.  It reads
the same atom index as `bgeo.symexpr.expr_to_ratpoly`, so a test can
compare the two views as rational functions and the collapses they give.
"""

from fractions import Fraction

from bgeo import symexpr as se
from bgeo._poly import poly_const, poly_pow, poly_var, rat_add, rat_mul


def sequential_ratpoly(e):
    """(numerator, denominator, atoms) of e, or None where the library's
    view gives up (a float, a division by a symbolic zero, or more than
    _POLY_MONOMIAL_LIMIT monomials on the way)."""
    atoms, seen = [], set()
    try:
        se._collect_atoms(e, atoms, seen)
        atoms.sort(key=se.sort_key)
        n = len(atoms)
        one = poly_const(Fraction(1), n)
        index = {se.sort_key(a): (poly_var(i, n), one)
                 for i, a in enumerate(atoms)}
        numer, denom = _view(e, n, one, index)
    except (se._PolyOverflow, se.EvalDomainError):
        return None
    return numer, denom, tuple(atoms)


def _view(e, n, one, index):
    if isinstance(e, se.Num):
        return poly_const(e.value, n), one
    r = index.get(se.sort_key(e))
    if r is not None:
        return r
    if isinstance(e, se.Pow):
        bn, bd = _view(e.base, n, one, index)
        m = int(e.exp)
        if m < 0:
            if not bn:
                raise se.EvalDomainError("division by symbolic zero")
            bn, bd, m = bd, bn, -m
        if m >= se._POLY_MONOMIAL_LIMIT and max(len(bn), len(bd)) > 1:
            raise se._PolyOverflow
        return _bounded((poly_pow(bn, m), poly_pow(bd, m)))
    if isinstance(e, se.Mul):
        r, op, parts = (one, one), rat_mul, e.factors
    else:
        r, op, parts = ({}, one), rat_add, e.terms
    for part in parts:
        r = _bounded(op(r, _view(part, n, one, index)))
    return r


def _bounded(r):
    if max(len(r[0]), len(r[1])) > se._POLY_MONOMIAL_LIMIT:
        raise se._PolyOverflow
    return r
