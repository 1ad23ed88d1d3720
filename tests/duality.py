"""The duality of degree-2 b-forms and b-bivectors, for the tests.

A nondegenerate b-form W (its matrix in the b-coframe) dualizes to the
b-bivector P = -W^{-1}, and bivector_to_bform inverts that.  The round trip
is a property suite of tests/test_properties.py, and the trees it hands to
its checks are part of TREE_DIGEST there; _inverse_expr is the exact
adjugate inverse the round trip runs on.  No verdict of the library uses
this, so it lives with the tests, moved unchanged from bgeo.forms.
"""

from fractions import Fraction

from bgeo import symexpr as se
from bgeo._poly import poly_const, poly_quotient, rat_add, rat_mul
from bgeo.forms import BForm, GeometryError, SmoothForm, b_matrix
from bgeo.symexpr import ZERO, expr_equiv, is_zero, mul


class BBivector:
    """Bivector with components in the b-vector basis (e_z = f d/dz in the
    z slot, e_i = d/dx_i elsewhere)."""

    __slots__ = ("patch", "comps", "f", "zname")

    def __init__(self, patch, comps, f, zname):
        clean = {}
        for (i, j), c in comps.items():
            i = patch.index(i) if isinstance(i, str) else int(i)
            j = patch.index(j) if isinstance(j, str) else int(j)
            if i == j:
                continue
            if i > j:
                i, j, c = j, i, se.neg(se._coerce(c))
            c = se._coerce(c)
            clean[(i, j)] = se.add(clean.get((i, j), ZERO), c)
        self.patch = patch
        self.comps = {k: v for k, v in sorted(clean.items()) if not is_zero(v)}
        self.f = se._coerce(f)
        self.zname = zname

    def coordinate_components(self):
        """Components in the plain coordinate basis d/dx_i ^ d/dx_j: the
        z slot picks up a factor f."""
        zi = self.patch.index(self.zname)
        out = {}
        for (i, j), c in self.comps.items():
            if zi in (i, j):
                c = mul(self.f, c)
            out[(i, j)] = c
        return out

    def bracket_matrix(self):
        m = self.patch.dim
        P = [[ZERO] * m for _ in range(m)]
        for (i, j), c in self.comps.items():
            P[i][j] = c
            P[j][i] = se.neg(c)
        return P

    def __repr__(self):
        names = self.patch.names
        bits = []
        for (i, j), c in self.coordinate_components().items():
            bits.append(f"({c}) @{names[i]}^@{names[j]}")
        return "<BBivector " + (" + ".join(bits) or "0") + ">"


def _inverse_expr(M):
    """Adjugate inverse of a small matrix of rational functions, computed
    exactly on the (numerator, denominator) views of its entries over one
    shared atom index, with the arithmetic of ``bgeo._poly``.  Every
    intermediate is reduced when one of its polynomials divides the other.
    A matrix with no exact view (a float constant, or an entry past the
    monomial limit) or a singular one raises GeometryError."""
    n = len(M)
    rp = se._to_ratpoly([e for row in M for e in row])
    if rp is None:
        raise GeometryError("matrix has no exact rational view (a float "
                            "constant or too many monomials)")
    views, atoms = rp
    one = poly_const(Fraction(1), len(atoms))

    def lowest(r):
        q = poly_quotient(*r)
        if q is not None:
            return q, one
        q = poly_quotient(r[1], r[0])  # the numerator divides: 1/q
        return (one, q) if q is not None else r

    def signed(r, odd):
        return ({k: -v for k, v in r[0].items()}, r[1]) if odd else r

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        acc = ({}, one)
        for j, a in enumerate(rows[0]):
            if a[0]:
                minor = [r[:j] + r[j + 1:] for r in rows[1:]]
                term = signed(lowest(rat_mul(a, det(minor))), j % 2)
                acc = lowest(rat_add(acc, term))
        return acc

    F = [[lowest(v) for v in views[i * n:(i + 1) * n]] for i in range(n)]
    D = det(F)
    if not D[0]:
        raise GeometryError("matrix is singular: the form is degenerate")
    inv = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(F) if k != j]
            num, den = lowest(rat_mul(signed(det(minor), (i + j) % 2),
                                      (D[1], D[0])))
            inv[i][j] = se.poly_to_expr(num, atoms)
            if den != one:
                inv[i][j] = se.div(inv[i][j], se.poly_to_expr(den, atoms))
    return inv


def dualize(bform):
    """Bivector of a nondegenerate degree-2 b-form: P = -W^{-1} in the
    paired b-bases, so that the standard plane form dx^dy maps to the
    bracket {x, y} = 1."""
    upper = b_matrix(bform)
    m = bform.patch.dim
    W = [[ZERO] * m for _ in range(m)]
    for (i, j), c in upper.items():
        W[i][j], W[j][i] = c, se.neg(c)
    P = _inverse_expr(W)
    comps = {}
    for i in range(len(P)):
        for j in range(i + 1, len(P)):
            comps[(i, j)] = se.neg(P[i][j])
    return BBivector(bform.patch, comps, bform.f, bform.zname)


def bivector_to_bform(biv):
    """Inverse of dualize: W = -P^{-1}, written with everything that pairs
    against e^z stored in alpha."""
    P = biv.bracket_matrix()
    Winv = _inverse_expr(P)
    patch = biv.patch
    zi = patch.index(biv.zname)
    alpha_comps = {}
    beta_comps = {}
    for i in range(patch.dim):
        for j in range(i + 1, patch.dim):
            c = se.neg(Winv[i][j])
            if is_zero(c):
                continue
            if j == zi:
                alpha_comps[(i,)] = se.add(alpha_comps.get((i,), ZERO), c)
            elif i == zi:
                alpha_comps[(j,)] = se.add(alpha_comps.get((j,), ZERO), se.neg(c))
            else:
                beta_comps[(i, j)] = c
    return BForm(patch, 2, SmoothForm(patch, 1, alpha_comps),
                 SmoothForm(patch, 2, beta_comps), biv.f, biv.zname)


def bform_equiv(a, b):
    """Equality of degree-2 b-forms as b-coframe matrices (insensitive to
    how coefficients are split between alpha and f*beta)."""
    a._check(b)
    m = a.patch.dim
    for i in range(m):
        for j in range(i + 1, m):
            if not expr_equiv(a.b_coefficient(i, j), b.b_coefficient(i, j),
                              a.patch):
                return False
    return True
