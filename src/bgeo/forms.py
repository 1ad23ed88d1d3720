"""Differential forms, singular forms with first-order poles along a
hypersurface, and the associated exterior calculus.

A SmoothForm is a degree-k form with expression coefficients over a Patch.
A BForm represents alpha ^ (dz/f) + beta, where f is a defining function
of the hypersurface Z = {f = 0} and z is the distinguished coordinate.
Everything downstream (restriction to Z, smoothness tests, nondegeneracy,
duality with bivectors) is phrased in terms of that decomposition.
Numeric checks evaluate every declared parameter at 1.0: _chart_range
scans grids, _with_params gives point sets their parameter columns.
`vanishes` is the library's one test that a smooth form is zero, and a
value that must be a number passes through `evalcore.finite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as se
from ._poly import poly_const, poly_quotient, rat_add, rat_mul
from .evalcore import _solve_brackets, compile_tape, evaluate_tape, finite
from .symexpr import (
    ZERO,
    Expr,
    ExprError,
    Num,
    diff_expr,
    divide_exact,
    expr_equiv,
    is_zero,
    mul,
    substitute,
)

__all__ = [
    "SmoothForm", "BForm", "BBivector", "RestrictionPair", "ZComponent",
    "smooth_form", "wedge", "d_smooth", "d_bform", "bwedge",
    "interior_product", "pullback_to_level",
    "find_z_components", "restrict_to_Z", "is_smooth", "vanishes",
    "top_coefficient", "nondegeneracy_check", "transversality_check",
    "dualize", "bivector_to_bform", "form_equiv", "bform_equiv",
    "GeometryError",
]


class GeometryError(Exception):
    """A structural requirement on the geometry does not hold."""


def _sort_indices(key):
    """Sort an index tuple, returning (sorted tuple, permutation sign).
    Repeated indices give sign 0."""
    key = tuple(key)
    if len(set(key)) != len(key):
        return key, 0
    sign = 1
    # count inversions
    for i in range(len(key)):
        for j in range(i + 1, len(key)):
            if key[i] > key[j]:
                sign = -sign
    return tuple(sorted(key)), sign


class SmoothForm:
    """Degree-k differential form with symbolic coefficients."""

    __slots__ = ("patch", "degree", "comps")

    def __init__(self, patch, degree, comps):
        clean = {}
        for key, coef in comps.items():
            key = tuple(patch.index(k) if isinstance(k, str) else int(k)
                        for k in key)
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            if any(not 0 <= i < patch.dim for i in key):
                raise ValueError(f"index out of range in {key}")
            skey, sign = _sort_indices(key)
            if sign == 0:
                continue
            coef = se._coerce(coef) if not isinstance(coef, Expr) else coef
            if sign < 0:
                coef = se.neg(coef)
            if skey in clean:
                clean[skey] = se.add(clean[skey], coef)
            else:
                clean[skey] = coef
        self.patch = patch
        self.degree = degree
        self.comps = {k: v for k, v in sorted(clean.items()) if not is_zero(v)}

    def __add__(self, other):
        if not isinstance(other, SmoothForm):
            return NotImplemented
        _check_compatible(self, other)
        out = dict(self.comps)
        for k, v in other.comps.items():
            out[k] = se.add(out.get(k, ZERO), v)
        return SmoothForm(self.patch, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """Multiply by a scalar expression or number."""
        return SmoothForm(self.patch, self.degree,
                          {k: mul(se._coerce(c), v) for k, v in self.comps.items()})

    def is_zero(self):
        return not self.comps

    def coefficient(self, *names):
        key, sign = _sort_indices(tuple(self.patch.index(n) if isinstance(n, str)
                                        else n for n in names))
        c = self.comps.get(key, ZERO)
        return c if sign >= 0 else se.neg(c)

    def map_coefficients(self, fn):
        return SmoothForm(self.patch, self.degree,
                          {k: fn(v) for k, v in self.comps.items()})

    def __repr__(self):
        if not self.comps:
            return "<SmoothForm 0>"
        names = self.patch.names
        bits = []
        for key, c in self.comps.items():
            basis = "^".join(f"d{names[i]}" for i in key) or "1"
            bits.append(f"({c}) {basis}".strip())
        return "<SmoothForm " + " + ".join(bits) + ">"


def smooth_form(patch, degree, comps=None):
    return SmoothForm(patch, degree, comps or {})


def _check_compatible(a, b):
    if a.patch is not b.patch and a.patch != b.patch:
        raise ValueError("forms live on different patches")
    if a.degree != b.degree:
        raise ValueError("degree mismatch")


def wedge(a, b):
    """Exterior product of smooth forms."""
    if a.patch != b.patch:
        raise ValueError("forms live on different patches")
    out = {}
    for k1, c1 in a.comps.items():
        for k2, c2 in b.comps.items():
            key, sign = _sort_indices(k1 + k2)
            if sign == 0:
                continue
            term = mul(Num(Fraction(sign)), c1, c2)
            out[key] = se.add(out.get(key, ZERO), term)
    return SmoothForm(a.patch, a.degree + b.degree, out)


def d_smooth(a):
    """Exterior derivative of a smooth form."""
    names = a.patch.names
    out = {}
    for key, c in a.comps.items():
        for i in range(a.patch.dim):
            if i in key:
                continue
            dc = diff_expr(c, names[i])
            if is_zero(dc):
                continue
            skey, sign = _sort_indices((i,) + key)
            term = mul(Num(Fraction(sign)), dc)
            out[skey] = se.add(out.get(skey, ZERO), term)
    return SmoothForm(a.patch, a.degree + 1, out)


def interior_product(vf, a):
    """Contraction with a vector field given as {name or index: expr}."""
    comps = {a.patch.index(k) if isinstance(k, str) else int(k): se._coerce(v)
             for k, v in vf.items()}
    out = {}
    for key, c in a.comps.items():
        for pos, idx in enumerate(key):
            coef = comps.get(idx)
            if coef is None or is_zero(coef):
                continue
            rest = key[:pos] + key[pos + 1:]
            sign = Fraction((-1) ** pos)
            term = mul(Num(sign), coef, c)
            out[rest] = se.add(out.get(rest, ZERO), term)
    return SmoothForm(a.patch, a.degree - 1, out)


def pullback_to_level(a, zname, value):
    """Pull a smooth form back to the level set {zname = value}: substitute
    the value and drop components containing d(zname).  The result lives on
    the patch with that coordinate removed."""
    patch = a.patch
    zi = patch.index(zname)
    sub_patch = patch.without(zname)
    out = {}
    for key, c in a.comps.items():
        if zi in key:
            continue
        newkey = tuple(i - 1 if i > zi else i for i in key)
        out[newkey] = substitute(c, {zname: value})
    return SmoothForm(sub_patch, a.degree, out)


def vanishes(form):
    """Whether every component of a smooth form is zero by expr_equiv at
    its default tolerance, decided in key order up to the first that is not."""
    return all(expr_equiv(c, ZERO, form.patch) for c in form.comps.values())


def form_equiv(a, b, tol=1e-9):
    """Componentwise semidecidable equality of smooth forms."""
    _check_compatible(a, b)
    keys = set(a.comps) | set(b.comps)
    for k in keys:
        if not expr_equiv(a.comps.get(k, ZERO), b.comps.get(k, ZERO),
                          a.patch, tol=tol):
            return False
    return True


# ---------------------------------------------------------------------------
# b-forms


class BForm:
    """alpha ^ (dz/f) + beta with smooth alpha, beta.

    f is the defining function of Z = {f = 0}; z is the distinguished
    coordinate.  Components of alpha containing dz are dropped (they wedge
    to zero against dz).
    """

    __slots__ = ("patch", "degree", "alpha", "beta", "f", "zname")

    def __init__(self, patch, degree, alpha, beta, f, zname):
        if zname not in patch.names:
            raise ValueError(f"unknown coordinate '{zname}'")
        f = se._coerce(f)
        if is_zero(f):
            raise ValueError("defining function is identically zero")
        zi = patch.index(zname)
        alpha = SmoothForm(patch, degree - 1,
                           {k: v for k, v in alpha.comps.items() if zi not in k})
        if alpha.degree != degree - 1 or beta.degree != degree:
            raise ValueError("alpha/beta degrees inconsistent")
        self.patch = patch
        self.degree = degree
        self.alpha = alpha
        self.beta = beta
        self.f = f
        self.zname = zname

    @property
    def zindex(self):
        return self.patch.index(self.zname)

    def __add__(self, other):
        self._check(other)
        return BForm(self.patch, self.degree, self.alpha + other.alpha,
                     self.beta + other.beta, self.f, self.zname)

    def __sub__(self, other):
        self._check(other)
        return BForm(self.patch, self.degree, self.alpha - other.alpha,
                     self.beta - other.beta, self.f, self.zname)

    def scale(self, c):
        return BForm(self.patch, self.degree, self.alpha.scale(c),
                     self.beta.scale(c), self.f, self.zname)

    def _check(self, other):
        if not isinstance(other, BForm):
            raise TypeError("expected a BForm")
        if (self.patch != other.patch or self.zname != other.zname
                or self.f != other.f):
            raise ValueError("b-forms use different hypersurface data")

    def f_depends_only_on_z(self):
        return all(is_zero(diff_expr(self.f, n))
                   for n in self.patch.names if n != self.zname)

    def with_defining_function(self, h):
        """Re-express the same form with defining function f*h, where h is a
        nonvanishing smooth factor: alpha ^ dz/f = (h*alpha) ^ dz/(f*h)."""
        h = se._coerce(h)
        return BForm(self.patch, self.degree, self.alpha.scale(h),
                     self.beta, mul(self.f, h), self.zname)

    def b_coefficient(self, *names):
        """Coefficient relative to the b-coframe basis e^z = dz/f,
        e^i = dx_i, for a basis index set given by coordinate names."""
        idx = tuple(self.patch.index(n) if isinstance(n, str) else n
                    for n in names)
        zi = self.zindex
        if zi in idx:
            pos = idx.index(zi)
            rest = idx[:pos] + idx[pos + 1:]
            # alpha ^ e^z contributes alpha_rest * (-1)^(moves to slot)
            sign = Fraction((-1) ** (len(idx) - 1 - pos))
            a = mul(Num(sign), self.alpha.coefficient(*rest))
            b = mul(self.f, self.beta.coefficient(*idx))
            return se.add(a, b)
        return self.beta.coefficient(*idx)

    def __repr__(self):
        return (f"<BForm deg {self.degree} on Z={{ {self.f} = 0 }}: "
                f"alpha={self.alpha!r}, beta={self.beta!r}>")


def bwedge(a, b):
    """Exterior product of b-forms over the same hypersurface data."""
    a._check(b)
    alpha = wedge(a.beta, b.alpha) + wedge(a.alpha, b.beta).scale((-1) ** b.degree)
    beta = wedge(a.beta, b.beta)
    return BForm(a.patch, a.degree + b.degree, alpha, beta, a.f, a.zname)


def d_bform(a):
    """Exterior derivative: d(alpha ^ dz/f + beta) = d(alpha) ^ dz/f + d(beta),
    valid because f depends only on z, so d(dz/f) = 0."""
    if not a.f_depends_only_on_z():
        raise GeometryError(
            "exterior derivative needs a defining function of the "
            "distinguished coordinate alone; re-express the form first")
    return BForm(a.patch, a.degree + 1, d_smooth(a.alpha), d_smooth(a.beta),
                 a.f, a.zname)


# ---------------------------------------------------------------------------
# the hypersurface and restriction


@dataclass(frozen=True)
class ZComponent:
    """One connected level component {zname = value} of {f = 0}."""
    zname: str
    value: float
    fz: float  # df/dz there, for orientation/regularity diagnostics


@dataclass(frozen=True)
class RestrictionPair:
    """Restriction data (alpha_tilde, beta_tilde) of a b-form on one
    component of Z.  alpha_tilde is intrinsic; beta_tilde depends on the
    chosen defining function."""
    component: ZComponent
    alpha_tilde: SmoothForm
    beta_tilde: SmoothForm


def find_z_components(bform):
    """Locate the roots of f along the distinguished coordinate, scanned at
    2048 samples.  Requires the z-partial of f to be bounded away from zero
    at each root."""
    patch = bform.patch
    zname = bform.zname
    zi = patch.index(zname)
    a, b = patch.intervals[zi]
    period = patch.periods[zi]
    # probe f as a function of z with the other coordinates at midpoints and
    # the parameters at 1.0; validity of that probe is checked afterwards
    # component by component
    mid = np.array([0.5 * (lo + hi) for lo, hi in patch.intervals])

    def probe(z):
        pts = np.tile(mid, (len(z), 1))
        pts[:, zi] = z
        return _with_params(patch, pts)

    def f_at(z):
        return finite(evaluate_tape(ftape, probe(z)))

    ftape = _chart_tape(bform.f, patch)
    zs = np.linspace(a, b, 2048, endpoint=period is None)
    vals = f_at(zs)
    # a scan interval holds a root at its left end when f is zero there,
    # otherwise one inside when f changes sign across it
    zero = vals[:-1] == 0.0
    with np.errstate(over="ignore"):   # an overflow keeps its sign
        cross = ~zero & (vals[:-1] * vals[1:] < 0)
    lo, hi = zs[:-1][cross], zs[1:][cross]
    flo, fhi = vals[:-1][cross], vals[1:][cross]
    wrap = period is not None and vals[-1] != 0.0 and vals[-1] * vals[0] < 0
    if wrap:
        lo, hi = np.append(lo, zs[-1]), np.append(hi, b)
        flo, fhi = np.append(flo, vals[-1]), np.append(fhi, f_at([b]))
    # xtol as scipy's brentq default
    solved = _solve_brackets(lambda z, k: f_at(z), lo, hi, flo, fhi, 2e-12)
    inner = np.where(zero, zs[:-1], np.nan)
    inner[cross] = solved[:np.count_nonzero(cross)]
    roots = [float(r) for r in inner[zero | cross]]
    if vals[-1] == 0.0:
        roots.append(float(zs[-1]))
    elif wrap:
        roots.append(float(solved[-1]))
    if period is not None:
        # fold into the fundamental interval so duplicates collapse
        roots = [a + (r - a) % period for r in roots]
    # tangential zeros never change sign; catch them at local minima of |f|
    absvals = np.abs(vals)
    scale = max(float(absvals.max()), 1.0)
    inside = absvals[1:-1]
    dips = np.flatnonzero((inside <= absvals[:-2]) & (inside <= absvals[2:])
                          & (inside < 1e-5 * scale)) + 1
    for i in dips:
        if not any(abs(zs[i] - r) < 2 * (zs[1] - zs[0]) for r in roots):
            raise GeometryError(
                f"degenerate zero of the defining function near "
                f"{zname}={zs[i]:.6g}")
    # snap near-rational roots so later exact substitutions (kappa form,
    # smooth quotients) see e.g. 0 rather than 5e-16
    qs = [float(Fraction(r).limit_denominator(10 ** 6)) for r in roots]
    near = [i for i, (q, r) in enumerate(zip(qs, roots)) if abs(q - r) < 1e-9]
    for i, fq in zip(near, f_at([qs[i] for i in near])):
        if abs(fq) < 1e-9:
            roots[i] = qs[i]
    # dedupe
    kept = []
    for r in roots:
        if not any(abs(r - q) < 1e-8 for q in kept):
            kept.append(r)
    fzs = finite(evaluate_tape(_chart_tape(diff_expr(bform.f, zname), patch),
                               probe(kept)))
    out = []
    for r, fz in zip(kept, fzs):
        if abs(fz) < 1e-8:
            raise GeometryError(
                f"degenerate zero of the defining function at {zname}={r:.6g}")
        out.append(ZComponent(zname, float(r), float(fz)))
    return sorted(out, key=lambda c: c.value)


def _kappa_form(bform, comp):
    """Correction 1-form on Z from non-z dependence of f (L'Hopital)."""
    patch = bform.patch
    zname = bform.zname
    dfdz = diff_expr(bform.f, zname)
    comps = {}
    for i, n in enumerate(patch.names):
        if n == zname:
            continue
        g = diff_expr(bform.f, n)
        if is_zero(g):
            continue
        g_on_z = substitute(g, {zname: comp.value})
        if not is_zero(g_on_z):
            # transversality violated: f = 0 is not the level {z = value}
            raise GeometryError(
                "defining function has non-removable dependence on "
                f"'{n}' along the component at {zname}={comp.value:.6g}")
        kappa_i = se.div(diff_expr(g, zname), dfdz)
        comps[(i,)] = substitute(kappa_i, {zname: comp.value})
    form = SmoothForm(patch, 1, comps)
    return pullback_to_level(form, zname, comp.value)


def restrict_to_Z(bform, components=None):
    """Restriction data of a b-form on each component of Z.

    With f a defining function, the form reads a ^ (df/f) + b near Z for
    smooth a, b; the pair returned is (i* a, i* b) expressed on the
    component.  In our parametrization a = alpha / (df/dz) and b picks up
    the correction -i*a ^ kappa when f depends on other coordinates."""
    if components is None:
        components = find_z_components(bform)
    zname = bform.zname
    dfdz = diff_expr(bform.f, zname)
    out = []
    for comp in components:
        sub = {zname: comp.value}
        fz_there = substitute(dfdz, sub)
        a_intrinsic = bform.alpha.map_coefficients(
            lambda c: se.div(substitute(c, sub), fz_there))
        alpha_t = pullback_to_level(a_intrinsic, zname, comp.value)
        beta_t = pullback_to_level(bform.beta, zname, comp.value)
        kappa = _kappa_form(bform, comp)
        if not kappa.is_zero():
            beta_t = beta_t - wedge(alpha_t, kappa)
        out.append(RestrictionPair(comp, alpha_t, beta_t))
    return out


def is_smooth(bform):
    """Decide whether a b-form is actually smooth across Z.

    Returns (verdict, smooth_equivalent).  verdict is True with the
    equivalent SmoothForm when alpha/f divides exactly; True with None when
    the restriction vanishes but no exact quotient was found (smooth, but
    only semidecided symbolically); False with None otherwise."""
    if not all(vanishes(pair.alpha_tilde) for pair in restrict_to_Z(bform)):
        return False, None
    # try the exact quotient alpha/f
    quotient = {}
    for key, c in bform.alpha.comps.items():
        q = divide_exact(c, bform.f)
        if q is None:
            return True, None
        quotient[key] = q
    zi = bform.zindex
    extra = {key + (zi,): q for key, q in quotient.items()}
    smooth = SmoothForm(bform.patch, bform.degree, extra) + bform.beta
    return True, smooth


def transversality_check(bform):
    """Check that f vanishes transversally: simple roots in z, and no
    residual dependence on the other coordinates along each component."""
    comps = find_z_components(bform)
    if not comps:
        raise GeometryError("defining function has no zeros in the patch")
    for comp in comps:
        _kappa_form(bform, comp)  # raises when i* df/dx_i != 0
    return comps


# ---------------------------------------------------------------------------
# nondegeneracy and duality


def top_coefficient(bform):
    """For a degree-2 b-form on a 2n-dim patch, the coefficient c with
    f * omega^n = c * dx_1 ^ ... ^ dx_m.  Nondegeneracy as a b-form is
    c != 0 everywhere, including on Z."""
    m = bform.patch.dim
    if bform.degree != 2 or m % 2:
        raise ValueError("top coefficient needs a 2-form on an even-dim patch")
    n = m // 2
    power = bform
    for _ in range(n - 1):
        power = bwedge(power, bform)
    allkey = tuple(range(m))
    zi = bform.zindex
    rest = tuple(i for i in range(m) if i != zi)
    # f * omega^n = alpha_top ^ dz + f * beta_top
    sign = Fraction((-1) ** (m - 1 - zi))  # move dz into its slot
    a = mul(Num(sign), power.alpha.coefficient(*rest))
    b = mul(power.f, power.beta.coefficient(*allkey))
    return se.add(a, b)


def _chart_tape(exprs, patch):
    """Tape over the coordinates and then the declared parameters; a
    symbol that the patch does not declare is an ExprError naming it."""
    try:
        return compile_tape(exprs, patch.names + patch.params)
    except KeyError as exc:
        raise ExprError(*exc.args) from None


def _with_params(patch, pts, values=None):
    """pts with a column appended per declared parameter, in the order of
    patch.params: 1.0, or the value that `values` gives it; pts itself,
    not a copy, when the patch declares no parameter."""
    if not patch.params:
        return pts
    x = np.ones((len(pts), patch.dim + len(patch.params)), order="F")
    x[:, :patch.dim] = pts
    for name, v in (values or {}).items():
        x[:, patch.dim + patch.params.index(name)] = v
    return x


def _chart_range(expr, patch, axes, view):
    """(min, max) of view(values) over the blocks of values of expr on the
    tensor grid of the coordinate samples `axes`, with every declared
    parameter at 1.0, streamed by se.grid_blocks; None when no view holds a
    value.  Min and max are exact, whatever the blocks."""
    tape = _chart_tape(expr, patch)
    lo = hi = None
    for pts in se.grid_blocks(list(axes) + [np.ones(1)] * len(patch.params)):
        v = view(evaluate_tape(tape, pts))
        if v.size:
            vlo, vhi = float(v.min()), float(v.max())
            lo, hi = (vlo, vhi) if lo is None else (min(lo, vlo), max(hi, vhi))
    return None if lo is None else (lo, hi)


def _grid_min_abs(expr, patch, grid):
    """min |expr| on the tensor grid of the patch, and its points per axis:
    grid, lowered to at most se.GRID_CAP points by se.grid_per_axis.  The
    first non-finite value raises EvalDomainError (evalcore.finite): a
    coefficient that is not a number somewhere on the grid gets no
    nonvanishing verdict from its other values."""
    n = se.grid_per_axis(grid, patch.dim)
    lo, _ = _chart_range(expr, patch, patch.axis_grid(n),
                         lambda v: np.abs(finite(v)))
    return lo, n


def nondegeneracy_check(bform, grid=64):
    """Return (verdict, detail) for nondegeneracy as a singular 2-form.

    verdict 'nonvanishing-symbolic' when the top coefficient, as the
    canonical constructors build it, is a nonzero constant Num; otherwise
    a numeric minimum of |c| over the grid decides, with 'degenerate' when
    a zero (or near-zero) is found.  Declared parameters are 1.0 there, as
    in every numeric check (_chart_range)."""
    c = top_coefficient(bform)
    if isinstance(c, Num):
        if c.value == 0:
            return "degenerate", {"top_coefficient": str(c), "min_abs": 0.0}
        return "nonvanishing-symbolic", {"top_coefficient": str(c),
                                         "min_abs": abs(float(c.value))}
    vmin, used = _grid_min_abs(c, bform.patch, grid)
    verdict = "nonvanishing-grid" if vmin > 1e-9 else "degenerate"
    return verdict, {"top_coefficient": str(c), "min_abs": vmin,
                     "grid_per_axis": used}


def b_matrix(bform):
    """Antisymmetric matrix of a degree-2 b-form in the b-coframe basis
    (e^z = dz/f in the z slot, e^i = dx_i elsewhere)."""
    m = bform.patch.dim
    W = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c = bform.b_coefficient(i, j)
            W[i][j] = c
            W[j][i] = se.neg(c)
    return W


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
    W = b_matrix(bform)
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

