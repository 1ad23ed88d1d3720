"""Differential forms, singular forms with first-order poles along a
hypersurface, and the associated exterior calculus.

A SmoothForm is a degree-k form with expression coefficients over a Patch.
A BForm represents alpha ^ (dz/f) + beta, where f is a defining function
of the hypersurface Z = {f = 0} and z is the distinguished coordinate.
Everything downstream (restriction to Z, smooth equivalents, nondegeneracy)
is phrased in terms of that decomposition.
Numeric checks evaluate every declared parameter at 1.0: _chart_range
scans grids, _with_params gives point sets their parameter columns.
`vanishes` is the library's one test that a smooth form is zero,
_abs_range its one test that a coefficient is nowhere zero on a chart, and
a value that must be a number passes through `evalcore.finite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import symexpr as se
from .evalcore import _line_roots, compile_tape, evaluate_tape, finite
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
    "SmoothForm", "BForm", "RestrictionPair", "ZComponent",
    "wedge", "d_smooth", "d_bform", "bwedge",
    "interior_product", "pullback_to_level",
    "find_z_components", "restrict_to_Z", "smooth_equivalent", "vanishes",
    "top_coefficient", "nondegeneracy_check", "transversality_check",
    "form_equiv", "GeometryError",
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
    """Degree-k differential form with symbolic coefficients.

    comps is a dict or an iterable of (key, coefficient) pairs, a key a
    tuple of coordinate names or indices in any order: each key is sorted
    with the sign of its permutation, equal keys are summed in the order
    given, and zero components are dropped."""

    __slots__ = ("patch", "degree", "comps")

    def __init__(self, patch, degree, comps):
        clean = {}
        for key, coef in comps.items() if isinstance(comps, dict) else comps:
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
        return SmoothForm(self.patch, self.degree,
                          [*self.comps.items(), *other.comps.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

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


def _check_compatible(a, b):
    if a.patch is not b.patch and a.patch != b.patch:
        raise ValueError("forms live on different patches")
    if a.degree != b.degree:
        raise ValueError("degree mismatch")


def wedge(a, b):
    """Exterior product of smooth forms.  A product is built only for key
    pairs with no common index: the others wedge to zero."""
    if a.patch != b.patch:
        raise ValueError("forms live on different patches")
    return SmoothForm(a.patch, a.degree + b.degree,
                      [(k1 + k2, mul(c1, c2)) for k1, c1 in a.comps.items()
                       for k2, c2 in b.comps.items()
                       if not set(k1) & set(k2)])


def d_smooth(a):
    """Exterior derivative of a smooth form."""
    names = a.patch.names
    return SmoothForm(a.patch, a.degree + 1,
                      [((i,) + key, diff_expr(c, names[i]))
                       for key, c in a.comps.items()
                       for i in range(a.patch.dim) if i not in key])


def interior_product(vf, a):
    """Contraction with a vector field given as {name or index: expr}."""
    comps = {a.patch.index(k) if isinstance(k, str) else int(k): se._coerce(v)
             for k, v in vf.items()}
    return SmoothForm(a.patch, a.degree - 1,
                      [(key[:pos] + key[pos + 1:],
                        mul(Num(Fraction((-1) ** pos)), comps[idx], c))
                       for key, c in a.comps.items()
                       for pos, idx in enumerate(key)
                       if not is_zero(comps.get(idx, ZERO))])


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
    """Whether every component of a smooth form is zero by expr_equiv,
    decided in key order up to the first that is not."""
    return all(expr_equiv(c, ZERO, form.patch) for c in form.comps.values())


def form_equiv(a, b):
    """Componentwise semidecidable equality of smooth forms, by
    expr_equiv."""
    _check_compatible(a, b)
    keys = set(a.comps) | set(b.comps)
    for k in keys:
        if not expr_equiv(a.comps.get(k, ZERO), b.comps.get(k, ZERO),
                          a.patch):
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
        return self + other.scale(-1)

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
    """One connected level component {zname = value} of {f = 0}.
    find_z_components builds one only where df/dz is nonzero, so {f = 0}
    is a regular hypersurface there."""
    zname: str
    value: float


@dataclass(frozen=True)
class RestrictionPair:
    """Restriction data (alpha_tilde, beta_tilde) of a b-form on one
    component of Z.  alpha_tilde is intrinsic; beta_tilde depends on the
    chosen defining function."""
    component: ZComponent
    alpha_tilde: SmoothForm
    beta_tilde: SmoothForm


def _near_rational(r):
    """The rational of denominator at most 10^6 nearest r, as a Fraction,
    when it lies within 1e-9 of r; None otherwise."""
    q = Fraction(r).limit_denominator(10 ** 6)
    return q if abs(float(q) - r) < 1e-9 else None


def find_z_components(bform):
    """Locate the roots of f along the distinguished coordinate by a scan
    at 2048 samples (evalcore._line_roots).  Requires the z-partial of f
    to be bounded away from zero at each root."""
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
    # on a periodic axis the scan ends on b, where f takes its value at a
    zs = np.linspace(a, b, 2048 + (period is not None))
    vals = f_at(zs[:2048])
    line = vals if period is None else np.append(vals, vals[0])
    # xtol as scipy's brentq default
    _, roots = _line_roots(lambda z, k: f_at(z), zs, line[None],
                           period is not None, 2e-12)
    roots = [float(r) for r in roots]
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
    # smooth quotients) see e.g. 0 rather than 5e-16, but only to a
    # rational where f is no further from 0 than at the root itself
    near = [(i, float(q)) for i, q in enumerate(map(_near_rational, roots))
            if q is not None]
    for (i, q), fq, fr in zip(near, f_at([q for _, q in near]),
                              f_at([roots[i] for i, _ in near])):
        if abs(fq) < 1e-9 and abs(fq) <= abs(fr):
            roots[i] = q
    # dedupe
    kept = []
    for r in roots:
        if not any(abs(r - q) < 1e-8 for q in kept):
            kept.append(r)
    fzs = finite(evaluate_tape(_chart_tape(diff_expr(bform.f, zname), patch),
                               probe(kept)))
    for r, fz in zip(kept, fzs):
        if abs(fz) < 1e-8:
            raise GeometryError(
                f"degenerate zero of the defining function at {zname}={r:.6g}")
    return [ZComponent(zname, r) for r in sorted(map(float, kept))]


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
        comps[(i,)] = se.div(diff_expr(g, zname), dfdz)
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
        fz_there = substitute(dfdz, {zname: comp.value})
        alpha_t = pullback_to_level(bform.alpha, zname, comp.value)
        alpha_t = alpha_t.map_coefficients(lambda c: se.div(c, fz_there))
        beta_t = pullback_to_level(bform.beta, zname, comp.value)
        kappa = _kappa_form(bform, comp)
        if not kappa.is_zero():
            beta_t = beta_t - wedge(alpha_t, kappa)
        out.append(RestrictionPair(comp, alpha_t, beta_t))
    return out


def smooth_equivalent(bform):
    """The smooth form (alpha/f) ^ dz + beta equal to a b-form, when alpha/f
    divides exactly, as it can only if alpha vanishes on Z (beta when alpha
    is zero); None when some component of alpha has no exact quotient."""
    quotient = {}
    for key, c in bform.alpha.comps.items():
        q = divide_exact(c, bform.f)
        if q is None:
            return None
        quotient[key + (bform.zindex,)] = q
    return SmoothForm(bform.patch, bform.degree, quotient) + bform.beta


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
# nondegeneracy


def top_coefficient(bform):
    """For a degree-2 b-form on a 2n-dim patch, the coefficient c with
    f * omega^n = c * dx_1 ^ ... ^ dx_m.  Nondegeneracy as a b-form is
    c != 0 everywhere, including on Z."""
    m = bform.patch.dim
    if bform.degree != 2 or m % 2:
        raise ValueError("top coefficient needs a 2-form on an even-dim patch")
    power = bform
    for _ in range(m // 2 - 1):
        power = bwedge(power, bform)
    # f * omega^n = alpha_top ^ dz + f * beta_top
    return power.b_coefficient(*range(m))


def _chart_tape(exprs, patch):
    """Tape over the coordinates and then the declared parameters; a
    symbol that the patch does not declare is an ExprError naming it."""
    try:
        return compile_tape(exprs, patch.names + patch.params)
    except KeyError as exc:
        raise ExprError(*exc.args) from None


def _with_params(patch, pts):
    """pts with a 1.0 column appended per declared parameter; pts itself,
    not a copy, when the patch declares no parameter."""
    if not patch.params:
        return pts
    x = np.ones((len(pts), patch.dim + len(patch.params)), order="F")
    x[:, :patch.dim] = pts
    return x


def _chart_range(expr, patch, axes):
    """(min, max) of the values of expr on the tensor grid of the coordinate
    samples `axes`, with every declared parameter at 1.0, streamed by
    se.grid_blocks through evalcore.finite: the first non-finite value in C
    order raises EvalDomainError.  Min and max are exact, whatever the
    blocks.  A coordinate that expr does not read (se.free_symbols) keeps
    its first sample only: the tape never reads that column, so the set of
    values is the full grid's, and its first non-finite value the same."""
    tape = _chart_tape(expr, patch)
    read = se.free_symbols(expr)
    axes = [ax if name in read else ax[:1]
            for name, ax in zip(patch.names, axes)]
    lo, hi = np.inf, -np.inf
    for pts in se.grid_blocks(axes + [np.ones(1)] * len(patch.params)):
        v = finite(evaluate_tape(tape, pts))
        lo, hi = min(lo, float(v.min())), max(hi, float(v.max()))
    return lo, hi


def _abs_range(expr, patch, axes):
    """(min |expr|, max |expr|) on the tensor grid of the coordinate samples
    `axes` (_chart_range): the library's one test that a coefficient is
    nowhere zero on a chart.  The first non-finite value raises
    EvalDomainError (evalcore.finite): a coefficient that is not a number
    somewhere on the grid gets no nonvanishing verdict from its other
    values.  Values of both signs give a minimum of 0.0: on the connected
    patch a continuous coefficient then vanishes between two grid points,
    or it has a pole there."""
    lo, hi = _chart_range(expr, patch, axes)
    small, large = sorted((abs(lo), abs(hi)))
    return (0.0 if lo < 0.0 < hi else small), large


def _grid_min_abs(expr, patch, grid):
    """min |expr| on the tensor grid of the patch (_abs_range), and its
    points per axis: grid, lowered to at most se.GRID_CAP points by
    se.grid_per_axis."""
    n = se.grid_per_axis(grid, patch.dim)
    return _abs_range(expr, patch, patch.axis_grid(n))[0], n


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
    """The strict upper triangle of the antisymmetric matrix of a degree-2
    b-form in the b-coframe basis (e^z = dz/f in the z slot, e^i = dx_i
    elsewhere): a dict from (i, j), i < j, to each entry that is not
    identically zero.  Entry (j, i) is the negative of (i, j)."""
    m = bform.patch.dim
    W = {(i, j): bform.b_coefficient(i, j)
         for i in range(m) for j in range(i + 1, m)}
    return {key: c for key, c in W.items() if not is_zero(c)}
