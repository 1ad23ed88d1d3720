"""Darboux coordinates in 2-D and numerical Moser-path verification.

darboux2d constructs the explicit coordinate change flattening a singular
2-form (g/z)dz^dy to the model (1/z)dz^dt.  The Moser verifiers build the
interpolation family omega_t between two forms, solve the defining linear
system for the time-dependent vector field in the singular frame, integrate
its time-1 flow with RK4, and measure the pullback residual with
finite-difference Jacobians at low-discrepancy sample points.

The flow is one fused pass per velocity.  Each Moser engine compiles its
matrix entries, right-hand side and defining function into one
multi-output tape, so a velocity is one tape call.  The coefficient matrix
enters as one (n,) row per strict-upper entry that is not identically
zero, or as a float for a constant one, never as zero-filled (n, m, m)
arrays; the interpolation blends only those rows, and _solve_antisymmetric
reads them with the right-hand side's columns and writes the solution into
one column-contiguous array.  The RK4 state is column-contiguous too, so
the tape reads contiguous point columns, and RK4 runs in two preallocated
buffers.  A flow large enough to pay for a fork (_flow_parts) is cut into
contiguous parts, one per usable CPU on Linux: forked children flow all
but the first into one shared anonymous mmap while this process flows the
first, and every child is reaped before the flow returns (_forked_flow).
RK4 is elementwise, so each point gets the bits of the serial flow; there
is no knob.  Every entry keeps the floating-point operations of the dense
formulas, so the reports do not depend on the layout.  Both Moser
statements run one collar loop, _collar_flow, and differ only in their
input checks, collar radius, engine and tangency defect (the velocity, or
df.v for a family).  Declared parameters are 1.0 (forms._chart_range on
grids, forms._with_params on every batch the flow reads), except a
family's time TIME.  Each symbolic hypothesis is a forms.vanishes, f is
factored at a component once (_factor_at), and a non-finite residual or
tangency value raises EvalDomainError (evalcore.finite).
"""

from __future__ import annotations

import mmap
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import symexpr as se
from .evalcore import as_float, evaluate_tape, finite
from .forms import (
    BForm,
    GeometryError,
    SmoothForm,
    _chart_range,
    _chart_tape,
    _grid_min_abs,
    _with_params,
    b_matrix,
    d_bform,
    d_smooth,
    find_z_components,
    interior_product,
    is_smooth,
    restrict_to_Z,
    top_coefficient,
    vanishes,
)
from .symexpr import (
    EquivalenceInconclusive,
    Num,
    Patch,
    antiderivative,
    diff_expr,
    divide_exact,
    expr_equiv,
    is_zero,
    substitute,
)

ZERO = se.num(0)

N_STEPS = 256   # RK4 steps of a Moser flow over [0, 1]
STEP_OVERHEAD = 1900   # in batch points, measured (_check_flow)
PART_WORK = 250_000   # points x steps of a flow part, measured (_flow_parts)
FLOW_BUDGET = N_STEPS * (se.GRID_CAP + STEP_OVERHEAD)
FD_STEP = 1e-5
N_SAMPLE = 200
MAX_COLLAR_HALVINGS = 6
COLLAR_GRID = 16   # points per axis of the collar nondegeneracy grid
TIME = "t"   # the declared parameter of a family's time (moser_global_verify)
_DEGENERATE = "interpolated form is degenerate at a flow point"


def _gauss01():
    """The 32-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(32)
    return 0.5 * (x + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# Darboux in dimension 2


@dataclass(frozen=True)
class CoordinateChange:
    """A coordinate change with symbolic forward components."""
    source: Patch
    target: Patch
    forward: tuple
    jacobian_det: object


def _grid_extrema(expr, patch, n):
    """(min, max) of the finite values of expr on the tensor grid of n
    points per axis, a relative margin of 1e-6 in from the patch edges,
    with every declared parameter at 1.0 (forms._chart_range); no finite
    value is a GeometryError.  Finite values only, unlike
    forms._grid_min_abs: these extrema screen g and bound the target patch
    of darboux2d, and darboux_verify passes its sampled residual through
    evalcore.finite, so a coefficient that is not a number there still
    ends in EvalDomainError."""
    r = _chart_range(expr, patch, patch.axis_grid(n, margin=1e-6),
                     lambda v: v[np.isfinite(v)])
    if r is None:
        raise GeometryError("expression has no finite values on the patch")
    return r


def darboux2d(omega: BForm, grid=64, tname="t") -> CoordinateChange:
    """Flatten omega = (g/z)dz^dy on a 2-D patch to the model (1/z)dz^dt.

    The new coordinates are (z, t) with t(z, y) the fiberwise integral of g
    from y = 0; the pullback of (1/z)dz^dt then reproduces omega because
    dt/dy = g.  Requires g nonvanishing and the y-interval to contain 0.
    """
    patch = omega.patch
    if patch.dim != 2 or omega.degree != 2:
        raise GeometryError("darboux2d needs a 2-form on a 2-D patch")
    zname = omega.zname
    yname = next(n for n in patch.names if n != zname)
    if not expr_equiv(omega.f, se.sym(zname), patch):
        raise GeometryError(
            "defining function must be the coordinate %r itself" % zname)
    g = omega.b_coefficient(zname, yname)
    lo, hi = patch.intervals[patch.index(yname)]
    if not lo <= 0.0 <= hi:
        raise GeometryError(
            "patch is not star-shaped about %s = 0" % yname)
    # the grid is capped at se.GRID_CAP points; g is sampled on the odd
    # count at or above that, so that y = 0 is a sample of a symmetric patch
    n = se.grid_per_axis(grid, patch.dim)
    gmin, gmax = _grid_extrema(se.fun("abs", g), patch, n + 1 - n % 2)
    if gmin < max(1e-9, 1e-6 * gmax):
        raise GeometryError("form coefficient vanishes on the patch "
                            "(min |g| = %.3g)" % gmin)

    y = se.sym(yname)
    F = antiderivative(g, yname)
    if F is not None:
        t = se.sub(F, substitute(F, {yname: 0}))
    else:
        # t = y * int_0^1 g(z, u*y) du by Gauss quadrature, kept symbolic
        nodes, weights = _gauss01()
        terms = [se.mul(Num(float(w)), substitute(g, {yname: se.mul(Num(float(u)), y)}))
                 for u, w in zip(nodes, weights)]
        t = se.mul(y, se.add(*terms))

    # pullback identity: dt/dy must reproduce g
    ty = diff_expr(t, yname)
    try:
        ok = expr_equiv(ty, g, patch, tol=1e-9)
    except EquivalenceInconclusive:
        ok = False
    if not ok:
        raise GeometryError("pullback residual exceeds tolerance")

    tmin, tmax = _grid_extrema(t, patch, n)
    pad = 1e-9 + 1e-9 * (tmax - tmin)
    zi = patch.index(zname)
    target = Patch((zname, tname), (patch.intervals[zi], (tmin - pad, tmax + pad)),
                   params=patch.params)
    return CoordinateChange(source=patch, target=target,
                            forward=(se.sym(zname), t), jacobian_det=ty)


@dataclass(frozen=True)
class DarbouxReport:
    ok: bool
    max_residual: float
    change: CoordinateChange = None


def _standard_model(patch, zname):
    """Model form dx1^dz/z + sum dx_i^dy_i, coordinates paired in order."""
    names = patch.names
    pairs = [(names[2 * i], names[2 * i + 1])
             for i in range(len(names) // 2)]
    zpair = [p for p in pairs if zname in p]
    if len(zpair) != 1:
        raise GeometryError("exactly one coordinate pair must contain %r"
                            % zname)
    partner = zpair[0][0] if zpair[0][1] == zname else zpair[0][1]
    alpha = {(patch.index(partner),): se.num(1)}
    beta = {}
    for a, b in pairs:
        if zname in (a, b):
            continue
        beta[(patch.index(a), patch.index(b))] = se.num(1)
    return BForm(patch, 2, SmoothForm(patch, 1, alpha),
                 SmoothForm(patch, 2, beta), se.sym(zname), zname)


def darboux_verify(omega: BForm, point=None, grid=64, seed=0) -> DarbouxReport:
    """Residual of omega against its flat model near a point of Z.

    Dimension 2 is constructive (via darboux2d): the residual is dt/dy - g.
    Higher dimensions compare coefficient matrices in the singular coframe
    against the standard model.  Either residual is sampled at N_SAMPLE
    points, in a box of a tenth of the patch about `point` when one is
    given, and a non-finite value there raises EvalDomainError.
    """
    patch = omega.patch
    rng = np.random.default_rng(seed)
    pts = _with_params(patch, _sample_box(patch, point, rng))
    if patch.dim == 2:
        change = darboux2d(omega, grid=grid)
        yname = next(n for n in patch.names if n != omega.zname)
        resid = [se.sub(change.jacobian_det,   # dt/dy
                        omega.b_coefficient(omega.zname, yname))]
    else:
        change = None
        W = b_matrix(omega)
        Wm = b_matrix(_standard_model(patch, omega.zname))
        resid = [se.sub(W[i][j], Wm[i][j]) for i in range(patch.dim)
                 for j in range(i + 1, patch.dim)]
    vals = finite(evaluate_tape(_chart_tape(
        [d for d in resid if not is_zero(d)], patch), pts))
    worst = float(np.max(np.abs(vals))) if vals.size else 0.0
    return DarbouxReport(ok=worst < 1e-9, max_residual=worst, change=change)


def _sample_box(patch, point, rng):
    lo = np.array([iv[0] for iv in patch.intervals])
    hi = np.array([iv[1] for iv in patch.intervals])
    if point is not None:
        c = np.array([point[n] if isinstance(point, dict) else point[i]
                      for i, n in enumerate(patch.names)])
        half = 0.1 * (hi - lo) / 2
        lo = np.maximum(lo, c - half)
        hi = np.minimum(hi, c + half)
    u = rng.random((N_SAMPLE, patch.dim))
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# Poincare primitives


def poincare_primitive(rho: SmoothForm, center=None) -> SmoothForm:
    """Primitive of a closed form via the radial homotopy about `center`.

    The ray integral int_0^1 t^(k-1) a(c + t(x-c)) dt is evaluated by
    32-point Gauss-Legendre quadrature with the nodes substituted
    symbolically, so the result is an explicit form (exact for polynomial
    coefficients up to degree 63).
    """
    patch = rho.patch
    k = rho.degree
    if k < 1:
        raise GeometryError("a 0-form has no primitive")
    drho = d_smooth(rho)
    for c in drho.comps.values():
        if not expr_equiv(c, ZERO, patch, tol=1e-10):
            raise GeometryError("form is not closed")
    if center is None:
        center = {n: 0.5 * (a + b)
                  for n, (a, b) in zip(patch.names, patch.intervals)}
    nodes, weights = _gauss01()
    names = patch.names
    disp = {n: se.sub(se.sym(n), Num(float(center[n]))) for n in names}
    out = {}
    for key, a in rho.comps.items():
        ray = []
        for u, w in zip(nodes, weights):
            scaled = {n: se.add(Num(float(center[n])),
                                se.mul(Num(float(u)), disp[n])) for n in names}
            ray.append(se.mul(Num(float(w * u ** (k - 1))),
                              substitute(a, scaled)))
        A = se.add(*ray)
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            term = se.mul(Num(Fraction((-1) ** pos)), disp[names[idx]], A)
            out[rest] = se.add(out.get(rest, ZERO), term)
    return SmoothForm(patch, k - 1, out)


def _collar_primitive(delta: SmoothForm, zname, c):
    """Primitive of a closed form along the retraction of a collar onto
    {z = c}; valid when the pullback of delta to the level set vanishes.

    Returns (rho, core) where rho = (z - c) * core componentwise, so rho
    vanishes identically on the level set and the (z - c) factor is
    available in closed form for smooth division by a defining function."""
    patch = delta.patch
    zi = patch.index(zname)
    level = Num(float(c))   # a float constant, also for a Fraction c
    for key, a in delta.comps.items():
        if zi not in key:
            lvl = substitute(a, {zname: level})
            if not is_zero(lvl) and not expr_equiv(lvl, ZERO, patch):
                raise GeometryError(
                    "form does not pull back to zero on the level set")
    eta = interior_product({zname: se.num(1)}, delta)
    nodes, weights = _gauss01()
    zdisp = se.sub(se.sym(zname), level)
    out = {}
    core = {}
    for key, a in eta.comps.items():
        ray = [se.mul(Num(float(w)),
                      substitute(a, {zname: se.add(level,
                                                   se.mul(Num(float(u)), zdisp))}))
               for u, w in zip(nodes, weights)]
        core[key] = se.add(*ray)
        out[key] = se.mul(zdisp, core[key])
    return (SmoothForm(patch, delta.degree - 1, out),
            SmoothForm(patch, delta.degree - 1, core))


# ---------------------------------------------------------------------------
# Moser verification


@dataclass
class MoserReport:
    max_residual: float
    v_on_Z_max: float
    collar_halvings: int
    collar_radius: float
    steps: int
    mu: object = None
    primitive: object = None
    residuals: object = field(default=None, repr=False)
    sample_points: object = field(default=None, repr=False)


def _antisymmetric(rows, n, m):
    """The full (n, m, m) antisymmetric matrices of upper-triangle rows."""
    W = np.zeros((n, m, m))
    for (i, j), v in rows.items():
        W[:, i, j] = v
        W[:, j, i] = -v
    return W


def _solve_antisymmetric(rows, b, n):
    """Solve W u = b for a batch of n antisymmetric m x m matrices.

    W is given by its strict upper triangle: rows maps (i, j), i < j, to
    the (n,) array of entries W[:, i, j], or a scalar for an entry that is
    the same at every point; an absent entry is 0.  b is the list of the m
    right-hand-side columns, each an (n,) array or a scalar.
    u comes back as one column-contiguous (n, m) array.

    m = 2 performs the operations of LAPACK's partially pivoted LU on
    [[0, a], [-a, 0]], so the result is bit-identical to numpy.linalg.solve.
    m = 4 uses W^-1 = adj(W) / Pf(W), where adj(W) is the antisymmetric
    matrix of complementary entries and Pf(W) the Pfaffian; an absent or
    constant entry takes part as a scalar (0.0 for an absent one), so every
    component sees the operations of the dense formula.  m >= 6 builds the
    full matrices for numpy.linalg.solve.  A singular matrix anywhere in the
    batch raises GeometryError."""
    m = len(b)
    u = np.empty((n, m), order="F")
    if m == 2:
        a01 = rows.get((0, 1), 0.0)
        if np.any(a01 == 0.0):
            raise GeometryError(_DEGENERATE)
        np.divide(b[1], -a01, out=u[:, 0])
        np.divide(b[0], a01, out=u[:, 1])
        return u
    if m == 4:
        a01, a02, a03, a12, a13, a23 = (
            rows.get(key, 0.0)
            for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        pf = a01 * a23 - a02 * a13 + a03 * a12
        if np.any(pf == 0.0):
            raise GeometryError(_DEGENERATE)
        b0, b1, b2, b3 = b
        np.divide(-a23 * b1 + a13 * b2 - a12 * b3, pf, out=u[:, 0])
        np.divide(a23 * b0 - a03 * b2 + a02 * b3, pf, out=u[:, 1])
        np.divide(-a13 * b0 + a03 * b1 - a01 * b3, pf, out=u[:, 2])
        np.divide(a12 * b0 - a02 * b1 + a01 * b2, pf, out=u[:, 3])
        return u
    B = np.empty((n, m))
    for k, col in enumerate(b):
        B[:, k] = col
    try:
        u[:] = np.linalg.solve(_antisymmetric(rows, n, m),
                               B[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise GeometryError(_DEGENERATE) from None
    return u


class _MoserEngine:
    """Shared flow/residual machinery for the two Moser verifiers.

    One tape evaluates the groups of expressions and then the defining
    function f, so a velocity is one tape call; each group is a dict keyed
    by matrix entry (i, j) or by component i.  An entry that is a constant
    (a Num) is not a tape output: it is held as a float, and the blend and
    the solver combine it as a scalar, with the operations, so the bits, of
    a row filled with it.  From the groups' rows (one dict per group, keyed
    like it, of (n,) rows and constant floats), W_rows(rows, t) must
    return the strict upper triangle of the coefficient matrix of omega_t
    in the singular coframe, as a dict keyed by (i, j) that holds only the
    entries that can be nonzero; b_cols(rows) the m columns of the
    right-hand side b of W u = b in the same coframe.  The tape reads the
    points with their parameter columns (forms._with_params): 1.0, and t
    in that of a time parameter `tname`.  Velocities are u
    converted back to coordinate components by scaling the z column with f
    in place.  The system is solved by _solve_antisymmetric: in closed form
    for m = 2 (Cramer, bit-identical to LAPACK's pivoted LU) and m = 4 (the
    Pfaffian adjugate), and by numpy.linalg.solve on full matrices for m >= 6.

    The RK4 state is column-contiguous (Fortran order), like the velocities,
    so the tape's point columns and the solver's right-hand-side columns are
    contiguous reads.  _rk4 copies its points once and forms every stage
    point and the final combination in two preallocated buffers with out=
    ufuncs, in the order of the textbook formulas, so it makes no temporary
    arrays and gives their bits; a large batch is flowed by parts in forked
    children (_forked_flow).  Full (n, m, m) matrices are built only for
    the pullback residual, once for each of W_0 and W_1."""

    def __init__(self, patch, zname, f_expr, groups, W_rows, b_cols,
                 tname=None):
        self.patch = patch
        self.zi = patch.index(zname)
        # per group: its constant entries as floats, and the keys of the
        # entries that the tape evaluates
        self.groups, exprs = [], []
        for g in groups:
            consts = {key: as_float(e.value) for key, e in g.items()
                      if isinstance(e, Num)}
            keys = [key for key in g if key not in consts]
            self.groups.append((consts, keys))
            exprs += [g[key] for key in keys]
        self.tape = _chart_tape(exprs + [f_expr], patch)
        self.W_rows = W_rows
        self.b_cols = b_cols
        self.tname = tname

    def at(self, pts, t):
        """The batch the tape reads at time t."""
        return _with_params(self.patch, pts,
                            {self.tname: t} if self.tname else None)

    def evaluate(self, pts, t):
        """The groups' rows and f at the points at time t, from one tape
        call."""
        vals = evaluate_tape(self.tape, self.at(pts, t))
        rows, s = [], 0
        for consts, keys in self.groups:
            rows.append(dict(consts))
            rows[-1].update(zip(keys, vals[s:s + len(keys)]))
            s += len(keys)
        return rows, vals[-1]

    def velocity(self, pts, t):
        rows, f = self.evaluate(pts, t)
        u = _solve_antisymmetric(self.W_rows(rows, t), self.b_cols(rows),
                                 pts.shape[0])
        u[:, self.zi] *= f
        return u

    def flow(self, pts, n_steps):
        """The RK4 flow of the points over [0, 1] in n_steps steps
        (_rk4).  The batch is cut into _flow_parts contiguous parts, flowed
        side by side by _forked_flow; every RK4 operation is elementwise,
        so each point gets the bits of the serial flow, which runs when
        there is one part or the forked flow fails."""
        n = len(pts)
        parts = _flow_parts(n, n_steps)
        if parts > 1:
            cuts = [n * k // parts for k in range(parts + 1)]
            out = _forked_flow(self._rk4, pts, n_steps, cuts)
            if out is not None:
                return out
        return self._rk4(pts, n_steps)

    def _rk4(self, pts, n_steps):
        """The serial RK4 flow.  The points are copied once; each stage
        point and the weighted sum of the slopes are formed in two buffers,
        in the order of p + h/2*k1 and p + h/6*(k1 + 2*k2 + 2*k3 + k4)."""
        p = np.array(pts, order="F")
        stage = np.empty_like(p)
        slope = np.empty_like(p)

        def stage_point(c, kj):
            # p + c*kj, into stage
            return np.add(p, np.multiply(c, kj, out=stage), out=stage)

        h = 1.0 / n_steps
        for k in range(n_steps):
            t = k * h
            k1 = self.velocity(p, t)
            k2 = self.velocity(stage_point(h / 2, k1), t + h / 2)
            np.add(k1, np.multiply(2, k2, out=slope), out=slope)
            k3 = self.velocity(stage_point(h / 2, k2), t + h / 2)
            k4 = self.velocity(stage_point(h, k3), t + h)
            np.add(slope, np.multiply(2, k3, out=stage), out=slope)
            np.add(slope, k4, out=slope)
            np.add(p, np.multiply(h / 6, slope, out=slope), out=p)
        return p

    def pullback_residual(self, pts, n_steps):
        """max |D J^T Omega_1(flow(p)) J D - W_0(p)| per point, with D the
        diagonal singular-frame scaling at p and J the flow Jacobian from
        central finite differences."""
        n, m = pts.shape
        batch = [pts]
        for j in range(m):
            e = np.zeros(m)
            e[j] = FD_STEP
            batch += [pts + e, pts - e]
        start = np.empty((n * (1 + 2 * m), m), order="F")
        flowed = self.flow(np.concatenate(batch, out=start), n_steps)
        q = flowed[:n]
        J = np.empty((n, m, m))
        for j in range(m):
            plus = flowed[(1 + 2 * j) * n:(2 + 2 * j) * n]
            minus = flowed[(2 + 2 * j) * n:(3 + 2 * j) * n]
            J[:, :, j] = (plus - minus) / (2 * FD_STEP)
        rows, fq = self.evaluate(q, 1.0)
        zi = self.zi
        Omega1 = _antisymmetric(self.W_rows(rows, 1.0), n, m)
        Omega1[:, zi, :] /= fq[:, None]
        Omega1[:, :, zi] /= fq[:, None]
        Omega1[:, zi, zi] = 0.0
        rows, fp = self.evaluate(pts, 0.0)
        A = J.copy()
        A[:, :, zi] *= fp[:, None]
        R = (np.einsum("nia,nij,njb->nab", A, Omega1, A)
             - _antisymmetric(self.W_rows(rows, 0.0), n, m))
        return np.max(np.abs(R), axis=(1, 2))


def _nonzero(exprs):
    """The entries of a dict of expressions that are not identically zero:
    the tape skips them and the solver reads the scalar 0.0 instead."""
    return {key: e for key, e in exprs.items() if not is_zero(e)}


def _upper(W):
    """The strict upper triangle of an expression matrix, keyed by (i, j),
    without the entries that are identically zero."""
    m = len(W)
    return _nonzero({(i, j): W[i][j] for i in range(m)
                     for j in range(i + 1, m)})


def _halton(n, d):
    """The first n points of the unscrambled Halton sequence in d
    dimensions, origin first: coordinate j of point i is the radical
    inverse of i in the j-th prime, as scipy.stats.qmc.Halton(d,
    scramble=False).random(n) gives it, bit for bit."""
    primes = []
    p = 2
    while len(primes) < d:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    u = np.zeros((n, d))
    for j, base in enumerate(primes):
        q = np.arange(n)
        f = 1.0 / base
        while q.any():
            u[:, j] += (q % base) * f
            f /= base
            q //= base
    return u


def _halton_collar(patch, zi, zlo, zhi, n):
    """Low-discrepancy sample points with the singular coordinate confined
    to the collar, a margin of 5% of its half-width in from its ends and out
    from the level set."""
    z_margin = 0.05
    u = _halton(n + 1, patch.dim)[1:]  # drop the origin sample
    lo = np.array([iv[0] for iv in patch.intervals])
    hi = np.array([iv[1] for iv in patch.intervals])
    mid = 0.5 * (zlo + zhi)
    half = 0.5 * (zhi - zlo)
    lo[zi] = mid - (1 - z_margin) * half
    hi[zi] = mid + (1 - z_margin) * half
    pts = lo + 1e-3 + u * (hi - lo - 2e-3)
    # keep points away from the level set itself so 1/f stays finite
    zc = pts[:, zi]
    too_close = np.abs(zc - mid) < z_margin * half
    zc[too_close] = mid + np.sign(zc[too_close] - mid + 1e-12) * z_margin * half
    return pts


def _min_abs_on_collar(expr, patch, zi, zlo, zhi):
    """min |expr| on the tensor grid of COLLAR_GRID points per axis over
    the patch with the singular coordinate confined to [zlo, zhi], declared
    parameters at 1.0 (forms._chart_range); 0.0 when no value is finite.
    Finite values only, unlike forms._grid_min_abs: this scan only picks
    the collar radius, and _collar_flow passes the flow's tangency values
    and residuals through evalcore.finite, so a non-finite value on the
    collar still ends in EvalDomainError there."""
    axes = []
    for i, (a, b) in enumerate(patch.intervals):
        if i == zi:
            a, b = zlo, zhi
        axes.append(np.linspace(a + 1e-9, b - 1e-9, COLLAR_GRID))
    r = _chart_range(expr, patch, axes, lambda v: np.abs(v[np.isfinite(v)]))
    return 0.0 if r is None else r[0]


def _shrink_collar(omega0, omega1, comp):
    """Find a collar about the component on which every interpolated form
    stays nondegenerate; halve the radius up to the retry budget."""
    patch = omega0.patch
    zi = patch.index(omega0.zname)
    lo, hi = patch.intervals[zi]
    r = 0.5 * min(comp.value - lo, hi - comp.value)
    if r <= 0:
        raise GeometryError("component sits on the patch boundary")
    for halvings in range(MAX_COLLAR_HALVINGS + 1):
        ok = True
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            omt = omega0.scale(1.0 - t) + omega1.scale(t) if t else omega0
            top = top_coefficient(omt)
            if _min_abs_on_collar(top, patch, zi, comp.value - r,
                                  comp.value + r) < 1e-9:
                ok = False
                break
        if ok:
            return r, halvings
        r /= 2
    raise GeometryError("interpolated family stays degenerate on every "
                        "collar tried (%d halvings)" % MAX_COLLAR_HALVINGS)


def _restrictions_agree(omega0, omega1, components):
    return all(vanishes(a.alpha_tilde - b.alpha_tilde)
               and vanishes(a.beta_tilde - b.beta_tilde)
               for a, b in zip(restrict_to_Z(omega0, components),
                               restrict_to_Z(omega1, components)))


def _check_flow(n_points, n_steps, dim):
    """Refuse a flow of fewer than one sample point or step, a batch (each
    point with its 2*dim finite-difference neighbours) of more than
    se.GRID_CAP points, or work n_steps * (batch + STEP_OVERHEAD) past
    FLOW_BUDGET, that of the largest batch at N_STEPS steps.  STEP_OVERHEAD
    is the time of a step at one sample point over the time per batch point
    of a step at 40,000, on a 2-D pair: 1,700 to 2,000 on a 2-core Xeon.  A
    4-D pair reads about 1,300, which would allow more steps."""
    if n_points < 1 or n_steps < 1:
        raise ValueError("n_points and n_steps must be at least 1, got %r "
                         "and %r" % (n_points, n_steps))
    batch = n_points * (1 + 2 * dim)
    if batch > se.GRID_CAP:
        raise ValueError("n_points (--points) must be at most %d on a %d-D "
                         "patch, got %r" % (se.GRID_CAP // (1 + 2 * dim), dim,
                                            n_points))
    most = FLOW_BUDGET // (batch + STEP_OVERHEAD)
    if n_steps > most:
        raise ValueError("n_steps (--steps) must be at most %d for %d points "
                         "on a %d-D patch, got %r" % (most, n_points, dim,
                                                      n_steps))


def _flow_parts(n, n_steps):
    """Into how many parts flow cuts a batch of n points flowed n_steps
    steps: one per usable CPU, but no part of fewer than STEP_OVERHEAD
    points (each part pays the per-step overhead in full) or of less work
    than PART_WORK points times steps.  PART_WORK is the time a flow cut in
    two takes over the serial flow of one half (the fork, the child's late
    start, copy-on-write faults and the reap), over the serial time per
    batch point per step: a part of that much work saves what the fork
    costs.  At 9,216 and 20,480 batch points and 8 and 32 steps it read
    129,000 to 258,000 on the 2-D pair of the acceptance tests (8.7 to
    13.6 ms over 52 to 79 ns) and 39,000 to 87,000 on a 4-D pair (10.1 to
    17.9 ms over 186 to 273 ns); 2-core Xeon, Python 3.11.7, numpy 2.4.6,
    one BLAS thread, where an empty child takes 4.7 ms to fork and reap.
    The 2-D figure is the larger, so it splits the fewer flows.  One part,
    the serial flow, off Linux, when SIGCHLD is ignored (the kernel would
    reap the children, exit status and all) and while another thread runs
    (a fork copies only the calling thread, so a lock that another thread
    holds would stay held in the child)."""
    if (sys.platform != "linux"
            or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // STEP_OVERHEAD,
                      n * n_steps // PART_WORK))


def _forked_flow(rk4, pts, n_steps, cuts):
    """rk4(pts, n_steps) by parts: rows cuts[k]:cuts[k + 1] are flowed by
    a forked child for each k >= 1 and here for k = 0, all into one shared
    anonymous mmap.  A child runs rk4 on its part, so it never forks, with
    warnings as errors, and leaves through os._exit with a status that says
    whether its rows are in place.  None when a child fails, or when the
    mmap or a fork raises OSError: the caller's serial flow then raises or
    warns as it always did.  What the first part raises is raised here.
    Every child is reaped before this returns or raises; after a failure
    the children still running are killed first."""
    n, m = pts.shape
    children, ok = [], False
    try:
        try:
            out = np.ndarray((n, m), buffer=mmap.mmap(-1, 8 * n * m),
                             order="F")
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            out[lo:hi] = rk4(pts[lo:hi], n_steps)
                        code = 0
                    finally:
                        os._exit(code)
                children.append(pid)
        except OSError:   # no memory or no process left
            return None
        out[:cuts[1]] = rk4(pts[:cuts[1]], n_steps)
        ok = True
    finally:
        for pid in children:
            if not ok:
                os.kill(pid, signal.SIGKILL)
            ok = os.waitpid(pid, 0)[1] == 0 and ok
    return out if ok else None


def _collar_flow(engine, comp, r, n_points, n_steps, tangency):
    """The flow of one component of Z on its collar of radius r: the
    n_points Halton collar points, the largest |tangency(p, t)| over the
    same points moved onto Z at t = 0, 1/2 and 1, and the per-point
    pullback residual of the n_steps-step flow.  A non-finite tangency
    value or residual raises EvalDomainError."""
    zi = engine.zi
    pts = _halton_collar(engine.patch, zi, comp.value - r, comp.value + r,
                         n_points)
    on_Z = pts.copy()
    on_Z[:, zi] = comp.value
    worst = max(float(np.max(np.abs(finite(tangency(on_Z, t)))))
                for t in (0.0, 0.5, 1.0))
    return pts, worst, finite(engine.pullback_residual(pts, n_steps))


def _moser_report(flows, n_steps, **fields):
    """The MoserReport of the components' _collar_flow results, whose
    values are finite (_collar_flow) and not negative."""
    if not flows:
        raise GeometryError("defining function has no zeros in the patch")
    pts, tangency, resid = zip(*flows)
    return MoserReport(
        max_residual=max(float(np.max(r)) for r in resid),
        v_on_Z_max=max(tangency), steps=n_steps,
        residuals=np.concatenate(resid), sample_points=np.concatenate(pts),
        **fields)


def _relative_engine(omega0, omega1, rho):
    """The flow of the relative statement: -W_t u = rho in the singular
    coframe, where W_t = (1 - t) W_0 + t W_1 and rho_z picks up a factor f."""
    patch = omega0.patch
    m = patch.dim
    rhs = {i: rho.coefficient(i) for i in range(m)}
    zi = patch.index(omega0.zname)
    rhs[zi] = se.mul(omega0.f, rhs[zi])

    def W_rows(rows, t):
        # entry by entry over the entries nonzero in W_0 or W_1; an entry
        # absent from one of them blends its scalar 0.0
        w0, w1 = rows[0], rows[1]
        if t == 0.0:
            return w0
        if t == 1.0:
            return w1
        return {key: (1.0 - t) * w0.get(key, 0.0) + t * w1.get(key, 0.0)
                for key in w0.keys() | w1.keys()}

    groups = [_upper(b_matrix(omega0)), _upper(b_matrix(omega1)),
              _nonzero(rhs)]
    return _MoserEngine(patch, omega0.zname, omega0.f, groups, W_rows,
                        lambda rows: [-rows[2].get(i, 0.0) for i in range(m)])


def moser_relative_verify(omega0: BForm, omega1: BForm, n_points=N_SAMPLE,
                          n_steps=N_STEPS) -> MoserReport:
    """Numerically verify the relative normal-form statement: two singular
    symplectic forms with equal restriction data are related, near the
    hypersurface, by the time-1 flow of the interpolation vector field.

    Builds a primitive of omega0 - omega1 vanishing on the hypersurface,
    solves the contraction equation for v_t in the singular coframe,
    integrates the flow, and reports the pullback residual.
    """
    _check_flow(n_points, n_steps, omega0.patch.dim)
    omega0._check(omega1)
    zname = omega0.zname
    components = find_z_components(omega0)
    if not _restrictions_agree(omega0, omega1, components):
        raise GeometryError("restrictions to the hypersurface differ; the "
                            "relative statement does not apply")
    delta = omega0 - omega1
    smooth_ok, delta_s = _smooth_difference(delta)
    if not smooth_ok:
        raise GeometryError("difference form is not smooth across the "
                            "hypersurface (inconsistent input)")
    if not vanishes(d_smooth(delta_s)):
        raise GeometryError("difference of the two forms is not closed; "
                            "inputs are not both symplectic")

    flows = []
    halvings_used, radius_used = 0, np.inf
    mu = rho = None
    for comp in components:
        r, halvings = _shrink_collar(omega0, omega1, comp)
        halvings_used = max(halvings_used, halvings)
        radius_used = min(radius_used, r)
        cval, h = _factor_at(omega0.f, zname, comp.value)
        rho, core = _collar_primitive(delta_s, zname, cval)
        if h is None:
            raise GeometryError("cannot factor the defining function at the "
                                "component; mu = rho/f not certified smooth")
        mu = core.map_coefficients(lambda a: se.div(a, h))   # rho/f
        engine = _relative_engine(omega0, omega1, rho)
        # tangency: the velocity itself vanishes on the level set
        flows.append(_collar_flow(engine, comp, r, n_points, n_steps,
                                  engine.velocity))
    return _moser_report(flows, n_steps, collar_halvings=halvings_used,
                         collar_radius=float(radius_used), mu=mu,
                         primitive=rho)


def _smooth_difference(delta: BForm):
    """Smooth-form equivalent of a b-form difference, when one exists."""
    if delta.alpha.is_zero():
        return True, delta.beta
    verdict, smooth = is_smooth(delta)
    if not verdict or smooth is None:
        return False, None
    return True, smooth


def _factor_at(f, zname, c):
    """(level, h) with f = (z - level) * h at a component found at c: level
    is the nearby exact rational, as a Fraction, when f divides exactly
    there, otherwise c itself; h is None when f does not divide by
    z - level.  Each candidate level is divided once."""
    cand = Fraction(c).limit_denominator(10 ** 6)
    if abs(float(cand) - c) < 1e-9:
        h = divide_exact(f, se.sub(se.sym(zname), Num(cand)))
        if h is not None:
            return cand, h
    return c, divide_exact(f, se.sub(se.sym(zname), se._coerce(c)))


def _global_engine(omega_t, mu_t):
    """The isotopy field of a family: with d(mu_t) = d/dt omega_t it solves
    -W_t u = -mu_t in the singular coframe (so that L_v omega_t cancels the
    time derivative); W_t and mu_t read t from the column of the parameter
    TIME, and every other declared parameter as 1.0."""
    m = omega_t.patch.dim
    mu = _nonzero({i: mu_t.b_coefficient(i) for i in range(m)})
    return _MoserEngine(omega_t.patch, omega_t.zname, omega_t.f,
                        [_upper(b_matrix(omega_t)), mu],
                        lambda rows, t: rows[0],
                        lambda rows: [rows[1].get(i, 0.0) for i in range(m)],
                        tname=TIME)


def moser_global_verify(omega_t: BForm, mu_t: BForm, n_points=N_SAMPLE,
                        n_steps=N_STEPS) -> MoserReport:
    """Verify the global statement for a symbolically given family.

    omega_t and mu_t are forms whose coefficients contain the declared
    parameter TIME, "t"; mu_t must satisfy d(mu_t) = d/dt omega_t (checked
    symbolically).  The vector field solved from the contraction equation
    is automatically tangent to the hypersurface; its time-1 flow pulls the
    final form back to the initial one up to the reported residual.
    """
    patch = omega_t.patch
    _check_flow(n_points, n_steps, patch.dim)
    if TIME not in patch.params:
        raise ValueError("patch must declare %r as a parameter" % TIME)
    zi = omega_t.zindex
    if TIME in se.free_symbols(omega_t.f):
        raise GeometryError("defining function may not depend on time")

    dmu = d_bform(mu_t)
    dot = BForm(patch, omega_t.degree,
                omega_t.alpha.map_coefficients(lambda e: diff_expr(e, TIME)),
                omega_t.beta.map_coefficients(lambda e: diff_expr(e, TIME)),
                omega_t.f, omega_t.zname)
    if not (vanishes(dmu.alpha - dot.alpha) and vanishes(dmu.beta - dot.beta)):
        raise GeometryError("d(mu_t) != d/dt omega_t; the family is not "
                            "certified isotopic")

    components = find_z_components(omega_t)
    # nondegeneracy of the family across the time grid
    top = top_coefficient(omega_t)
    for tv in (0.0, 0.25, 0.5, 0.75, 1.0):
        vmin, _ = _grid_min_abs(substitute(top, {TIME: tv}), patch, 32)
        if vmin < 1e-9:
            raise GeometryError("family degenerates at t = %g" % tv)

    engine = _global_engine(omega_t, mu_t)
    df = _chart_tape([diff_expr(omega_t.f, n) for n in patch.names], patch)

    def df_v(on_Z, t):
        # tangency: the velocity is tangent to Z where df.v vanishes
        v = engine.velocity(on_Z, t)
        dfm = np.column_stack(evaluate_tape(df, engine.at(on_Z, t)))
        return np.sum(dfm * v, axis=1)

    lo, hi = patch.intervals[zi]
    flows = []
    for comp in components:
        r = 0.5 * min(comp.value - lo, hi - comp.value)
        if patch.periods[zi] is not None and r <= 0:
            r = 0.25 * patch.periods[zi]
        flows.append(_collar_flow(engine, comp, r, n_points, n_steps, df_v))
    return _moser_report(flows, n_steps, collar_halvings=0,
                         collar_radius=float("nan"), mu=mu_t)
