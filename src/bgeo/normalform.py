"""Darboux coordinates in 2-D and numerical Moser-path verification.

darboux2d constructs the explicit coordinate change flattening a singular
2-form (g/z)dz^dy to the model (1/z)dz^dt; t, like the Moser collar's
primitive, is an integral along one coordinate (_primitive).  The Moser
verifier builds the interpolation family omega_t between two forms,
solves the defining linear system for the time-dependent vector field in
the singular frame, integrates its time-1 flow with RK4, and measures the
pullback residual with finite-difference Jacobians at low-discrepancy
sample points, contracted by batched matmul (_congruence).  The flow takes
the steps its tolerance needs: its base points are flowed in 1, 2, 4, ...
steps up to the cap, until a doubling moves none of them by FLOW_FRACTION
of the residual tolerance, and the residual is then measured on the flow
of that many steps (_doubled_steps).  It reads the doubling's last flow of
the base points, so only their finite-difference neighbours are flowed
again.

The flow is one fused pass per velocity.  The Moser engine compiles its
matrix entries, right-hand side and defining function into one
multi-output tape, so a velocity is one tape call.  The coefficient matrix
enters as one (n,) row per strict-upper entry that is not identically
zero, or as a float for a constant one, never as zero-filled (n, m, m)
arrays; the interpolation blends only those rows, and _solve_antisymmetric
reads them with the right-hand side's columns and writes the solution into
one column-contiguous array.  The RK4 state is column-contiguous too, so
the tape reads contiguous point columns, and RK4 runs in two preallocated
buffers, in this one process.  Every term that is present keeps the
floating-point operations of the dense formulas, and a term with an absent
(identically zero) entry is not formed, so the reports do not depend on
the layout.
Two things can differ from the dense formulas run on explicit zeros: an
exactly-zero velocity component may carry the other sign of zero, and a
non-finite entry that meets only absent ones leaves its point's velocity
finite (the pullback residual still reads every entry).  The relative
Moser statement is the one verified: each component of Z runs one collar
flow (_collar_flow), whose tangency defect is the velocity on Z.  Declared
parameters are 1.0 (forms._chart_range on grids, forms._with_params on
every batch the flow reads).  Each hypothesis is decided once, a
symbolic one by forms.vanishes, f is factored at a component once
(_factor_at), and a non-finite residual or velocity on Z raises
EvalDomainError (evalcore.finite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import symexpr as se
from .evalcore import as_float, evaluate_tape, finite
from .forms import (
    BForm,
    GeometryError,
    SmoothForm,
    _abs_range,
    _chart_range,
    _chart_tape,
    _near_rational,
    _with_params,
    b_matrix,
    d_smooth,
    find_z_components,
    interior_product,
    restrict_to_Z,
    smooth_equivalent,
    top_coefficient,
    vanishes,
)
from .symexpr import (
    Num,
    Patch,
    antiderivative,
    diff_expr,
    divide_exact,
    expr_equiv,
    is_zero,
    substitute,
)

N_STEPS = 256   # RK4 steps of a Moser flow over [0, 1], the budget's cap
FLOW_FRACTION = 1e-3   # of tol_residual: a doubling that moves no base
                       # point this far ends the doubling (_doubled_steps)
STEP_OVERHEAD = 1900   # in batch points, measured (_check_flow)
FLOW_BUDGET = N_STEPS * (se.GRID_CAP + STEP_OVERHEAD)
FD_STEP = 1e-5
N_SAMPLE = 200
MAX_COLLAR_HALVINGS = 6
COLLAR_GRID = 16   # points per axis of the collar nondegeneracy grid
_DEGENERATE = "interpolated form is degenerate at a flow point"


def _primitive(a, name, c):
    """The integral of a along `name` from the constant c (a Num): A - A(c)
    for A = antiderivative(a, name) where the table answers, otherwise
    (name - c) * sum_k w_k a(c + u_k (name - c)), the 32-point
    Gauss-Legendre rule on [0, 1] along the ray, kept symbolic."""
    A = antiderivative(a, name)
    if A is not None:
        return se.sub(A, substitute(A, {name: c}))
    x, w = np.polynomial.legendre.leggauss(32)
    disp = se.sub(se.sym(name), c)
    ray = []
    for u, wk in zip(0.5 * (x + 1.0), 0.5 * w):
        at = se.add(c, se.mul(Num(float(u)), disp))
        ray.append(se.mul(Num(float(wk)), substitute(a, {name: at})))
    return se.mul(disp, se.add(*ray))


# ---------------------------------------------------------------------------
# Darboux in dimension 2


@dataclass(frozen=True)
class CoordinateChange:
    """A coordinate change with symbolic forward components."""
    target: Patch
    forward: tuple
    jacobian_det: object


def darboux2d(omega: BForm, grid=64) -> CoordinateChange:
    """Flatten omega = (g/z)dz^dy on a 2-D patch to the model (1/z)dz^dt.

    The new coordinates are (z, t) with t(z, y) the fiberwise integral of g
    from y = 0 (_primitive: exact, or by a symbolic Gauss rule); the
    pullback of (1/z)dz^dt reproduces omega where dt/dy = g, which
    darboux_verify samples.  Requires g nonvanishing and the y-interval to
    contain 0: min |g| on the grid (forms._abs_range) at least 1e-9 and
    1e-6 of max |g|.  The target patch spans the values of t on the grid,
    padded.  A non-finite g or t on the grid raises EvalDomainError.
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
    gmin, gmax = _abs_range(g, patch, patch.axis_grid(n + 1 - n % 2,
                                                      margin=1e-6))
    if gmin < max(1e-9, 1e-6 * gmax):
        raise GeometryError("form coefficient vanishes on the patch "
                            "(min |g| = %.3g)" % gmin)

    t = _primitive(g, yname, se.ZERO)
    tmin, tmax = _chart_range(t, patch, patch.axis_grid(n, margin=1e-6))
    pad = 1e-9 + 1e-9 * (tmax - tmin)
    zi = patch.index(zname)
    target = Patch((zname, "t"), (patch.intervals[zi], (tmin - pad, tmax + pad)),
                   params=patch.params)
    return CoordinateChange(target=target,
                            forward=(se.sym(zname), t),
                            jacobian_det=diff_expr(t, yname))


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


def darboux_verify(omega: BForm, grid=64, seed=0) -> DarbouxReport:
    """Residual of omega against its flat model on its patch.

    Dimension 2 is constructive (via darboux2d): the residual dt/dy - g is
    the one test of dt/dy = g.  Higher dimensions compare coefficient
    matrices in the singular coframe against the standard model.  Either residual is sampled at N_SAMPLE
    uniform points of the patch, and a non-finite value there raises
    EvalDomainError.
    """
    patch = omega.patch
    rng = np.random.default_rng(seed)
    pts = _with_params(patch, _sample_box(patch, rng))
    if patch.dim == 2:
        change = darboux2d(omega, grid=grid)
        yname = next(n for n in patch.names if n != omega.zname)
        resid = [se.sub(change.jacobian_det,   # dt/dy
                        omega.b_coefficient(omega.zname, yname))]
    else:
        change = None
        W = b_matrix(omega)
        Wm = b_matrix(_standard_model(patch, omega.zname))
        resid = [se.sub(W.get(key, se.ZERO), Wm.get(key, se.ZERO))
                 for key in sorted(W.keys() | Wm.keys())]
    vals = finite(evaluate_tape(_chart_tape(
        [d for d in resid if not is_zero(d)], patch), pts))
    worst = float(np.max(np.abs(vals))) if vals.size else 0.0
    return DarbouxReport(ok=worst < 1e-9, max_residual=worst, change=change)


def _sample_box(patch, rng):
    lo = np.array([iv[0] for iv in patch.intervals])
    hi = np.array([iv[1] for iv in patch.intervals])
    u = rng.random((N_SAMPLE, patch.dim))
    return lo + u * (hi - lo)


# ---------------------------------------------------------------------------
# Moser verification


def _collar_primitive(delta: SmoothForm, zname, c):
    """Primitive of a closed form along the retraction of a collar onto
    {z = c}, for a delta whose pullback to the level set vanishes (the
    caller's restriction test; not checked here).  Each component is the
    integral along z from c of its coefficient (_primitive), so the
    primitive vanishes on the level set, exactly when c is a Fraction and
    the coefficient has a closed-form antiderivative."""
    eta = interior_product({zname: se.num(1)}, delta)
    return eta.map_coefficients(lambda a: _primitive(a, zname, se.num(c)))


@dataclass
class MoserReport:
    max_residual: float
    v_on_Z_max: float
    collar_halvings: int
    collar_radius: float
    steps: int
    flow_change: float
    residuals: object = field(repr=False)
    sample_points: object = field(repr=False)


def _antisymmetric(rows, n, m):
    """The full (n, m, m) antisymmetric matrices of upper-triangle rows."""
    W = np.zeros((n, m, m))
    for (i, j), v in rows.items():
        W[:, i, j] = v
        W[:, j, i] = -v
    return W


def _combine(*terms):
    """The signed sum of the products x * y of the terms (sign, x, y), with
    the operations of the dense formula that lists them in this order: the
    first term formed is x * y, or (-x) * y for sign -1, and every later one
    is added to or subtracted from the sum.  A term with an absent factor
    (None) is not formed, a constant factor of 1.0 is not multiplied, and
    the sum of no term is None."""
    total = None
    for sign, x, y in terms:
        if x is None or y is None:
            continue
        if total is None and sign < 0:
            x = -x
        xy = y if _is_one(x) else x if _is_one(y) else x * y
        if total is None:
            total = xy
        elif sign < 0:
            total = total - xy
        else:
            total = total + xy
    return total


def _is_one(x):
    return not isinstance(x, np.ndarray) and x == 1.0


def _put(out, num, den):
    """out = num / den, or 0.0 for an absent numerator (None)."""
    if num is None:
        out[:] = 0.0
    else:
        np.divide(num, den, out=out)


def _solve_antisymmetric(rows, b, n):
    """Solve W u = b for a batch of n antisymmetric m x m matrices.

    W is given by its strict upper triangle: rows maps (i, j), i < j, to
    the (n,) array of entries W[:, i, j], or a scalar for an entry that is
    the same at every point; an entry that is absent is 0.  b is the list
    of the m right-hand-side columns, each an (n,) array, a scalar or None
    for an absent (zero) one.  u comes back as one column-contiguous (n, m)
    array.

    m = 2 performs the operations of LAPACK's partially pivoted LU on
    [[0, a], [-a, 0]], so the result is bit-identical to numpy.linalg.solve.
    m = 4 uses W^-1 = adj(W) / Pf(W), where adj(W) is the antisymmetric
    matrix of complementary entries and Pf(W) the Pfaffian.  In both, a
    term that is present keeps its place and its operations in the dense
    formula, and a term with an absent factor is not formed (_combine); a
    component whose numerator has no term present is 0.0 (_put).  So
    where every entry is present, u has the bits of the dense formulas, and
    otherwise two things differ from the dense formulas run on explicit
    0.0 entries: an exactly-zero component may carry the other sign of
    zero, and a non-finite entry that the formulas only ever multiply by
    absent ones no longer turns the point's components nan.  m >= 6 builds
    the full matrices, with 0.0 for every absent entry, for
    numpy.linalg.solve.  A singular matrix anywhere in the batch, or a
    Pfaffian with no term present, raises GeometryError."""
    m = len(b)
    u = np.empty((n, m), order="F")
    if m == 2:
        a01 = rows.get((0, 1))
        if a01 is None or np.any(a01 == 0.0):
            raise GeometryError(_DEGENERATE)
        b0, b1 = b
        _put(u[:, 0], b1, None if b1 is None else -a01)
        _put(u[:, 1], b0, a01)
        return u
    if m == 4:
        a01, a02, a03, a12, a13, a23 = (
            rows.get(key)
            for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        pf = _combine((1, a01, a23), (-1, a02, a13), (1, a03, a12))
        if pf is None or np.any(pf == 0.0):
            raise GeometryError(_DEGENERATE)
        b0, b1, b2, b3 = b
        _put(u[:, 0], _combine((-1, a23, b1), (1, a13, b2), (-1, a12, b3)),
             pf)
        _put(u[:, 1], _combine((1, a23, b0), (-1, a03, b2), (1, a02, b3)),
             pf)
        _put(u[:, 2], _combine((-1, a13, b0), (1, a03, b1), (-1, a01, b3)),
             pf)
        _put(u[:, 3], _combine((1, a12, b0), (-1, a02, b1), (1, a01, b2)),
             pf)
        return u
    B = np.zeros((n, m))
    for k, col in enumerate(b):
        if col is not None:
            B[:, k] = col
    try:
        u[:] = np.linalg.solve(_antisymmetric(rows, n, m),
                               B[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise GeometryError(_DEGENERATE) from None
    return u


class _MoserEngine:
    """The flow of the relative statement and its pullback residual.

    One tape evaluates three groups of expressions and then the defining
    function f, so a velocity is one tape call: the strict upper triangles
    of W_0 and W_1, the coefficient matrices of omega0 and omega1 in the
    singular coframe, as the dicts from (i, j), i < j, that forms.b_matrix
    returns, and the right-hand side rho, keyed by component i; each holds
    only its entries that are not identically zero (_relative_engine).  An
    entry that is a constant (a Num) is not a tape output: it is held as a
    float, and the blend and the solver combine it as a scalar, with the
    operations, so the bits, of a row filled with it; a constant 1.0 is
    not multiplied.  The tape reads the points with a 1.0 column per
    declared parameter (forms._with_params).  The velocity solves
    -W_t u = rho with
    W_t = (1 - t) W_0 + t W_1, blended entry by entry over the entries of
    W_0 and W_1 (an entry absent from one of them contributes no term, and
    an entry absent from both stays absent, as does a component absent
    from rho), and converts u back to coordinate components by scaling the
    z column with f in place.  The system is solved by
    _solve_antisymmetric: in closed form for m = 2 (Cramer, bit-identical
    to LAPACK's pivoted LU) and m = 4 (the Pfaffian adjugate), and by
    numpy.linalg.solve on full matrices for m >= 6.

    The RK4 state is column-contiguous (Fortran order), like the velocities,
    so the tape's point columns and the solver's right-hand-side columns are
    contiguous reads.  flow copies its points once and forms every stage
    point and the final combination in two preallocated buffers with out=
    ufuncs, in the order of the textbook formulas, so it makes no temporary
    arrays and gives their bits.  Full (n, m, m) matrices are built only
    for the pullback residual, once for each of W_0 and W_1."""

    def __init__(self, patch, zname, f_expr, groups):
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

    def evaluate(self, pts):
        """The rows of W_0, W_1 and rho, and f, at the points, from one
        tape call."""
        vals = evaluate_tape(self.tape, _with_params(self.patch, pts))
        rows, s = [], 0
        for consts, keys in self.groups:
            rows.append(dict(consts))
            rows[-1].update(zip(keys, vals[s:s + len(keys)]))
            s += len(keys)
        return rows, vals[-1]

    def velocity(self, pts, t):
        (w0, w1, rho), f = self.evaluate(pts)
        if t == 0.0:
            W = w0
        elif t == 1.0:
            W = w1
        else:
            W = {key: _combine((1, 1.0 - t, w0.get(key)),
                               (1, t, w1.get(key)))
                 for key in w0.keys() | w1.keys()}
        u = _solve_antisymmetric(
            W, [-rho[i] if i in rho else None for i in range(self.patch.dim)],
            len(pts))
        u[:, self.zi] *= f
        return u

    def flow(self, pts, n_steps):
        """The RK4 flow of the points over [0, 1] in n_steps steps.  The
        points are copied once; each stage point and the weighted sum of the
        slopes are formed in two buffers, in the order of p + h/2*k1 and
        p + h/6*(k1 + 2*k2 + 2*k3 + k4)."""
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

    def pullback_residual(self, pts, n_steps, q):
        """max |D J^T Omega_1(q) J D - W_0(p)| per point p, with q its flow
        in n_steps steps, D the diagonal singular-frame scaling at p and J
        the flow Jacobian from central finite differences.  The caller
        passes q = flow(pts, n_steps), which it has already formed
        (_doubled_steps); only the 2 * m neighbours of each point are flowed
        here.  RK4 runs point by point, so q has the bits of the points'
        rows in a flow of the whole batch."""
        n, m = pts.shape
        batch = []
        for j in range(m):
            e = np.zeros(m)
            e[j] = FD_STEP
            batch += [pts + e, pts - e]
        start = np.empty((n * 2 * m, m), order="F")
        flowed = self.flow(np.concatenate(batch, out=start), n_steps)
        J = np.empty((n, m, m))
        for j in range(m):
            plus = flowed[2 * j * n:(1 + 2 * j) * n]
            minus = flowed[(1 + 2 * j) * n:(2 + 2 * j) * n]
            J[:, :, j] = (plus - minus) / (2 * FD_STEP)
        rows, fq = self.evaluate(q)
        zi = self.zi
        Omega1 = _antisymmetric(rows[1], n, m)
        Omega1[:, zi, :] /= fq[:, None]
        Omega1[:, :, zi] /= fq[:, None]
        Omega1[:, zi, zi] = 0.0
        rows, fp = self.evaluate(pts)
        A = J.copy()
        A[:, :, zi] *= fp[:, None]
        R = _congruence(A, Omega1) - _antisymmetric(rows[0], n, m)
        return np.max(np.abs(R), axis=(1, 2))


def _congruence(A, Omega):
    """A^T Omega A for each of the (n, m, m) matrices A and Omega, by
    batched matmul."""
    return A.transpose(0, 2, 1) @ Omega @ A


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


def _shrink_collar(omega0, omega1, comp):
    """Find a collar about the component on which every interpolated form
    stays nondegenerate; halve the radius up to the retry budget.  A form
    passes when its top coefficient is nowhere zero (forms._abs_range, min
    |c| at least 1e-9) on the grid of COLLAR_GRID points per axis over the
    patch, with the singular coordinate confined to the collar."""
    patch = omega0.patch
    zi = patch.index(omega0.zname)
    lo, hi = patch.intervals[zi]
    r = 0.5 * min(comp.value - lo, hi - comp.value)
    if r <= 0:
        raise GeometryError("component sits on the patch boundary")
    axes = [np.linspace(a + 1e-9, b - 1e-9, COLLAR_GRID)
            for a, b in patch.intervals]
    tops = [top_coefficient(omega0.scale(1.0 - t) + omega1.scale(t)
                            if t else omega0)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for halvings in range(MAX_COLLAR_HALVINGS + 1):
        axes[zi] = np.linspace(comp.value - r + 1e-9, comp.value + r - 1e-9,
                               COLLAR_GRID)
        if all(_abs_range(top, patch, axes)[0] >= 1e-9 for top in tops):
            return r, halvings
        r /= 2
    raise GeometryError("interpolated family stays degenerate on every "
                        "collar tried (%d halvings)" % MAX_COLLAR_HALVINGS)


def _check_flow(n_points, n_steps, dim):
    """Refuse a flow of fewer than one sample point or step, a batch (each
    point with its 2*dim finite-difference neighbours) of more than
    se.GRID_CAP points, or work n_steps * (batch + STEP_OVERHEAD) past
    FLOW_BUDGET, that of the largest batch at N_STEPS steps.  The batch
    counts the points themselves, although the pullback residual flows
    only their neighbours and reads the points' flow from the doubling.
    n_steps is the cap, charged in full whatever count the doubling stops
    at; the doubling's base flows, at most 2 * n_steps steps of the
    n_points alone, add at most 2 * n_steps * (n_points + STEP_OVERHEAD) to
    it (_doubled_steps).  STEP_OVERHEAD is the time of a step at one sample
    point over the time per batch point of a step at 40,000, on a 2-D pair:
    1,700 to 2,000 on a 2-core Xeon.  A 4-D pair reads about 1,300, which
    would allow more steps."""
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


def _doubled_steps(engine, pts, cap, tol):
    """(steps, change, x): the step count of the flow of the points, by
    step doubling.  The points alone are flowed in 1, 2, 4, ... steps, the
    last count cut to cap, until a doubling moves no point by tol or more
    (one whose move is not finite does not stop it); change is that
    doubling's largest move (evalcore.finite), or None when cap is 1, and
    x the last flow, engine.flow(pts, steps), which the pullback residual
    reads.  At tol = 0.0 every count up to cap is flowed and steps is
    cap."""
    steps, x, change = 1, engine.flow(pts, 1), None
    while steps < cap:
        more = min(2 * steps, cap)
        y = engine.flow(pts, more)
        change = np.max(np.abs(y - x))
        steps, x = more, y
        if change < tol:
            break
    return steps, None if change is None else float(finite(change)), x


def _collar_flow(engine, comp, r, n_points, n_steps, tol_residual):
    """The flow of one component of Z on its collar of radius r: the
    n_points Halton collar points, the largest |v| of the velocity over the
    same points moved onto Z at t = 0, 1/2 and 1 (the flow must be tangent
    to Z, and the relative velocity vanishes there), the per-point pullback
    residual of the flow, and the step count and last move of the doubling
    that chose its steps, at most n_steps (_doubled_steps, at FLOW_FRACTION
    of tol_residual).  The residual reads the doubling's last flow of the
    points, so each point is flowed that many steps once, and only its
    finite-difference neighbours again.  A non-finite velocity on Z,
    residual or last move raises EvalDomainError."""
    zi = engine.zi
    pts = _halton_collar(engine.patch, zi, comp.value - r, comp.value + r,
                         n_points)
    on_Z = pts.copy()
    on_Z[:, zi] = comp.value
    worst = max(float(np.max(np.abs(finite(engine.velocity(on_Z, t)))))
                for t in (0.0, 0.5, 1.0))
    steps, change, q = _doubled_steps(engine, pts, n_steps,
                                      FLOW_FRACTION * tol_residual)
    return (pts, worst, finite(engine.pullback_residual(pts, steps, q)),
            steps, change)


def _relative_engine(omega0, omega1, rho):
    """The _MoserEngine of the relative statement: -W_t u = rho in the
    singular coframe, where W_t = (1 - t) W_0 + t W_1 and rho_z picks up a
    factor f."""
    patch = omega0.patch
    rhs = {i: rho.coefficient(i) for i in range(patch.dim)}
    zi = patch.index(omega0.zname)
    rhs[zi] = se.mul(omega0.f, rhs[zi])
    # an entry that is identically zero stays absent from the tape, the
    # blend and the solver
    rhs = {i: e for i, e in rhs.items() if not is_zero(e)}
    return _MoserEngine(patch, omega0.zname, omega0.f,
                        [b_matrix(omega0), b_matrix(omega1), rhs])


def moser_relative_verify(omega0: BForm, omega1: BForm, n_points=N_SAMPLE,
                          *, n_steps, tol_residual=0.0) -> MoserReport:
    """Numerically verify the relative normal-form statement: two singular
    symplectic forms with equal restriction data are related, near the
    hypersurface, by the time-1 flow of the interpolation vector field.

    Decides each hypothesis once, on delta = omega0 - omega1 (its data on
    Z vanish, it has a smooth equivalent, and that is closed), builds a
    primitive of delta vanishing on the hypersurface, solves the
    contraction equation for v_t in the singular coframe, integrates the
    flow in as many steps as step doubling asks for at tol_residual, at
    most n_steps, and reports the pullback residual of that flow.  steps is
    the largest count over the components, and flow_change the largest
    last move (None when n_steps is 1).  At tol_residual = 0.0 every flow
    runs n_steps steps.  Every value the report folds is finite
    (_collar_flow) and not negative.
    """
    _check_flow(n_points, n_steps, omega0.patch.dim)
    delta = omega0 - omega1   # BForm._check: the same patch, z and f
    zname = omega0.zname
    components = find_z_components(omega0)
    if not all(vanishes(pair.alpha_tilde) and vanishes(pair.beta_tilde)
               for pair in restrict_to_Z(delta, components)):
        raise GeometryError("restrictions to the hypersurface differ; the "
                            "relative statement does not apply")
    delta_s = smooth_equivalent(delta)
    if delta_s is None:
        raise GeometryError("difference form is smooth across the "
                            "hypersurface, but alpha/f has no exact quotient "
                            "to build its primitive from")
    if not vanishes(d_smooth(delta_s)):
        raise GeometryError("difference of the two forms is not closed; "
                            "inputs are not both symplectic")

    flows = []
    halvings_used, radius_used = 0, np.inf
    for comp in components:
        r, halvings = _shrink_collar(omega0, omega1, comp)
        halvings_used = max(halvings_used, halvings)
        radius_used = min(radius_used, r)
        cval = _factor_at(omega0.f, zname, comp.value)
        if cval is None:
            raise GeometryError("cannot factor the defining function at the "
                                "component; mu = rho/f not certified smooth")
        rho = _collar_primitive(delta_s, zname, cval)
        flows.append(_collar_flow(_relative_engine(omega0, omega1, rho),
                                  comp, r, n_points, n_steps, tol_residual))
    if not flows:
        raise GeometryError("defining function has no zeros in the patch")
    pts, tangency, resid, steps, changes = zip(*flows)
    return MoserReport(
        max_residual=max(float(np.max(r)) for r in resid),
        v_on_Z_max=max(tangency), collar_halvings=halvings_used,
        collar_radius=float(radius_used), steps=max(steps),
        flow_change=None if n_steps == 1 else max(changes),
        residuals=np.concatenate(resid), sample_points=np.concatenate(pts))


def _factor_at(f, zname, c):
    """The level at which f = (z - level) * h for a component found at c:
    the nearby exact rational, as a Fraction, when f divides exactly there,
    otherwise c itself; None when f does not divide by z - c either.  Each
    candidate level is divided once."""
    for level in (_near_rational(c), c):
        if level is not None and divide_exact(
                f, se.sub(se.sym(zname), se._coerce(level))) is not None:
            return level
    return None
