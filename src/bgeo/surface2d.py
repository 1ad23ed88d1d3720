"""Two-dimensional Poisson structures with transversal zero curves on
standard compact surfaces: zero-set extraction, modular vector fields,
modular periods, regularized volume, and the invariant classifier.

Conventions (recorded in reports): the modular field of Pi = P d1^d2 with
volume V dx1^dx2 is X = (d2(PV)/V) d1 - (d1(PV)/V) d2, which satisfies
alpha~(X|_Z) = 1 against the intrinsic restriction of the dual singular
form; the regularized volume integrates (1/P) dx2^dx1, i.e. the sign is
chosen so the asymmetric sphere model comes out positive.

Numerics: every value comes from compiled tapes evaluated over point
arrays, and no scipy routine runs here; the modular field's two components
and the gradient of P are each one two-output tape.  The marching-squares
value grid is evaluated in the blocks of `symexpr.grid_blocks`, the curve
vertices' brackets in one call per sweep, every other point set by
`_evaluate` in calls of at most `_CHUNK` points.  That grid has at most
`symexpr.grid_per_axis(grid, 2)` points per axis, and the volume twice as
many lines along axis 2.
Roots along chart lines (the one line scan, `evalcore._line_roots`) and
the refined curve vertices are each solved together by the library's one
bracketed solver, `evalcore._solve_brackets` (Illinois regula falsi with
a bisection fallback and the Dekker-Brent minimum step, which stops a
bracket once its root is pinned).  The volume is a principal value line
by line: 1/P less its poles at the line's roots is integrated by
composite 8-point Gauss-Legendre on a uniform mesh cut at the roots, and
the poles' principal values are added in closed form
(Davis and Rabinowitz, Methods of Numerical Integration, 2.12).  The
halfway lines shift their mesh by half a panel, so the change from n to 2n
lines bounds the error along both axes.  A non-finite value where a number
is needed raises `EvalDomainError` (`_evaluate` calls `evalcore.finite`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import symexpr as se
from .evalcore import (_line_roots, _opposite_signs, _solve_brackets,
                       compile_tape, evaluate_tape, finite)
from .forms import GeometryError
from .symexpr import Patch, diff_expr, mul, parse_expr

__all__ = [
    "SurfaceStructure", "ZeroCurve", "RadkoInvariants",
    "sphere_patch", "torus_patch", "make_surface",
    "extract_zero_set", "modular_field", "modular_period",
    "regularized_volume", "radko_invariants", "classify_pair",
    "surface_poisson_cohomology",
]

DELTA_POLE = 1e-3
TAU_CURVE = 1e-10
# the most the regularized volume may move from n to 2n lines
VOLUME_CHANGE_TOL = 1e-4
# a root of P on a line where |d1 P| <= TANGENCY |grad P| is a tangency
TANGENCY = 1e-3
# most points per tape call: bounds the evaluator's stack and the node
# arrays however fine the grid; 4096 points keep the surfaces benchmark's
# peak memory 1 MB lower than 16384, at the same speed
_CHUNK = 1 << 12
# the 8-point Gauss-Legendre rule on [-1, 1], equal to numpy's
# leggauss(8); written out so that no eigensolver runs at import
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])
# panels of the uniform mesh along a line of the regularized volume
_PANELS = 128


def __getattr__(name):
    # perfbench/tracing.py reads surface2d.brentq and surface2d.quad to count
    # calls through them; nothing here calls either, so scipy is imported
    # only when something asks for one of the names
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _evaluate(tape, x1, x2):
    """Tape values at the points (x1, x2), broadcast and flattened, in calls
    of at most _CHUNK points: shape (n,), or (k, n) for a tape of k
    expressions.  A non-finite value raises EvalDomainError."""
    pts = np.empty(np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (2,))
    pts[..., 0], pts[..., 1] = x1, x2
    pts = pts.reshape(-1, 2)
    parts = [evaluate_tape(tape, pts[s:s + _CHUNK])
             for s in range(0, max(len(pts), 1), _CHUNK)]
    return finite(parts[0] if len(parts) == 1
                  else np.concatenate(parts, axis=-1))


def sphere_patch():
    """Cylindrical chart (h, theta) away from the poles."""
    return Patch(("h", "theta"), ((-1.0, 1.0), (0.0, 2 * math.pi)),
                 periods=(None, 2 * math.pi))


def torus_patch():
    return Patch(("t1", "t2"), ((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
                 periods=(2 * math.pi, 2 * math.pi))


@dataclass(frozen=True)
class SurfaceStructure:
    """Pi = P d/dx1 ^ d/dx2 on a 2-D chart with volume V dx1 ^ dx2."""
    topology: str           # "sphere" | "torus"
    patch: Patch
    P: object               # ScalarExpr
    V: object = None        # ScalarExpr, defaults to 1
    orientation: int = 1

    def __post_init__(self):
        if self.patch.dim != 2:
            raise ValueError("surface structures need a 2-D patch")
        if self.patch.periods[1] is None:
            raise ValueError("surface structures need a periodic second axis")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "P", se._coerce(self.P))
        object.__setattr__(self, "V", se._coerce(self.V if self.V is not None
                                                  else 1))


def make_surface(topology, P_text, V_text="1", orientation=1):
    patch = sphere_patch() if topology == "sphere" else torus_patch()
    if topology not in ("sphere", "torus"):
        raise ValueError(f"unsupported topology '{topology}'")
    return SurfaceStructure(topology, patch,
                            parse_expr(P_text, patch),
                            parse_expr(V_text, patch), orientation)


@dataclass
class ZeroCurve:
    points: np.ndarray      # shape (m, 2), refined onto {P = 0}
    closed: bool


@dataclass(frozen=True)
class RadkoInvariants:
    n: int
    periods: tuple
    volume: float
    diagnostics: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# zero-set extraction (marching squares + refinement)


# the segments of a cell by its sign code (bit k set when corner k of
# (i,j), (i+1,j), (i+1,j+1), (i,j+1) is negative), each edge as (kind, di,
# dj) from corner (i,j): bottom, right, top and left
_B, _R, _T, _L = ("h", 0, 0), ("v", 1, 0), ("h", 0, 1), ("v", 0, 0)
_CASES = {1: ((_B, _L),), 2: ((_B, _R),), 3: ((_L, _R),), 4: ((_R, _T),),
          5: ((_B, _R), (_T, _L)), 6: ((_B, _T),), 7: ((_L, _T),),
          8: ((_T, _L),), 9: ((_B, _T),), 10: ((_B, _L), (_R, _T)),
          11: ((_R, _T),), 12: ((_L, _R),), 13: ((_B, _R),),
          14: ((_B, _L),)}


def extract_zero_set(S, grid=64):
    """Extract the zero curves of P by marching squares with periodic
    stitching, then refine every vertex onto {P = 0} by 1-D root solving.

    P is sampled block by block (se.grid_blocks) on at most
    se.grid_per_axis(grid, 2) points per axis; exact zeros count as 1e-300.
    Edge ("h", i, j) joins nodes (i,j)-(i+1,j) and ("v", i, j) joins
    (i,j)-(i,j+1), and a periodic axis repeats its first node.  Each edge
    whose ends differ in sign is crossed once, interpolated from its first
    node; only the crossed cells are visited in Python, in C order."""
    patch = S.patch
    ax1, ax2 = patch.axis_grid(se.grid_per_axis(grid, 2))
    per1, per2 = (p is not None for p in patch.periods)
    tape = compile_tape(S.P, patch.names)
    vals = np.concatenate([evaluate_tape(tape, block) for block in
                           se.grid_blocks([ax1, ax2])])
    vals[vals == 0.0] = 1e-300
    vals = np.pad(vals.reshape(len(ax1), len(ax2)),
                  ((0, int(per1)), (0, int(per2))), mode="wrap")
    n1, n2 = vals.shape[0] - 1, vals.shape[1] - 1   # cells per axis
    (lo1, _), (lo2, _) = patch.intervals
    x1 = lo1 + np.arange(n1 + 1) * (ax1[1] - ax1[0])
    x2 = lo2 + np.arange(n2 + 1) * (ax2[1] - ax2[0])

    cross = {}   # the crossing point of every edge whose ends differ in sign
    for kind, di, dj in (("h", 1, 0), ("v", 0, 1)):
        a, b = vals[:n1 + 1 - di, :n2 + 1 - dj], vals[di:, dj:]
        i, j = np.nonzero((a < 0) != (b < 0))
        p = np.column_stack([x1[i], x2[j]])
        q = np.column_stack([x1[i + di], x2[j + dj]])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = a[i, j] / (a[i, j] - b[i, j])
            pts = p + t[:, None] * (q - p)
        cross.update(zip(zip([kind] * len(i), i.tolist(), j.tolist()), pts))
    neg = vals < 0
    code = (neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:]
            + 8 * neg[:-1, 1:])
    ci, cj = np.nonzero((code != 0) & (code != 15))
    segs = []
    for i, j, c in zip(ci.tolist(), cj.tolist(), code[ci, cj].tolist()):
        for pair in _CASES[c]:
            tags = [(kind, i + di, j + dj) for kind, di, dj in pair]
            segs.append(tuple((tag, cross[tag]) for tag in tags))

    def canon_edge(tag):
        kind, i, j = tag
        if per1:
            i %= n1
        if per2:
            j %= n2
        return (kind, i, j)

    # stitch segments into polylines via shared edges
    adj, point_of = {}, {}
    for (t1, p1), (t2, p2) in segs:
        t1, t2 = canon_edge(t1), canon_edge(t2)
        adj.setdefault(t1, []).append(t2)
        adj.setdefault(t2, []).append(t1)
        point_of[t1] = p1
        point_of[t2] = p2

    visited = set()
    curves = []
    for start in point_of:
        if start in visited:
            continue
        chain = [start]
        visited.add(start)
        closed = False
        while True:
            nbrs = [t for t in adj[chain[-1]] if t not in visited]
            if not nbrs:
                # two vertices joined by two segments are a closed loop too
                last = adj[chain[-1]]
                closed = (chain[0] in last
                          and (len(chain) > 2 or last.count(chain[0]) > 1))
                break
            chain.append(nbrs[0])
            visited.add(nbrs[0])
        # walk the other direction when the start was mid-chain
        if not closed:
            head = [t for t in adj[chain[0]] if t not in visited]
            while head:
                chain.insert(0, head[0])
                visited.add(head[0])
                head = [t for t in adj[chain[0]] if t not in visited]
        pts = np.array([point_of[t] for t in chain])
        pts = _refine_curve(S, pts)
        _check_pole_margin(S, pts)
        curves.append(ZeroCurve(points=pts, closed=closed))
    curves.sort(key=lambda c: (c.points[:, 0].mean(), c.points[:, 1].mean()))
    return curves


def _check_pole_margin(S, pts):
    if S.topology != "sphere":
        return
    if np.any(np.abs(pts[:, 0]) > 1.0 - DELTA_POLE):
        raise GeometryError(
            "zero curve approaches the chart poles (|h| > 1 - 1e-3); "
            "this chart cannot certify the structure")


def _refine_curve(S, pts):
    """Move every vertex onto {P = 0} along its axis of strongest variation.
    Each bracket v0 -+ h grows from h = 1e-2 by doubling while its ends
    have one sign and h < 0.3; then all are solved together, one that ends
    on a zero at that end (_solve_brackets).  A vertex whose bracket values
    are not finite, or whose bracket never changes sign, stays where it
    is; a non-finite gradient raises EvalDomainError."""
    names = S.patch.names
    out = np.array(pts, dtype=float)
    g1, g2 = _evaluate(compile_tape([diff_expr(S.P, n) for n in names],
                                    names), out[:, 0], out[:, 1])
    axis = np.where(np.abs(g1) >= np.abs(g2), 0, 1)
    tape = compile_tape(S.P, names)

    def along(v, k):
        moved = out[k].copy()
        moved[np.arange(len(k)), axis[k]] = v
        return evaluate_tape(tape, moved)

    k = np.arange(len(out))
    v0 = out[k, axis]
    h = np.full(k.size, 1e-2)
    fa, fb = along(v0 - h, k), along(v0 + h, k)
    while True:
        real = np.isfinite(fa) & np.isfinite(fb)
        same = _opposite_signs(fa, -fb)   # fa and fb of one sign
        grow = np.flatnonzero(real & same & (h < 0.3))
        if not grow.size:
            break
        h[grow] *= 2
        fa[grow] = along(v0[grow] - h[grow], k[grow])
        fb[grow] = along(v0[grow] + h[grow], k[grow])
    ok = real & ~same
    k, v0, h, fa, fb = k[ok], v0[ok], h[ok], fa[ok], fb[ok]
    root = _solve_brackets(lambda v, j: along(v, k[j]), v0 - h, v0 + h, fa,
                           fb, TAU_CURVE)
    solved = np.isfinite(root)
    out[k[solved], axis[k[solved]]] = root[solved]
    return out


def _wrapped_diffs(patch, pts, closed):
    """Consecutive displacement vectors, respecting periodic wrap; includes
    the closing segment when closed."""
    nxt = np.roll(pts, -1, axis=0)
    d = nxt - pts
    for ax, per in enumerate(patch.periods):
        if per is not None:
            d[:, ax] = (d[:, ax] + per / 2) % per - per / 2
    return d if closed else d[:-1]


# ---------------------------------------------------------------------------
# modular field and periods


def modular_field(S):
    """X = (d2(PV)/V) d1 - (d1(PV)/V) d2; the divergence of the Hamiltonian
    field of g with respect to V dx1^dx2 evaluates X(g)."""
    n1, n2 = S.patch.names
    PV = mul(S.P, S.V)
    X1 = se.div(diff_expr(PV, n2), S.V)
    X2 = se.neg(se.div(diff_expr(PV, n1), S.V))
    return X1, X2


def modular_period(S, curve):
    """Traversal time of the curve under the modular field, computed as the
    arclength integral of 1/|X| with Richardson extrapolation over two
    subdivisions; positive by construction."""
    names = S.patch.names
    X = compile_tape(modular_field(S), names)

    def total(pts):
        speed = np.hypot(*_evaluate(X, pts[:, 0], pts[:, 1]))
        if np.any(speed < 1e-6):
            raise GeometryError("modular field vanishes on the zero curve")
        d = _wrapped_diffs(S.patch, pts, curve.closed)
        ds = np.hypot(d[:, 0], d[:, 1])
        inv = 1.0 / speed
        n = len(ds)
        return math.fsum(ds * 0.5 * (inv[:n] + np.roll(inv, -1)[:n]))

    pts = curve.points
    estimates = [total(pts)]
    for _ in range(2):
        pts = _subdivide(S, pts, curve.closed)
        estimates.append(total(pts))
    # trapezoid is O(h^2): one Richardson sweep per refinement
    order = 2.0
    while len(estimates) > 1:
        k = 2.0 ** order
        estimates = [(k * b - a) / (k - 1.0)
                     for a, b in zip(estimates, estimates[1:])]
        order += 2.0
    return abs(estimates[0])


def _subdivide(S, pts, closed):
    d = _wrapped_diffs(S.patch, pts, closed)
    mids = pts[: len(d)] + d / 2
    out = np.empty((len(pts) + len(mids), 2))
    out[0::2][: len(pts)] = pts
    out[1::2][: len(mids)] = mids
    out = _refine_curve(S, out)
    return out


# ---------------------------------------------------------------------------
# regularized volume


def regularized_volume(S, grid=64):
    """Principal-value volume of the dual singular area form, and its
    change from n to 2n lines: (V, |V_2n - V_n|).

    Each line x2 = const carries the principal value of the integral of 1/P
    along axis 1.  Its roots r_i come from a 257-point scan of all lines
    (evalcore._line_roots), each polished by one Newton step, with P and its
    derivative d_i along the line from one tape.  The line integrates 1/P
    less the poles 1/(d_i (x - r_i)) by 8-point Gauss-Legendre on the
    panels of a uniform mesh of _PANELS panels, cut at the roots, and adds
    the poles' principal values ln|(hi - r_i)/(lo - r_i)|/d_i.  On a
    periodic axis 1 of period T the poles are (pi/T) cot(pi (x - r_i)/T)/d_i,
    whose principal value over a period is 0, and the mesh runs for one
    period from the first root.  The lines number 2n, n =
    se.grid_per_axis(grid, 2): the n lines of the uniform rule on the
    periodic axis 2 and the n halfway between them, whose mesh nodes are
    shifted by half a panel.  V is the uniform rule over all 2n, times
    -orientation (so the asymmetric sphere model is positive), and V_n the
    rule over the n.  Refused with GeometryError: a change above
    VOLUME_CHANGE_TOL; a zero curve tangent to the lines, that is a root
    where |d_i| <= TANGENCY |grad P| or lines that cross the zero set
    different numbers of times; and a root at an end of a non-periodic
    axis 1, where the principal value diverges."""
    patch = S.patch
    n1, n2 = names = patch.names
    (lo1, hi1), (lo2, hi2) = patch.intervals
    per1 = patch.periods[0]
    n = se.grid_per_axis(grid, 2)
    w2 = (hi2 - lo2) / n
    x2 = np.empty(2 * n)
    x2[0::2] = np.linspace(lo2, hi2, n, endpoint=False)
    x2[1::2] = x2[0::2] + w2 / 2
    lines = np.arange(x2.size)
    P = compile_tape(S.P, names)

    # roots of P along every line, from a 257-point scan
    zs = np.linspace(lo1, hi1, 257)
    step = _CHUNK // zs.size
    ps = np.concatenate([
        _evaluate(P, zs[None, :], x2[s:s + step, None]).reshape(-1, zs.size)
        for s in range(0, x2.size, step)])
    r_line, roots = _line_roots(lambda x, k: _evaluate(P, x, x2[k]), zs, ps,
                                per1 is not None, 1e-15)
    counts = np.bincount(r_line, minlength=x2.size)
    if counts.min() != counts.max():
        raise GeometryError(
            f"zero curve is tangent to the lines {n2} = const: they cross "
            f"it {counts.min()} to {counts.max()} times")
    roots = roots[np.lexsort((roots, r_line))].reshape(x2.size, -1)
    if not per1 and roots.size and (roots.min() <= lo1 or roots.max() >= hi1):
        raise GeometryError(f"zero curve meets the end of the chart in {n1}; "
                            f"the regularized volume diverges")
    p, d1, d2 = (v.reshape(roots.shape) for v in _evaluate(
        compile_tape([S.P] + [diff_expr(S.P, v) for v in names], names),
        roots, x2[:, None]))
    flat = np.abs(d1) <= TANGENCY * np.hypot(d1, d2)
    if flat.any():
        line, i = np.argwhere(flat)[0]
        raise GeometryError(
            f"zero curve is tangent to the lines {n2} = const near "
            f"({n1}, {n2}) = ({roots[line, i]:.6g}, {x2[line]:.6g}): "
            f"|d{n1} P| <= {TANGENCY:g} |grad P| there")
    roots -= p / d1

    # the panels of every line: the uniform mesh, its inner nodes shifted by
    # half a panel on the halfway lines, cut at the roots; a node within a
    # quarter panel of a root is left out, as a thinner panel next to a root
    # magnifies the root's round-off
    width = (hi1 - lo1) / _PANELS
    start = roots[:, 0] if per1 and roots.size else np.full(x2.size, lo1)
    mesh = start[:, None] + width * np.clip(
        np.arange(_PANELS + 2) - (lines[:, None] % 2) / 2, 0, _PANELS)
    keep = np.ones(mesh.shape, dtype=bool)
    for r in roots.T:
        keep &= np.abs(mesh - r[:, None]) >= width / 4
    keep[:, [0, -1]] = True
    inner = roots[:, 1:] if per1 else roots
    c_line = np.concatenate([np.nonzero(keep)[0],
                             np.repeat(lines, inner.shape[1])])
    c_x = np.concatenate([mesh[keep], inner.ravel()])
    order = np.lexsort((c_x, c_line))
    c_line, c_x = c_line[order], c_x[order]
    wide = (c_line[1:] == c_line[:-1]) & (c_x[1:] > c_x[:-1])
    p_line, lo, hi = c_line[:-1][wide], c_x[:-1][wide], c_x[1:][wide]

    line_pv = np.zeros(x2.size)
    c = math.pi / per1 if per1 else None
    step = _CHUNK // _GL_X.size
    for s in range(0, lo.size, step):
        part = slice(s, s + step)
        line = p_line[part]
        half = 0.5 * (hi[part] - lo[part])
        nodes = 0.5 * (hi[part] + lo[part])[:, None] + half[:, None] * _GL_X
        f = np.reciprocal(_evaluate(P, nodes, x2[line, None])).reshape(
            nodes.shape)
        for r, d in zip(roots[line].T, d1[line].T):
            t = nodes - r[:, None]
            f -= (c / np.tan(c * t) if per1 else 1.0 / t) / d[:, None]
        line_pv += np.bincount(line, weights=half * (f @ _GL_W),
                               minlength=x2.size)
    if not per1:
        line_pv += (np.log((hi1 - roots) / (roots - lo1)) / d1).sum(axis=1)
    line_pv *= -S.orientation
    volume = math.fsum(0.5 * w2 * line_pv)
    change = abs(volume - math.fsum(w2 * line_pv[0::2]))
    if not change <= VOLUME_CHANGE_TOL:   # nan too
        raise GeometryError(
            f"regularized volume does not converge: it moved by {change:.3e} "
            f"> {VOLUME_CHANGE_TOL:g} from {n} to {2 * n} lines")
    return volume, change


# ---------------------------------------------------------------------------
# invariants and classification


def radko_invariants(S, grid=64):
    """Curve count, sorted modular periods and regularized volume, with the
    volume's change from n to 2n lines (regularized_volume) as a
    diagnostic."""
    curves = extract_zero_set(S, grid=grid)
    if not curves:
        raise GeometryError("defining function changes sign nowhere on "
                            "the grid: no transversal zero curve, not a "
                            "b-Poisson structure on this surface")
    periods = sorted(modular_period(S, c) for c in curves)
    vol, change = regularized_volume(S, grid=grid)
    return RadkoInvariants(
        n=len(curves), periods=tuple(periods), volume=vol,
        diagnostics={"volume_change": change})


def classify_pair(S1, S2, tol=1e-4, grid=64):
    """Compare invariant tuples; verdict is 'invariant-equivalent' or
    ('distinct', witness)."""
    if S1.topology != S2.topology:
        raise ValueError(
            f"topology mismatch: {S1.topology} vs {S2.topology}")
    r1 = radko_invariants(S1, grid=grid)
    r2 = radko_invariants(S2, grid=grid)
    if r1.n != r2.n:
        return ("distinct", f"curve count {r1.n} vs {r2.n}", r1, r2)
    for p1, p2 in zip(r1.periods, r2.periods):
        if abs(p1 - p2) > tol:
            return ("distinct", f"period {p1:.6g} vs {p2:.6g}", r1, r2)
    if abs(r1.volume - r2.volume) > tol:
        return ("distinct", f"volume {r1.volume:.6g} vs {r2.volume:.6g}",
                r1, r2)
    return ("invariant-equivalent", None, r1, r2)


def surface_poisson_cohomology(g, n):
    """Poisson cohomology dimensions of a genus-g surface whose structure
    vanishes on n transversal curves: (1, n+2g, n+1)."""
    if g < 0 or n < 1:
        raise ValueError("need genus >= 0 and at least one zero curve")
    return (1, n + 2 * g, n + 1)
