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
value grid is evaluated in the blocks of `symexpr.grid_blocks`, every other
point set in calls of at most `_CHUNK` points.  That grid and the volume's
lines along axis 2 have at most `symexpr.grid_per_axis(grid, 2)` points
per axis.
Roots along chart lines, the strip edges of the volume cut-off and the
refined curve vertices are each solved together by the library's one
bracketed solver, `evalcore._solve_brackets` (Illinois regula falsi with a
bisection fallback).  The volume integrates every strip by composite
8-point Gauss-Legendre on panels between the uniform nodes, graded
geometrically toward every strip edge.  A non-finite value where a number
is needed raises `EvalDomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import symexpr as se
from .evalcore import _solve_brackets, compile_tape, evaluate_tape
from .forms import GeometryError
from .symexpr import Patch, diff_expr, mul, normalize, parse_expr

__all__ = [
    "SurfaceStructure", "ZeroCurve", "RadkoInvariants",
    "sphere_patch", "torus_patch", "make_surface",
    "extract_zero_set", "modular_field", "modular_period",
    "regularized_volume", "radko_invariants", "classify_pair",
    "surface_poisson_cohomology",
]

DELTA_POLE = 1e-3
TAU_CURVE = 1e-10
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


def _evaluate(tape, x1, x2, strict=True):
    """Tape values at the points (x1, x2), broadcast and flattened, in calls
    of at most _CHUNK points: shape (n,), or (k, n) for a tape of k
    expressions.  With strict, a non-finite value raises EvalDomainError."""
    pts = np.empty(np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (2,))
    pts[..., 0], pts[..., 1] = x1, x2
    pts = pts.reshape(-1, 2)
    parts = [evaluate_tape(tape, pts[s:s + _CHUNK])
             for s in range(0, max(len(pts), 1), _CHUNK)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if strict and not np.isfinite(out).all():
        bad = out[~np.isfinite(out)][0]
        raise se.EvalDomainError(f"non-finite value {bad}")
    return out


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
    length: float


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
    adj = {}
    for (t1, p1), (t2, p2) in segs:
        t1, t2 = canon_edge(t1), canon_edge(t2)
        adj.setdefault(t1, []).append((t2, p2))
        adj.setdefault(t2, []).append((t1, p1))
    point_of = {}
    for (t1, p1), (t2, p2) in segs:
        point_of[canon_edge(t1)] = p1
        point_of[canon_edge(t2)] = p2

    visited = set()
    curves = []
    for start in point_of:
        if start in visited or len(adj.get(start, ())) == 0:
            continue
        chain = [start]
        visited.add(start)
        closed = False
        while True:
            nbrs = [t for t, _ in adj[chain[-1]] if t not in visited]
            if not nbrs:
                # two vertices joined by two segments are a closed loop too
                last = [t for t, _ in adj[chain[-1]]]
                closed = (chain[0] in last
                          and (len(chain) > 2 or last.count(chain[0]) > 1))
                break
            chain.append(nbrs[0])
            visited.add(nbrs[0])
        # walk the other direction when the start was mid-chain
        if not closed:
            head = [t for t, _ in adj[chain[0]] if t not in visited]
            while head:
                chain.insert(0, head[0])
                visited.add(head[0])
                head = [t for t, _ in adj[chain[0]] if t not in visited]
        pts = np.array([point_of[t] for t in chain])
        pts = _refine_curve(S, pts)
        _check_pole_margin(S, pts)
        curves.append(_finish_curve(S, pts, closed))
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
    Each bracket v0 -+ h grows from h = 1e-2 by doubling while it has no
    sign change and h < 0.3; then all are solved together.  A vertex whose
    bracket values are not finite, or whose bracket never changes sign,
    stays where it is; a non-finite gradient raises EvalDomainError."""
    names = S.patch.names
    out = np.array(pts, dtype=float)
    g1, g2 = _evaluate(compile_tape([diff_expr(S.P, n) for n in names],
                                    names), out[:, 0], out[:, 1])
    axis = np.where(np.abs(g1) >= np.abs(g2), 0, 1)
    tape = compile_tape(S.P, names)

    def along(v, k):
        moved = out[k].copy()
        moved[np.arange(len(k)), axis[k]] = v
        return _evaluate(tape, moved[:, 0], moved[:, 1], strict=False)

    k = np.arange(len(out))
    v0 = out[k, axis]
    h = np.full(k.size, 1e-2)
    fa, fb = along(v0 - h, k), along(v0 + h, k)
    while True:
        finite = np.isfinite(fa) & np.isfinite(fb)
        grow = np.flatnonzero(finite & (fa * fb > 0) & (h < 0.3))
        if not grow.size:
            break
        h[grow] *= 2
        fa[grow] = along(v0[grow] - h[grow], k[grow])
        fb[grow] = along(v0[grow] + h[grow], k[grow])
    ok = finite & (fa * fb <= 0)
    k, v0, h, fa, fb = k[ok], v0[ok], h[ok], fa[ok], fb[ok]
    root = np.where(fa == 0, v0 - h, v0 + h)
    o = np.flatnonzero((fa != 0) & (fb != 0))
    root[o] = _solve_brackets(lambda v, j: along(v, k[o[j]]), v0[o] - h[o],
                              v0[o] + h[o], fa[o], fb[o], TAU_CURVE)
    solved = np.isfinite(root)
    out[k[solved], axis[k[solved]]] = root[solved]
    return out


def _finish_curve(S, pts, closed):
    diffs = _wrapped_diffs(S.patch, pts, closed)
    length = float(np.sum(np.hypot(diffs[:, 0], diffs[:, 1])))
    return ZeroCurve(points=pts, closed=closed, length=length)


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
    return (normalize(X1), normalize(X2))


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


def regularized_volume(S, grid=64, tau_log=1e-4, cutoff_factor=None,
                       return_series=False):
    """Principal-value volume of the dual singular area form.

    V(eps) integrates orientation * (1/P) over {|P| > eps} (sign fixed so
    the asymmetric sphere model is positive); the sequence 1e-2, 1e-2/2,
    ..., 1e-2/2^8 is fitted against c*log(eps) + V0 and V0 returned when
    |c| < tau_log.  The lines along axis 2 number at most
    se.grid_per_axis(grid, 2)."""
    patch = S.patch
    names = patch.names
    (lo1, hi1), (lo2, hi2) = patch.intervals
    per2 = patch.periods[1]
    grid = se.grid_per_axis(grid, 2)
    # nodes along axis 2; periodic axes use the uniform (spectrally
    # accurate) rule, bounded axes use Gauss-Legendre
    if per2 is not None:
        x2s = np.linspace(lo2, hi2, grid, endpoint=False)
        w2s = np.full(grid, (hi2 - lo2) / grid)
    else:
        x2s, w2s = np.polynomial.legendre.leggauss(grid)
        x2s = 0.5 * (x2s + 1) * (hi2 - lo2) + lo2
        w2s = 0.5 * (hi2 - lo2) * w2s

    cut = cutoff_factor if cutoff_factor is not None else se.ONE
    P = compile_tape(S.P, names)
    C = compile_tape(cut, names)
    nl = len(x2s)
    lines = np.arange(nl)

    def gate_abs(x1, line):
        """|P * cut| at x1 on the given lines; the gate is that minus eps."""
        x2 = x2s[line]
        return np.abs(_evaluate(P, x1, x2) * _evaluate(C, x1, x2))

    # roots of P along every line: exact zeros of a 257-point scan and one
    # solved root per sign change
    zs = np.linspace(lo1, hi1, 257)
    ps = _evaluate(P, zs[None, :], x2s[:, None]).reshape(nl, zs.size)
    z_line, z_i = np.nonzero(ps == 0.0)
    b_line, b_i = np.nonzero(ps[:, :-1] * ps[:, 1:] < 0)
    r_line = np.concatenate([z_line, b_line])
    roots = np.concatenate([zs[z_i], _solve_brackets(
        lambda x, k: _evaluate(P, x, x2s[b_line[k]]), zs[b_i], zs[b_i + 1],
        ps[b_line, b_i], ps[b_line, b_i + 1], 1e-15)])

    # bracket the strip edges on a mesh concentrated near the roots (the
    # strips shrink with eps, so a uniform mesh would miss them); the mesh
    # does not depend on eps, so |P * cut| on it is evaluated once
    uniform = np.linspace(lo1, hi1, 129)
    offsets = np.geomspace(1e-8, 0.5, 48)
    m_line = np.concatenate([np.repeat(lines, uniform.size),
                             np.repeat(r_line, 2 * offsets.size)])
    mesh = np.clip(np.concatenate([
        np.tile(uniform, nl),
        (roots[:, None] + np.concatenate([offsets, -offsets])).ravel()]),
        lo1, hi1)
    order = np.lexsort((mesh, m_line))
    m_line, mesh = m_line[order], mesh[order]
    fresh = np.r_[True, (m_line[1:] != m_line[:-1]) | (mesh[1:] != mesh[:-1])]
    m_line, mesh = m_line[fresh], mesh[fresh]
    mesh_abs = gate_abs(mesh, m_line)
    same = m_line[1:] == m_line[:-1]
    # integration panels: the uniform nodes plus knots graded geometrically
    # toward each strip edge, where 1/P is steepest
    graded = (hi1 - lo1) * np.geomspace(1e-10, 0.5, 36)

    def level(eps):
        """V(eps) before the orientation sign."""
        g = mesh_abs - eps
        e_i = np.flatnonzero(same & (g[:-1] * g[1:] < 0))
        z_i = np.flatnonzero(same & (g[:-1] == 0.0))
        edges = _solve_brackets(
            lambda x, k: gate_abs(x, m_line[e_i[k]]) - eps,
            mesh[e_i], mesh[e_i + 1], g[e_i], g[e_i + 1], 1e-15)
        # every line runs lo1, its strip edges in mesh order, hi1
        c_line = np.concatenate([lines, m_line[z_i], m_line[e_i], lines])
        c_key = np.concatenate([np.full(nl, -1), z_i, e_i,
                                np.full(nl, mesh.size)])
        c_x = np.concatenate([np.full(nl, lo1), mesh[z_i], edges,
                              np.full(nl, hi1)])
        order = np.lexsort((c_key, c_line))
        c_line, c_x = c_line[order], c_x[order]
        s_line, a, b = c_line[:-1], c_x[:-1], c_x[1:]
        strip = np.flatnonzero((c_line[1:] == s_line) & (b - a >= 1e-13))
        s_line, a, b = s_line[strip], a[strip], b[strip]
        inside = gate_abs(0.5 * (a + b), s_line) - eps > 0
        s_line, a, b = s_line[inside], a[inside], b[inside]

        knots = np.concatenate([
            np.broadcast_to(uniform, (a.size, uniform.size)),
            a[:, None] + graded, b[:, None] - graded,
            a[:, None], b[:, None]], axis=1)
        knots = np.sort(np.clip(knots, a[:, None], b[:, None]), axis=1)
        lo, hi = knots[:, :-1], knots[:, 1:]
        wide = hi > lo
        p_line = np.broadcast_to(s_line[:, None], lo.shape)[wide]
        half, mid = 0.5 * (hi - lo)[wide], 0.5 * (hi + lo)[wide]
        totals = np.zeros(nl)
        step = _CHUNK // _GL_X.size
        for s in range(0, half.size, step):
            part = slice(s, s + step)
            nodes = mid[part, None] + half[part, None] * _GL_X
            inv = np.reciprocal(_evaluate(P, nodes, x2s[p_line[part], None]))
            totals += np.bincount(p_line[part], minlength=nl,
                                  weights=half[part] * (
                                      inv.reshape(nodes.shape) @ _GL_W))
        return math.fsum(w2s * totals)

    eps_list = [1e-2 / 2 ** k for k in range(9)]
    series = [-S.orientation * level(eps) for eps in eps_list]
    # fit V(eps) = c log(eps) + V0 + a*eps; the linear term soaks up the
    # strip-asymmetry correction so it does not contaminate c or V0
    L = np.log(eps_list)
    A = np.stack([L, np.ones_like(L), np.array(eps_list)], axis=1)
    (c, v0, _a), *_ = np.linalg.lstsq(A, np.array(series), rcond=None)
    if abs(c) >= tau_log:
        raise GeometryError(
            f"regularized volume does not converge: log coefficient "
            f"{c:.3e} >= {tau_log:g}")
    if return_series:
        return float(v0), float(c), list(zip(eps_list, series))
    return float(v0), float(c)


# ---------------------------------------------------------------------------
# invariants and classification


def radko_invariants(S, grid=64):
    curves = extract_zero_set(S, grid=grid)
    if not curves:
        raise GeometryError(
            "Poisson coefficient has no zeros: not a b-type structure "
            "on this surface")
    periods = sorted(modular_period(S, c) for c in curves)
    vol, logc = regularized_volume(S, grid=grid)
    return RadkoInvariants(
        n=len(curves), periods=tuple(periods), volume=vol,
        diagnostics={"log_coefficient": logc, "grid": grid,
                     "curve_lengths": [c.length for c in curves]})


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
