"""Two-dimensional Poisson structures with transversal zero curves on
standard compact surfaces: zero-set extraction, modular vector fields,
modular periods, regularized volume, and the invariant classifier.

Conventions (recorded in reports): the modular field of Pi = P d1^d2 with
volume V dx1^dx2 is X = (d2(PV)/V) d1 - (d1(PV)/V) d2, which satisfies
alpha~(X|_Z) = 1 against the intrinsic restriction of the dual singular
form; the regularized volume integrates (1/P) dx2^dx1, i.e. the sign is
chosen so the asymmetric sphere model comes out positive.

Numerics: every value comes from compiled tapes evaluated over point
arrays, at most `_CHUNK` points per call, and no scipy routine runs here.
Roots along chart lines, the strip edges of the volume cut-off and the
refined curve vertices are each solved together by one bracketed solver
(Illinois regula falsi with a bisection fallback).  The volume integrates
every strip by composite 8-point Gauss-Legendre on panels between the
uniform nodes, graded geometrically toward every strip edge.  A non-finite
value where a number is needed raises `EvalDomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# unused here; bound because perfbench/tracing.py counts calls through them
from scipy.integrate import quad  # noqa: F401
from scipy.optimize import brentq  # noqa: F401

from . import symexpr as se
from .evalcore import compile_tape, evaluate_tape
from .forms import GeometryError
from .symexpr import (
    Patch,
    diff_expr,
    expr_equiv,
    is_zero,
    mul,
    normalize,
    parse_expr,
    substitute,
)

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
# a bracket at least halves every three solver steps: 200 take a chart-wide
# bracket far below xtol = 1e-15
_MAX_STEPS = 200
_RTOL = 4 * np.finfo(float).eps   # as scipy's brentq
# the 8-point Gauss-Legendre rule on [-1, 1], equal to numpy's
# leggauss(8); written out so that no eigensolver runs at import
_GL_X = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                  -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975362])
_GL_W = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                  0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                  0.22238103445337443, 0.10122853629037706])


def _evaluate(tape, x1, x2, strict=True):
    """Tape values at the points (x1, x2), broadcast and flattened, in calls
    of at most _CHUNK points.  With strict, a non-finite value raises
    EvalDomainError."""
    pts = np.empty(np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (2,))
    pts[..., 0], pts[..., 1] = x1, x2
    pts = pts.reshape(-1, 2)
    parts = [evaluate_tape(tape, pts[s:s + _CHUNK])
             for s in range(0, max(len(pts), 1), _CHUNK)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if strict and not np.isfinite(out).all():
        bad = out[~np.isfinite(out)][0]
        raise se.EvalDomainError(f"non-finite value {bad}")
    return out


def _solve_brackets(f, a, b, fa, fb, xtol):
    """Roots of f in the brackets [a, b], a < b, whose end values fa and fb
    have opposite signs, all solved together.  f(x, k) gives the values at
    the points x of the brackets numbered k.  Each step is Illinois regula
    falsi (an end kept twice in a row has its weight halved), or bisection
    when the falsi point is not inside or two steps have not halved the
    bracket.  A bracket stops on an exact zero or once narrower than
    xtol + _RTOL * |x|, at its end of smaller |f|; one on which f turns
    non-finite gives nan."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    k = np.arange(a.size)
    ma, mb = np.ones(a.size), np.ones(a.size)
    kept = np.zeros(a.size, dtype=int)   # end kept last step: -1 a, 1 b
    w1, w2 = np.full(a.size, np.inf), np.full(a.size, np.inf)
    for _ in range(_MAX_STEPS):
        w = b - a
        going = w > xtol + _RTOL * np.maximum(abs(a), abs(b))
        root[k[~going]] = np.where(np.abs(fa) <= np.abs(fb), a, b)[~going]
        k, a, b, fa, fb, ma, mb, kept, w, w1, w2 = (
            v[going] for v in (k, a, b, fa, fb, ma, mb, kept, w, w1, w2))
        if not k.size:
            break
        x = (a * fb * mb - b * fa * ma) / (fb * mb - fa * ma)
        bisect = ~((x > a) & (x < b)) | (w > 0.5 * w2)
        x = np.where(bisect, 0.5 * (a + b), x)
        fx = f(x, k)
        finite = np.isfinite(fx)
        root[k[~finite]] = np.nan
        root[k[fx == 0]] = x[fx == 0]
        left = np.sign(fx) == np.sign(fa)   # x replaces a, b is kept
        mb = np.where(left, np.where(kept == 1, 0.5 * mb, mb), 1.0)
        ma = np.where(left, 1.0, np.where(kept == -1, 0.5 * ma, ma))
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, fx)
        kept = np.where(left, 1, -1)
        live = finite & (fx != 0)
        k, a, b, fa, fb, ma, mb, kept, w1, w2 = (
            v[live] for v in (k, a, b, fa, fb, ma, mb, kept, w, w1))
    root[k] = np.where(np.abs(fa) <= np.abs(fb), a, b)
    return root


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


def _grid_axes(patch, n):
    axes = []
    for (a, b), per in zip(patch.intervals, patch.periods):
        axes.append(np.linspace(a, b, n, endpoint=per is None))
    return axes


def _eval_grid(expr, patch, ax1, ax2):
    tape = compile_tape(expr, patch.names)
    return _evaluate(tape, ax1[:, None], ax2[None, :], strict=False).reshape(
        len(ax1), len(ax2))


def extract_zero_set(S, grid=64):
    """Extract the zero curves of P by marching squares with periodic
    stitching, then refine every vertex onto {P = 0} by 1-D root solving."""
    patch = S.patch
    ax1, ax2 = _grid_axes(patch, grid)
    vals = _eval_grid(S.P, patch, ax1, ax2)
    per1 = patch.periods[0] is not None
    per2 = patch.periods[1] is not None
    n1 = len(ax1) if per1 else len(ax1) - 1
    n2 = len(ax2) if per2 else len(ax2) - 1
    (lo1, hi1), (lo2, hi2) = patch.intervals
    w1, w2 = hi1 - lo1, hi2 - lo2
    step1 = ax1[1] - ax1[0]
    step2 = ax2[1] - ax2[0]

    def node(i, j):
        return vals[i % len(ax1), j % len(ax2)]

    def coord(i, j):
        return lo1 + i * step1, lo2 + j * step2

    def interp(p, q, vp, vq):
        t = vp / (vp - vq)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    # each segment endpoint is tagged by its grid edge so segments join
    # exactly; edges are ("h", i, j) between (i,j)-(i+1,j) and ("v", i, j)
    # between (i,j)-(i,j+1)
    segs = []
    for i in range(n1):
        for j in range(n2):
            c = [node(i, j), node(i + 1, j), node(i + 1, j + 1), node(i, j + 1)]
            if any(v == 0.0 for v in c):
                # nudge exact zeros to keep the case analysis binary
                c = [v if v != 0.0 else 1e-300 for v in c]
            code = sum((1 << k) for k, v in enumerate(c) if v < 0)
            if code in (0, 15):
                continue
            p = [coord(i, j), coord(i + 1, j), coord(i + 1, j + 1), coord(i, j + 1)]

            def edge(which):
                # only called for edges the case table says are crossed
                if which == "b":
                    return (("h", i, j), interp(p[0], p[1], c[0], c[1]))
                if which == "r":
                    return (("v", i + 1, j), interp(p[1], p[2], c[1], c[2]))
                if which == "t":
                    return (("h", i, j + 1), interp(p[3], p[2], c[3], c[2]))
                return (("v", i, j), interp(p[0], p[3], c[0], c[3]))
            table = {
                1: [("b", "l")], 2: [("b", "r")], 3: [("l", "r")],
                4: [("r", "t")], 5: [("b", "r"), ("t", "l")],
                6: [("b", "t")], 7: [("l", "t")],
                8: [("t", "l")], 9: [("b", "t")],
                10: [("b", "l"), ("r", "t")], 11: [("r", "t")],
                12: [("l", "r")], 13: [("b", "r")], 14: [("b", "l")],
            }
            for e1, e2 in table[code]:
                segs.append((edge(e1), edge(e2)))

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
                last = [t for t, _ in adj[chain[-1]]]
                closed = chain[0] in last and len(chain) > 2
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
    g1, g2 = (_evaluate(compile_tape(diff_expr(S.P, n), names),
                        out[:, 0], out[:, 1]) for n in names)
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


def modular_period(S, curve, _refinements=2):
    """Traversal time of the curve under the modular field, computed as the
    arclength integral of 1/|X| with Richardson extrapolation; positive by
    construction."""
    names = S.patch.names
    X1, X2 = (compile_tape(X, names) for X in modular_field(S))

    def total(pts):
        speed = np.hypot(_evaluate(X1, pts[:, 0], pts[:, 1]),
                         _evaluate(X2, pts[:, 0], pts[:, 1]))
        if np.any(speed < 1e-6):
            raise GeometryError("modular field vanishes on the zero curve")
        d = _wrapped_diffs(S.patch, pts, curve.closed)
        ds = np.hypot(d[:, 0], d[:, 1])
        inv = 1.0 / speed
        n = len(ds)
        return math.fsum(ds * 0.5 * (inv[:n] + np.roll(inv, -1)[:n]))

    pts = curve.points
    estimates = [total(pts)]
    for _ in range(_refinements):
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


def regularized_volume(S, grid=64, eps0=1e-2, halvings=8, tau_log=1e-4,
                       cutoff_factor=None, return_series=False):
    """Principal-value volume of the dual singular area form.

    V(eps) integrates orientation * (1/P) over {|P| > eps} (sign fixed so
    the asymmetric sphere model is positive); the sequence eps0, eps0/2, ...
    is fitted against c*log(eps) + V0 and V0 returned when |c| < tau_log."""
    patch = S.patch
    names = patch.names
    (lo1, hi1), (lo2, hi2) = patch.intervals
    per2 = patch.periods[1]
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

    eps_list = [eps0 / 2 ** k for k in range(halvings + 1)]
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
