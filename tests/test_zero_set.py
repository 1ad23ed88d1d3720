"""Marching squares on arrays against the per-cell loop it replaced.

`loop_extract_zero_set` is the earlier `extract_zero_set` with its grid
helper, verbatim apart from names: a Python loop over every cell, with the
case table rebuilt in each one.  It shares the stitching's inputs with the
library's `_refine_curve` and `_check_pole_margin`, which did not change.
Curves must agree bit for bit (points bytes and `closed`), and so must the
errors raised, at every grid the tests use.
"""

import numpy as np
import pytest

from bgeo.evalcore import compile_tape, evaluate_tape
from bgeo.surface2d import (ZeroCurve, _check_pole_margin, _refine_curve,
                            extract_zero_set, make_surface)


def loop_eval_grid(expr, patch, ax1, ax2):
    tape = compile_tape(expr, patch.names)
    pts = np.column_stack([np.repeat(ax1, len(ax2)), np.tile(ax2, len(ax1))])
    return evaluate_tape(tape, pts).reshape(len(ax1), len(ax2))


def loop_extract_zero_set(S, grid=64):
    patch = S.patch
    ax1, ax2 = patch.axis_grid(grid)
    vals = loop_eval_grid(S.P, patch, ax1, ax2)
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
        curves.append(ZeroCurve(pts, closed))
    curves.sort(key=lambda c: (c.points[:, 0].mean(), c.points[:, 1].mean()))
    return curves


CASES = [
    # the acceptance spheres; P = h is exactly 0 at the middle node of an
    # odd grid
    ("sphere", "h"), ("sphere", "2*h"), ("sphere", "h*(2+h)/2"),
    # the torus pair: sin(t1) is exactly 0 on the seam t1 = 0
    ("torus", "sin(t1)"), ("torus", "sin(2*t1)"),
    # a curve across the periodic seam of theta, one near the seam of t2
    ("sphere", "h - 3/10*sin(theta)"), ("torus", "sin(t2 - 1/20)"),
    # saddles, where a cell has the diagonal codes 5 and 10; cos(t1) + cos(t2)
    # is exactly 0 at the saddle nodes (0, pi) and (pi, 0) of an even grid
    ("torus", "sin(t1 + 1/10)*sin(t2 + 1/5)"), ("torus", "cos(t1) + cos(t2)"),
    ("sphere", "h^2 - 1/4"),
    # non-finite values: nan below h = -1/2, a pole at h = 0
    ("sphere", "h*log(h + 1/2)"), ("sphere", "log(h + 1/2)"),
    ("sphere", "1/h"), ("sphere", "exp(800*h) - 1"),
    # too close to the poles of the chart
    ("sphere", "h - 9995/10000"),
]
GRIDS = list(range(2, 21)) + [32, 33, 64, 129]


def outcome(extract, S, grid):
    """The curves as (points bytes, closed), or the error."""
    try:
        with np.errstate(all="ignore"):   # the loop's scalar arithmetic
            curves = extract(S, grid=grid)
    except Exception as exc:   # noqa: BLE001 - the error is compared
        return type(exc), str(exc)
    return [(c.points.dtype, c.points.tobytes(), c.closed) for c in curves]


@pytest.mark.parametrize("topology,P", CASES, ids=lambda v: str(v))
def test_curves_match_cell_loop(topology, P):
    S = make_surface(topology, P)
    for grid in GRIDS:
        assert outcome(extract_zero_set, S, grid) == \
            outcome(loop_extract_zero_set, S, grid), grid


def test_cases_cover_saddles_seams_and_exact_zeros():
    """The cases reach every sign code, including the saddles 5 and 10, a
    node that is exactly 0, a non-finite node and a crossing on a seam."""
    codes, zeros, nonfinite, seam = set(), 0, 0, 0
    for topology, P in CASES:
        S = make_surface(topology, P)
        for grid in (32, 33):
            ax1, ax2 = S.patch.axis_grid(grid)
            vals = loop_eval_grid(S.P, S.patch, ax1, ax2)
            zeros += int((vals == 0.0).sum())
            nonfinite += int((~np.isfinite(vals)).sum())
            neg = np.where(vals == 0.0, 1e-300, vals) < 0
            if S.patch.periods[1] is not None:
                seam += int((neg[:, 0] != neg[:, -1]).sum())
            neg = neg if S.patch.periods[1] is None else \
                np.hstack([neg, neg[:, :1]])
            neg = neg if S.patch.periods[0] is None else \
                np.vstack([neg, neg[:1]])
            codes |= set((neg[:-1, :-1] + 2 * neg[1:, :-1] + 4 * neg[1:, 1:]
                          + 8 * neg[:-1, 1:]).ravel().tolist())
    assert codes == set(range(16))
    assert zeros and nonfinite and seam
