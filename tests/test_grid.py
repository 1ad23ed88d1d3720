"""The streamed tensor grid against the full-grid path it replaced.

grid_blocks yields the tensor grid in blocks; the grid reductions
(_grid_min_abs, _grid_extrema, _min_abs_on_collar) must give bit for bit
what the old code gave from one (n^dim, dim) array built with meshgrid.
The old path is kept here, test-local, as the reference."""

import math
import tracemalloc

import numpy as np
import pytest

from bgeo.evalcore import compile_tape, evaluate_tape
from bgeo.forms import (BForm, GeometryError, _grid_min_abs,
                        nondegeneracy_check, smooth_form)
from bgeo.normalform import COLLAR_GRID, _grid_extrema, _min_abs_on_collar
from bgeo.symexpr import (GRID_BLOCK, GRID_CAP, EvalDomainError, Patch,
                          grid_blocks, grid_per_axis, parse_expr, substitute,
                          sym)

TAU = 2 * math.pi


# ---------------------------------------------------------------------------
# the full-grid path: one (n^dim, dim) array, as the old code built it


def full_grid(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def loop_per_axis(grid, dim, cap=GRID_CAP):
    n = grid
    while n ** dim > cap and n > 4:
        n -= 1
    return n


def ref_min_abs(expr, patch, grid, params=None):
    """The old full-grid path, with the one rule that came later: the first
    non-finite value in grid order raises EvalDomainError naming it."""
    n = loop_per_axis(grid, patch.dim)
    pts = full_grid(patch.axis_grid(n))
    e = expr
    if params:
        e = substitute(e, {k: float(v) for k, v in params.items()})
    tape = compile_tape(e, patch.names)
    vmin = np.inf
    for lo in range(0, pts.shape[0], 262144):
        vals = evaluate_tape(tape, pts[lo:lo + 262144])
        bad = ~np.isfinite(vals)
        if bad.any():
            raise EvalDomainError(f"non-finite value {vals[bad][0]}")
        vmin = min(vmin, float(np.min(np.abs(vals))))
    return vmin, n


def _with_params(patch, pts):
    return np.hstack([pts, np.ones((len(pts), len(patch.params)))])


def ref_extrema(expr, patch, grid):
    pts = _with_params(patch, full_grid(patch.axis_grid(grid, margin=1e-6)))
    vals = evaluate_tape(compile_tape(expr, patch.names + patch.params), pts)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise GeometryError("expression has no finite values on the patch")
    return float(vals.min()), float(vals.max())


def ref_min_abs_on_collar(expr, patch, zi, zlo, zhi, grid):
    """The old collar path with one fix: the old code built only patch.dim
    columns for a tape over names + params, so a coefficient that read a
    declared parameter raised IndexError; here, as in _min_abs_on_collar,
    every parameter is a column of 1.0."""
    axes = []
    for i, (a, b) in enumerate(patch.intervals):
        if i == zi:
            a, b = zlo, zhi
        axes.append(np.linspace(a + 1e-9, b - 1e-9, grid))
    pts = _with_params(patch, full_grid(axes))
    vals = evaluate_tape(compile_tape(expr, patch.names + patch.params), pts)
    vals = vals[np.isfinite(vals)]
    return float(np.min(np.abs(vals))) if vals.size else 0.0


# ---------------------------------------------------------------------------
# seeded cases


TERMS = ["{c}*{v}", "{v}*{w}", "{v}^2", "sin({c}*{v})", "cos({v})*{w}",
         "exp({c}*{v})", "log({v} + {c})", "1/({v} - {c})", "1/{v}",
         "{c}*{v}^3", "(1 + {v}^2)^(1/2)"]
NAMES = ("x1", "x2", "x3", "x4")
# points per axis: small grids and grids of more than GRID_BLOCK points,
# which take several blocks
GRIDS = {1: (9, 70001), 2: (12, 301), 3: (7, 45), 4: (5, 17)}


def seeded_case(seed):
    rng = np.random.default_rng(seed)
    dim = 1 + seed % 4
    periodic = rng.random(dim) < 0.4
    params = ("a",) if seed % 3 == 0 else ()
    patch = Patch(NAMES[:dim],
                  [(0.0, TAU) if p else (-1.0, float(rng.integers(1, 3)))
                   for p in periodic],
                  periods=[TAU if p else None for p in periodic],
                  params=params)
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        v, w = (str(rng.choice(patch.names + params)) for _ in range(2))
        c = str(int(rng.integers(-3, 4)) / 2)
        terms.append(str(rng.choice(TERMS)).format(c=f"({c})", v=v, w=w))
    expr = parse_expr(" + ".join(terms), patch)
    return patch, expr, GRIDS[dim][seed % 8 < 2]


CASES = [seeded_case(s) for s in range(24)]


def _both(f, g):
    """(result, or exception type and message) of f and of g."""
    out = []
    for h in (f, g):
        try:
            out.append(repr(h()))
        except (GeometryError, EvalDomainError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


class TestStreamedReductions:
    def test_cases_cover(self):
        dims = {p.dim for p, _, _ in CASES}
        blocks = [math.ceil(n ** p.dim / GRID_BLOCK) for p, _, n in CASES]
        assert dims == {1, 2, 3, 4} and max(blocks) > 1
        assert any(p.params for p, _, _ in CASES)
        assert any(None not in p.periods for p, _, _ in CASES)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_min_abs(self, case):
        patch, expr, grid = CASES[case]
        params = {p: 1.0 for p in patch.params}
        new, old = _both(lambda: _grid_min_abs(expr, patch, grid),
                         lambda: ref_min_abs(expr, patch, grid, params))
        assert new == old

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_extrema(self, case):
        patch, expr, grid = CASES[case]
        new, old = _both(lambda: _grid_extrema(expr, patch, grid),
                         lambda: ref_extrema(expr, patch, grid))
        assert new == old

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_min_abs_on_collar(self, case):
        patch, expr, grid = CASES[case]
        zi = patch.dim - 1
        a, b = patch.intervals[zi]
        zlo, zhi = a + 0.3 * (b - a), a + 0.6 * (b - a)
        # at the library's collar grid
        assert repr(_min_abs_on_collar(expr, patch, zi, zlo, zhi)) == repr(
            ref_min_abs_on_collar(expr, patch, zi, zlo, zhi, COLLAR_GRID))

    def test_collar_reads_parameter(self):
        # the old collar path raised IndexError here; the parameter is 1.0
        patch = Patch(("x", "z"), ((-1.0, 1.0), (-1.0, 1.0)), params=("a",))
        expr = parse_expr("3*a + x - z", patch)
        got = _min_abs_on_collar(expr, patch, 1, 0.25, 0.5)
        assert got == pytest.approx(1.5 + 2e-9, abs=1e-15)
        assert repr(got) == repr(
            ref_min_abs_on_collar(expr, patch, 1, 0.25, 0.5, COLLAR_GRID))

    def test_capped_grid(self):
        # 3,000,000 points asked on a line: capped at GRID_CAP, in blocks;
        # log(x) is nan for x < 0, and the first nan raises
        patch = Patch(("x",), ((-1.0, 2.0),))
        expr = parse_expr("log(x) + 1/(x - 1/2)", patch)
        new, old = _both(lambda: _grid_min_abs(expr, patch, 3_000_000),
                         lambda: ref_min_abs(expr, patch, 3_000_000))
        assert new == old == "EvalDomainError: non-finite value nan"
        expr = parse_expr("log(2 + x) + 1/(x^2 - 1/2)", patch)
        streamed = _grid_min_abs(expr, patch, 3_000_000)
        assert streamed == ref_min_abs(expr, patch, 3_000_000)
        assert streamed[1] == GRID_CAP

    def test_no_finite_value(self):
        patch = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        expr = parse_expr("log(-1 - x^2)", patch)
        with pytest.raises(EvalDomainError, match="non-finite value nan"):
            _grid_min_abs(expr, patch, 9)
        with pytest.raises(GeometryError):
            _grid_extrema(expr, patch, 9)
        assert _min_abs_on_collar(expr, patch, 1, -0.5, 0.5) == 0.0


class TestGridBlocks:
    @pytest.mark.parametrize("lens", [(5,), (3, 4), (70000,), (300, 300),
                                      (2, 65537), (65537, 2), (37,) * 4,
                                      (2, 3, 4, 5), (1, 1, 1)])
    def test_blocks_are_the_full_grid(self, lens):
        rng = np.random.default_rng(len(lens))
        axes = [rng.random(n) for n in lens]
        blocks = list(grid_blocks(axes))
        assert all(0 < len(b) <= GRID_BLOCK for b in blocks)
        assert np.array_equal(np.concatenate(blocks), full_grid(axes))

    def test_empty_axis(self):
        assert list(grid_blocks([np.ones(3), np.ones(0)])) == []

    def test_per_axis_matches_the_loop(self):
        for dim in range(1, 7):
            # the loop steps from grid to grid - 1, so it either stops at
            # grid or returns what it returns for grid - 1
            stop = None
            for grid in range(2, 3001):
                if grid <= 4 or grid ** dim <= GRID_CAP:
                    stop = grid
                assert grid_per_axis(grid, dim) == stop
            for grid in range(2, 3001, 97):   # and the loop itself
                assert grid_per_axis(grid, dim) == loop_per_axis(grid, dim)

    def test_per_axis_huge_grid(self):
        assert grid_per_axis(10 ** 9, 2) == 1414
        assert grid_per_axis(10 ** 9, 1) == GRID_CAP
        assert grid_per_axis(10 ** 9, 20) == 4   # the floor


def test_4d_check_memory():
    """A 4-D nondegeneracy check at grid 64 (37^4 points after the cap)
    streams its grid: the traced peak stays far below the 60 MB that the
    point array alone took."""
    R4 = Patch(("x1", "y1", "x2", "y2"), ((-2.0, 2.0),) * 4)
    w = BForm(R4, 2,
              smooth_form(R4, 1, {("x1",): parse_expr("1 + x2^2/4", R4)}),
              smooth_form(R4, 2, {("x2", "y2"):
                                  parse_expr("2 + sin(x1)*y2/4", R4)}),
              sym("y1"), "y1")
    nondegeneracy_check(w, grid=4)
    tracemalloc.start()
    try:
        verdict, detail = nondegeneracy_check(w, grid=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == "nonvanishing-grid" and detail["grid_per_axis"] == 37
    assert peak < 16e6
