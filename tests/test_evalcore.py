"""Tests for the tape compiler and the tape evaluator."""

import numpy as np
import pytest

from bgeo import evalcore
from bgeo.evalcore import (_RTOL, _line_roots, _solve_brackets, compile_tape,
                           evaluate_tape)
from bgeo.surface2d import TAU_CURVE
from bgeo.symexpr import (Add, EvalDomainError, ExprError, Mul, Num, Patch,
                          Sym, parse_expr)
from expr_oracles import eval_expr
from illinois_brackets import illinois_brackets
from line_scans import find_z_scan, volume_scan
from tree_eval import tree_eval
from unfolded_tape import compile_unfolded, evaluate_unfolded

PATCH = Patch(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)), params=("a",))

EXPRESSIONS = [
    "x + y",
    "x*y - 3*x^2 + 1/2",
    "sin(x)*cos(y) + exp(-x^2)",
    "1/x + x^(-2)",
    "abs(x - y)^(1/2)",
    "a*x^3 - a^2*y",
    "log(abs(x) + 1)",
]


# the kernel name stays in the test ids, which recorded test runs refer to
@pytest.mark.parametrize("text", EXPRESSIONS,
                         ids=lambda t: f"{evalcore.KERNEL_NAME}-{t}")
def test_kernel_matches_tree_eval(text):
    e = parse_expr(text, PATCH)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 1.9, size=(200, 3))  # x, y, a columns
    tape = compile_tape(e, ("x", "y", "a"))
    got = evaluate_tape(tape, pts)
    want = np.array([tree_eval(e, {"x": p[0], "y": p[1]}, {"a": p[2]})
                     for p in pts])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    # as one output of a tape for the whole list it is the same bits, inf
    # and nan included (x = 0 and x = -0 are poles of 1/x + x^(-2))
    pts = np.vstack([pts, [[0.0, 1.0, 1.0], [-0.0, 1.0, 1.0]]])
    multi = evaluate_tape(
        compile_tape([parse_expr(t, PATCH) for t in EXPRESSIONS],
                     ("x", "y", "a")), pts)
    assert multi.shape == (len(EXPRESSIONS), len(pts))
    assert not np.isfinite(multi).all()
    single = evaluate_tape(tape, pts)
    assert multi[EXPRESSIONS.index(text)].tobytes() == single.tobytes()


def test_poles_are_nonfinite_not_exceptions():
    tape = compile_tape(parse_expr("1/x", PATCH), ("x",))
    v = evaluate_tape(tape, np.array([[0.0], [2.0]]))
    assert not np.isfinite(v[0])
    assert v[1] == 0.5
    tape = compile_tape(parse_expr("log(x)", PATCH), ("x",))
    v = evaluate_tape(tape, np.array([[-1.0]]))
    assert np.isnan(v[0])
    # eval_expr raises instead
    with pytest.raises(EvalDomainError):
        eval_expr(parse_expr("1/x", PATCH), {"x": 0.0})


def test_missing_variable_reported_at_compile():
    x, e = parse_expr("x", PATCH), parse_expr("x + y", PATCH)
    for exprs in (e, [e, x], [x, e]):
        with pytest.raises(KeyError, match="'y'"):
            compile_tape(exprs, ("x",))


def test_empty_list_gives_no_rows():
    v = evaluate_tape(compile_tape([], ("x",)), np.zeros((5, 1)))
    assert v.shape == (0, 5)


@pytest.mark.parametrize("text", ["x*1e400", "x - 1e999999", "x^(10^400/3)",
                                  "x^3000000000"])
def test_unrepresentable_constant_reported_at_compile(text):
    # no float holds the constant or no int32 the exponent: an ExprError,
    # not an OverflowError
    with pytest.raises(ExprError):
        compile_tape(parse_expr(text, PATCH), ("x", "y"))


def test_stack_depth_accounting():
    # deeply nested expression exercises the stack bound
    text = "x"
    for _ in range(30):
        text = f"sin({text}) + x"
    e = parse_expr(text, PATCH)
    tape = compile_tape(e, ("x",))
    pts = np.linspace(-1, 1, 50).reshape(-1, 1)
    got = evaluate_tape(tape, pts)
    want = np.array([tree_eval(e, {"x": p}) for p in pts[:, 0]])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_selected_kernel_exposed():
    assert evalcore.KERNEL_NAME == "python"


# ---------------------------------------------------------------------------
# the folded tape against the unfolded one it replaced


FOLD_VARS = ("x", "y", "a")
FOLD_TERMS = ["{c}", "{c}*{v}", "{v}*{w}", "{c} + {v}", "{v}^2", "{v}^3",
              "{c}*{v}^2", "1/{v}", "{v}^(-2)", "{c}/({v} - 1)",
              "sin({c}*{v})", "cos({v} + {c})", "exp({c}*{v})", "log({v})",
              "log({c} + {v})", "abs({v} - {c})", "({v})^(1/2)",
              "({c}*{v} + {w})^(3/2)", "-{v}"]
FOLD_CONSTS = ["2", "-3", "1/3", "-7/2", "0.1", "-0.25", "1e-3", "2.5e2"]


def fold_case(seed):
    """A seeded sum of 1 to 4 products of 1 or 2 terms, each term with a
    rational or float constant."""
    rng = np.random.default_rng(seed)

    def term():
        v, w = (str(rng.choice(FOLD_VARS)) for _ in range(2))
        c = f"({rng.choice(FOLD_CONSTS)})"
        return str(rng.choice(FOLD_TERMS)).format(c=c, v=v, w=w)

    prods = ["*".join(f"({term()})" for _ in range(int(rng.integers(1, 3))))
             for _ in range(int(rng.integers(1, 5)))]
    return parse_expr(" + ".join(prods), PATCH)


FOLD_CASES = [fold_case(s) for s in range(40)]


def fold_points():
    """Seeded points, with 0, -0, poles and the log domain's edge in every
    column, and a row of infinities and nan."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2.0, 2.0, size=(300, 3))
    special = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e-300]
    for k, v in enumerate(special):
        pts[k, :] = v
        pts[len(special) + k, k % 3] = v
    return np.vstack([pts, [[np.inf, -np.inf, np.nan]]])


class TestFoldedTape:
    """Folding a constant into the operation that combines it computes
    x op c for c op x, which IEEE addition and multiplication give bit for
    bit: the folded tape gives the bytes of the unfolded one everywhere."""

    @pytest.mark.parametrize("case", range(len(FOLD_CASES)))
    def test_single_output_bits(self, case):
        e = FOLD_CASES[case]
        pts = fold_points()
        got = evaluate_tape(compile_tape(e, FOLD_VARS), pts)
        want = evaluate_unfolded(compile_unfolded(e, FOLD_VARS), pts)
        assert got.tobytes() == want.tobytes()

    def test_multi_output_bits(self):
        pts = fold_points()
        exprs = FOLD_CASES + [parse_expr(t, PATCH) for t in EXPRESSIONS]
        got = evaluate_tape(compile_tape(exprs, FOLD_VARS), pts)
        want = evaluate_unfolded(compile_unfolded(exprs, FOLD_VARS), pts)
        assert got.shape == (len(exprs), len(pts))
        assert got.tobytes() == want.tobytes()
        # the cases reach poles and the log and root domains
        assert np.isinf(got).any() and np.isnan(got).any()

    def test_signed_zero_constants_kept_apart(self):
        # -0.0 + x is x for x = -0.0, +0.0 + x is +0.0: two constants
        pts = np.array([[-0.0], [0.0], [1.0]])
        x = Sym("x")
        for e in (Mul((Num(-0.0), x)), Add((Num(-0.0), x)),
                  [Add((Num(0.0), x)), Add((Num(-0.0), x))]):
            got = evaluate_tape(compile_tape(e, ("x",)), pts)
            want = evaluate_unfolded(compile_unfolded(e, ("x",)), pts)
            assert got.tobytes() == want.tobytes()

    def test_folded_tape_is_shorter(self):
        e = parse_expr("2*x + 1", PATCH)
        assert len(compile_tape(e, ("x",))) == 3   # x, *2, +1
        assert len(compile_unfolded(e, ("x",))[0]) == 5


# ---------------------------------------------------------------------------
# the bracket solver against the Illinois solver it replaced


XTOLS = [1e-15, 2e-12, TAU_CURVE]


def seeded_brackets(seed, count=60):
    """Brackets [a, b] with one known root r inside, r the float nearest a
    rational, and f a function of x - r, which is exact near r, so the sign
    of every value is the sign of x - r: products of x - r_i, sin(k(x - r))
    (that is sin(kx + p), p = -kr), the convex expm1(x - r), the triple root
    (x - r)^3 and the one-sided expm1(8(x - r)), steep on a long right
    side.  Returns the functions, their roots and the brackets."""
    rng = np.random.default_rng(seed)
    fs, roots, lo, hi = [], [], [], []
    for i in range(count):
        kind = i % 5
        r = float(rng.integers(-40, 41)) / float(rng.integers(1, 13))
        u, v = 10.0 ** rng.uniform(-3, -0.5, 2)
        if kind == 0:     # r the only root of three in the bracket
            others = [r - 1.0, r + 1.0 + float(rng.integers(0, 5)) / 7]
            fs.append(lambda x, r=r, o=others:
                      (x - r) * (x - o[0]) * (x - o[1]))
        elif kind == 1:   # the bracket is shorter than pi / k
            k = float(rng.integers(1, 6))
            u, v = np.minimum([u, v], 3.0 / k)
            fs.append(lambda x, r=r, k=k: np.sin(k * (x - r)))
        elif kind == 2:
            fs.append(lambda x, r=r: np.expm1(x - r))
        elif kind == 3:
            fs.append(lambda x, r=r: (x - r) ** 3)
        else:
            fs.append(lambda x, r=r: np.expm1(8.0 * (x - r)))
            v = 0.9
        roots.append(r)
        lo.append(r - u)
        hi.append(r + v)
    return fs, np.array(roots), np.array(lo), np.array(hi)


def solve(solver, fs, lo, hi, xtol):
    """Roots by solver, and how many times it evaluated f."""
    calls = [0]

    def f(x, k):
        calls[0] += 1
        return np.array([fs[j](xj) for xj, j in zip(x, k)])

    ends = np.arange(len(fs))
    root = solver(f, lo, hi, f(lo, ends), f(hi, ends), xtol)
    return root, calls[0] - 2


def within(got, want, xtol):
    return np.abs(got - want) <= xtol + _RTOL * np.maximum(abs(got), abs(want))


class TestSolveBrackets:
    @pytest.mark.parametrize("xtol", XTOLS)
    @pytest.mark.parametrize("seed", range(4))
    def test_known_roots_and_illinois(self, seed, xtol):
        fs, roots, lo, hi = seeded_brackets(seed)
        got, _ = solve(_solve_brackets, fs, lo, hi, xtol)
        want, _ = solve(illinois_brackets, fs, lo, hi, xtol)
        assert within(got, roots, xtol).all()
        assert within(want, roots, xtol).all()
        assert (np.abs(got - want) <= 2 * (xtol + _RTOL * np.abs(want))).all()

    def test_exact_zeros_and_nonfinite(self):
        # first falsi points on the root of a line, on zero plateaus and on
        # the root of an odd power; and a hole of nan or inf around the
        # root, which no bracket can shrink past
        fs = [lambda x: x - 0.25,
              lambda x: np.where(np.abs(x - 0.3) < 0.1, 0.0, x - 0.3),
              lambda x: np.where(np.abs(x + 1.0) < 1e-6, 0.0, x + 1.0),
              lambda x: x ** 3,
              lambda x: np.where(np.abs(x - 0.5) < 1e-3, np.nan, x - 0.5),
              lambda x: np.where(np.abs(x) < 1e-9, np.inf, np.expm1(x))]
        lo = np.array([-0.75, -0.5, -2.0, -1.0, -1.0, -0.01])
        hi = np.array([1.25, 0.9, 1.0, 1.0, 2.0, 2.0])
        for xtol in XTOLS:
            got, _ = solve(_solve_brackets, fs, lo, hi, xtol)
            want, _ = solve(illinois_brackets, fs, lo, hi, xtol)
            assert got[:4].tolist() == want[:4].tolist()
            assert [f(x) == 0 for f, x in zip(fs[:4], got[:4])] == [True] * 4
            assert np.isnan(got[4:]).all() and np.isnan(want[4:]).all()

    @pytest.mark.parametrize(
        "f", [lambda x: x + x * x, np.expm1,
              lambda x: x - x * x, lambda x: -np.expm1(-x)],
        ids=["x+x^2", "expm1", "x-x^2", "-expm1(-x)"])
    def test_pinned_root_stops(self, f):
        # the falsi points reach 0 from the left (the first two) or from the
        # right; the Illinois solver took 80 (x +- x^2) and 77 (expm1)
        # evaluations to move the other end in, the minimum step takes 7
        lo, hi = np.array([-0.01]), np.array([0.01])
        got, n_got = solve(_solve_brackets, [f], lo, hi, TAU_CURVE)
        want, n_want = solve(illinois_brackets, [f], lo, hi, TAU_CURVE)
        assert n_got <= 8 < n_want
        assert within(got, 0.0, TAU_CURVE).all()
        assert within(want, 0.0, TAU_CURVE).all()

    def test_zero_ends(self):
        # a bracket that ends on a zero gives that end, a when both are, and
        # f is never evaluated on it; the sign change [0, 1] is solved
        seen = []

        def f(x, k):
            seen.extend(k.tolist())
            return x - 0.3

        a = np.array([0.3, -1.0, -0.5, 0.0])
        b = np.array([1.0, 0.3, 0.5, 1.0])
        fa = np.array([0.0, -1.3, 0.0, -0.3])
        fb = np.array([0.7, 0.0, 0.0, 0.7])
        got = _solve_brackets(f, a, b, fa, fb, 1e-12)
        assert got[:3].tolist() == [0.3, 0.3, -0.5]
        assert within(got[3:], 0.3, 1e-12).all()
        assert seen and set(seen) == {3}

    def test_only_zero_ends_evaluate_nothing(self):
        def f(x, k):
            raise AssertionError("evaluated")

        got = _solve_brackets(f, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0],
                              [0.0, 5.0, 0.0], [-1.0, 0.0, 0.0], 1e-12)
        assert got.tolist() == [0.0, 2.0, 2.0]


TAU = 2 * np.pi


def seeded_lines(seed, zs, periodic, count=40):
    """f(x, k) for `count` seeded lines sampled at zs, one kind per line in
    turn: generic sign changes; an exact zero at the first, a middle or the
    last sample before the end (at the end, on a non-periodic axis); a root
    in the last interval, which on a periodic axis is the wrap interval; a
    nan hole around a root halfway between samples; and no root.  On a
    periodic axis the lines have period TAU."""
    rng = np.random.default_rng(seed)
    kind = np.arange(count) % 5
    m = rng.integers(1, 4, count).astype(float)
    r = rng.uniform(zs[0], zs[-1], (count, 3))
    j = rng.choice([0, int(rng.integers(1, zs.size - 1)),
                    zs.size - 2 if periodic else zs.size - 1], count)
    r[kind == 1, 0] = zs[j[kind == 1]]
    r[kind == 2, 0] = rng.uniform(zs[-2], zs[-1], np.count_nonzero(kind == 2))
    i = rng.integers(0, zs.size - 1, count)
    r[kind == 3, 0] = 0.5 * (zs[i] + zs[i + 1])[kind == 3]
    c = rng.uniform(0.5, 1.5, count)

    def f(x, k):
        x = np.asarray(x, dtype=float)
        r0, r1, r2 = r[k, 0], r[k, 1], r[k, 2]
        if periodic:
            vals = [np.sin(m[k] * (x - r0)), np.sin(m[k] * (x - r0)),
                    np.sin(x - r0), np.sin(x - r0), c[k] + np.sin(x - r1) / 2]
        else:
            vals = [(x - r0) * (x - r1) * (x - r2), (x - r0) * (1.0 + x * x),
                    np.exp(x) - np.exp(r0), x - r0, 1.0 + x * x]
        return np.where((kind[k] == 3) & (np.abs(x - r0) < 1e-4), np.nan,
                        np.choose(kind[k], vals))

    return f


LINE_AXES = [("periodic", 0.0, TAU, TAU), ("interval", -1.0, 1.5, None)]


class TestLineRoots:
    """evalcore._line_roots against the two scans it replaced
    (tests/line_scans.py), on seeded lines."""

    @pytest.mark.parametrize("axis", LINE_AXES, ids=[a[0] for a in LINE_AXES])
    @pytest.mark.parametrize("seed", range(4))
    def test_volume_scan(self, seed, axis):
        _, lo, hi, period = axis
        zs = np.linspace(lo, hi, 257)
        f = seeded_lines(seed, zs, period is not None)
        lines = np.arange(40)
        ps = f(zs[None, :], lines[:, None])
        got = _line_roots(f, zs, ps, period is not None, 1e-15)
        want = volume_scan(f, zs, ps, period is not None, 1e-15)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("axis", LINE_AXES, ids=[a[0] for a in LINE_AXES])
    @pytest.mark.parametrize("seed", range(4))
    def test_find_z_scan(self, seed, axis):
        # as find_z_components calls it: one line, 2048 samples and, on a
        # periodic axis, the end; the old wrap bracket ended on f(b), this
        # one on f(a), so a root in the last interval agrees within xtol
        _, lo, hi, period = axis
        periodic = period is not None
        zs = np.linspace(lo, hi, 2048 + periodic)
        f = seeded_lines(seed, zs, periodic)
        for k in range(40):
            want = np.sort(find_z_scan(lambda z: f(z, k), lo, hi, period))
            lines, got = _line_roots(lambda x, _: f(x, k), zs,
                                     f(zs, k)[None], periodic, 2e-12)
            got = np.sort(got)
            assert lines.tolist() == [0] * want.size
            wrap = (want >= zs[-2]) if periodic else np.zeros(want.size, bool)
            assert got[~wrap].tobytes() == want[~wrap].tobytes()
            assert within(got[wrap], want[wrap], 2e-12).all()

    @pytest.mark.parametrize("axis", LINE_AXES, ids=[a[0] for a in LINE_AXES])
    def test_cases_cover_the_rules(self, axis):
        # exact zeros at the first, a middle and (on an interval) the last
        # sample, a root in the wrap interval, a nan root and a line with
        # no root, each at least once over the seeds
        _, lo, hi, period = axis
        periodic = period is not None
        zs = np.linspace(lo, hi, 257)
        seen = set()
        for seed in range(4):
            f = seeded_lines(seed, zs, periodic)
            ps = f(zs[None, :], np.arange(40)[:, None])
            lines, roots = _line_roots(f, zs, ps, periodic, 1e-15)
            zero = np.isin(zs, roots)
            seen.update(name for name, hit in [
                ("first", zero[0]), ("middle", zero[1:-1].any()),
                ("last", zero[-1]), ("wrap", (roots > zs[-2]).any()),
                ("nan", np.isnan(roots).any()),
                ("none", np.bincount(lines, minlength=40).min() == 0)] if hit)
        want = {"first", "middle", "nan", "none"}
        want |= {"wrap"} if periodic else {"last"}
        assert want <= seen
