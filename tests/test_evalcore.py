"""Tests for the tape compiler and the tape evaluator."""

import numpy as np
import pytest

from bgeo import evalcore
from bgeo.evalcore import compile_tape, evaluate_tape
from bgeo.symexpr import (Add, EvalDomainError, ExprError, Mul, Num, Patch,
                          Sym, parse_expr)
from expr_oracles import eval_expr
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
