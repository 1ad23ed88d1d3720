"""Tests for the symbolic expression core."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bgeo import symexpr as se
from bgeo._poly import poly_mul, poly_quotient
from bgeo.symexpr import (
    EQUIV_POINTS,
    EQUIV_SEED,
    MAX_NESTING,
    EquivalenceInconclusive,
    EvalDomainError,
    ExprError,
    ExprSyntaxError,
    Num,
    Patch,
    Sym,
    UnknownIdentifierError,
    add,
    antiderivative,
    diff_expr,
    div,
    divide_exact,
    expr_equiv,
    expr_to_ratpoly,
    free_symbols,
    fun,
    mul,
    neg,
    parse_expr,
    powr,
    sub,
    substitute,
    sym,
    to_string,
)
from duality import _inverse_expr
from expr_oracles import eval_expr, normalize
from rebuilding_constructors import rebuilding
from tree_eval import tree_eval

PATCH = Patch(("x", "y", "z"), ((-2.0, 2.0), (-2.0, 2.0), (0.1, 3.0)),
              params=("a", "b"))
TORUS = Patch(("t1", "t2"), ((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
              periods=(2 * math.pi, 2 * math.pi))


class TestParser:
    def test_basic(self):
        e = parse_expr("x + x^3/3", PATCH)
        assert eval_expr(e, {"x": 1.0}) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_rational_constant_exact(self):
        e = parse_expr("1/3", PATCH)
        assert isinstance(e, Num)
        assert e.value == Fraction(1, 3)

    def test_decimal_constant_exact(self):
        # decimal literals are carried as exact fractions too
        e = parse_expr("0.5*x", PATCH)
        assert eval_expr(e, {"x": 3.0}) == 1.5

    def test_precedence(self):
        # ^ binds tighter than unary minus, which binds tighter than *
        assert eval_expr(parse_expr("-x^2", PATCH), {"x": 3.0}) == -9.0
        assert eval_expr(parse_expr("2*x + 3*y", PATCH), {"x": 1, "y": 1}) == 5.0
        assert eval_expr(parse_expr("2^3^2", PATCH), {}) == 512.0

    def test_functions(self):
        e = parse_expr("sin(x)*cos(y) + exp(z) - log(z) + abs(x)", PATCH)
        pt = {"x": -0.7, "y": 0.3, "z": 1.2}
        want = (math.sin(-0.7) * math.cos(0.3) + math.exp(1.2)
                - math.log(1.2) + 0.7)
        assert eval_expr(e, pt) == pytest.approx(want, rel=1e-14)

    def test_unknown_identifier_position(self):
        with pytest.raises(UnknownIdentifierError) as ei:
            parse_expr("x + foo*y", PATCH)
        assert ei.value.pos == 4

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as ei:
            parse_expr("x + * y", PATCH)
        assert ei.value.pos == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x + y )", PATCH)

    def test_params_allowed(self):
        e = parse_expr("a*x + b", PATCH)
        assert free_symbols(e) == {"a", "x", "b"}

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "x" + ")" * 3000,
        "sin(" * 3000 + "x" + ")" * 3000,
        "-" * 3000 + "x",
        "x" + "^1" * 3000,
    ])
    def test_nesting_limit(self, text):
        # deeper than MAX_NESTING: a syntax error, not a RecursionError
        with pytest.raises(ExprSyntaxError, match="nested deeper"):
            parse_expr(text, PATCH)

    @pytest.mark.parametrize("text", ["10^10^10", "2^99999999*x",
                                      "(1/3)^(-10^6)", "2^8192"])
    def test_constant_power_bound(self, text):
        # folding would compute a number of billions of bits: refuse fast
        t0 = time.perf_counter()
        with pytest.raises(ExprError, match="constant power exceeds"):
            parse_expr(text, PATCH)
        assert time.perf_counter() - t0 < 1.0

    def test_constant_power_within_bound(self):
        assert parse_expr("2^64", PATCH) == Num(Fraction(2 ** 64))
        assert parse_expr("(-2/3)^-5", PATCH) == Num(Fraction(-243, 32))
        assert parse_expr("2^8191", PATCH) == Num(Fraction(2 ** 8191))
        assert parse_expr("(-1)^99999999 * x", PATCH) == neg(sym("x"))

    @pytest.mark.parametrize("text", ["1e999999999*x", "1e-999999999*x",
                                      "x + 25e2466", "3e-8193"])
    def test_number_literal_bound(self, text):
        # the exact value of the literal would have more than 8192 bits
        t0 = time.perf_counter()
        with pytest.raises(ExprSyntaxError, match="number exceeds"):
            parse_expr(text, PATCH)
        assert time.perf_counter() - t0 < 1.0

    def test_number_literal_within_bound(self):
        assert parse_expr("1e300", PATCH) == Num(Fraction(10) ** 300)
        assert parse_expr("2.5e-3", PATCH) == Num(Fraction(1, 400))
        big = 123456789012345678901234567890
        assert parse_expr(str(big), PATCH) == Num(Fraction(big))
        # trailing zeros of the digits cancel against the exponent
        one = "1" + "0" * 9000 + "e-9000"
        assert parse_expr(one, PATCH) == Num(Fraction(1))

    def test_power_of_sum_view_bound(self):
        # the exact view of (x+1)^100000 would have 100001 monomials: the
        # sum gives up on its rational collapse instead of expanding it
        t0 = time.perf_counter()
        e = parse_expr("1/(x+1)^100000 + x", PATCH)
        assert time.perf_counter() - t0 < 1.0
        assert e == add(powr(add(sym("x"), 1), -100000), sym("x"))
        assert expr_to_ratpoly(e) is None

    @pytest.mark.parametrize("text", ["0^-1", "x/0", "y/(y-y)", "1/(x-x)",
                                      "(a-a)^(-2)"])
    def test_division_by_zero(self, text):
        with pytest.raises(ExprError, match="division by zero"):
            parse_expr(text, PATCH)

    def test_nesting_within_limit(self):
        n = MAX_NESTING - 1
        assert parse_expr("(" * n + "x" + ")" * n, PATCH) == sym("x")
        e = parse_expr("sin(" * n + "x" + ")" * n, PATCH)
        assert to_string(e).count("sin(") == n

    @pytest.mark.parametrize("text", [
        "x + x^3/3",
        "-x*y/2 + sin(2*x)",
        "1/2*x^(-1)",
        "x^(1/2)",
        "2/x/y",
        "a*x^2 - b*y + 7/3",
        "exp(-z)*log(z) + abs(x - y)",
        "(x + y)^2 - x^2 - y^2",
    ])
    def test_print_parse_roundtrip(self, text):
        e = parse_expr(text, PATCH)
        e2 = parse_expr(to_string(e), PATCH)
        assert normalize(e) == normalize(e2)


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e = _random_expr(rng, depth=4)
            n1 = normalize(e)
            assert normalize(n1) == n1

    def test_like_terms(self):
        x = sym("x")
        assert add(x, x, x) == mul(3, x)
        assert sub(mul(2, x), mul(2, x)) == Num(Fraction(0))

    def test_power_merge(self):
        x = sym("x")
        assert mul(x, x, powr(x, -2)) == Num(Fraction(1))

    def test_pythagorean_identity(self):
        e = parse_expr("sin(y)^2 + cos(y)^2", PATCH)
        assert e == Num(Fraction(1))
        e = parse_expr("3*x*sin(y)^2 + 3*x*cos(y)^2", PATCH)
        assert e == parse_expr("3*x", PATCH)

    def test_pythagoras_regroups(self):
        # the rewrite's c*v meets the v already in the sum
        u, v = sym("u"), sym("v")
        s2, c2 = powr(fun("sin", u), 2), powr(fun("cos", u), 2)
        e = add(mul(s2, v), mul(c2, v), v)
        assert e == mul(2, v)
        raw = se.Add([mul(s2, v), mul(c2, v), v])
        _assert_fixed_point(e, raw)

    def test_pythagoras_to_fixed_point(self):
        # each rewrite exposes the next pair: one add call reaches 1
        sq = {(fn, n): powr(fun(fn, sym(n)), 2)
              for fn in ("sin", "cos") for n in "uvw"}
        terms = [mul(sq["sin", "u"], sq["sin", "v"], sq["sin", "w"]),
                 mul(sq["cos", "u"], sq["sin", "v"], sq["sin", "w"]),
                 mul(sq["cos", "v"], sq["sin", "w"]),
                 sq["cos", "w"]]
        e = add(*terms)
        assert e == Num(Fraction(1))
        raw = se.Add([se.Add(terms[:2]), se.Add(terms[2:])])
        _assert_fixed_point(e, raw)

    def test_pythagoras_needs_equal_coefficients(self):
        u = sym("u")
        e = add(mul(2, powr(fun("sin", u), 2)), mul(3, powr(fun("cos", u), 2)))
        assert isinstance(e, se.Add) and len(e.terms) == 2
        assert to_string(e) == "2*sin(u)^2 + 3*cos(u)^2"

    def test_rational_cancellation(self):
        e = parse_expr("(a^2 + b^2 + 1)/(a^2 + b^2 + 1)", PATCH)
        assert e == Num(Fraction(1))
        e = parse_expr("a^2/(a^2+b^2+1) + b^2/(a^2+b^2+1) + 1/(a^2+b^2+1)", PATCH)
        assert e == Num(Fraction(1))

    def test_divide_exact(self):
        e = parse_expr("x^2*y + x*y^2", PATCH)
        q = divide_exact(e, parse_expr("x*y", PATCH))
        assert q == parse_expr("x + y", PATCH)
        assert divide_exact(parse_expr("x^2 + 1", PATCH), sym("x")) is None


class TestDiff:
    def test_polynomial(self):
        e = parse_expr("x + x^3/3", PATCH)
        assert diff_expr(e, "x") == parse_expr("1 + x^2", PATCH)

    def test_chain_rule(self):
        e = parse_expr("sin(x^2)", PATCH)
        d = diff_expr(e, "x")
        assert d == parse_expr("2*x*cos(x^2)", PATCH)

    def test_quotient(self):
        e = parse_expr("x/z", PATCH)
        assert diff_expr(e, "z") == parse_expr("-x/z^2", PATCH)

    def test_log_abs(self):
        d = diff_expr(parse_expr("log(z)", PATCH), "z")
        assert d == parse_expr("1/z", PATCH)
        d = diff_expr(parse_expr("abs(x)", PATCH), "x")
        assert eval_expr(d, {"x": -1.5}) == -1.0

    def test_against_finite_differences(self):
        # derivative of 100 random expressions matches central differences
        rng = np.random.default_rng(42)
        h = 1e-6
        checked = 0
        while checked < 100:
            e = _random_expr(rng, depth=3)
            name = rng.choice(["x", "y", "z"])
            d = diff_expr(e, name)
            pt = PATCH.random_point(rng)
            pt.update(PATCH.random_params(rng))
            try:
                v = eval_expr(d, pt)
                up = dict(pt); up[name] += h
                dn = dict(pt); dn[name] -= h
                fd = (eval_expr(e, up) - eval_expr(e, dn)) / (2 * h)
            except EvalDomainError:
                continue
            if abs(v) > 1e4 or abs(fd) > 1e4:
                continue
            assert abs(v - fd) / (1.0 + abs(v)) < 1e-6, to_string(e)
            checked += 1


class TestEval:
    def test_pole_raises(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse_expr("1/x", PATCH), {"x": 0.0})

    def test_log_domain(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse_expr("log(x)", PATCH), {"x": -1.0})

    def test_sqrt_domain(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse_expr("x^(1/2)", PATCH), {"x": -4.0})

    def test_unbound_symbol(self):
        with pytest.raises(EvalDomainError):
            eval_expr(parse_expr("a*x", PATCH), {"x": 1.0})

    def test_float_argument_overflow(self):
        # exp of a float past the float range used to raise OverflowError
        message = r"^exp\(1000\.0\) overflows$"
        with pytest.raises(EvalDomainError, match=message):
            fun("exp", 1000.0)
        e = parse_expr("exp(k)", Patch(("x",), ((0, 1),), params=("k",)))
        with pytest.raises(EvalDomainError, match=message):
            substitute(e, {"k": 1000.0})


class TestSubstitute:
    def test_simple(self):
        e = parse_expr("x^2 + y", PATCH)
        s = substitute(e, {"x": parse_expr("z + 1", PATCH)})
        assert expr_equiv(s, parse_expr("(z+1)^2 + y", PATCH), PATCH)

    def test_numeric(self):
        e = parse_expr("a*x + b", PATCH)
        s = substitute(e, {"a": 2, "b": Fraction(1, 2)})
        assert s == parse_expr("2*x + 1/2", PATCH)


class TestEquiv:
    def test_trig_identity(self):
        assert expr_equiv(parse_expr("sin(2*x)", PATCH),
                          parse_expr("2*sin(x)*cos(x)", PATCH), PATCH)

    def test_countersample(self):
        assert not expr_equiv(parse_expr("sin(2*x)", PATCH),
                              parse_expr("2*sin(x)", PATCH), PATCH)

    def test_rational_exact(self):
        a = parse_expr("(x + y)^2", PATCH)
        b = parse_expr("x^2 + 2*x*y + y^2", PATCH)
        assert expr_equiv(a, b, PATCH)

    def test_periodic_patch(self):
        a = parse_expr("cos(t1 - t2)", TORUS)
        b = parse_expr("cos(t1)*cos(t2) + sin(t1)*sin(t2)", TORUS)
        assert expr_equiv(a, b, TORUS)

    def test_inconclusive(self):
        # log only defined on a sliver of the sampling box
        e1 = parse_expr("log(x - 1.999)", PATCH)
        e2 = parse_expr("log(x - 1.998)", PATCH)
        with pytest.raises((EquivalenceInconclusive, AssertionError)):
            assert expr_equiv(e1, e2, PATCH)


def loop_expr_equiv(e1, e2, patch, n_points, seed, tol=1e-9):
    """expr_equiv as it was before sampling moved onto tapes: the same exact
    checks, then one candidate point at a time through the tree walker."""
    a, b = normalize(e1), normalize(e2)
    if a == b:
        return True
    ra, rb = expr_to_ratpoly(a), expr_to_ratpoly(b)
    if ra is not None and rb is not None and ra[2] == rb[2]:
        n1, d1, _ = ra
        n2, d2, _ = rb
        if poly_mul(n1, d2) == poly_mul(n2, d1):
            return True
    rng = np.random.default_rng(seed)
    good = 0
    for _ in range(n_points * 40):
        pt = patch.random_point(rng)
        pr = patch.random_params(rng)
        try:
            v1 = tree_eval(a, pt, pr)
            v2 = tree_eval(b, pt, pr)
        except EvalDomainError:
            continue
        if abs(v1 - v2) > tol * (1.0 + max(abs(v1), abs(v2))):
            return False
        good += 1
        if good >= n_points:
            return True
    raise EquivalenceInconclusive(
        f"only {good}/{n_points} valid sample points for equivalence test")


class TestSampledEquivAgainstLoop:
    """The batched sampling in expr_equiv against the per-point loop it
    replaced: the same verdict on seeded cases."""

    UNIT = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), params=("a",))
    # the cases are parsed with b, c and k declared too; k is then
    # substituted, and b and c stay unbound on UNIT
    PARSE = Patch(UNIT.names, UNIT.intervals, params=("a", "b", "c", "k"))

    CASES = [
        # polynomials with float constants (k is the float 0.1), which the
        # exact check leaves to sampling
        ("(k*x + 0.3)^2", "0.01*x^2 + 0.06*x + 0.09", None),
        ("(k*x + 0.3)^2", "0.01*x^2 + 0.06*x + 0.0900001", None),
        ("3*k*x*(y + 7*k)", "0.3*x*y + 0.21*x", None),
        ("k*x + 2*k*x", "0.3*x", None),
        # trig identities and non-identities
        ("sin(2*x)", "2*sin(x)*cos(x)", None),
        ("cos(2*x)", "1 - 2*sin(x)^2", None),
        ("sin(x + y)", "sin(x)*cos(y) + cos(x)*sin(y)", None),
        ("sin(x)^2", "sin(x)", None),
        ("exp(x + y)", "exp(x)*exp(y)", None),
        ("cos(x - y)", "cos(x)*cos(y) - sin(x)*sin(y)", None),
        # poles and the log domain: rejected candidates are skipped
        ("sin(2*x)/(x - y)", "2*sin(x)*cos(x)/(x - y)", None),
        ("log(x^2)", "2*log(x)", None),
        ("log(x^2)", "2*log(abs(x))", None),
        ("x^(1/2)*y", "(x*y^2)^(1/2)", None),
        ("x^(1/2)*abs(y)", "(x*y^2)^(1/2)", None),
        ("(x - 0.99)^(1/2)", "exp(log(x - 0.99)/2)", None),
        ("log(x - 0.9)", "log(x - 0.9) + 1e-3*sin(x)", None),
        # parameters, drawn like the coordinates
        ("a*sin(2*x)", "2*a*sin(x)*cos(x)", None),
        ("a*sin(x)", "1.5*sin(x)", None),
        # a symbol bound neither by the patch nor by the parameters
        ("b*sin(x)", "sin(x)", None),
        ("sin(x)", "sin(x)*b/b + b - b + c", None),
    ]
    # the third field, once fixed parameter values, is None in every case:
    # it keeps the case ids that recorded test runs refer to

    @staticmethod
    def verdict(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EquivalenceInconclusive:
            return "inconclusive"

    @pytest.mark.parametrize("left,right,params", CASES)
    def test_same_verdict(self, left, right, params):
        # at the library's sample count and seed
        e1, e2 = (substitute(parse_expr(text, self.PARSE), {"k": 0.1})
                  for text in (left, right))
        kw = dict(n_points=EQUIV_POINTS, seed=EQUIV_SEED)
        want = self.verdict(loop_expr_equiv, e1, e2, self.UNIT, **kw)
        assert self.verdict(expr_equiv, e1, e2, self.UNIT) == want


class TestAntiderivative:
    def test_polynomial(self):
        F = antiderivative(parse_expr("1 + x^2", PATCH), "x")
        assert F == parse_expr("x + x^3/3", PATCH)

    def test_trig(self):
        F = antiderivative(parse_expr("y*sin(2*x)", PATCH), "x")
        assert diff_expr(F, "x") == parse_expr("y*sin(2*x)", PATCH)

    def test_exp(self):
        F = antiderivative(parse_expr("exp(-3*x)", PATCH), "x")
        assert diff_expr(F, "x") == parse_expr("exp(-3*x)", PATCH)

    def test_constant_in_variable(self):
        F = antiderivative(parse_expr("y^2", PATCH), "x")
        assert F == parse_expr("x*y^2", PATCH)

    def test_no_closed_form(self):
        assert antiderivative(parse_expr("sin(x^2)", PATCH), "x") is None

    def test_slope_must_be_constant(self):
        # the slope y of x*y would be a divisor, a pole where y = 0
        assert antiderivative(parse_expr("cos(x*y)", PATCH), "x") is None


class TestPatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            Patch(("x", "x"), ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            Patch(("x",), ((1, 1),))

    def test_without(self):
        q = PATCH.without("y")
        assert q.names == ("x", "z")
        assert q.params == ("a", "b")

    def test_grid_shapes(self):
        axes = TORUS.axis_grid(8)
        g = np.concatenate(list(se.grid_blocks(axes)))
        assert g.shape == (64, 2)
        mesh = np.meshgrid(*axes, indexing="ij")
        assert np.array_equal(g, np.stack([m.ravel() for m in mesh], axis=-1))
        # periodic axes drop the duplicate endpoint
        ax = TORUS.axis_grid(8)[0]
        assert ax[-1] < 2 * math.pi - 1e-9


def _assert_fixed_point(e, raw):
    """e, built by the constructors, is a fixed point of normalize, and
    normalize takes raw, the same sum assembled from the node classes, to
    e in one pass."""
    assert normalize(e) == e
    assert normalize(normalize(e)) == normalize(e)
    assert normalize(raw) == e
    assert normalize(normalize(raw)) == normalize(raw)


def _random_expr(rng, depth):
    """Small random expression tree for property checks."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return sym(str(rng.choice(["x", "y", "z", "a", "b"])))
        if r < 0.7:
            return Num(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5))))
        return Num(float(rng.uniform(-2, 2)))
    op = rng.integers(0, 6)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if op == 0:
        return add(a, b)
    if op == 1:
        return sub(a, b)
    if op == 2:
        return mul(a, b)
    if op == 3:
        return div(a, b)
    if op == 4:
        return powr(a, int(rng.integers(1, 4)))
    return fun(str(rng.choice(["sin", "cos", "exp"])), a)


# ---------------------------------------------------------------------------
# cached keys, the failed-collapse memo and shared views


def _scratch_key(e):
    """The structural key computed from scratch, reading no cached key."""
    if isinstance(e, Num):
        v = e.value
        if isinstance(v, Fraction):
            return (0, 0, v.numerator, v.denominator)
        return (0, 1, v, 1)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, se.Fun):
        return (2, e.fn, _scratch_key(e.arg))
    if isinstance(e, se.Pow):
        return (3, _scratch_key(e.base), e.exp.numerator, e.exp.denominator)
    if isinstance(e, se.Mul):
        return (4, tuple(_scratch_key(f) for f in e.factors))
    return (5, tuple(_scratch_key(t) for t in e.terms))


def _subtrees(e):
    stack, seen = [e], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        yield x
        if isinstance(x, se.Add):
            stack.extend(x.terms)
        elif isinstance(x, se.Mul):
            stack.extend(x.factors)
        elif isinstance(x, se.Pow):
            stack.append(x.base)
        elif isinstance(x, se.Fun):
            stack.append(x.arg)


@pytest.fixture(scope="module")
def suite_trees():
    """Every tree that the first 20 cases of the six seeded property suites
    hand to expr_equiv or eval_expr, and every tree they try to collapse,
    kept alive for the tests below."""
    return _run_suites()


def _run_suites():
    import test_properties as tp

    handed, collapsed = [], []
    real_eval, real_collapse = tp.eval_expr, se._try_collapse

    def record_equiv(a, b, *args, **kwargs):
        handed.extend((a, b))
        return True

    def record_eval(e, *args, **kwargs):
        handed.append(e)
        return real_eval(e, *args, **kwargs)

    def record_collapse(e):
        collapsed.append(e)
        return real_collapse(e)

    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(tp, "N_CASES", tp.TREE_PIN_CASES)
        mp.setattr(tp, "expr_equiv", record_equiv)
        mp.setattr(tp, "eval_expr", record_eval)
        mp.setattr(se, "_try_collapse", record_collapse)
        tp.TestExteriorCalculus().test_d_squared_is_zero()
        tp.TestExteriorCalculus().test_graded_leibniz()
        tp.TestDualizeRoundTrip().test_round_trip()
        tp.TestRestrictionCovariance().test_covariance()
        tp.TestModularField().test_volume_change_covariance()
        tp.TestModularField().test_pairing_with_intrinsic_form()
    finally:
        mp.undo()
    return handed, collapsed


class TestCachedKeys:
    def test_keys_match_scratch(self, suite_trees):
        handed, collapsed = suite_trees
        checked = 0
        for tree in handed + collapsed:
            for x in _subtrees(tree):
                assert se.sort_key(x) == _scratch_key(x)
                checked += 1
        assert len(handed) > 1000 and len(collapsed) > 100 and checked

    def test_equality_and_hash_read_the_key(self):
        a = parse_expr("x/(x + 1) + sin(y)^2", PATCH)
        b = parse_expr("sin(y)^2 + x/(1 + x)", PATCH)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash(_scratch_key(a))
        assert a != parse_expr("x/(x + 2) + sin(y)^2", PATCH)

    @pytest.mark.parametrize("text,cls,attr", [
        ("3/4", Num, "value"), ("x", Sym, "name"), ("x + 1", se.Add, "terms"),
        ("2*x*y", se.Mul, "factors"), ("(x + y)^3", se.Pow, "exp"),
        ("sin(x)", se.Fun, "arg")])
    def test_nodes_are_immutable(self, text, cls, attr):
        # only object.__setattr__ writes a node: its fields, the cached
        # key and any other name are all refused
        node = parse_expr(text, PATCH)
        assert type(node) is cls
        key, text = se.sort_key(node), to_string(node)
        for name in (attr, "_key", "_shadow", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(node, name, None)
        assert se.sort_key(node) == key and to_string(node) == text


def _rebuilt(e):
    """A tree equal to e of new nodes, built raw: none of them has a key or
    a shadow cached yet."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Sym):
        return Sym(e.name)
    if isinstance(e, se.Add):
        return se.Add([_rebuilt(t) for t in e.terms])
    if isinstance(e, se.Mul):
        return se.Mul([_rebuilt(f) for f in e.factors])
    if isinstance(e, se.Pow):
        return se.Pow(_rebuilt(e.base), e.exp)
    return se.Fun(e.fn, _rebuilt(e.arg))


class TestShadowOnTheNode:
    """A node keeps its modular shadow from the first _shadow call, as it
    keeps its key; _try_collapse keeps nothing."""

    def test_cold_matches_warm(self, suite_trees):
        # cold: an equal tree rebuilt with no _shadow on any node; warm:
        # the same node again, its shadow kept from the cold call
        _, collapsed = suite_trees
        distinct = list({se.sort_key(e): e for e in collapsed}.values())
        cold, warm = [], []
        for e in distinct:
            fresh = _rebuilt(e)
            assert fresh == e and not hasattr(fresh, "_shadow")
            cold.append(se._try_collapse(fresh))
            assert fresh._shadow == se._shadow(e)
            warm.append(se._try_collapse(fresh))
        strings = [[None if r is None else to_string(r) for r in rs]
                   for rs in (cold, warm)]
        assert strings[0] == strings[1]
        assert cold.count(None) > 10 and len(cold) - cold.count(None) > 0

    def test_equal_node_needs_no_view(self, monkeypatch):
        x = sym("x")
        first = mul(x, powr(add(x, 1), -1))   # x/(x + 1): no collapse
        calls = []
        real = se._to_ratpoly
        monkeypatch.setattr(se, "_to_ratpoly",
                            lambda exprs: calls.append(exprs) or real(exprs))
        second = mul(x, powr(add(1, x), -1))  # built again, equal
        assert second is not first and second == first
        assert se._try_collapse(second) is None
        assert calls == []
        # a structure never seen: the modular shadow refuses it with no
        # exact view
        assert se._try_collapse(mul(x, powr(add(x, 2), -1))) is None
        assert calls == []
        # a float constant leaves the shadow inconclusive: the exact path
        # runs at each attempt, when mul builds the tree and again here
        assert se._try_collapse(mul(x, powr(add(x, 2.5), -1))) is None
        assert len(calls) == 2

    def test_second_call_recomputes_nothing(self, monkeypatch):
        x, y = sym("x"), sym("y")
        tree = se.Add([x, se.Mul([y, se.Pow(se.Add([Num(Fraction(1)), x]),
                                            Fraction(-1))])])
        calls = []
        for name in ("_sum_shadow", "_mul_shadow", "_pow_shadow",
                     "_atom_point"):
            monkeypatch.setattr(se, name,
                                lambda *a, _f=getattr(se, name), _n=name:
                                calls.append(_n) or _f(*a))
        first = se._shadow(tree)
        assert first is not None and tree._shadow is first
        # both sums, the product, the power, and the atoms y and x: the
        # inner sum reads x's shadow from the node
        assert calls.count("_sum_shadow") == 2 and len(calls) == 6
        calls.clear()
        assert se._shadow(tree) is first
        assert calls == []


def _shadow_verdict(e):
    """'refused', 'passed' (the shadow divides out) or 'inconclusive'."""
    s = se._shadow(e)
    if s is None:
        return "inconclusive"
    return "refused" if se._shadow_rem(*s) else "passed"


def _exact_collapse(rp):
    q = None if rp is None else poly_quotient(rp[0], rp[1])
    return None if q is None else to_string(se.poly_to_expr(q, rp[2]))


_X = sym("x")
_P = se._SHADOW_P
# trees the shadow must leave to the exact path, some of them built raw
_INCONCLUSIVE = [
    # a float constant
    se.Mul([_X, powr(add(_X, Num(2.5)), -1)]),
    # a Fraction whose denominator p divides
    se.Mul([Num(Fraction(1, _P)), _X, powr(add(_X, 1), -1)]),
    # a power of _POLY_MONOMIAL_LIMIT or more of a non-monomial base
    powr(add(_X, 1), -se._POLY_MONOMIAL_LIMIT),
    powr(add(_X, 1), se._POLY_MONOMIAL_LIMIT),
    # a degree past the limit: by a power, a product, a sum
    powr(_X, se._SHADOW_DEGREE_LIMIT + 1),
    se.Mul([sym("x%d" % i) for i in range(se._SHADOW_DEGREE_LIMIT + 1)]),
    se.Add([powr(add(_X, k), -1)
            for k in range(1, se._SHADOW_DEGREE_LIMIT + 2)]),
    # a negative power of a base that restricts to zero
    se.Pow(se.Add([_X, se.Mul([Num(Fraction(-1)), _X])]), Fraction(-1)),
    se.Pow(Num(Fraction(_P)), Fraction(-2)),
]
_INCONCLUSIVE_IDS = ["float", "p-denominator", "power-4000", "power+4000",
                     "degree-pow", "degree-mul", "degree-add", "zero-base",
                     "p-base"]


class TestModularShadow:
    """The GF(p) shadow of _try_collapse refuses only collapses that the
    exact path refuses too, and is inconclusive where it cannot tell."""

    def test_refusals_are_sound(self, suite_trees):
        # checking mode: both paths on every distinct collapse input
        _, collapsed = suite_trees
        distinct = list({se.sort_key(e): e for e in collapsed}.values())
        seen = {"refused": 0, "passed": 0, "inconclusive": 0}
        for e in distinct:
            verdict = _shadow_verdict(e)
            seen[verdict] += 1
            if verdict == "refused":
                assert _exact_collapse(se.expr_to_ratpoly(e)) is None, \
                    to_string(e)
        assert seen["refused"] > 100 and seen["passed"] > 0 \
            and seen["inconclusive"] > 0, seen

    def test_refuses_and_passes(self):
        x, y = sym("x"), sym("y")
        assert _shadow_verdict(se.Mul([x, powr(add(x, 2), -1)])) == "refused"
        # (x^2 - y^2)/(x - y) is x + y: the shadow divides out too
        tree = se.Mul([add(powr(x, 2), neg(powr(y, 2))),
                       powr(sub(x, y), -1)])
        assert _shadow_verdict(tree) == "passed"
        assert se._try_collapse(tree) == add(x, y)

    @pytest.mark.parametrize("tree", _INCONCLUSIVE, ids=_INCONCLUSIVE_IDS)
    def test_inconclusive(self, tree):
        assert se._shadow(tree) is None

    def test_limits(self):
        assert se._SHADOW_DEGREE_LIMIT <= se._POLY_MONOMIAL_LIMIT
        x = sym("x")
        assert se._shadow(powr(x, se._SHADOW_DEGREE_LIMIT)) is not None

    def test_inconclusive_collapse_takes_the_exact_path(self):
        # inconclusive is not refused: a Fraction with p in its denominator
        # still collapses on the exact path
        x = sym("x")
        tree = se.Mul([Num(Fraction(1, _P)), add(powr(x, 2), -1),
                       powr(add(x, -1), -1)])
        assert _shadow_verdict(tree) == "inconclusive"
        assert se._try_collapse(tree) == mul(Num(Fraction(1, _P)),
                                             add(x, 1))

    def test_atom_points_are_stable(self):
        # the point of an atom depends only on its key, in every process
        code = ("from bgeo import symexpr as se\n"
                "print(se._atom_point(se.sort_key(se.fun('cos', "
                "se.sym('theta')))))\n")
        import os
        import subprocess
        import sys

        outs = set()
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed))
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1
        here = se._atom_point(se.sort_key(fun("cos", sym("theta"))))
        assert outs == {"%s\n" % here} and len(here) == 2

    def test_power_of_sum_shadow_bound(self):
        t0 = time.perf_counter()
        e = parse_expr("x^3000/(x + 1) + y + 1/(x + 1)^100000", PATCH)
        assert time.perf_counter() - t0 < 1.0
        assert se._shadow(e) is None


class TestGroupedSums:
    """An Add's exact view sums its terms over each distinct denominator
    before it cross-multiplies; the view folded term by term
    (sequential_view) is the oracle."""

    def test_same_rational_functions(self, suite_trees):
        from sequential_view import sequential_ratpoly

        _, collapsed = suite_trees
        distinct = list({se.sort_key(e): e for e in collapsed}.values())
        smaller = 0
        for e in distinct:
            grouped, folded = se.expr_to_ratpoly(e), sequential_ratpoly(e)
            assert (grouped is None) == (folded is None), to_string(e)
            if grouped is None:
                continue
            (n1, d1, atoms1), (n2, d2, atoms2) = grouped, folded
            assert atoms1 == atoms2
            assert poly_mul(n1, d2) == poly_mul(n2, d1)
            assert _exact_collapse(grouped) == _exact_collapse(folded)
            smaller += len(d1) < len(d2)
        assert smaller > 0

    def test_interleaved_denominators(self):
        # terms over V and V*H alternate in sorted order: the grouped view
        # multiplies each denominator in once
        from sequential_view import sequential_ratpoly

        h, th = sym("h"), sym("theta")
        V, H = add(2, h), add(2, mul(h, h))
        terms = [mul(th, powr(V, -1)), mul(h, powr(mul(V, H), -1)),
                 mul(h, th, powr(V, -1)), mul(powr(h, 3), powr(mul(V, H), -1))]
        tree = se.Add(terms)
        n1, d1, _ = se.expr_to_ratpoly(tree)
        n2, d2, _ = sequential_ratpoly(tree)
        assert poly_mul(n1, d2) == poly_mul(n2, d1)
        assert len(d1) < len(d2)


class TestSharedViews:
    """_to_ratpoly gives a repeated subtree one view per call; no caller of
    the views may mutate them."""

    @staticmethod
    def _matrix(rng, n=4):
        # the superdiagonal shares the compound subtree (x + y)^2
        S = powr(add(sym("x"), sym("y")), 2)

        def entry(i, j):
            c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
            return mul(c, S) if j == i + 1 else Num(c)

        return [[add(entry(i, j), 5 if i == j else 0) for j in range(n)]
                for i in range(n)]

    def test_views_not_mutated(self, monkeypatch):
        import copy

        from bgeo._poly import poly_quotient, rat_add, rat_mul

        M = self._matrix(np.random.default_rng(61))
        exprs = [e for row in M for e in row]
        # an equal copy of a superdiagonal entry, built again: its view is
        # shared
        exprs.append(normalize(exprs[1]))
        views, _ = se._to_ratpoly(exprs)
        assert exprs[-1] is not exprs[1] and views[-1] is views[1]
        before = copy.deepcopy(views)
        for a in views:
            for b in views:
                rat_add(a, b)
                rat_mul(a, b)
            poly_quotient(a[0], a[1])
            poly_quotient(a[1], a[0])
        assert views == before

        seen = []
        real = se._to_ratpoly

        def record(exprs):
            rp = real(exprs)
            seen.append((rp[0], copy.deepcopy(rp[0])))
            return rp

        monkeypatch.setattr(se, "_to_ratpoly", record)
        _inverse_expr(M)
        assert seen
        for views, before in seen:
            assert views == before


class TestLoneTermsKept:
    """add hands back a term that alone reaches its key as it is; where
    terms merged, mul rebuilds the sum's term and tries the rational
    collapse.  The oracle, tests/rebuilding_constructors.py, rebuilds
    every term."""

    def test_suite_trees_match_the_rebuilding_oracle(self, suite_trees):
        handed, _ = suite_trees
        with rebuilding():
            rebuilt, _ = _run_suites()
        assert len(handed) == len(rebuilt) > 1000
        assert [to_string(e) for e in handed] == \
            [to_string(e) for e in rebuilt]

    def test_lone_term_is_the_input_object(self):
        x, y = sym("x"), sym("y")
        term = mul(3, x, fun("sin", y))
        s = add(term, y, 1)
        assert any(t is term for t in s.terms)
        merged = add(term, term)
        assert merged is not term and to_string(merged) == "6*x*sin(y)"

    def test_untouched_term_of_a_pythagoras_pass_is_kept(self):
        x, y, z = sym("x"), sym("y"), sym("z")
        term = mul(2, y, z)
        s = add(mul(y, powr(fun("sin", x), 2)),
                mul(y, powr(fun("cos", x), 2)), term)
        assert to_string(s) == "y + 2*y*z"
        assert any(t is term for t in s.terms)

    def test_merged_reciprocals_still_collapse(self):
        x = sym("x")
        a = sub(div(1, x), div(1, add(x, 1)))
        assert add(div(1, a), div(1, a)) == parse_expr("2*x + 2*x^2", PATCH)
        # a lone reciprocal that does not divide out is kept as it is
        lone = div(1, add(x, 2))
        assert any(t is lone for t in add(lone, x).terms)

    def test_float_coefficient_keeps_its_num(self):
        x, y = sym("x"), sym("y")
        term = mul(Num(1.0), x)
        assert isinstance(term, se.Mul) and term.factors[0].value == 1.0
        s = add(term, y)
        assert s.terms[1] is term and to_string(s) == "y + 1.0*x"
        with rebuilding():
            assert to_string(add(term, y)) == "y + 1.0*x"
