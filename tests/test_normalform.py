"""Tests for Darboux flattening and the Moser-path verifier."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bgeo import normalform
from bgeo import symexpr as se
from bgeo.evalcore import compile_tape, evaluate_tape
from bgeo.forms import (
    BForm,
    GeometryError,
    SmoothForm,
    b_matrix,
    find_z_components,
    interior_product,
    nondegeneracy_check,
    smooth_equivalent,
)
from bgeo.normalform import (
    _DEGENERATE,
    FLOW_BUDGET,
    N_SAMPLE,
    N_STEPS,
    STEP_OVERHEAD,
    _check_flow,
    _collar_primitive,
    _congruence,
    _factor_at,
    _halton,
    _halton_collar,
    _relative_engine,
    _shrink_collar,
    _solve_antisymmetric,
    _standard_model,
    darboux2d,
    darboux_verify,
    moser_relative_verify,
)
from bgeo.symexpr import Patch, diff_expr, expr_equiv, num, parse_expr, sym
from dense_antisymmetric import dense_solve_antisymmetric, einsum_congruence
from expr_oracles import normalize
from ray_primitive import ray_collar_primitive, ray_primitive


def bform2d(patch, g_text, beta_text=None):
    """(g/z1) dz1^dz2 as a singular form: alpha = -g dz2."""
    g = parse_expr(g_text, patch)
    alpha = SmoothForm(patch, 1, {(patch.names[1],): se.neg(g)})
    beta = {}
    if beta_text is not None:
        beta = {tuple(patch.names): parse_expr(beta_text, patch)}
    return BForm(patch, 2, alpha, SmoothForm(patch, 2, beta),
                 sym(patch.names[0]), patch.names[0])


@pytest.fixture
def p2():
    return Patch(("z1", "z2"), ((-1.0, 1.0), (-1.0, 1.0)))


class TestDarboux2d:
    def test_trivial(self, p2):
        cc = darboux2d(bform2d(p2, "1"))
        assert expr_equiv(cc.forward[1], sym("z2"), p2)
        assert expr_equiv(cc.jacobian_det, num(1), p2)

    def test_cubic_oracle(self, p2):
        # dz^dt with t = z2 + z2^3/3 pulls back to ((1+z2^2)/z1) dz1^dz2
        cc = darboux2d(bform2d(p2, "1 + z2^2"))
        want = parse_expr("z2 + z2^3/3", p2)
        assert normalize(cc.forward[1]) == normalize(want)

    def test_sphere_form(self):
        patch = Patch(("h", "theta"), ((-0.5, 0.5), (0.0, 2 * math.pi)),
                      periods=(None, 2 * math.pi))
        cc = darboux2d(bform2d(patch, "1"))
        assert expr_equiv(cc.forward[1], sym("theta"), patch)
        assert cc.target.names == ("h", "t")

    def test_quadrature_fallback(self, p2):
        # exp(z2^2) has no closed-form antiderivative in the table; the
        # Gauss-node path must still satisfy dt/dz2 = g
        omega = bform2d(p2, "exp(z2^2)")
        cc = darboux2d(omega)
        ty = diff_expr(cc.forward[1], "z2")
        assert expr_equiv(ty, parse_expr("exp(z2^2)", p2), p2)

    def test_beta_contribution(self, p2):
        # g includes the smooth part: omega = dz1^dz2/z1 + dz1^dz2
        cc = darboux2d(bform2d(p2, "1", beta_text="1"))
        # g = 1 + z1 => t = (1+z1) z2
        want = parse_expr("(1+z1)*z2", p2)
        assert expr_equiv(cc.forward[1], want, p2)

    def test_vanishing_g_rejected(self, p2):
        with pytest.raises(GeometryError, match="vanishes"):
            darboux2d(bform2d(p2, "z2"))

    @pytest.mark.parametrize("grid", [1414, 1415, 100000])
    def test_vanishing_g_rejected_on_capped_grid(self, p2, grid):
        # the grid of g stays odd when the point cap lowers it, so the
        # zero of g at z2 = 0 is still sampled
        with pytest.raises(GeometryError, match="vanishes"):
            darboux2d(bform2d(p2, "z2"), grid=grid)

    def test_not_star_shaped(self):
        patch = Patch(("z1", "z2"), ((-1.0, 1.0), (0.5, 1.0)))
        with pytest.raises(GeometryError, match="star-shaped"):
            darboux2d(bform2d(patch, "1"))

    def test_f_must_be_coordinate(self, p2):
        g = parse_expr("1", p2)
        alpha = SmoothForm(p2, 1, {("z2",): se.neg(g)})
        omega = BForm(p2, 2, alpha, SmoothForm(p2, 2, {}),
                      parse_expr("2*z1", p2), "z1")
        with pytest.raises(GeometryError, match="coordinate"):
            darboux2d(omega)


class TestDarbouxVerify:
    def test_2d_residual(self, p2):
        rep = darboux_verify(bform2d(p2, "1 + z2^2"))
        assert rep.ok and rep.max_residual < 1e-9
        assert rep.change is not None

    def test_standard_model_r4(self):
        p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
        rep = darboux_verify(_standard_model(p4, "y1"))
        assert rep.ok and rep.max_residual == 0.0

    def test_canonical_one_form_differential(self):
        # d(x1 dy1/y1 + x2 dy2) is again the standard model
        p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
        alpha = SmoothForm(p4, 1, {("x1",): num(1)})
        beta = SmoothForm(p4, 2, {("x2", "y2"): num(1)})
        omega = BForm(p4, 2, alpha, beta, sym("y1"), "y1")
        rep = darboux_verify(omega)
        assert rep.ok

    def test_detects_mismatch(self):
        p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
        model = _standard_model(p4, "y1")
        skew = BForm(p4, 2, model.alpha, model.beta.scale(2), model.f, "y1")
        rep = darboux_verify(skew)
        assert not rep.ok and rep.max_residual > 0.1


def relative_pair(params=(), beta="y", y_interval=(-1.0, 1.0)):
    """dx^dy/y and the same plus beta dx^dy."""
    p = Patch(("x", "y"), ((-1.0, 1.0), y_interval), params=params)
    alpha = SmoothForm(p, 1, {("x",): num(1)})
    w0 = BForm(p, 2, alpha, SmoothForm(p, 2, {}), sym("y"), "y")
    w1 = BForm(p, 2, alpha,
               SmoothForm(p, 2, {("x", "y"): parse_expr(beta, p)}),
               sym("y"), "y")
    return w0, w1


def closed_perturbation_pair():
    p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
    w0 = _standard_model(p4, "y1")
    pert = SmoothForm(p4, 2, {("x2", "y2"): sym("y1"),
                              ("y1", "y2"): sym("x2")})  # d(x2 y1 dy2)
    return w0, BForm(p4, 2, w0.alpha, w0.beta + pert, w0.f, "y1")


def upper_rows(W):
    """The strict upper triangle of (n, m, m) matrices as {(i, j): row}."""
    m = W.shape[-1]
    return {(i, j): W[:, i, j].copy() for i in range(m)
            for j in range(i + 1, m)}


def antisymmetric_batch(m, n=500, seed=0):
    """Seeded antisymmetric (n, m, m) matrices with |Pf| >= 0.1, i.e.
    det = Pf^2 >= 0.01, their upper-triangle rows, and right-hand sides
    (n, m)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4 * n, m, m))
    W = A - A.transpose(0, 2, 1)
    W = W[np.linalg.det(W) >= 0.01][:n]
    assert W.shape[0] == n
    return W, upper_rows(W), rng.standard_normal((n, m))


def solve_rows(rows, b):
    return _solve_antisymmetric(rows, list(b.T), b.shape[0])


class TestSolveAntisymmetric:
    def test_2x2_bit_identical_to_solve(self):
        W, rows, b = antisymmetric_batch(2)
        want = np.linalg.solve(W, b[..., None])[..., 0]
        u = solve_rows(rows, b)
        assert u.flags.f_contiguous
        assert np.array_equal(u, want)

    def test_4x4_pfaffian_adjugate(self):
        W, rows, b = antisymmetric_batch(4)
        want = np.linalg.solve(W, b[..., None])[..., 0]
        u = solve_rows(rows, b)
        assert u.flags.f_contiguous
        np.testing.assert_allclose(u, want, rtol=1e-10, atol=0)

    def test_6x6_uses_solve(self):
        W, rows, b = antisymmetric_batch(6)
        want = np.linalg.solve(W, b[..., None])[..., 0]
        u = solve_rows(rows, b)
        assert u.flags.f_contiguous
        assert np.array_equal(u, want)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_singular_matrix_in_batch(self, m):
        W, _, b = antisymmetric_batch(m, n=8)
        W[3] = 0.0
        if m > 2:
            W[3, 0, 1], W[3, 1, 0] = 1.0, -1.0  # rank 2 < m
        with pytest.raises(GeometryError, match="degenerate"):
            solve_rows(upper_rows(W), b)

    @pytest.mark.parametrize("m", [2, 4])
    def test_absent_entries_against_the_dense_solve(self, m):
        """Every pattern of absent strict-upper entries, crossed with every
        absent subset of the right-hand side, with entries that are rows,
        1.0 or other constants: the result equals the dense solve run on
        explicit 0.0 rows, and a pattern whose Pfaffian (for m = 2, a01)
        has no term present is degenerate, as the dense 0.0 was."""
        n = 40
        _, rows, b = antisymmetric_batch(m, n=n, seed=m)
        keys = sorted(rows)
        products = ({((0, 1),)} if m == 2 else
                    {((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))})
        rng = random.Random(m)
        zero = np.zeros(n)

        def pick(row, kinds):
            if kinds == "rows":
                return row
            return rng.choice([row, row, 1.0, 1.0, -1.0, 0.5, -2.0])

        for absent in itertools.product((False, True), repeat=len(keys)):
            gone = {key for key, a in zip(keys, absent) if a}
            no_pf = all(gone & set(p) for p in products)
            for b_absent, kinds in itertools.product(
                    itertools.product((False, True), repeat=m),
                    ("rows", "mixed", "mixed")):
                have = {key: pick(rows[key], kinds) for key in keys
                        if key not in gone}
                cols = [None if a else pick(b[:, k], kinds)
                        for k, a in enumerate(b_absent)]
                try:
                    want = dense_solve_antisymmetric(
                        {key: have.get(key, zero) for key in keys},
                        [zero if c is None else c for c in cols], n)
                except GeometryError:
                    with pytest.raises(GeometryError, match="degenerate"):
                        _solve_antisymmetric(have, cols, n)
                    continue
                assert not no_pf
                u = _solve_antisymmetric(have, cols, n)
                assert u.flags.f_contiguous
                assert np.array_equal(u, want), (gone, b_absent, kinds)

    def test_6x6_fills_absent_entries(self):
        _, rows, b = antisymmetric_batch(6, n=40)
        for key in ((0, 2), (1, 4), (3, 5)):
            del rows[key]
        cols = list(b.T)
        cols[1] = cols[4] = None
        zero = np.zeros(40)
        want = dense_solve_antisymmetric(
            rows, [zero if c is None else c for c in cols], 40)
        assert np.array_equal(_solve_antisymmetric(rows, cols, 40), want)

    def test_absent_numerator_is_positive_zero(self):
        # the dense formula gives 0.0 / -a01, a negative zero where a01 > 0;
        # a component with no term present is written as 0.0
        _, rows, b = antisymmetric_batch(2, n=40)
        a01 = rows[(0, 1)]
        u = _solve_antisymmetric(rows, [b[:, 0], None], 40)
        want = dense_solve_antisymmetric(rows, [b[:, 0], 0.0], 40)
        assert np.array_equal(u, want)
        assert not np.signbit(u[:, 0]).any()
        assert np.signbit(want[:, 0]).tolist() == (a01 > 0).tolist()
        assert (a01 > 0).any() and (a01 < 0).any()

    def test_unread_non_finite_entry(self):
        """a02 meets only a13, b1 and b3, all absent here: an inf in a02
        leaves its point finite, where the dense formulas' 0.0 * inf made
        it nan.  The pullback residual still reads every entry."""
        _, rows, b = antisymmetric_batch(4, n=40)
        have = {key: rows[key] for key in ((0, 1), (0, 2), (1, 2), (2, 3))}
        have[(0, 2)] = have[(0, 2)].copy()
        have[(0, 2)][7] = np.inf
        cols = [b[:, 0], None, b[:, 2], None]
        u = _solve_antisymmetric(have, cols, 40)
        assert np.isfinite(u).all()
        with np.errstate(invalid="ignore"):
            want = dense_solve_antisymmetric(
                have, [c if c is not None else 0.0 for c in cols], 40)
        assert np.isnan(want[7]).all()
        assert np.array_equal(np.delete(u, 7, axis=0),
                              np.delete(want, 7, axis=0))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_halton_matches_scipy(d):
    # the numpy radical inverse against the scipy sampler it replaced
    from scipy.stats import qmc

    for n in (1, 2, 7, 201, 1000, 4097):
        want = qmc.Halton(d=d, scramble=False).random(n)
        assert np.array_equal(_halton(n, d), want), n


class TestMoserRelative:
    def test_identical_forms(self):
        w0, _ = relative_pair()
        rep = moser_relative_verify(w0, w0, n_points=50, n_steps=N_STEPS)
        assert rep.max_residual < 1e-10
        assert rep.v_on_Z_max == 0.0

    def test_2d_perturbation(self):
        w0, w1 = relative_pair()
        rep = moser_relative_verify(w0, w1, n_steps=N_STEPS)
        assert rep.max_residual < 1e-5
        assert rep.v_on_Z_max < 1e-8
        assert rep.steps == 256
        # the primitive must vanish identically on Z
        for c in relative_primitive(w0, w1).comps.values():
            on_z = se.substitute(c, {"y": 0.0})
            assert se.is_zero(on_z)

    def test_convergence_order(self):
        # halving the step cuts the residual by >= 8x while the time
        # integration error dominates the finite-difference floor
        w0, w1 = relative_pair()
        coarse = moser_relative_verify(w0, w1, n_points=50, n_steps=8)
        fine = moser_relative_verify(w0, w1, n_points=50, n_steps=16)
        assert coarse.max_residual / fine.max_residual >= 8.0

    def test_4d_closed_perturbation(self):
        w0, w1 = closed_perturbation_pair()
        rep = moser_relative_verify(w0, w1, n_points=50, n_steps=N_STEPS)
        assert rep.max_residual < 1e-4
        assert rep.v_on_Z_max < 1e-8

    def test_4d_residual_matches_linalg_solve(self):
        # max_residual of this pair when the flow, on the exact collar
        # primitive, solved its 4x4 systems with numpy.linalg.solve on the
        # dense matrices; the Pfaffian adjugate must reproduce it
        w0, w1 = closed_perturbation_pair()
        rep = moser_relative_verify(w0, w1, n_points=50, n_steps=N_STEPS)
        assert abs(rep.max_residual - 1.6757306653403248e-10) <= 1e-12

    def test_nonclosed_difference_rejected(self):
        # y1 dx2^dy2 alone is not closed: no Moser path exists
        p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
        w0 = _standard_model(p4, "y1")
        pert = SmoothForm(p4, 2, {("x2", "y2"): sym("y1")})
        w1 = BForm(p4, 2, w0.alpha, w0.beta + pert, w0.f, "y1")
        with pytest.raises(GeometryError, match="closed"):
            moser_relative_verify(w0, w1, n_points=20, n_steps=N_STEPS)

    @pytest.mark.parametrize("knobs", [{"n_points": 0},
                                       {"n_steps": 0},
                                       {"n_steps": -3},
                                       {"n_steps": 10 ** 400},
                                       {"n_points": 400_001}])
    def test_knobs_range_checked(self, knobs):
        w0, w1 = relative_pair()
        with pytest.raises(ValueError, match="n_points|n_steps"):
            moser_relative_verify(w0, w1, **{"n_steps": N_STEPS, **knobs})

    def test_no_zeros_in_patch(self):
        w0, _ = relative_pair(y_interval=(1.0, 2.0))
        with pytest.raises(GeometryError, match="^defining function has no "
                                                "zeros in the patch$"):
            moser_relative_verify(w0, w0, n_points=20, n_steps=N_STEPS)

    def test_differing_restrictions_rejected(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        alpha0 = SmoothForm(p, 1, {("x",): num(1)})
        alpha1 = SmoothForm(p, 1, {("x",): parse_expr("1 + x", p)})
        w0 = BForm(p, 2, alpha0, SmoothForm(p, 2, {}), sym("y"), "y")
        w1 = BForm(p, 2, alpha1, SmoothForm(p, 2, {}), sym("y"), "y")
        with pytest.raises(GeometryError, match="restriction"):
            moser_relative_verify(w0, w1, n_points=20, n_steps=N_STEPS)

    def test_differing_beta_rejected(self):
        # omega1 = omega0 + dx^du is b-symplectic and differs from omega0
        # in beta~ on Z = {y = 0}: the restriction test of the difference
        # refuses it, and is the only guard of the collar primitive's
        # precondition
        p = Patch(("x", "y", "u", "v"), ((-1.0, 1.0),) * 4)
        alpha = SmoothForm(p, 1, {("x",): num(1)})
        beta = SmoothForm(p, 2, {("u", "v"): num(1)})
        w0 = BForm(p, 2, alpha, beta, sym("y"), "y")
        w1 = BForm(p, 2, alpha, beta + SmoothForm(p, 2, {("x", "u"): num(1)}),
                   sym("y"), "y")
        with pytest.raises(GeometryError, match="^restrictions to the "
                                                "hypersurface differ"):
            moser_relative_verify(w0, w1, n_points=20, n_steps=N_STEPS)


def test_collar_halves_on_sign_change():
    """The top coefficient 1 - 3y changes sign at y = 1/3, between the
    COLLAR_GRID samples 0.3 and 0.3667 of the first collar, |y| <= 1/2,
    where |1 - 3y| is at least 0.1: values of both signs are a zero, so
    the collar halves once, to |y| <= 1/4, where the coefficient is at
    least 1/4."""
    p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    w = BForm(p, 2, SmoothForm(p, 1, {("x",): parse_expr("1 - 3*y", p)}),
              SmoothForm(p, 2, {}), sym("y"), "y")
    (comp,) = find_z_components(w)
    assert _shrink_collar(w, w, comp) == (0.25, 1)
    rep = moser_relative_verify(w, w, n_points=20, n_steps=N_STEPS)
    assert (rep.collar_halvings, rep.collar_radius) == (1, 0.25)


def test_collar_builds_each_top_coefficient_once(monkeypatch):
    """The five interpolated top coefficients are built once, before the
    halvings: five on the pair above, whose collar halves once."""
    built = []

    def top_coefficient(form):
        built.append(form)
        return real(form)

    real = normalform.top_coefficient
    monkeypatch.setattr(normalform, "top_coefficient", top_coefficient)
    p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    w = BForm(p, 2, SmoothForm(p, 1, {("x",): parse_expr("1 - 3*y", p)}),
              SmoothForm(p, 2, {}), sym("y"), "y")
    (comp,) = find_z_components(w)
    assert _shrink_collar(w, w, comp) == (0.25, 1)
    assert len(built) == 5


def test_undeclared_symbol_is_an_expr_error():
    """A symbol that the patch does not declare cannot take the 1.0 of a
    declared parameter: every numeric check names it in an ExprError."""
    p = Patch(("z", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    q = se.add(num(2), sym("q"))
    w = BForm(p, 2, SmoothForm(p, 1, {("y",): q}), SmoothForm(p, 2, {}),
              sym("z"), "z")
    bad_f = BForm(p, 2, SmoothForm(p, 1, {("y",): num(1)}),
                  SmoothForm(p, 2, {}), se.mul(sym("z"), q), "z")
    for check in (lambda: nondegeneracy_check(w), lambda: darboux_verify(w),
                  lambda: find_z_components(bad_f)):
        with pytest.raises(se.ExprError, match="'q'") as info:
            check()
        assert not isinstance(info.value, KeyError)


# --- the (n, m, m) velocity path the fused one replaced, kept as an oracle ---

def dense_matrix_evaluator(patch, W):
    m = patch.dim
    names = patch.names + patch.params
    tapes = {key: compile_tape(e, names) for key, e in W.items()}

    def evaluate(pts):
        out = np.zeros((pts.shape[0], m, m))
        for (i, j), tape in tapes.items():
            v = evaluate_tape(tape, pts)
            out[:, i, j] = v
            out[:, j, i] = -v
        return out

    return evaluate


def dense_vector_evaluator(patch, comps):
    names = patch.names + patch.params
    tapes = {i: compile_tape(e, names) for i, e in enumerate(comps)
             if not se.is_zero(e)}

    def evaluate(pts):
        out = np.zeros((pts.shape[0], patch.dim))
        for i, tape in tapes.items():
            out[:, i] = evaluate_tape(tape, pts)
        return out

    return evaluate


def dense_solve(W, b):
    m = W.shape[-1]
    if m == 2:
        a01 = W[:, 0, 1]
        return np.stack([b[:, 1] / -a01, b[:, 0] / a01], axis=1)
    if m == 4:
        a01, a02, a03 = W[:, 0, 1], W[:, 0, 2], W[:, 0, 3]
        a12, a13, a23 = W[:, 1, 2], W[:, 1, 3], W[:, 2, 3]
        pf = a01 * a23 - a02 * a13 + a03 * a12
        b0, b1, b2, b3 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
        u = np.stack([-a23 * b1 + a13 * b2 - a12 * b3,
                      a23 * b0 - a03 * b2 + a02 * b3,
                      -a13 * b0 + a03 * b1 - a01 * b3,
                      a12 * b0 - a02 * b1 + a01 * b2], axis=1)
        return u / pf[:, None]
    return np.linalg.solve(W, b[..., None])[..., 0]


def dense_velocity(patch, zname, f, W_fn, r_fn):
    f_tape = compile_tape(f, patch.names)
    zi = patch.index(zname)

    def velocity(pts, t):
        u = dense_solve(W_fn(pts, t), -r_fn(pts, t))
        v = u.copy()
        v[:, zi] = u[:, zi] * evaluate_tape(f_tape, pts)
        return v

    return velocity


def dense_relative_velocity(w0, w1, rho):
    patch, zname = w0.patch, w0.zname
    ev0 = dense_matrix_evaluator(patch, b_matrix(w0))
    ev1 = dense_matrix_evaluator(patch, b_matrix(w1))
    rhs = [rho.coefficient(i) for i in range(patch.dim)]
    zi = patch.index(zname)
    rhs[zi] = se.mul(w0.f, rhs[zi])
    ev_r = dense_vector_evaluator(patch, rhs)

    def W_fn(pts, t):
        if t == 0.0:
            return ev0(pts)
        if t == 1.0:
            return ev1(pts)
        return (1.0 - t) * ev0(pts) + t * ev1(pts)

    return dense_velocity(patch, zname, w0.f, W_fn,
                          lambda pts, t: ev_r(pts))


def relative_primitive(w0, w1):
    """rho as moser_relative_verify builds it for the first component."""
    comp = find_z_components(w0)[0]
    cval = _factor_at(w0.f, w0.zname, comp.value)
    return _collar_primitive(smooth_equivalent(w0 - w1), w0.zname, cval)


def seeded_pair4(seed):
    """dx^dy/y + du^dv and the same plus c1*y dx^dy + c2*y dy^du, with
    c1, c2 nonzero tenths in [-1/2, 1/2]: the benchmark's 4-D pairs."""
    rng = random.Random(seed)
    c1, c2 = (Fraction(rng.choice([k for k in range(-5, 6) if k]), 10)
              for _ in range(2))
    p = Patch(("x", "y", "u", "v"), ((-1.0, 1.0),) * 4)
    alpha = SmoothForm(p, 1, {("x",): num(1)})
    w0 = BForm(p, 2, alpha, SmoothForm(p, 2, {("u", "v"): num(1)}),
               sym("y"), "y")
    pert = SmoothForm(p, 2, {("x", "y"): se.mul(num(c1), sym("y")),
                             ("y", "u"): se.mul(num(c2), sym("y"))})
    return w0, BForm(p, 2, alpha, w0.beta + pert, w0.f, "y")


def seeded_pair2(seed):
    """dx^dy/f and the same plus b dx^dy, f = y - c at a rational level c:
    for an even seed b has a closed-form antiderivative in y (a power of y,
    sin and cos of a multiple of y times x, exp of a multiple of y); for an
    odd one it adds x*sin(x*y) and exp(y^2)/4, which the table lacks."""
    rng = random.Random(seed)
    c = rng.choice([Fraction(0), Fraction(1, 4), Fraction(-1, 2)])
    k = [Fraction(rng.choice([j for j in range(-5, 6) if j]), 10)
         for _ in range(4)]
    m = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
    b = (f"{k[0]}*y^{rng.randint(0, 4)} + {k[1]}*x*sin({m[0]}*y)"
         f" + {k[2]}*cos({m[1]}*y) + {k[3]}*exp({m[2]}*y/2)")
    if seed % 2:
        b += " + x*sin(x*y) + exp(y^2)/4"
    p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    alpha = SmoothForm(p, 1, {("x",): num(1)})
    f = parse_expr(f"y - {c}", p)
    w0 = BForm(p, 2, alpha, SmoothForm(p, 2, {}), f, "y")
    return w0, BForm(p, 2, alpha,
                     SmoothForm(p, 2, {("x", "y"): parse_expr(b, p)}), f, "y")


def pair6():
    p6 = Patch(("x1", "y1", "x2", "y2", "x3", "y3"), ((-1.0, 1.0),) * 6)
    w0 = _standard_model(p6, "y1")
    pert = SmoothForm(p6, 2, {("x2", "y2"): sym("y1"),
                              ("y1", "y2"): sym("x2")})
    return w0, BForm(p6, 2, w0.alpha, w0.beta + pert, w0.f, "y1")


class TestPrimitive:
    """normalform._primitive against the ray rule it replaced where the
    antiderivative table answers (ray_primitive.py): on the exact path the
    integral is ZERO at its lower limit; on every path its derivative is
    the integrand and its values are the ray rule's, to 1e-12, at seeded
    points of the patch."""

    @staticmethod
    def check(P, a, name, c, oracle, patch, seed):
        if se.antiderivative(a, name) is not None:
            assert se.substitute(P, {name: c}) == se.ZERO
        assert expr_equiv(diff_expr(P, name), a, patch)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.0, 1.0, (64, patch.dim))
        got, want = (evaluate_tape(compile_tape(e, patch.names), pts)
                     for e in (P, oracle))
        assert np.max(np.abs(got - want)) <= 1e-12

    def check_collar(self, w0, w1, seed):
        comp = find_z_components(w0)[0]
        cval = _factor_at(w0.f, w0.zname, comp.value)
        delta = smooth_equivalent(w0 - w1)
        rho = _collar_primitive(delta, w0.zname, cval)
        ray = ray_collar_primitive(delta, w0.zname, cval)
        eta = interior_product({w0.zname: num(1)}, delta)
        assert rho.comps.keys() == ray.comps.keys() == eta.comps.keys()
        for key, a in eta.comps.items():
            self.check(rho.comps[key], a, w0.zname, num(cval),
                       ray.comps[key], w0.patch, seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_2d_pairs(self, seed):
        self.check_collar(*seeded_pair2(seed), seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_4d_pairs(self, seed):
        self.check_collar(*seeded_pair4(seed), seed)

    def test_closed_perturbation_pair(self):
        self.check_collar(*closed_perturbation_pair(), 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_darboux(self, p2, seed):
        # g >= 3 - 4/2 - e/8 > 0, so darboux2d accepts it
        rng = random.Random(seed)
        k = [Fraction(rng.choice([j for j in range(-5, 6) if j]), 10)
             for _ in range(5)]
        m = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(2)]
        g = (f"3 + {k[0]}*z2 + {k[1]}*z1*z2^2 + {k[2]}*cos({m[0]}*z2)"
             f" + {k[3]}*z1*sin({m[1]}*z2)")
        if seed % 2:
            g += f" + {k[4]}*exp(z2^2)/4"
        t = darboux2d(bform2d(p2, g)).forward[1]
        g = parse_expr(g, p2)
        self.check(t, g, "z2", se.ZERO, ray_primitive(g, "z2", 0), p2, seed)

    def test_seeded_4d_pair_is_exact(self):
        # the ray rule at the float level 0.0 gives
        # -0.09999999999999999*y^2 and -0.24999999999999994*y^2
        rho = relative_primitive(*seeded_pair4(3))
        assert {k: str(c) for k, c in rho.comps.items()} == {
            (0,): "-1/10*y^2", (2,): "-1/4*y^2"}


FUSED_TIMES = (0.0, 0.3, 0.5, 1.0)


def collar_points(patch, zi, n=200):
    """Collar points as the verifiers sample them, the same points on Z,
    and a column-contiguous copy as the flow holds them."""
    pts = _halton_collar(patch, zi, -0.5, 0.5, n)
    on_Z = pts.copy()
    on_Z[:, zi] = 0.0
    return [pts, on_Z, np.asfortranarray(pts)]


class TestFusedVelocity:
    """The fused upper-triangle velocity against the (n, m, m) path it
    replaced: every entry keeps its floating-point operations, so the
    velocities agree bit for bit (np.array_equal), not within a tolerance."""

    def check_relative(self, w0, w1):
        rho = relative_primitive(w0, w1)
        fused = _relative_engine(w0, w1, rho)
        dense = dense_relative_velocity(w0, w1, rho)
        patch = w0.patch
        for pts in collar_points(patch, patch.index(w0.zname)):
            # the oracle reads every declared parameter's column at 1.0
            ones = np.ones((len(pts), len(patch.params)))
            for t in FUSED_TIMES:
                v = fused.velocity(pts, t)
                assert v.flags.f_contiguous
                assert np.array_equal(v, dense(np.hstack([pts, ones]), t)), t

    def test_relative_pair(self):
        self.check_relative(*relative_pair())

    def test_closed_perturbation_pair(self):
        self.check_relative(*closed_perturbation_pair())

    def test_pair_with_parameter(self):
        self.check_relative(*relative_pair(params=("a",), beta="a*y/4"))

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_4d_pairs(self, seed):
        self.check_relative(*seeded_pair4(seed))

    def test_6d_pair_uses_solve(self):
        self.check_relative(*pair6())


@pytest.mark.parametrize("dim,most", [(2, 400_000), (4, 222_222)])
def test_flow_batch_capped(dim, most):
    # the flow batch, each point with its 2*dim neighbours, holds at most
    # GRID_CAP points; a larger --points is refused before any work
    assert most * (1 + 2 * dim) <= se.GRID_CAP < (most + 1) * (1 + 2 * dim)
    _check_flow(most, N_STEPS, dim)
    with pytest.raises(ValueError, match=f"--points.* at most {most} "):
        _check_flow(most + 1, N_STEPS, dim)
    with pytest.raises(ValueError, match="--points"):
        _check_flow(10 ** 11, N_STEPS, dim)


@pytest.mark.parametrize("dim", [2, 4])
def test_flow_budget(dim):
    # the largest batch runs N_STEPS steps and no more, and the benchmark's
    # flows fit; at one sample point the most steps is the budget over the
    # batch and STEP_OVERHEAD, and one more is refused naming --steps
    most = se.GRID_CAP // (1 + 2 * dim)
    _check_flow(most, N_STEPS, dim)
    with pytest.raises(ValueError, match="--steps"):
        _check_flow(most, N_STEPS + 1, dim)
    _check_flow(4096 if dim == 2 else 1024, 256 if dim == 2 else 64, dim)
    steps = FLOW_BUDGET // (1 + 2 * dim + STEP_OVERHEAD)
    _check_flow(1, steps, dim)
    for huge in (steps + 1, 10 ** 400):
        with pytest.raises(ValueError, match=f"--steps.* at most {steps} "):
            _check_flow(1, huge, dim)


class TestReportsUnchanged:
    """repr of the maxima and sha256 of the residual bytes, as the flow
    gave them when every constant entry was a tape row filled with it and
    each RK4 stage made temporaries: folding constants and running RK4 in
    place must not move a bit.  The digests are those of the exact collar
    primitive (normalform._primitive), which replaced the float ray rule
    for these pairs; the maxima kept their bits.  The relative_4d digest is
    that of the residual contracted by a batched matmul, A^T Omega_1 A; it
    was 886c92f7ceb77797c58b362144a12a64d6ab8083daf7054cf52cbdd1cee6c72c
    with np.einsum("nia,nij,njb->nab"), which sums the 4-D products in
    another order.  Its maximum kept its bits; in 2-D the two contractions
    only swap two products, and the pins hold."""

    CASES = {
        "relative_2d": (
            lambda: moser_relative_verify(*relative_pair(), n_steps=N_STEPS),
            "6.143885400433646e-11", "0.0",
            "575c71fa3a2c44c96fa633d2eef1ea2273ca61d3352caee6e6d72a18dd4a259a"),
        "relative_4d": (
            lambda: moser_relative_verify(*seeded_pair4(3), n_points=64,
                                          n_steps=16),
            "1.9735324485736783e-11", "0.0",
            "9caaa4d9a0bbfd917fd7147189872ea7b252a20e0545e3a06b3ca7de227f4c0e"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_report_bits(self, case):
        run, max_residual, v_on_Z_max, digest = self.CASES[case]
        rep = run()
        assert repr(rep.max_residual) == max_residual
        assert repr(rep.v_on_Z_max) == v_on_Z_max
        assert hashlib.sha256(rep.residuals.tobytes()).hexdigest() == digest

    def test_constant_entries_off_the_tape(self):
        # every entry of W_0 and the du^dv entry of W_1 are constants and
        # reach the solver as floats; the y-perturbed (0, 1) and (1, 2)
        # entries of W_1 and the x and u components of rho are tape outputs
        w0, w1 = seeded_pair4(3)
        engine = _relative_engine(w0, w1, relative_primitive(w0, w1))
        assert engine.groups == [({(0, 1): 1.0, (2, 3): 1.0}, []),
                                 ({(2, 3): 1.0}, [(0, 1), (1, 2)]),
                                 ({}, [0, 2])]
        assert engine.tape.outputs == 5   # four entries and f

    PAIRS = {"relative_2d": relative_pair,
             "relative_4d": lambda: seeded_pair4(3),
             "relative_6d": pair6}   # m >= 6: numpy.linalg.solve

    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_flow_leaves_its_input(self, pair):
        # the flow returns a new column-contiguous array
        w0, w1 = self.PAIRS[pair]()
        engine = _relative_engine(w0, w1, relative_primitive(w0, w1))
        zi = w0.patch.index(w0.zname)
        for pts in collar_points(w0.patch, zi, n=50)[::2]:
            before = pts.copy()
            out = engine.flow(pts, 4)
            assert np.array_equal(pts, before)
            assert not np.shares_memory(out, pts)
            assert out.flags.f_contiguous

    @pytest.mark.parametrize("pair", list(PAIRS))
    def test_flow_is_rk4(self, pair):
        # the in-place stages give the bits of RK4 written with temporaries
        engine, pts = relative_flow(*self.PAIRS[pair](), 50)
        h = 1.0 / 4
        p = pts.copy()
        for k in range(4):
            t = k * h
            k1 = engine.velocity(p, t)
            k2 = engine.velocity(p + h / 2 * k1, t + h / 2)
            k3 = engine.velocity(p + h / 2 * k2, t + h / 2)
            k4 = engine.velocity(p + h * k3, t + h)
            p = p + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert engine.flow(pts, 4).tobytes(order="F") == p.tobytes(order="F")


def degenerate_pair():
    """x dx^dy/y and the same plus y dx^dy: W_0 is singular where x = 0."""
    p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    alpha = SmoothForm(p, 1, {("x",): sym("x")})
    w0 = BForm(p, 2, alpha, SmoothForm(p, 2, {}), sym("y"), "y")
    w1 = BForm(p, 2, alpha, SmoothForm(p, 2, {("x", "y"): sym("y")}),
               sym("y"), "y")
    return w0, w1


def relative_flow(w0, w1, n):
    """The relative engine of a pair and n of its collar points."""
    engine = _relative_engine(w0, w1, relative_primitive(w0, w1))
    zi = w0.patch.index(w0.zname)
    return engine, collar_points(w0.patch, zi, n=n)[0]


def full_batch_residual(engine, pts, n_steps):
    """The pullback residual from one flow of the points and their 2*m
    neighbours together, a batch of (1 + 2*m)*n points, as it was before
    the residual took the points' own flow from the step doubling."""
    n, m = pts.shape
    batch = [pts]
    for j in range(m):
        e = np.zeros(m)
        e[j] = normalform.FD_STEP
        batch += [pts + e, pts - e]
    flowed = engine.flow(np.concatenate(batch), n_steps)
    q = flowed[:n]
    J = np.empty((n, m, m))
    for j in range(m):
        plus = flowed[(1 + 2 * j) * n:(2 + 2 * j) * n]
        minus = flowed[(2 + 2 * j) * n:(3 + 2 * j) * n]
        J[:, :, j] = (plus - minus) / (2 * normalform.FD_STEP)
    rows, fq = engine.evaluate(q)
    zi = engine.zi
    Omega1 = normalform._antisymmetric(rows[1], n, m)
    Omega1[:, zi, :] /= fq[:, None]
    Omega1[:, :, zi] /= fq[:, None]
    Omega1[:, zi, zi] = 0.0
    rows, fp = engine.evaluate(pts)
    A = J.copy()
    A[:, :, zi] *= fp[:, None]
    R = _congruence(A, Omega1) - normalform._antisymmetric(rows[0], n, m)
    return np.max(np.abs(R), axis=(1, 2))


class TestResidualFlow:
    """The pullback residual reads the flow of the sample points that the
    step doubling formed, and flows only their neighbours; RK4 runs point
    by point, so the residual has the bits of one flow of the whole
    batch."""

    @pytest.mark.parametrize("pair", ["relative_2d", "relative_4d"])
    @pytest.mark.parametrize("n_steps", [1, 4])
    def test_same_bits_as_one_batch(self, pair, n_steps):
        engine, pts = relative_flow(*TestReportsUnchanged.PAIRS[pair](), 64)
        got = engine.pullback_residual(pts, n_steps,
                                       engine.flow(pts, n_steps))
        want = full_batch_residual(engine, pts, n_steps)
        assert got.tobytes() == want.tobytes()


class TestCongruence:
    """A^T Omega A by batched matmul against the three-operand einsum it
    replaced: within 4 m^2 eps (|A|^T |Omega| |A|) entry by entry, which
    bounds two orders of summation of the same m^2 products.  The matmul
    may fuse a multiply and an add (a BLAS dgemm does), so even for m = 2
    the bits agree only where an entry has at most one nonzero product."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_against_einsum(self, m, seed):
        rng = np.random.default_rng(seed)
        n = 500
        # entries over six decades, as a flow Jacobian scaled by f is
        A = (rng.standard_normal((n, m, m))
             * 10.0 ** rng.integers(-3, 3, (n, 1, m)))
        W = rng.standard_normal((n, m, m))
        Omega = W - W.transpose(0, 2, 1)
        got, want = _congruence(A, Omega), einsum_congruence(A, Omega)
        absA = np.abs(A)
        bound = (4 * m * m * np.finfo(float).eps
                 * (absA.transpose(0, 2, 1) @ np.abs(Omega) @ absA))
        assert np.all(np.abs(got - want) <= bound)

    def test_exact_on_the_2d_pair(self, monkeypatch):
        # the flow Jacobian of the 2-D pair is diagonal, so every entry of
        # A^T Omega A is one product, and the two contractions agree bit
        # for bit
        seen = []
        monkeypatch.setattr(normalform, "_congruence",
                            lambda A, Omega: seen.append((A, Omega))
                            or _congruence(A, Omega))
        engine, pts = relative_flow(*relative_pair(), 200)
        engine.pullback_residual(pts, 4, engine.flow(pts, 4))
        ((A, Omega),) = seen
        assert np.all(A[:, 0, 1] == 0.0) and np.all(A[:, 1, 0] == 0.0)
        assert np.array_equal(_congruence(A, Omega),
                              einsum_congruence(A, Omega))


@pytest.mark.parametrize("n_steps", [1, 8])
@pytest.mark.parametrize("row", [0, -1])
def test_flow_singular_point(row, n_steps, capfd):
    # a point where W_0 is singular, first or last in the batch, raises
    # in a flow of one step or of many, and prints nothing
    engine, pts = relative_flow(*degenerate_pair(), 200)
    pts[row, 0] = 0.0
    with pytest.raises(GeometryError, match=_DEGENERATE):
        engine.flow(pts, n_steps)
    assert capfd.readouterr() == ("", "")


def moser_doc(alpha, beta, f="y", params=(), y_interval=(-1, 1)):
    """The b-form document (1/f)(alpha dx^dy) + beta on x, y."""
    return {"schema": "bgeo/1", "kind": "bform", "degree": 2, "zcoord": "y",
            "f": f,
            "patch": {"names": ["x", "y"],
                      "intervals": [[-1, 1], list(y_interval)],
                      "periods": [None, None], "params": list(params)},
            "alpha": alpha, "beta": beta}


def bench_pairs4(seed):
    """The three 4-D pairs of round 0 of the benchmark's moser workload at
    a seed, as perfbench/docs.py draws them: dx^dy/y + du^dv and the same
    plus c1*y dx^dy + c2*y dy^du, c1 and c2 nonzero tenths in
    [-1/2, 1/2]."""
    rng = random.Random(f"moser:{seed}:0")

    def tenth():
        # as grammar text, parenthesised when negative
        while True:
            k = rng.randint(-5, 5)
            if k:
                c = Fraction(k, 10)
                return f"({c})" if c < 0 else str(c)

    pairs = []
    for _ in range(3):
        c1, c2 = tenth(), tenth()
        patch = {"names": ["x", "y", "u", "v"],
                 "intervals": [[-1.0, 1.0]] * 4}
        w0 = {"schema": "bgeo/1", "kind": "bform", "degree": 2,
              "zcoord": "y", "f": "y", "patch": patch, "alpha": {"0": "1"},
              "beta": {"2,3": "1"}}
        w1 = dict(w0, beta={"2,3": "1", "0,1": f"{c1}*y",
                            "1,2": f"{c2}*y"})
        pairs.append((w0, w1))
    return pairs


ACCEPTANCE_2D = (moser_doc({"0": "1"}, {}), moser_doc({"0": "1"},
                                                      {"0,1": "y"}))

# name: (documents, knobs): the 2-D acceptance pair at the sizes of
# test_acceptance, the benchmark's 4-D pairs of seeds 0-3 at its sizes, and
# the pairs of test_cli's TestMoser at their knobs
CAPPED_CASES = {
    **{f"acceptance-{p}": (ACCEPTANCE_2D, ["--points", p, "--steps", s])
       for p, s in (("4096", "256"), ("200", "16"), ("400", "32"))},
    **{f"bench-{seed}-{k}": (pair, ["--points", "1024", "--steps", "64"])
       for seed in range(4) for k, pair in enumerate(bench_pairs4(seed))},
    **{name: ((moser_doc({"0": "1"}, {}, **patch),
               moser_doc({"0": "1"}, {"0,1": beta}, **patch)), knobs)
       for name, beta, patch, knobs in [
           ("perturbed", "y", {}, ["--points", "50"]),
           ("emit-plot", "y", {}, ["--points", "20"]),
           ("parameter", "a*y/4", {"params": ["a"]}, ["--points", "50"]),
           ("away-from-zero", "(y - 1/2)/4", {"f": "y - 1/2"},
            ["--points", "50"]),
           ("non-finite", "y*log(x + 1/2)", {},
            ["--points", "50", "--steps", "32"]),
           ("no-zeros", "y/4", {"y_interval": (1, 2)}, ["--points", "50"])]},
    **{name: ((moser_doc({"0": "1"}, {}), moser_doc({"0": alpha1}, {})),
              knobs)
       for name, alpha1, knobs in [
           ("exact-quotient", "1 + y/4", []),
           ("no-exact-quotient", "1 + sin(y)/4", []),
           ("hypotheses", "1 + y/2", ["--points", "50", "--steps", "32"])]},
}


class TestStepDoubling:
    """The Moser flow runs the steps its tolerance needs: its base points
    are flowed in 1, 2, 4, ... steps up to the cap --steps, until a
    doubling moves none of them by FLOW_FRACTION of --tol-residual, and
    the residual is measured on the flow of that many steps."""

    @staticmethod
    def moser(tmp_path, capsys, docs, *knobs):
        """Exit code and report of the moser command, in process."""
        from bgeo import cli

        paths = []
        for k, doc in enumerate(docs):
            path = tmp_path / ("w%d.json" % k)
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        code = cli.main(["moser"] + paths + list(knobs))
        out, err = capsys.readouterr()
        assert err == ""
        return code, json.loads(out)

    @pytest.mark.parametrize("case", list(TestReportsUnchanged.CASES))
    def test_no_tolerance_keeps_the_fixed_step_bits(self, case):
        # at tol_residual 0.0 every flow runs to the cap, and the report
        # has the bits of the fixed-step flow (TestReportsUnchanged's pins)
        w0, w1 = relative_pair() if case == "relative_2d" else seeded_pair4(3)
        n_points, n_steps = ((N_SAMPLE, N_STEPS) if case == "relative_2d"
                             else (64, 16))
        rep = moser_relative_verify(w0, w1, n_points=n_points,
                                    n_steps=n_steps, tol_residual=0.0)
        _, max_residual, v_on_Z_max, digest = TestReportsUnchanged.CASES[case]
        assert rep.steps == n_steps
        assert repr(rep.max_residual) == max_residual
        assert repr(rep.v_on_Z_max) == v_on_Z_max
        assert hashlib.sha256(rep.residuals.tobytes()).hexdigest() == digest
        assert 0.0 < rep.flow_change

    def test_acceptance_pair_stops_at_16(self, tmp_path, capsys):
        code, rep = self.moser(tmp_path, capsys, ACCEPTANCE_2D,
                               "--points", "4096", "--steps", "256")
        assert (code, rep["ok"], rep["steps"]) == (0, True, 16)
        assert rep["config"]["steps"] == 256
        assert rep["max_residual"] < 1e-8

    @pytest.mark.parametrize("cap", [3, 100])
    def test_cap_not_a_power_of_two(self, tmp_path, capsys, monkeypatch,
                                    cap):
        # the last doubling is cut to the cap, and the residual's batch
        # (the four neighbours of each point; the points themselves are the
        # doubling's last flow) is flowed that many steps
        counts = []
        real = normalform._MoserEngine.flow

        def counted(engine, pts, n_steps):
            counts.append((len(pts), n_steps))
            return real(engine, pts, n_steps)

        monkeypatch.setattr(normalform._MoserEngine, "flow", counted)
        code, rep = self.moser(tmp_path, capsys, ACCEPTANCE_2D,
                               "--points", "20", "--steps", str(cap),
                               "--tol-residual", "0")
        assert (code, rep["ok"], rep["steps"]) == (1, False, cap)
        doublings = [1, 2, 3] if cap == 3 else [1, 2, 4, 8, 16, 32, 64, 100]
        assert counts == [(20, n) for n in doublings] + [(80, cap)]

    def test_one_step_has_no_change(self, tmp_path, capsys):
        w0, w1 = ACCEPTANCE_2D
        code, rep = self.moser(tmp_path, capsys, (w0, w0),
                               "--points", "50", "--steps", "1")
        assert (code, rep["ok"], rep["steps"]) == (0, True, 1)
        assert rep["flow_change"] is None
        code, rep = self.moser(tmp_path, capsys, (w0, w1),
                               "--points", "50", "--steps", "1")
        assert (code, rep["steps"], rep["flow_change"]) == (1, 1, None)

    @pytest.mark.parametrize("case", list(CAPPED_CASES))
    def test_verdict_as_at_the_cap(self, tmp_path, capsys, monkeypatch,
                                   case):
        # the verdict and exit code of a run at the cap (FLOW_FRACTION 0:
        # no doubling stops early); a run that stops below the cap stopped
        # on a move under FLOW_FRACTION of the tolerance
        docs, knobs = CAPPED_CASES[case]
        code, rep = self.moser(tmp_path, capsys, docs, *knobs)
        with monkeypatch.context() as m:
            m.setattr(normalform, "FLOW_FRACTION", 0.0)
            capped_code, capped = self.moser(tmp_path, capsys, docs, *knobs)
        assert code == capped_code
        assert rep.get("ok") == capped.get("ok")
        assert rep.get("error") == capped.get("error")
        if "steps" in rep:
            assert capped["steps"] == rep["config"]["steps"]
            if rep["steps"] < capped["steps"]:
                assert rep["flow_change"] < (normalform.FLOW_FRACTION
                                             * rep["config"]["tol_residual"])
