"""Tests for Darboux flattening and the Moser-path verifiers."""

import hashlib
import math
import os
import random
import signal
import threading
from fractions import Fraction
from types import SimpleNamespace

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
    d_smooth,
    find_z_components,
    form_equiv,
    nondegeneracy_check,
)
from bgeo.normalform import (
    _DEGENERATE,
    FLOW_BUDGET,
    N_STEPS,
    PART_WORK,
    STEP_OVERHEAD,
    _check_flow,
    _collar_primitive,
    _factor_at,
    _flow_parts,
    _global_engine,
    _halton,
    _halton_collar,
    _relative_engine,
    _smooth_difference,
    _solve_antisymmetric,
    _standard_model,
    darboux2d,
    darboux_verify,
    moser_global_verify,
    moser_relative_verify,
    poincare_primitive,
)
from bgeo.symexpr import Patch, diff_expr, expr_equiv, normalize, num, parse_expr, sym


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
        cc = darboux2d(bform2d(patch, "1"), tname="t")
        assert expr_equiv(cc.forward[1], sym("theta"), patch)

    def test_quadrature_fallback(self, p2):
        # exp(z2^2) has no closed-form antiderivative in the table; the
        # Gauss-node path must still satisfy dt/dz2 = g
        omega = bform2d(p2, "exp(z2^2)")
        cc = darboux2d(omega)
        ty = diff_expr(cc.forward[1], "z2")
        assert expr_equiv(ty, parse_expr("exp(z2^2)", p2), p2, tol=1e-9)

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
        rep = darboux_verify(omega, point={"x1": 0, "y1": 0, "x2": 0, "y2": 0})
        assert rep.ok

    def test_detects_mismatch(self):
        p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
        model = _standard_model(p4, "y1")
        skew = BForm(p4, 2, model.alpha, model.beta.scale(2), model.f, "y1")
        rep = darboux_verify(skew)
        assert not rep.ok and rep.max_residual > 0.1


class TestPoincarePrimitive:
    def test_area_form(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        rho = SmoothForm(p, 2, {("x", "y"): num(1)})
        mu = poincare_primitive(rho, center={"x": 0.0, "y": 0.0})
        want = SmoothForm(p, 1, {("x",): parse_expr("-y/2", p),
                                 ("y",): parse_expr("x/2", p)})
        assert form_equiv(mu, want, tol=1e-12)

    def test_zero(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        mu = poincare_primitive(SmoothForm(p, 2, {}))
        assert mu.is_zero()

    def test_trig_coefficient(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        rho = SmoothForm(p, 2, {("x", "y"): parse_expr("cos(x)", p)})
        mu = poincare_primitive(rho)
        assert form_equiv(d_smooth(mu), rho, tol=1e-8)

    def test_degree_one(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        rho = SmoothForm(p, 1, {("x",): parse_expr("y", p),
                                ("y",): parse_expr("x", p)})  # d(xy)
        mu = poincare_primitive(rho, center={"x": 0.0, "y": 0.0})
        assert expr_equiv(mu.coefficient(), parse_expr("x*y", p), p, tol=1e-10)

    def test_not_closed_rejected(self):
        p = Patch(("x", "y", "z"), ((-1.0, 1.0),) * 3)
        rho = SmoothForm(p, 2, {("x", "y"): parse_expr("z", p)})
        with pytest.raises(GeometryError, match="closed"):
            poincare_primitive(rho)

    def test_off_center(self):
        p = Patch(("x", "y"), ((0.0, 2.0), (0.0, 2.0)))
        rho = SmoothForm(p, 2, {("x", "y"): parse_expr("x^2 + y", p)})
        mu = poincare_primitive(rho, center={"x": 1.0, "y": 1.0})
        assert form_equiv(d_smooth(mu), rho, tol=1e-8)


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
        rep = moser_relative_verify(w0, w0, n_points=50)
        assert rep.max_residual < 1e-10
        assert rep.v_on_Z_max == 0.0

    def test_2d_perturbation(self):
        w0, w1 = relative_pair()
        rep = moser_relative_verify(w0, w1)
        assert rep.max_residual < 1e-5
        assert rep.v_on_Z_max < 1e-8
        assert rep.steps == 256
        assert rep.mu is not None and rep.primitive is not None
        # the primitive must vanish identically on Z
        for c in rep.primitive.comps.values():
            on_z = se.substitute(c, {"y": 0.0})
            assert expr_equiv(on_z, num(0), w0.patch, tol=1e-12)

    def test_convergence_order(self):
        # halving the step cuts the residual by >= 8x while the time
        # integration error dominates the finite-difference floor
        w0, w1 = relative_pair()
        coarse = moser_relative_verify(w0, w1, n_points=50, n_steps=8)
        fine = moser_relative_verify(w0, w1, n_points=50, n_steps=16)
        assert coarse.max_residual / fine.max_residual >= 8.0

    def test_4d_closed_perturbation(self):
        w0, w1 = closed_perturbation_pair()
        rep = moser_relative_verify(w0, w1, n_points=50)
        assert rep.max_residual < 1e-4
        assert rep.v_on_Z_max < 1e-8

    def test_4d_residual_matches_linalg_solve(self):
        # max_residual of this pair when the flow solved its 4x4 systems
        # with numpy.linalg.solve; the Pfaffian adjugate must reproduce it
        w0, w1 = closed_perturbation_pair()
        rep = moser_relative_verify(w0, w1, n_points=50)
        assert abs(rep.max_residual - 1.648389202912881e-10) <= 1e-12

    def test_nonclosed_difference_rejected(self):
        # y1 dx2^dy2 alone is not closed: no Moser path exists
        p4 = Patch(("x1", "y1", "x2", "y2"), ((-1.0, 1.0),) * 4)
        w0 = _standard_model(p4, "y1")
        pert = SmoothForm(p4, 2, {("x2", "y2"): sym("y1")})
        w1 = BForm(p4, 2, w0.alpha, w0.beta + pert, w0.f, "y1")
        with pytest.raises(GeometryError, match="closed"):
            moser_relative_verify(w0, w1, n_points=20)

    @pytest.mark.parametrize("knobs", [{"n_points": 0},
                                       {"n_steps": 0},
                                       {"n_steps": -3},
                                       {"n_steps": 10 ** 400},
                                       {"n_points": 400_001}])
    def test_knobs_range_checked(self, knobs):
        w0, w1 = relative_pair()
        with pytest.raises(ValueError, match="n_points|n_steps"):
            moser_relative_verify(w0, w1, **knobs)

    def test_no_zeros_in_patch(self):
        w0, _ = relative_pair(y_interval=(1.0, 2.0))
        with pytest.raises(GeometryError, match="^defining function has no "
                                                "zeros in the patch$"):
            moser_relative_verify(w0, w0, n_points=20)

    def test_differing_restrictions_rejected(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        alpha0 = SmoothForm(p, 1, {("x",): num(1)})
        alpha1 = SmoothForm(p, 1, {("x",): parse_expr("1 + x", p)})
        w0 = BForm(p, 2, alpha0, SmoothForm(p, 2, {}), sym("y"), "y")
        w1 = BForm(p, 2, alpha1, SmoothForm(p, 2, {}), sym("y"), "y")
        with pytest.raises(GeometryError, match="restriction"):
            moser_relative_verify(w0, w1, n_points=20)


def global_family(params=("t",), factor=""):
    """omega_t = dx^dy/y + t*y dx^dy with primitive mu_t = x*y dy, both
    times `factor` (an expression text ending in '*') when one is given."""
    p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), params=params)
    alpha = SmoothForm(p, 1, {("x",): num(1)})
    wt = BForm(p, 2, alpha,
               SmoothForm(p, 2, {("x", "y"): parse_expr(factor + "t*y", p)}),
               sym("y"), "y")
    mut = BForm(p, 1, SmoothForm(p, 0, {}),
                SmoothForm(p, 1, {("y",): parse_expr(factor + "x*y", p)}),
                sym("y"), "y")
    return p, wt, mut


class TestMoserGlobal:
    def test_family(self):
        _, wt, mut = global_family()
        rep = moser_global_verify(wt, mut)
        assert rep.max_residual < 1e-5
        assert rep.v_on_Z_max < 1e-8

    def test_constant_family(self):
        p, _, _ = global_family()
        alpha = SmoothForm(p, 1, {("x",): num(1)})
        w = BForm(p, 2, alpha, SmoothForm(p, 2, {}), sym("y"), "y")
        mu = BForm(p, 1, SmoothForm(p, 0, {}), SmoothForm(p, 1, {}),
                   sym("y"), "y")
        rep = moser_global_verify(w, mu, n_points=50)
        assert rep.max_residual < 1e-10

    def test_wrong_primitive_rejected(self):
        p, wt, _ = global_family()
        bad = BForm(p, 1, SmoothForm(p, 0, {}),
                    SmoothForm(p, 1, {("y",): sym("x")}), sym("y"), "y")
        with pytest.raises(GeometryError, match="d\\(mu_t\\)"):
            moser_global_verify(wt, bad, n_points=20)

    @pytest.mark.parametrize("knobs", [{"n_points": 0},
                                       {"n_steps": 0},
                                       {"n_steps": -3},
                                       {"n_points": 400_001}])
    def test_knobs_range_checked(self, knobs):
        _, wt, mut = global_family()
        with pytest.raises(ValueError, match="n_points|n_steps"):
            moser_global_verify(wt, mut, **knobs)

    @pytest.mark.parametrize("factor", ["", "a*"])
    @pytest.mark.parametrize("params", [("t", "a"), ("a", "t")])
    def test_second_parameter(self, params, factor):
        # a second declared parameter is 1.0, and t is read from its own
        # column wherever it is declared: the one-parameter family's report
        ref = moser_global_verify(*global_family()[1:], n_points=40)
        rep = moser_global_verify(*global_family(params, factor)[1:],
                                  n_points=40)
        assert rep.max_residual == ref.max_residual
        assert rep.v_on_Z_max == ref.v_on_Z_max
        assert np.array_equal(rep.residuals, ref.residuals)

    def test_no_zeros_in_patch(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (1.0, 2.0)), params=("t",))
        alpha = SmoothForm(p, 1, {("x",): num(1)})
        w = BForm(p, 2, alpha, SmoothForm(p, 2, {}), sym("y"), "y")
        mu = BForm(p, 1, SmoothForm(p, 0, {}), SmoothForm(p, 1, {}),
                   sym("y"), "y")
        with pytest.raises(GeometryError, match="^defining function has no "
                                                "zeros in the patch$"):
            moser_global_verify(w, mu, n_points=20)

    def test_needs_declared_parameter(self):
        p = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        alpha = SmoothForm(p, 1, {("x",): num(1)})
        w = BForm(p, 2, alpha, SmoothForm(p, 2, {}), sym("y"), "y")
        mu = BForm(p, 1, SmoothForm(p, 0, {}), SmoothForm(p, 1, {}),
                   sym("y"), "y")
        with pytest.raises(ValueError, match="parameter"):
            moser_global_verify(w, mu)


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
    tapes = {(i, j): compile_tape(W[i][j], names) for i in range(m)
             for j in range(i + 1, m) if not se.is_zero(W[i][j])}

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


def dense_global_velocity(wt, mut):
    patch = wt.patch
    ev_W = dense_matrix_evaluator(patch, b_matrix(wt))
    ev_r = dense_vector_evaluator(
        patch, [mut.b_coefficient(i) for i in range(patch.dim)])

    def with_t(pts, t):
        return np.concatenate([pts, np.full((pts.shape[0], 1), t)], axis=1)

    return dense_velocity(patch, wt.zname, wt.f,
                          lambda pts, t: ev_W(with_t(pts, t)),
                          lambda pts, t: -ev_r(with_t(pts, t)))


def relative_primitive(w0, w1):
    """rho as moser_relative_verify builds it for the first component."""
    comp = find_z_components(w0)[0]
    cval, _ = _factor_at(w0.f, w0.zname, comp.value)
    _, delta = _smooth_difference(w0 - w1)
    return _collar_primitive(delta, w0.zname, cval)[0]


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


def pair6():
    p6 = Patch(("x1", "y1", "x2", "y2", "x3", "y3"), ((-1.0, 1.0),) * 6)
    w0 = _standard_model(p6, "y1")
    pert = SmoothForm(p6, 2, {("x2", "y2"): sym("y1"),
                              ("y1", "y2"): sym("x2")})
    return w0, BForm(p6, 2, w0.alpha, w0.beta + pert, w0.f, "y1")


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

    def test_global_family(self):
        _, wt, mut = global_family()
        fused = _global_engine(wt, mut)
        dense = dense_global_velocity(wt, mut)
        for pts in collar_points(wt.patch, wt.patch.index(wt.zname)):
            for t in FUSED_TIMES:
                v = fused.velocity(pts, t)
                assert v.flags.f_contiguous
                assert np.array_equal(v, dense(pts, t)), t


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


def family4():
    """dx^dy/y + du^dv + t*y dx^dy with primitive mu_t = x*y dy: the
    constant du^dv entry reaches the solver through rows[0] as a float."""
    p = Patch(("x", "y", "u", "v"), ((-1.0, 1.0),) * 4, params=("t",))
    alpha = SmoothForm(p, 1, {("x",): num(1)})
    wt = BForm(p, 2, alpha,
               SmoothForm(p, 2, {("u", "v"): num(1),
                                 ("x", "y"): parse_expr("t*y", p)}),
               sym("y"), "y")
    mut = BForm(p, 1, SmoothForm(p, 0, {}),
                SmoothForm(p, 1, {("y",): parse_expr("x*y", p)}),
                sym("y"), "y")
    return wt, mut


class TestReportsUnchanged:
    """repr of the maxima and sha256 of the residual bytes, as the flow
    gave them when every constant entry was a tape row filled with it and
    each RK4 stage made temporaries: folding constants and running RK4 in
    place must not move a bit."""

    CASES = {
        "relative_2d": (
            lambda: moser_relative_verify(*relative_pair()),
            "6.143885400433646e-11", "0.0",
            "c8334cd08cd7d6883a0f5f5f5da16970234d7e715aa54050309a63b6cf496c86"),
        "relative_4d": (
            lambda: moser_relative_verify(*seeded_pair4(3), n_points=64,
                                          n_steps=16),
            "1.9735324485736783e-11", "0.0",
            "694f50d48821745db0f4394130a07371de88ff8d4dfc56a23685a4507e041453"),
        "global_4d": (
            lambda: moser_global_verify(*family4(), n_points=64,
                                        n_steps=32),
            "3.703637396768045e-11", "0.0",
            "988f486d74ee6bc5ebb8489675272eb37fd10482bb54966a2adda6a9108e6c14"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_report_bits(self, case):
        run, max_residual, v_on_Z_max, digest = self.CASES[case]
        rep = run()
        assert repr(rep.max_residual) == max_residual
        assert repr(rep.v_on_Z_max) == v_on_Z_max
        assert hashlib.sha256(rep.residuals.tobytes()).hexdigest() == digest

    def test_constant_entries_off_the_tape(self):
        engine = _global_engine(*family4())
        assert engine.groups[0] == ({(2, 3): 1.0}, [(0, 1)])
        assert engine.tape.outputs == 3   # (0, 1), mu_y and f

    @pytest.mark.parametrize("pair", ["relative_2d", "relative_4d"])
    def test_flow_leaves_its_input(self, pair):
        w0, w1 = relative_pair() if pair == "relative_2d" else seeded_pair4(3)
        engine = _relative_engine(w0, w1, relative_primitive(w0, w1))
        zi = w0.patch.index(w0.zname)
        for pts in collar_points(w0.patch, zi, n=50)[::2]:
            before = pts.copy()
            out = engine.flow(pts, 4)
            assert np.array_equal(pts, before)
            assert not np.shares_memory(out, pts)


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


FORKED_CASES = {
    "relative_2d": lambda: relative_flow(*relative_pair(), 301),
    "relative_4d": lambda: relative_flow(*seeded_pair4(3), 301),
    "relative_6d": lambda: relative_flow(*pair6(), 101),
    "global_4d": lambda: (_global_engine(*family4()),
                          collar_points(family4()[0].patch, 1, n=301)[0]),
}


class TestForkedFlow:
    """flow cut in parts, each but the first flowed by a forked child,
    against the serial _rk4: byte for byte, with every child reaped after
    each return or raise and nothing printed."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Cut every flow into forks.parts parts (one per point at most),
        and list in forks.pids the children forked."""
        forks = SimpleNamespace(parts=2, pids=[])
        real = os.fork

        def fork():
            pid = real()
            if pid:
                forks.pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(normalform, "_flow_parts",
                            lambda n, n_steps: min(forks.parts, n))
        return forks

    @staticmethod
    def assert_clean(capfd):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("case", list(FORKED_CASES))
    def test_bits(self, case, parts, forks, capfd):
        engine, pts = FORKED_CASES[case]()
        serial = engine._rk4(pts, 8)
        forks.parts = parts
        out = engine.flow(pts, 8)
        assert len(forks.pids) == parts - 1
        assert out.shape == serial.shape and out.flags.f_contiguous
        assert out.tobytes(order="F") == serial.tobytes(order="F")
        assert not np.shares_memory(out, pts)
        self.assert_clean(capfd)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("row", [0, -1])
    def test_singular_point(self, row, parts, forks, capfd):
        # in the first part, flowed here, or the last, flowed by a child
        engine, pts = relative_flow(*degenerate_pair(), 200)
        pts[row, 0] = 0.0
        forks.parts = parts
        with pytest.raises(GeometryError, match=_DEGENERATE):
            engine.flow(pts, 8)
        assert len(forks.pids) == parts - 1
        self.assert_clean(capfd)

    def test_fork_fails(self, forks, monkeypatch, capfd):
        engine, pts = FORKED_CASES["relative_2d"]()

        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        assert engine.flow(pts, 8).tobytes() == engine._rk4(pts, 8).tobytes()
        self.assert_clean(capfd)


def test_flow_parts():
    # serial below STEP_OVERHEAD points a part or PART_WORK a part, and
    # while another thread runs; else one part per usable CPU at most
    cpus = len(os.sched_getaffinity(0))
    batch = 4096 * 5   # the benchmark's 2-D flow
    assert _flow_parts(batch, N_STEPS) == min(cpus, batch // STEP_OVERHEAD)
    assert _flow_parts(2 * STEP_OVERHEAD - 1, 10 ** 6) == 1
    n = 8 * STEP_OVERHEAD
    steps = (2 * PART_WORK - 1) // n
    assert _flow_parts(n, steps) == 1
    assert _flow_parts(n, steps + 1) == min(cpus, 2)
    assert _flow_parts(64 * 9, 16) == 1
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert _flow_parts(batch, N_STEPS) == 1
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # the kernel reaps the children of a process that ignores SIGCHLD
    before = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _flow_parts(batch, N_STEPS) == 1
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert _flow_parts(batch, N_STEPS) == min(cpus, batch // STEP_OVERHEAD)
