"""Tests for hypersurface data certification and the product extension."""

import math

import numpy as np
import pytest

from bgeo import symexpr as se
from bgeo.extension import (
    HypersurfaceData,
    build_extension,
    check_defining_forms,
    leaf_volume_form,
)
from bgeo.forms import (
    GeometryError,
    SmoothForm,
    d_bform,
    form_equiv,
    nondegeneracy_check,
    restrict_to_Z,
    top_coefficient,
)
from bgeo.symexpr import EvalDomainError, Patch, expr_equiv, num, parse_expr
from torus_data import torus3_data, torus4_extension


def circle_data() -> HypersurfaceData:
    """The lowest-dimensional case: Z = S^1 with alpha = dθ, omega = 0."""
    two_pi = 2 * math.pi
    patch = Patch(("theta",), ((0.0, two_pi),), periods=(two_pi,))
    alpha = SmoothForm(patch, 1, {("theta",): num(1)})
    return HypersurfaceData(patch, alpha, SmoothForm(patch, 2, {}))


def torus_patch3():
    two_pi = 2 * math.pi
    return Patch(("theta1", "theta2", "theta3"), ((0.0, two_pi),) * 3,
                 periods=(two_pi,) * 3)


class TestCheckDefiningForms:
    def test_torus3_passes(self):
        rep = check_defining_forms(torus3_data())
        assert rep.all_pass

    def test_torus3_numeric_slopes(self):
        rep = check_defining_forms(torus3_data(a="1/2", b="3"))
        assert rep.all_pass

    def test_volume_identity(self):
        # alpha ^ omega = -dtheta1^dtheta2^dtheta3 identically in the slopes
        data = torus3_data()
        vol = leaf_volume_form(data)
        c = vol.coefficient("theta1", "theta2", "theta3")
        assert expr_equiv(c, num(-1), data.patch)

    def test_exact_alpha_with_zeros_fails(self):
        # alpha = d(sin theta1) vanishes where cos theta1 does
        patch = torus_patch3()
        alpha = SmoothForm(patch, 1, {("theta1",): parse_expr("cos(theta1)",
                                                              patch)})
        omega = SmoothForm(patch, 2, {("theta2", "theta3"): num(1)})
        rep = check_defining_forms(HypersurfaceData(patch, alpha, omega))
        assert not rep.alpha_nonvanishing
        assert rep.alpha_closed and rep.omega_closed
        assert not rep.all_pass

    def test_alpha_without_finite_values_rejected(self):
        patch = torus_patch3()
        alpha = SmoothForm(patch, 1, {("theta1",): parse_expr(
            "(-1 - theta2^2)^(1/2)", patch)})
        omega = SmoothForm(patch, 2, {("theta2", "theta3"): num(1)})
        with pytest.raises(EvalDomainError, match="non-finite value nan"):
            check_defining_forms(HypersurfaceData(patch, alpha, omega))

    def test_nonclosed_omega_fails(self):
        patch = torus_patch3()
        alpha = SmoothForm(patch, 1, {("theta3",): num(1)})
        omega = SmoothForm(patch, 2,
                           {("theta2", "theta3"): parse_expr("sin(theta1)",
                                                             patch)})
        rep = check_defining_forms(HypersurfaceData(patch, alpha, omega))
        assert not rep.omega_closed

    def test_even_dimension_rejected(self):
        patch = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
        with pytest.raises(ValueError, match="odd"):
            HypersurfaceData(patch, SmoothForm(patch, 1, {("x",): num(1)}),
                             SmoothForm(patch, 2, {}))


class TestBuildExtension:
    def test_torus3_model(self):
        data = torus3_data()
        m = build_extension(data)
        assert m.provenance["nondegeneracy"][0] == "nonvanishing-symbolic"
        (pair,) = restrict_to_Z(m.bform)
        assert form_equiv(pair.alpha_tilde, data.alpha)
        assert form_equiv(pair.beta_tilde, data.omega)
        assert m.bform.patch.names[-1] == "t"
        # symbolic top coefficient -2 for n = 2
        assert expr_equiv(top_coefficient(m.bform), num(-2), m.bform.patch)

    def test_model_is_closed(self):
        m = build_extension(torus3_data())
        d = d_bform(m.bform)
        assert d.alpha.is_zero() or all(expr_equiv(c, num(0), m.bform.patch)
                                        for c in d.alpha.comps.values())
        assert d.beta.is_zero() or all(expr_equiv(c, num(0), m.bform.patch)
                                       for c in d.beta.comps.values())

    def test_restriction_returns_data(self):
        data = torus3_data(a="2", b="1/3")
        m = build_extension(data)
        (pair,) = restrict_to_Z(m.bform)
        for key, c in data.alpha.comps.items():
            assert expr_equiv(pair.alpha_tilde.comps.get(key, num(0)), c,
                              data.patch)
        for key, c in data.omega.comps.items():
            assert expr_equiv(pair.beta_tilde.comps.get(key, num(0)), c,
                              data.patch)

    def test_circle_model(self):
        m = build_extension(circle_data())
        # 2-D affine model: t * omega~ = dtheta^dt up to orientation
        assert expr_equiv(top_coefficient(m.bform), num(1), m.bform.patch)

    def test_top_power_identity(self):
        # t * omega~^n = n * (alpha ^ omega^(n-1)) ^ dt in both 1+1 and 3+1
        for data, n in ((circle_data(), 1), (torus3_data(), 2)):
            m = build_extension(data)
            leaf = leaf_volume_form(data).coefficient(*data.patch.names)
            want = se.mul(num(n), leaf)
            assert expr_equiv(top_coefficient(m.bform), want, m.bform.patch)

    def test_torus4_variant(self):
        w = torus4_extension(a="1", b="2")
        comps = [p.component.value for p in restrict_to_Z(w)]
        assert comps == pytest.approx([0.0, math.pi], abs=1e-9)
        assert nondegeneracy_check(w)[0] == "nonvanishing-symbolic"

    @pytest.mark.parametrize("a,b", [("a", "b"), ("1", "2")])
    def test_torus4_restriction_data(self, a, b):
        # near theta4 = pi, sin(theta4) = -(theta4 - pi) + ..., so
        # alpha ^ dtheta4/sin(theta4) restricts to -alpha there
        data = torus3_data(a, b)
        minus_alpha = SmoothForm(data.patch, 1, {
            k: se.neg(c) for k, c in data.alpha.comps.items()})
        at_0, at_pi = restrict_to_Z(torus4_extension(a, b))
        assert at_0.component.value == 0.0
        assert at_pi.component.value == pytest.approx(math.pi, abs=1e-9)
        assert form_equiv(at_0.alpha_tilde, data.alpha)
        assert form_equiv(at_pi.alpha_tilde, minus_alpha)
        assert not form_equiv(at_pi.alpha_tilde, data.alpha)
        for pair in (at_0, at_pi):
            assert form_equiv(pair.beta_tilde, data.omega)

    def test_random_closed_inputs_stay_closed(self):
        # d(omega~) = 0 whenever the inputs are closed; omega built as d(eta)
        rng = np.random.default_rng(7)
        patch = torus_patch3()
        from bgeo.forms import d_smooth
        for _ in range(5):
            coeffs = rng.integers(-3, 4, size=6)
            eta = SmoothForm(patch, 1, {
                ("theta1",): se.mul(num(int(coeffs[0])),
                                    parse_expr("sin(theta2)", patch)),
                ("theta2",): se.mul(num(int(coeffs[1])),
                                    parse_expr("cos(theta3)", patch)),
                ("theta3",): se.mul(num(int(coeffs[2])),
                                    parse_expr("sin(theta1)", patch)),
            })
            alpha = SmoothForm(patch, 1, {("theta3",): num(1)})
            omega = d_smooth(eta) + SmoothForm(
                patch, 2, {("theta1", "theta2"): num(int(coeffs[3]) or 1)})
            data = HypersurfaceData(patch, alpha, omega)
            rep = check_defining_forms(data)
            if not rep.all_pass:
                continue
            try:
                m = build_extension(data)
            except GeometryError:
                # nondegeneracy can fail for random data; closedness is
                # what this case exercises
                continue
            d = d_bform(m.bform)
            assert all(expr_equiv(c, num(0), m.bform.patch)
                       for c in d.alpha.comps.values())
            assert all(expr_equiv(c, num(0), m.bform.patch)
                       for c in d.beta.comps.values())
