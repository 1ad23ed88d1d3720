"""Acceptance gate: one test (one pass/fail line under -v) per criterion,
each checked at its stated tolerance and runtime budget."""

import math
import time

import pytest

from bgeo import symexpr as se
from bgeo.cohomology import (
    BettiData,
    b_betti,
    nonvanishing_witness,
)
from bgeo.extension import (
    build_extension,
    check_defining_forms,
    leaf_volume_form,
)
from bgeo.forms import (
    BForm,
    SmoothForm,
    d_bform,
    find_z_components,
    nondegeneracy_check,
)
from bgeo.normalform import darboux2d, darboux_verify, moser_relative_verify
from bgeo.surface2d import (
    classify_pair,
    extract_zero_set,
    make_surface,
    modular_period,
    regularized_volume,
    surface_poisson_cohomology,
)
from bgeo.symexpr import Patch, expr_equiv, parse_expr
from betti_tables import betti_sphere
from expr_oracles import normalize
from torus_data import torus3_data, torus4_extension

import test_properties


def _announce(label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_sphere_invariants():
    with Timer() as t:
        S = make_surface("sphere", "h")
        curves = extract_zero_set(S, grid=64)
        period = modular_period(S, curves[0])
        vol, _ = regularized_volume(S, grid=64)
    ok = (len(curves) == 1
          and abs(period - 2 * math.pi) < 1e-6
          and abs(vol) < 1e-6
          and t.elapsed < 5.0)
    _announce("sphere invariants (n=1, period 2pi, volume 0)", ok,
              f"n={len(curves)} period={period!r} volume={vol!r} "
              f"time={t.elapsed:.2f}s")


def test_scaled_sphere_classified():
    S1 = make_surface("sphere", "h")
    S2 = make_surface("sphere", "2*h")
    curves = extract_zero_set(S2, grid=64)
    period = modular_period(S2, curves[0])
    verdict, witness, _, _ = classify_pair(S1, S2)
    ok = (abs(period - math.pi) < 1e-6
          and verdict == "distinct"
          and "period" in witness)
    _announce("scaled sphere (period pi, distinct by period)", ok,
              f"period={period!r} verdict={verdict} witness={witness!r}")


def test_asymmetric_sphere_volume():
    S = make_surface("sphere", "h*(2+h)/2")
    vol, change = regularized_volume(S, grid=64)
    target = 2 * math.pi * math.log(3.0)
    ok = abs(vol - target) < 1e-4 and change < 1e-4
    _announce("asymmetric sphere (volume 2pi*log3, finite limit)", ok,
              f"volume={vol!r} target={target!r} volume_change={change!r}")


def test_surface_cohomology_tables():
    with Timer() as t:
        ok = (surface_poisson_cohomology(0, 1) == (1, 1, 2)
              and surface_poisson_cohomology(1, 2) == (1, 4, 3))
        for g in range(0, 11):
            for n in range(1, 11):
                betti_M = (1, 2 * g, 1)
                circle = (1, 1)
                data = BettiData(2, betti_M, (circle,) * n)
                ok = ok and (tuple(b_betti(data))
                             == surface_poisson_cohomology(g, n))
    ok = ok and t.elapsed < 1.0
    _announce("surface Poisson cohomology tables (g<=10, n<=10)", ok,
              f"time={t.elapsed:.3f}s")


def test_property_suites():
    """Randomized laws, >= 200 seeded cases per suite."""
    test_properties.TestExteriorCalculus().test_d_squared_is_zero()
    test_properties.TestExteriorCalculus().test_graded_leibniz()
    test_properties.TestDualizeRoundTrip().test_round_trip()
    test_properties.TestRestrictionCovariance().test_covariance()
    test_properties.TestModularField().test_volume_change_covariance()
    test_properties.TestModularField().test_pairing_with_intrinsic_form()
    _announce("property suites (6 laws x >=200 cases)", True,
              f"{test_properties.N_CASES} cases each")


def _cubic_bform():
    patch = Patch(("z1", "z2"), ((-1.0, 1.0), (-1.0, 1.0)))
    alpha = SmoothForm(patch, 1, {(1,): parse_expr("-(1+z2^2)", patch)})
    return BForm(patch, 2, alpha, SmoothForm(patch, 2, {}),
                 parse_expr("z1", patch), "z1")


def test_darboux2d_cubic():
    omega = _cubic_bform()
    change = darboux2d(omega, grid=64)
    t_expr = change.forward[1]
    expected = parse_expr("z2 + 1/3*z2^3", omega.patch)
    rep = darboux_verify(omega, grid=64)
    ok = (normalize(t_expr) == normalize(expected)
          and rep.ok and rep.max_residual < 1e-9)
    _announce("darboux2d (t = z2 + z2^3/3 exact, residual < 1e-9)", ok,
              f"t={t_expr} residual={rep.max_residual!r}")


def _perturbed_pair():
    patch = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
    f = parse_expr("y", patch)
    w0 = BForm(patch, 2, SmoothForm(patch, 1, {(0,): se.ONE}),
               SmoothForm(patch, 2, {}), f, "y")
    pert = BForm(patch, 2, SmoothForm(patch, 1, {}),
                 SmoothForm(patch, 2, {(0, 1): parse_expr("y", patch)}),
                 f, "y")
    return w0, w0 + pert


def test_moser_relative():
    w0, w1 = _perturbed_pair()
    with Timer() as t:
        rep = moser_relative_verify(w0, w1, n_points=64 * 64, n_steps=256)
        coarse = moser_relative_verify(w0, w1, n_points=200, n_steps=16)
        fine = moser_relative_verify(w0, w1, n_points=400, n_steps=32)
    ratio = coarse.max_residual / max(fine.max_residual, 1e-300)
    ok = (rep.max_residual < 1e-5
          and rep.v_on_Z_max < 1e-8
          and ratio >= 8.0
          and t.elapsed < 60.0)
    _announce("moser relative (residual<1e-5 at 64^2, order>=3)", ok,
              f"residual={rep.max_residual!r} vZ={rep.v_on_Z_max!r} "
              f"refinement_ratio={ratio:.1f} time={t.elapsed:.1f}s")


def test_torus_extension():
    with Timer() as t:
        data = torus3_data(a=1, b=2)
        forms_rep = check_defining_forms(data)
        vol = leaf_volume_form(data)
        vol_ok = (len(vol.comps) == 1
                  and se.is_zero(normalize(
                      se.add(vol.comps[(0, 1, 2)], se.ONE))))
        model = build_extension(data)
        dw = d_bform(model.bform)
        closed = all(expr_equiv(c, se.ZERO, model.bform.patch)
                     for c in list(dw.alpha.comps.values())
                     + list(dw.beta.comps.values()))
        verdict, _ = nondegeneracy_check(model.bform)
        t4 = torus4_extension(a=1, b=2)
        comps = find_z_components(t4)
    ok = (forms_rep.all_pass and vol_ok and closed
          and verdict.startswith("nonvanishing")
          and len(comps) == 2
          and t.elapsed < 10.0)
    _announce("torus extension (forms pass, closed, nondeg, 2 components)",
              ok, f"defining={forms_rep.all_pass} volume_coeff_ok={vol_ok} "
              f"closed={closed} nondeg={verdict} "
              f"components={[c.value for c in comps]} time={t.elapsed:.1f}s")


def test_sphere_betti_rejected():
    data = BettiData(4, betti_sphere(4), (betti_sphere(3),))
    rep = nonvanishing_witness(data)
    ok = not rep.consistent and any("b_1" in r for r in rep.reasons)
    _announce("S^3 hypersurface Betti data rejected", ok,
              f"consistent={rep.consistent} reasons={rep.reasons}")
