"""Tests for 2-D structures: zero curves, modular data, volume, classifier.

Period values are checked against an independent ODE return-time oracle
(RK4 flow of the modular field until the curve closes up), and volumes
against direct 1-D principal-value quadrature.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bgeo.forms import GeometryError
from bgeo.surface2d import (
    RadkoInvariants,
    classify_pair,
    extract_zero_set,
    make_surface,
    modular_field,
    modular_period,
    radko_invariants,
    regularized_volume,
    sphere_patch,
    surface_poisson_cohomology,
    torus_patch,
)
from bgeo.symexpr import eval_expr, expr_equiv, parse_expr, sub


def flow_return_time(S, start, t_max=30.0, dt=1e-4):
    """Oracle: RK4-integrate the modular field from a zero-curve point and
    measure the first return to the start; independent of the arclength
    quadrature used by modular_period."""
    X1, X2 = modular_field(S)
    names = S.patch.names

    def rhs(p):
        env = {names[0]: p[0], names[1]: p[1]}
        return np.array([eval_expr(X1, env), eval_expr(X2, env)])

    def wrap(p):
        q = p.copy()
        for ax, per in enumerate(S.patch.periods):
            if per is not None:
                lo = S.patch.intervals[ax][0]
                q[ax] = lo + (q[ax] - lo) % per
        return q

    def dist(p, q):
        d = p - q
        for ax, per in enumerate(S.patch.periods):
            if per is not None:
                d[ax] = (d[ax] + per / 2) % per - per / 2
        return np.hypot(*d)

    p = np.array(start, dtype=float)
    t = 0.0
    left = False
    while t < t_max:
        k1 = rhs(p)
        k2 = rhs(p + dt / 2 * k1)
        k3 = rhs(p + dt / 2 * k2)
        k4 = rhs(p + dt * k3)
        p = wrap(p + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
        t += dt
        d = dist(p, np.array(start))
        if d > 0.5:
            left = True
        if left and d < np.linalg.norm(rhs(p)) * dt:
            # linear correction for the overshoot inside the last step
            return t - d / np.linalg.norm(rhs(p)) * np.sign(1)
    raise AssertionError("flow did not return")


class TestZeroSet:
    def test_sphere_equator(self):
        S = make_surface("sphere", "h")
        curves = extract_zero_set(S)
        assert len(curves) == 1
        c = curves[0]
        assert c.closed
        assert c.length == pytest.approx(2 * math.pi, rel=1e-9)
        assert np.allclose(c.points[:, 0], 0.0, atol=1e-9)

    def test_torus_two_circles(self):
        S = make_surface("torus", "sin(t1)")
        curves = extract_zero_set(S)
        assert len(curves) == 2
        m1 = sorted(float(np.mean(c.points[:, 0])) % (2 * math.pi)
                    for c in curves)
        assert min(m1[0], 2 * math.pi - m1[0]) < 1e-7
        assert m1[1] == pytest.approx(math.pi, abs=1e-7)
        for c in curves:
            assert c.closed

    def test_points_lie_on_zero_set(self):
        S = make_surface("sphere", "h*(2+h)/2")
        (c,) = extract_zero_set(S)
        for h, th in c.points:
            assert abs(eval_expr(S.P, {"h": h, "theta": th})) < 1e-9

    def test_no_zeros(self):
        S = make_surface("sphere", "h - 2")
        assert extract_zero_set(S) == []
        with pytest.raises(GeometryError, match="no zeros"):
            radko_invariants(S)

    def test_tilted_curve(self):
        # zero set not axis-aligned: h = 0.3*sin(theta) via P = h - 0.3 sin f
        S = make_surface("sphere", "h - 3/10*sin(theta)")
        (c,) = extract_zero_set(S)
        assert c.closed
        for h, th in c.points:
            assert abs(h - 0.3 * math.sin(th)) < 1e-8

    def test_pole_crossing_rejected(self):
        S = make_surface("sphere", "h - 9995/10000")
        with pytest.raises(GeometryError, match="pole"):
            extract_zero_set(S)


class TestModularField:
    def test_sphere_model(self):
        S = make_surface("sphere", "h")
        X1, X2 = modular_field(S)
        # X = -d/dtheta in the (h, theta) chart for P = h, V = 1
        assert expr_equiv(X1, parse_expr("0", S.patch), S.patch)
        assert expr_equiv(X2, parse_expr("-1", S.patch), S.patch)

    def test_darboux_model_orientation(self):
        # coords ordered (t, z) with P = z gives X = +d/dt
        S = make_surface("torus", "sin(t2)")  # z-like coordinate second
        X1, X2 = modular_field(S)
        assert expr_equiv(X1, parse_expr("cos(t2)", S.patch), S.patch)
        assert expr_equiv(X2, parse_expr("0", S.patch), S.patch)

    def test_tangency_to_zero_set(self):
        # X(P) = 0 identically
        S = make_surface("sphere", "h + h^2/3 - 1/4*sin(theta)")
        X1, X2 = modular_field(S)
        from bgeo.symexpr import add, diff_expr, mul
        XP = add(mul(X1, diff_expr(S.P, "h")), mul(X2, diff_expr(S.P, "theta")))
        assert expr_equiv(XP, parse_expr("0", S.patch), S.patch)

    def test_volume_change_is_hamiltonian_shift(self):
        # X_{V H} - X_V = u_{log|H|} = P * (d2 logH, -d1 logH)
        patch = sphere_patch()
        S1 = make_surface("sphere", "h", "1")
        S2 = make_surface("sphere", "h", "2 + sin(theta)")
        X1 = modular_field(S1)
        X2 = modular_field(S2)
        logH = parse_expr("log(2 + sin(theta))", patch)
        from bgeo.symexpr import diff_expr, mul
        ham1 = mul(S1.P, diff_expr(logH, "theta"))
        ham2 = mul(parse_expr("-h", patch), diff_expr(logH, "h"))
        assert expr_equiv(sub(X2[0], X1[0]), ham1, patch)
        assert expr_equiv(sub(X2[1], X1[1]), ham2, patch)


class TestPeriods:
    def test_sphere_unit(self):
        S = make_surface("sphere", "h")
        (c,) = extract_zero_set(S)
        T = modular_period(S, c)
        assert T == pytest.approx(2 * math.pi, abs=1e-6)

    def test_sphere_scaled(self):
        S = make_surface("sphere", "2*h")
        (c,) = extract_zero_set(S)
        assert modular_period(S, c) == pytest.approx(math.pi, abs=1e-6)

    def test_torus(self):
        S = make_surface("torus", "sin(t1)")
        for c in extract_zero_set(S):
            assert modular_period(S, c) == pytest.approx(2 * math.pi, abs=1e-6)

    def test_against_ode_return_time(self):
        # nonconstant speed along the curve: the quadrature must agree with
        # an actual flow of the modular field
        S = make_surface("sphere", "h*(1 + 1/4*sin(theta))")
        (c,) = extract_zero_set(S, grid=96)
        T = modular_period(S, c)
        T_ode = flow_return_time(S, c.points[0])
        assert T == pytest.approx(T_ode, abs=5e-3)

    def test_period_volume_scaling_law(self):
        S1 = make_surface("sphere", "h*(2+h)/2")
        S3 = make_surface("sphere", "3*(h*(2+h)/2)")
        r1 = radko_invariants(S1)
        r3 = radko_invariants(S3)
        assert r3.periods[0] == pytest.approx(r1.periods[0] / 3, abs=1e-6)
        assert r3.volume == pytest.approx(r1.volume / 3, abs=1e-4)


class TestVolume:
    def test_sphere_odd_symmetry(self):
        v, c = regularized_volume(make_surface("sphere", "h"))
        assert abs(v) < 1e-6 and abs(c) < 1e-4

    def test_torus_odd_symmetry(self):
        v, c = regularized_volume(make_surface("torus", "sin(t1)"))
        assert abs(v) < 1e-6 and abs(c) < 1e-4

    def test_asymmetric_sphere_against_pv_oracle(self):
        # oracle: 2/(h(2+h)) = 1/h - 1/(h+2); PV of 1/h over [-1,1] is 0,
        # so the volume is -2*pi*(-log 3) = 2*pi*log(3)
        want = 2 * math.pi * math.log(3.0)
        v, c = regularized_volume(make_surface("sphere", "h*(2+h)/2"))
        assert v == pytest.approx(want, abs=1e-4)
        assert abs(c) < 1e-4

    def test_oracle_value_itself(self):
        # direct numeric PV for the same integrand, fully independent path
        f = lambda h: -1.0 / (h + 2.0)
        val, _ = quad(f, -1, 1)
        assert -2 * math.pi * val == pytest.approx(2 * math.pi * math.log(3.0),
                                                   abs=1e-10)

    def test_cutoff_invariance(self):
        # cutting off with |P*h| > eps for nonvanishing h changes nothing
        S = make_surface("sphere", "h*(2+h)/2")
        v1, _ = regularized_volume(S)
        v2, _ = regularized_volume(
            S, cutoff_factor=parse_expr("2 + sin(theta) + h/2", S.patch))
        assert v1 == pytest.approx(v2, abs=1e-5)


class TestClassifier:
    def test_reflexive(self):
        S = make_surface("sphere", "h")
        verdict, witness, *_ = classify_pair(S, make_surface("sphere", "h"))
        assert verdict == "invariant-equivalent" and witness is None

    def test_period_witness(self):
        verdict, witness, *_ = classify_pair(make_surface("sphere", "h"),
                                             make_surface("sphere", "2*h"))
        assert verdict == "distinct"
        assert "period" in witness

    def test_volume_witness(self):
        verdict, witness, *_ = classify_pair(
            make_surface("sphere", "h*(2+h)/2"),
            make_surface("sphere", "h*(2-h)/2"))
        assert verdict == "distinct"
        assert "volume" in witness

    def test_curve_count_witness(self):
        verdict, witness, *_ = classify_pair(
            make_surface("torus", "sin(t1)"),
            make_surface("torus", "sin(2*t1)"))
        assert verdict == "distinct"
        assert "curve count" in witness

    def test_topology_mismatch(self):
        with pytest.raises(ValueError, match="topology"):
            classify_pair(make_surface("torus", "sin(t1)"),
                          make_surface("sphere", "h"))


class TestSurfaceCohomology:
    def test_reference_values(self):
        assert surface_poisson_cohomology(0, 1) == (1, 1, 2)
        assert surface_poisson_cohomology(1, 2) == (1, 4, 3)

    def test_formula(self):
        for g in range(4):
            for n in range(1, 5):
                assert surface_poisson_cohomology(g, n) == (1, n + 2 * g, n + 1)

    def test_requires_zero_curve(self):
        with pytest.raises(ValueError):
            surface_poisson_cohomology(0, 0)


# --- the batched numerics against the scalar routines they replaced --------
#
# The two functions below are the scalar implementations that preceded the
# tape-based ones in bgeo.surface2d: scipy quad/brentq over eval_expr, one
# point at a time.  They stay here as oracles.


def scalar_refine_curve(S, pts):
    from bgeo.symexpr import EvalDomainError, diff_expr
    from scipy.optimize import brentq

    patch = S.patch
    P = S.P
    dP1 = diff_expr(P, patch.names[0])
    dP2 = diff_expr(P, patch.names[1])
    out = np.array(pts, dtype=float)
    for k in range(len(out)):
        x1, x2 = out[k]
        env = {patch.names[0]: x1, patch.names[1]: x2}
        g1, g2 = eval_expr(dP1, env), eval_expr(dP2, env)
        axis = 0 if abs(g1) >= abs(g2) else 1
        name = patch.names[axis]

        def f1d(v):
            e = dict(env)
            e[name] = v
            return eval_expr(P, e)

        v0 = out[k][axis]
        h = 1e-2
        try:
            a, b = v0 - h, v0 + h
            fa, fb = f1d(a), f1d(b)
            while fa * fb > 0 and h < 0.3:
                h *= 2
                a, b = v0 - h, v0 + h
                fa, fb = f1d(a), f1d(b)
            if fa * fb <= 0:
                out[k][axis] = brentq(f1d, a, b, xtol=1e-10)
        except (ValueError, EvalDomainError):
            pass
    return out


def scalar_regularized_volume(S, grid, eps0=1e-2, halvings=8):
    from scipy.optimize import brentq

    names = S.patch.names
    (lo1, hi1), (lo2, hi2) = S.patch.intervals
    x2s = np.linspace(lo2, hi2, grid, endpoint=False)
    w2s = np.full(grid, (hi2 - lo2) / grid)

    def Pval(x1, x2):
        return eval_expr(S.P, {names[0]: x1, names[1]: x2})

    def line_roots(x2):
        zs = np.linspace(lo1, hi1, 257)
        ps = np.array([Pval(z, x2) for z in zs])
        roots = []
        for i in range(len(zs) - 1):
            if ps[i] == 0.0:
                roots.append(zs[i])
            elif ps[i] * ps[i + 1] < 0:
                roots.append(brentq(Pval, zs[i], zs[i + 1], args=(x2,),
                                    xtol=1e-15))
        if ps[-1] == 0.0:
            roots.append(zs[-1])
        return roots

    def line_integral(x2, eps, roots):
        def gate(x1):
            return abs(Pval(x1, x2)) - eps

        zs = list(np.linspace(lo1, hi1, 129))
        offsets = np.geomspace(1e-8, 0.5, 48)
        for r in roots:
            zs.extend(r + offsets)
            zs.extend(r - offsets)
        zs = np.unique(np.clip(np.array(zs), lo1, hi1))
        gs = np.array([gate(z) for z in zs])
        cuts = [lo1]
        for i in range(len(zs) - 1):
            if gs[i] == 0.0:
                cuts.append(zs[i])
            elif gs[i] * gs[i + 1] < 0 and zs[i + 1] > zs[i]:
                cuts.append(brentq(gate, zs[i], zs[i + 1], xtol=1e-15))
        cuts.append(hi1)
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if b - a < 1e-13 or gate(0.5 * (a + b)) <= 0:
                continue
            total += quad(lambda x: 1.0 / Pval(x, x2), a, b, limit=200)[0]
        return total

    eps_list = [eps0 / 2 ** k for k in range(halvings + 1)]
    roots = {x2: line_roots(x2) for x2 in x2s}
    series = [-S.orientation * math.fsum(
        w * line_integral(x2, eps, roots[x2]) for x2, w in zip(x2s, w2s))
        for eps in eps_list]
    L = np.log(eps_list)
    A = np.stack([L, np.ones_like(L), np.array(eps_list)], axis=1)
    (c, v0, _a), *_ = np.linalg.lstsq(A, np.array(series), rcond=None)
    return float(v0), float(c), series


def seeded_spheres(count=6):
    from fractions import Fraction
    import random

    rng = random.Random(20120612)
    out = []
    for _ in range(count):
        c0 = Fraction(rng.randint(15, 25), 10)
        c1 = Fraction(rng.randint(-3, 3), 10)
        ct = Fraction(rng.randint(-5, 5), 10)
        out.append(make_surface("sphere", f"h*({c0} + ({c1})*h + "
                                          f"({ct})*cos(theta))"))
    return out


DIFFERENTIAL = seeded_spheres() + [make_surface("sphere", "h*(2+h)/2"),
                                   make_surface("torus", "sin(2*t1)")]
# defined only for h > -1/2
PARTIAL = make_surface("sphere", "h*log(h+1/2)")


class TestBatchedAgainstScalar:
    @pytest.mark.parametrize("S", DIFFERENTIAL, ids=lambda S: str(S.P))
    def test_volume(self, S):
        v0, c, series = regularized_volume(S, grid=8, return_series=True)
        w0, d, want = scalar_regularized_volume(S, grid=8)
        assert [e for e, _ in series] == [1e-2 / 2 ** k for k in range(9)]
        assert np.allclose([v for _, v in series], want, rtol=0, atol=1e-8)
        assert v0 == pytest.approx(w0, abs=1e-8)
        assert c == pytest.approx(d, abs=1e-8)

    @pytest.mark.parametrize("S", DIFFERENTIAL + [PARTIAL],
                             ids=lambda S: str(S.P))
    def test_refine_curve(self, S):
        from bgeo.surface2d import _refine_curve

        rng = np.random.default_rng(7)
        (lo1, hi1), (lo2, hi2) = S.patch.intervals
        if S is PARTIAL:
            lo1 = -0.45   # the gradient is finite, some brackets are not
        pts = np.column_stack([rng.uniform(lo1, hi1, 200),
                               rng.uniform(lo2, hi2, 200)])
        got = _refine_curve(S, pts)
        assert np.abs(got - scalar_refine_curve(S, pts)).max() < 1e-9
        assert (got != pts).any(axis=1).sum() > 50

    def test_refine_curve_gradient_domain_error(self):
        from bgeo.surface2d import _refine_curve
        from bgeo.symexpr import EvalDomainError

        pts = np.array([[0.1, 1.0], [-0.7, 2.0]])
        for refine in (_refine_curve, scalar_refine_curve):
            with pytest.raises(EvalDomainError):
                refine(PARTIAL, pts)


class TestStripEdges:
    @pytest.mark.parametrize("P", ["sin(t1)", "sin(2*t1)"])
    def test_odd_torus_volume_vanishes_at_every_eps(self, P, monkeypatch):
        # the root at t1 = 2*pi is never a scan point (sin(2*pi) != 0.0), so
        # only its strip edge tells the quadrature where 1/P is steep
        from bgeo import surface2d

        sizes = []

        def evaluate_tape(tape, points):
            sizes.append(len(points))
            return real(tape, points)

        real = surface2d.evaluate_tape
        monkeypatch.setattr(surface2d, "evaluate_tape", evaluate_tape)
        v0, c, series = regularized_volume(make_surface("torus", P),
                                           return_series=True)
        assert max(abs(v) for _, v in series) < 1e-9
        assert abs(v0) < 1e-9
        assert max(sizes) <= surface2d._CHUNK
