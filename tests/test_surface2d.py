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
    TAU_CURVE,
    _wrapped_diffs,
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
from bgeo.symexpr import expr_equiv, parse_expr, sub
from expr_oracles import eval_expr
from tree_eval import tree_eval


def flow_return_time(S, start, t_max=30.0, dt=1e-4):
    """Oracle: RK4-integrate the modular field from a zero-curve point and
    measure the first return to the start; independent of the arclength
    quadrature used by modular_period."""
    X1, X2 = modular_field(S)
    names = S.patch.names

    def rhs(p):
        env = {names[0]: p[0], names[1]: p[1]}
        return np.array([tree_eval(X1, env), tree_eval(X2, env)])

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
        d = _wrapped_diffs(S.patch, c.points, c.closed)
        assert np.hypot(d[:, 0], d[:, 1]).sum() == pytest.approx(
            2 * math.pi, rel=1e-9)
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
        with pytest.raises(GeometryError, match="changes sign nowhere"):
            radko_invariants(S)

    def test_zero_without_sign_change(self):
        # h^2 vanishes on h = 0 but never changes sign there: no
        # transversal zero curve, so the message must not say "no zeros"
        S = make_surface("sphere", "h^2")
        assert extract_zero_set(S) == []
        with pytest.raises(GeometryError, match="changes sign nowhere on the "
                           "grid: no transversal zero curve"):
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
        # at grid 2 the curve is two vertices joined by two segments
        for grid in (64, 2):
            (c,) = extract_zero_set(S, grid=grid)
            assert c.closed
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


def two_curve_volume(r1, r2):
    """|V| of P = (h - r1)(h - r2) on the sphere: 1/P = (1/(h - r1) -
    1/(h - r2))/(r1 - r2), each term's principal value over [-1, 1] in
    closed form."""
    return 2 * math.pi / abs(r1 - r2) * abs(math.log(
        (1 - r1) * (1 + r2) / ((1 + r1) * (1 - r2))))


class TestVolume:
    def test_sphere_odd_symmetry(self):
        v, change = regularized_volume(make_surface("sphere", "h"))
        assert abs(v) < 1e-6 and change < 1e-4

    def test_torus_odd_symmetry(self):
        v, change = regularized_volume(make_surface("torus", "sin(t1)"))
        assert abs(v) < 1e-6 and change < 1e-4

    def test_asymmetric_sphere_against_pv_oracle(self):
        # oracle: 2/(h(2+h)) = 1/h - 1/(h+2); PV of 1/h over [-1,1] is 0,
        # so the volume is -2*pi*(-log 3) = 2*pi*log(3)
        want = 2 * math.pi * math.log(3.0)
        v, change = regularized_volume(make_surface("sphere", "h*(2+h)/2"))
        assert v == pytest.approx(want, abs=1e-4)
        assert change < 1e-4

    def test_oracle_value_itself(self):
        # direct numeric PV for the same integrand, fully independent path
        f = lambda h: -1.0 / (h + 2.0)
        val, _ = quad(f, -1, 1)
        assert -2 * math.pi * val == pytest.approx(2 * math.pi * math.log(3.0),
                                                   abs=1e-10)

    CLOSED_FORMS = [
        ("h*(2+h)/2", 2 * math.pi * math.log(3.0)),
        ("h*(h - 1/2)", two_curve_volume(0, 1 / 2)),
        ("h*(h - 1/3)", two_curve_volume(0, 1 / 3)),
        ("h*(h - 1/10)", two_curve_volume(0, 1 / 10)),
        ("h*(h - 1/100)", two_curve_volume(0, 1 / 100)),
        ("(h - 1/3)*(h + 1/2)", two_curve_volume(1 / 3, -1 / 2)),
        ("(h - 1/2)*(h + 1/2)", two_curve_volume(1 / 2, -1 / 2)),
    ]

    @pytest.mark.parametrize("P, want", CLOSED_FORMS,
                             ids=[P for P, _ in CLOSED_FORMS])
    def test_closed_form(self, P, want):
        # close curves (r = 1/100) to 1e-9 too, on both meshes
        v, change = regularized_volume(make_surface("sphere", P))
        assert abs(v) == pytest.approx(want, abs=1e-9)
        assert change < 1e-9

    def test_two_curve_closed_form_itself(self):
        # the partial fractions of 1/P against quad's PV of each pole
        for r1, r2 in [(0, 1 / 10), (1 / 3, -1 / 2)]:
            pv = sum(s * quad(lambda h: 1.0, -1, 1, weight="cauchy",
                              wvar=r)[0] for s, r in [(1, r1), (-1, r2)])
            assert 2 * math.pi * abs(pv / (r1 - r2)) == pytest.approx(
                two_curve_volume(r1, r2), abs=1e-10)

    @pytest.mark.parametrize("topology, P", [
        ("torus", "cos(t1) + cos(t2) - 1/2"),
        ("sphere", "(h - 1/3)^2 + 1 + cos(theta) - 1/1000"),
        ("sphere", "sin(theta) - 8*h^3"),
    ])
    def test_tangent_curve_refused(self, topology, P):
        with pytest.raises(GeometryError, match="tangent to the lines"):
            regularized_volume(make_surface(topology, P))


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


class TestSurfaceStructure:
    def test_second_axis_must_be_periodic(self):
        # the volume integrates along axis 2 by the uniform periodic rule
        from bgeo.surface2d import SurfaceStructure
        from bgeo.symexpr import Patch

        patch = Patch(("x", "y"), ((-1.0, 1.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="periodic second axis"):
            SurfaceStructure("sphere", patch, parse_expr("x", patch))


# --- the batched numerics against the scalar routines they replaced --------
#
# The two functions below are the scalar implementations that preceded the
# tape-based ones in bgeo.surface2d: scipy quad/brentq over tree_eval, one
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
        g1, g2 = tree_eval(dP1, env), tree_eval(dP2, env)
        axis = 0 if abs(g1) >= abs(g2) else 1
        name = patch.names[axis]

        def f1d(v):
            e = dict(env)
            e[name] = v
            return tree_eval(P, e)

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


def scalar_line_pv(S, x2):
    """The principal value of the integral of 1/P along the line x2 = const:
    roots by brentq on a 257-point scan, the line split halfway between
    them, and each piece's pole integrated by QUADPACK's QAWC (quad with
    weight="cauchy"); a periodic line runs for one period from halfway
    between its last root and its first."""
    from bgeo.symexpr import diff_expr
    from scipy.optimize import brentq

    names = S.patch.names
    (lo1, hi1), _ = S.patch.intervals
    per1 = S.patch.periods[0]

    def Pval(x1):
        return tree_eval(S.P, {names[0]: x1, names[1]: x2})

    zs = np.linspace(lo1, hi1, 257)
    ps = [Pval(z) for z in zs]
    if per1:
        ps[-1] = ps[0]
    roots = [z for z, p in zip(zs[:-1] if per1 else zs, ps) if p == 0.0]
    roots += [brentq(Pval, a, b, xtol=1e-15) for a, b, fa, fb
              in zip(zs, zs[1:], ps, ps[1:]) if fa * fb < 0]
    roots.sort()
    if per1:
        lo1 = 0.5 * (roots[-1] - per1 + roots[0])
        hi1 = lo1 + per1
    cuts = [lo1] + [0.5 * (a + b) for a, b in zip(roots, roots[1:])] + [hi1]
    dP = diff_expr(S.P, names[0])
    total = 0.0
    for r, a, b in zip(roots, cuts, cuts[1:]):
        slope = tree_eval(dP, {names[0]: r, names[1]: x2})

        def f(x1):   # (x - r)/P, whose limit at the root is 1/slope
            p = Pval(x1)
            return (x1 - r) / p if p != 0.0 else 1.0 / slope

        total += quad(f, a, b, weight="cauchy", wvar=r, epsabs=1e-11,
                      epsrel=1e-11, limit=200)[0]
    return total


def scalar_regularized_volume(S, grid):
    """The volume as regularized_volume defines it, on its 2n lines, from
    scalar_line_pv."""
    (lo2, hi2) = S.patch.intervals[1]
    x2s = np.linspace(lo2, hi2, 2 * grid, endpoint=False)
    return -S.orientation * (hi2 - lo2) / (2 * grid) * math.fsum(
        scalar_line_pv(S, x2) for x2 in x2s)


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
        # the line principal values against QAWC on the same 16 lines
        v, _ = regularized_volume(S, grid=8)
        assert v == pytest.approx(scalar_regularized_volume(S, grid=8),
                                  abs=1e-9)

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
        # sin(2*pi) != 0.0, so the root at t1 = 0 = 2*pi is found once, as
        # the exact zero at t1 = 0, and the line's pole there is subtracted
        from bgeo import surface2d

        sizes = []

        def evaluate_tape(tape, points):
            sizes.append(len(points))
            return real(tape, points)

        real = surface2d.evaluate_tape
        monkeypatch.setattr(surface2d, "evaluate_tape", evaluate_tape)
        v, change = regularized_volume(make_surface("torus", P))
        assert abs(v) < 1e-9 and change < 1e-9
        assert max(sizes) <= surface2d._CHUNK


class TestVolumeBitsUnchanged:
    """repr of V and its change from n to 2n lines at grid 32, as the line
    principal values give them: 8-point Gauss-Legendre on the uniform mesh
    of 128 panels, staggered on the halfway lines and cut at the roots,
    which one Newton step polishes.  Any change to the volume's arithmetic,
    or to the roots the bracket solver returns, moves these bits."""

    CASES = [
        ("sphere", "h", "0.0", "0.0"),
        ("sphere", "2*h", "0.0", "0.0"),
        ("sphere", "h*(2+h)/2", "6.902784590446404", "0.0"),
        ("sphere", "h*(2 + h/5 + cos(theta)/4)", "0.6456175500990986",
         "1.1102230246251565e-16"),
        ("torus", "sin(t1)", "6.817817439001333e-12", "2.274024148474861e-12"),
        ("torus", "sin(2*t1)", "3.4094228559605967e-12",
         "1.135584956208486e-12"),
    ]

    @pytest.mark.parametrize("topology, P, v, change", CASES,
                             ids=[f"{t}:{p}:None" for t, p, *_ in CASES])
    def test_volume_bits(self, topology, P, v, change):
        got = regularized_volume(make_surface(topology, P), grid=32)
        assert (repr(got[0]), repr(got[1])) == (v, change)


class TestVolumeWork:
    def test_bands_evaluate_few_points(self, monkeypatch):
        # 82,560 points in 23 calls: the scan of 64 lines (16,448), the
        # bracket solves, the roots' tape and about 130 panels of 8 nodes per
        # line; the eps ladder evaluated 95,424 in 38 calls here
        from bgeo import surface2d

        sizes = []

        def evaluate_tape(tape, points):
            sizes.append(len(points))
            return real(tape, points)

        real = surface2d.evaluate_tape
        monkeypatch.setattr(surface2d, "evaluate_tape", evaluate_tape)
        regularized_volume(make_surface("sphere", "h*(2+h)/2"), grid=32)
        assert sum(sizes) == 82_560
        assert max(sizes) <= surface2d._CHUNK


class TestRefineWork:
    def test_refine_curve_solves_in_few_evaluations(self, monkeypatch):
        # the vertices sit next to their roots, which the falsi points pin in
        # two steps; the Illinois solver then moved the far ends in by
        # bisection and took 51 evaluations per call here; the minimum step
        # takes exactly 5 on each call, pinned so that a drift to 6 shows
        from bgeo import surface2d

        counts = []

        def solve(f, a, b, fa, fb, xtol):
            assert xtol == TAU_CURVE
            counts.append(0)

            def counted(x, k):
                counts[-1] += 1
                return f(x, k)

            return real(counted, a, b, fa, fb, xtol)

        real = surface2d._solve_brackets
        monkeypatch.setattr(surface2d, "_solve_brackets", solve)
        for S in seeded_spheres():
            for curve in extract_zero_set(S, grid=32):
                modular_period(S, curve)
        assert len(counts) == 18
        assert sum(counts) == 5 * len(counts)
