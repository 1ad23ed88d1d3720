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


class TestVolume:
    def test_sphere_odd_symmetry(self):
        v, c, _ = regularized_volume(make_surface("sphere", "h"))
        assert abs(v) < 1e-6 and abs(c) < 1e-4

    def test_torus_odd_symmetry(self):
        v, c, _ = regularized_volume(make_surface("torus", "sin(t1)"))
        assert abs(v) < 1e-6 and abs(c) < 1e-4

    def test_asymmetric_sphere_against_pv_oracle(self):
        # oracle: 2/(h(2+h)) = 1/h - 1/(h+2); PV of 1/h over [-1,1] is 0,
        # so the volume is -2*pi*(-log 3) = 2*pi*log(3)
        want = 2 * math.pi * math.log(3.0)
        v, c, _ = regularized_volume(make_surface("sphere", "h*(2+h)/2"))
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
        v1, _, _ = regularized_volume(S)
        v2, _, _ = regularized_volume(
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


def scalar_regularized_volume(S, grid, eps0=1e-2, halvings=8):
    from scipy.optimize import brentq

    names = S.patch.names
    (lo1, hi1), (lo2, hi2) = S.patch.intervals
    x2s = np.linspace(lo2, hi2, grid, endpoint=False)
    w2s = np.full(grid, (hi2 - lo2) / grid)

    def Pval(x1, x2):
        return tree_eval(S.P, {names[0]: x1, names[1]: x2})

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
        v0, c, series = regularized_volume(S, grid=8)
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
        v0, c, series = regularized_volume(make_surface("torus", P))
        assert max(abs(v) for _, v in series) < 1e-9
        assert abs(v0) < 1e-9
        assert max(sizes) <= surface2d._CHUNK


class TestVolumeBitsUnchanged:
    """repr of V0, c and every series value at grid 32, as the volume gives
    them when level 0 integrates its whole strip on graded panels and every
    later level adds its band eps_k < |P * cut| <= eps_(k-1) with two
    Gauss-Legendre panels per piece, all strip edges solved in one call and
    no cut-off tape without a cut-off factor.  Any change to the volume's
    arithmetic, or to the roots and strip edges the bracket solver returns,
    moves these bits; TestBandsAgainstPerLevel bounds how far
    the bands may move them from the whole-strip integral of every level."""

    CASES = [
        ("sphere", "h", None,
         "5.55529516285457e-16", "3.636302169419484e-16",
         ["-3.2438477380637983e-16",
          "-1.0219584734081061e-15",
          "-1.3707453232089693e-15",
          "-1.7195321730098325e-15",
          "-2.0683190228106955e-15",
          "-2.4171058726115586e-15",
          "-2.765892722412422e-15",
          "-2.765892722412422e-15",
          "-3.114679572213285e-15"]),
        ("sphere", "2*h", None,
         "2.2893367705320323e-15", "1.9040359103054076e-16",
         ["1.559942683988572e-15",
          "1.3855492590881404e-15",
          "1.2111558341877088e-15",
          "1.0367624092872773e-15",
          "8.623689843868457e-16",
          "6.879755594864141e-16",
          "6.879755594864141e-16",
          "5.135821345859825e-16",
          "3.391887096855509e-16"]),
        ("sphere", "h*(2+h)/2", None,
         "6.9027925901098675", "8.563878564384238e-07",
         ["6.777110410347635",
          "6.839951428315811",
          "6.8713685002839755",
          "6.887076606725855",
          "6.894930606255522",
          "6.898857599309834",
          "6.900821094997983",
          "6.901802842716429",
          "6.902293716587277"]),
        ("sphere", "h*(2 + h/5 + cos(theta)/4)", None,
         "0.6456175550534753", "5.304875918306232e-10",
         ["0.6390309909215409",
          "0.6423242729432866",
          "0.6439709118253405",
          "0.6447942310001218",
          "0.6452058905539731",
          "0.6454117203238037",
          "0.6455146352118041",
          "0.6455660926557341",
          "0.6455918213775194"]),
        ("torus", "sin(t1)", None,
         "9.522888403375968e-11", "1.2268528247836283e-11",
         ["3.251574995924897e-13",
          "1.349195690607824e-12",
          "2.65863735126343e-13",
          "-3.871445877211496e-12",
          "1.1385284333281028e-12",
          "2.239648518149428e-12",
          "5.796567229768314e-11",
          "-6.860070461065489e-11",
          "-3.773725384547611e-11"]),
        ("torus", "sin(2*t1)", None,
         "-2.2495195163954307e-10", "-2.989193788641819e-11",
         ["4.973239650741419e-13",
          "3.7188937032598144e-12",
          "2.0982556056601036e-12",
          "1.274595459855365e-12",
          "2.604694111570957e-12",
          "-4.698728129834218e-12",
          "6.057509531174601e-12",
          "-1.70555486445792e-11",
          "1.7131184699969908e-10"]),
        ("sphere", "h*(2+h)/2", '2 + sin(theta) + h/2',
         "6.902792385282987", "8.344615853746003e-07",
         ["6.8060384188197265",
          "6.8544153320689665",
          "6.87860043951835",
          "6.890692574759313",
          "6.8967385900741895",
          "6.89976159119436",
          "6.901273090932733",
          "6.902028840692949",
          "6.902406715560832"]),
    ]

    @pytest.mark.parametrize("topology, P, cutoff, v0, c, series", CASES,
                             ids=[f"{t}:{p}:{f}" for t, p, f, *_ in CASES])
    def test_volume_bits(self, topology, P, cutoff, v0, c, series):
        S = make_surface(topology, P)
        cut = None if cutoff is None else parse_expr(cutoff, S.patch)
        got_v0, got_c, got = regularized_volume(S, grid=32, cutoff_factor=cut)
        assert (repr(got_v0), repr(got_c)) == (v0, c)
        assert [repr(v) for _, v in got] == series


def volume_with_edges(S, monkeypatch, strip_edges, cutoff=None):
    """The series, V0 and c of S at grid 16, as an array, and the
    (z_i, e_i, edges) of every level, with strip_edges solving the edges."""
    from bgeo import surface2d

    got = []

    def record(*args):
        got.append(strip_edges(*args))
        return got[-1]

    monkeypatch.setattr(surface2d, "_strip_edges", record)
    v0, c, series = regularized_volume(
        S, grid=16, tau_log=math.inf,
        cutoff_factor=None if cutoff is None else parse_expr(cutoff, S.patch))
    assert len(got) == 1
    return np.array([v for _, v in series] + [v0, c]), got[0]


# |P| >= 3/1000, so the levels from 1e-2/4 on have no strip edge at all
NO_EDGES_BELOW = make_surface("sphere", "h^2 + 3/1000")


class TestEdgesAgainstPerLevel:
    """The strip edges of all levels solved in one call against one solve
    per level (tests/per_level_edges.py): the same bits."""

    @pytest.mark.parametrize("S, cutoff", [
        (S, None) for S in DIFFERENTIAL[:3] + DIFFERENTIAL[-2:]
    ] + [(NO_EDGES_BELOW, None),
         (make_surface("sphere", "h*(2+h)/2"), "2 + sin(theta) + h/2")],
        ids=lambda v: str(getattr(v, "P", v)))
    def test_same_bits(self, S, cutoff, monkeypatch):
        from bgeo.surface2d import _strip_edges
        from per_level_edges import strip_edges_per_level

        got, levels = volume_with_edges(S, monkeypatch, _strip_edges, cutoff)
        want, per_level = volume_with_edges(S, monkeypatch,
                                            strip_edges_per_level, cutoff)
        assert got.tobytes() == want.tobytes()
        assert len(levels) == len(per_level) == 9
        for (z, e, edges), (wz, we, wedges) in zip(levels, per_level):
            assert np.array_equal(z, wz) and np.array_equal(e, we)
            assert edges.tobytes() == wedges.tobytes()
        if S is NO_EDGES_BELOW:
            sizes = [e.size for _, e, _ in levels]
            assert sizes[0] > 0 and not any(sizes[2:])


class TestOneEdgeSolve:
    @pytest.mark.parametrize("cutoff", [None, "2 + sin(theta) + h/2"])
    def test_two_solves_and_no_constant_tape(self, cutoff, monkeypatch):
        # one call for the line roots and one for the strip edges of every
        # level; a cut-off tape only when a cut-off factor is given
        from bgeo import surface2d

        solves, compiled = [], []

        def solve(*args):
            solves.append(args)
            return real_solve(*args)

        def compile_tape(expr, names):
            compiled.append(expr)
            return real_compile(expr, names)

        real_solve, real_compile = (surface2d._solve_brackets,
                                    surface2d.compile_tape)
        monkeypatch.setattr(surface2d, "_solve_brackets", solve)
        monkeypatch.setattr(surface2d, "compile_tape", compile_tape)
        S = make_surface("sphere", "h*(2+h)/2")
        cut = None if cutoff is None else parse_expr(cutoff, S.patch)
        regularized_volume(S, grid=16, cutoff_factor=cut)
        assert len(solves) == 2
        assert compiled == [S.P] + ([] if cut is None else [cut])


def volume_with_series(S, monkeypatch, volume_series, cutoff=None):
    """The series, V0 and c of S at grid 16, as an array, with
    volume_series summing the levels."""
    from bgeo import surface2d

    monkeypatch.setattr(surface2d, "_volume_series", volume_series)
    v0, c, series = regularized_volume(
        S, grid=16, tau_log=math.inf,
        cutoff_factor=None if cutoff is None else parse_expr(cutoff, S.patch))
    return np.array([v for _, v in series] + [v0, c])


class TestBandsAgainstPerLevel:
    """Each level adding its band to the level before against every level
    integrated over its whole strip (tests/per_level_volume.py): the same
    values up to round-off."""

    @pytest.mark.parametrize("S, cutoff", [(S, None) for S in DIFFERENTIAL]
                             + [(NO_EDGES_BELOW, None),
                                (make_surface("sphere", "(h - 1/3)*(h + 1/2)"),
                                 None),
                                (make_surface("sphere", "h*(2+h)/2"),
                                 "2 + sin(theta) + h/2")],
                             ids=lambda v: str(getattr(v, "P", v)))
    def test_round_off_apart(self, S, cutoff, monkeypatch):
        from bgeo import surface2d
        from per_level_volume import volume_series_per_level

        parts, real_split = [], surface2d._split_at

        def split_at(nodes, s_line, a, b, knots):
            out = real_split(nodes, s_line, a, b, knots)
            if knots.shape[1] == 0:   # a band, not the strip of level 0
                parts.append((a.size, out[1].size))
            return out

        monkeypatch.setattr(surface2d, "_split_at", split_at)
        got = volume_with_series(S, monkeypatch, surface2d._volume_series,
                                 cutoff)
        want = volume_with_series(S, monkeypatch, volume_series_per_level,
                                  cutoff)
        tol = 1e-9 if S.topology == "torus" else 1e-11 * max(1, abs(want[-2]))
        assert np.abs(got - want).max() <= tol
        assert len(parts) == 8
        if S is NO_EDGES_BELOW:
            # |P| >= 3/1000: no band below eps_2, and the wide bands above
            # hold uniform nodes, so some piece was split
            assert all(v == got[2] for v in got[3:9])
            assert any(n_out > n_in for n_in, n_out in parts)


class TestVolumeWork:
    def test_bands_evaluate_few_points(self, monkeypatch):
        # a thin band costs a few panels: integrating every level over its
        # whole strip took 636,352 points here
        from bgeo import surface2d

        sizes = []

        def evaluate_tape(tape, points):
            sizes.append(len(points))
            return real(tape, points)

        real = surface2d.evaluate_tape
        monkeypatch.setattr(surface2d, "evaluate_tape", evaluate_tape)
        regularized_volume(make_surface("sphere", "h*(2+h)/2"), grid=32)
        assert sum(sizes) <= 200_000
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
