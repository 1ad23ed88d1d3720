"""Randomized property suites: each law is checked on >= 200 random cases
drawn from a seeded generator, so failures are reproducible."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from bgeo import symexpr as se
from bgeo.forms import (
    BForm,
    SmoothForm,
    bwedge,
    d_bform,
    pullback_to_level,
    restrict_to_Z,
    top_coefficient,
    wedge,
)
from bgeo.surface2d import (
    SurfaceStructure,
    extract_zero_set,
    modular_field,
    modular_period,
    sphere_patch,
)
from bgeo.symexpr import Patch, diff_expr, expr_equiv, parse_expr
from duality import bivector_to_bform, dualize
from expr_oracles import eval_expr, normalize

N_CASES = 200

# count and sha256 of the to_string of every tree that the first
# TREE_PIN_CASES cases of the six suites below hand to expr_equiv or
# eval_expr, in call order; any change to a canonical tree changes them
TREE_PIN_CASES = 20
TREE_DIGEST = (1564, "d9cb7cbb99d69e4079b92d3ccd615483"
                     "667146d3718ba301733dc5c52882cad3")


def patch4():
    return Patch(("x1", "y1", "x2", "y2"),
                 ((-1.0, 1.0),) * 4, periods=(None,) * 4)


def random_poly(rng, patch, n_terms=2, max_degree=2, scale=1):
    """Random polynomial with small rational coefficients (keeps the exact
    comparison path fast and deterministic)."""
    terms = []
    for _ in range(rng.integers(1, n_terms + 1)):
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) * scale
        if c == 0:
            continue
        deg = int(rng.integers(0, max_degree + 1))
        mono = se.Num(c)
        for _ in range(deg):
            name = patch.names[rng.integers(0, patch.dim)]
            mono = se.mul(mono, parse_expr(name, patch))
        terms.append(mono)
    out = se.ZERO
    for t in terms:
        out = se.add(out, t)
    return normalize(out)


def random_smooth_form(rng, patch, degree, scale=1):
    comps = {}
    n_keys = int(rng.integers(1, 3))
    for _ in range(n_keys):
        key = tuple(sorted(rng.choice(patch.dim, size=degree, replace=False)))
        comps[key] = random_poly(rng, patch, scale=scale)
    return SmoothForm(patch, degree, comps)


def random_bform(rng, patch, degree, f=None, zname="y1", scale=1):
    if f is None:
        f = parse_expr(zname, patch)
    alpha = random_smooth_form(rng, patch, degree - 1, scale=scale)
    beta = random_smooth_form(rng, patch, degree, scale=scale)
    return BForm(patch, degree, alpha, beta, f, zname)


def assert_bform_zero(w):
    for c in w.alpha.comps.values():
        assert expr_equiv(c, se.ZERO, w.patch)
    for c in w.beta.comps.values():
        assert expr_equiv(c, se.ZERO, w.patch)


def assert_bform_equiv(a, b):
    keys = set(a.alpha.comps) | set(b.alpha.comps)
    for k in keys:
        assert expr_equiv(a.alpha.comps.get(k, se.ZERO),
                          b.alpha.comps.get(k, se.ZERO), a.patch)
    keys = set(a.beta.comps) | set(b.beta.comps)
    for k in keys:
        assert expr_equiv(a.beta.comps.get(k, se.ZERO),
                          b.beta.comps.get(k, se.ZERO), a.patch)


class TestExteriorCalculus:
    def test_d_squared_is_zero(self):
        rng = np.random.default_rng(11)
        patch = patch4()
        for _ in range(N_CASES):
            w = random_bform(rng, patch, degree=int(rng.integers(1, 3)))
            assert_bform_zero(d_bform(d_bform(w)))

    def test_graded_leibniz(self):
        rng = np.random.default_rng(12)
        patch = patch4()
        for _ in range(N_CASES):
            p = int(rng.integers(1, 3))
            q = int(rng.integers(1, 4 - p))
            a = random_bform(rng, patch, degree=p)
            b = random_bform(rng, patch, degree=q)
            lhs = d_bform(bwedge(a, b))
            rhs = bwedge(d_bform(a), b) + bwedge(a, d_bform(b)).scale((-1) ** p)
            assert_bform_equiv(lhs, rhs)


class TestDualizeRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(13)
        patch = patch4()
        for _ in range(N_CASES):
            c1 = Fraction(int(rng.integers(1, 5)), 2) * int(rng.choice((-1, 1)))
            c2 = Fraction(int(rng.integers(1, 5)), 2) * int(rng.choice((-1, 1)))
            base = {(0,): se.Num(c1)}
            w = BForm(patch, 2, SmoothForm(patch, 1, base),
                      SmoothForm(patch, 2, {(2, 3): se.Num(c2)}),
                      parse_expr("y1", patch), "y1")
            # a small one-monomial perturbation keeps the form nondegenerate
            # (and the symbolic rational inverse from ballooning)
            key = tuple(sorted(rng.choice(4, size=2, replace=False)))
            coef = Fraction(int(rng.integers(-4, 5)), 20)
            name = patch.names[rng.integers(0, 4)]
            pert = SmoothForm(patch, 2, {
                key: se.mul(se.Num(coef), parse_expr(name, patch))})
            w = w + BForm(patch, 2, SmoothForm(patch, 1, {}), pert,
                          w.f, w.zname)
            back = bivector_to_bform(dualize(w))
            for _ in range(5):
                pt = {n: float(rng.uniform(lo, hi))
                      for n, (lo, hi) in zip(patch.names, patch.intervals)}
                pt["y1"] = float(rng.uniform(0.3, 1.0) * rng.choice((-1, 1)))
                for i in range(patch.dim):
                    for j in range(i + 1, patch.dim):
                        v1 = eval_expr(w.b_coefficient(i, j), pt)
                        v2 = eval_expr(back.b_coefficient(i, j), pt)
                        assert abs(v1 - v2) < 1e-10


class TestRestrictionCovariance:
    """Under f -> f*h with h nonvanishing, alpha_tilde is unchanged and
    beta_tilde picks up -alpha_tilde ^ d(log h) restricted to Z."""

    def test_covariance(self):
        rng = np.random.default_rng(14)
        patch = patch4()
        for _ in range(N_CASES):
            w = random_bform(rng, patch, degree=2)
            h = se.add(se.Num(2), random_poly(rng, patch,
                                              scale=Fraction(1, 10)))
            w2 = w.with_defining_function(h)
            p1 = restrict_to_Z(w)[0]
            p2 = restrict_to_Z(w2)[0]
            zpatch = p1.alpha_tilde.patch
            keys = set(p1.alpha_tilde.comps) | set(p2.alpha_tilde.comps)
            for k in keys:
                assert expr_equiv(p1.alpha_tilde.comps.get(k, se.ZERO),
                                  p2.alpha_tilde.comps.get(k, se.ZERO),
                                  zpatch)
            dlogh = SmoothForm(patch, 1, {
                (i,): se.div(diff_expr(h, n), h)
                for i, n in enumerate(patch.names)})
            dlogh_z = pullback_to_level(dlogh, "y1", 0.0)
            expected = p1.beta_tilde - wedge(p1.alpha_tilde, dlogh_z)
            keys = set(expected.comps) | set(p2.beta_tilde.comps)
            for k in keys:
                assert expr_equiv(expected.comps.get(k, se.ZERO),
                                  p2.beta_tilde.comps.get(k, se.ZERO),
                                  zpatch)


def random_sphere_structure(rng):
    patch = sphere_patch()
    c0 = 2 + float(rng.uniform(-0.5, 0.5))
    c1 = float(rng.uniform(-0.3, 0.3))
    c2 = float(rng.uniform(-0.2, 0.2))
    ct = float(rng.uniform(-0.2, 0.2))
    P = parse_expr(f"h*({c0!r} + {c1!r}*h + {ct!r}*cos(theta))", patch)
    V = parse_expr(f"2 + {c2!r}*h", patch)
    return SurfaceStructure("sphere", patch, P, V), patch


class TestModularField:
    def test_volume_change_covariance(self):
        """X for volume V*H differs from X for volume V by the Hamiltonian
        field of log H; on the zero set the difference vanishes, so the
        modular period is unchanged."""
        rng = np.random.default_rng(15)
        for case in range(N_CASES):
            S, patch = random_sphere_structure(rng)
            a = float(rng.uniform(-0.4, 0.4))
            b = float(rng.uniform(-0.3, 0.3))
            H = parse_expr(f"2 + {a!r}*h + {b!r}*h^2", patch)
            S2 = SurfaceStructure(S.topology, patch, S.P,
                                  se.mul(S.V, H), S.orientation)
            X1a, X2a = modular_field(S)
            X1b, X2b = modular_field(S2)
            ham1 = se.mul(S.P, se.div(diff_expr(H, "theta"), H))
            ham2 = se.neg(se.mul(S.P, se.div(diff_expr(H, "h"), H)))
            assert expr_equiv(se.sub(X1b, X1a), ham1, patch)
            assert expr_equiv(se.sub(X2b, X2a), ham2, patch)
            if case % 40 == 0:
                curves = extract_zero_set(S, grid=64)
                assert len(curves) == 1
                t1 = modular_period(S, curves[0])
                t2 = modular_period(S2, curves[0])
                assert abs(t1 - t2) < 1e-6

    def test_pairing_with_intrinsic_form(self):
        """alpha_tilde pairs to 1 with the modular field along Z."""
        rng = np.random.default_rng(16)
        for _ in range(N_CASES):
            S, patch = random_sphere_structure(rng)
            alpha = SmoothForm(patch, 1, {(1,): se.neg(se.ONE)})
            w = BForm(patch, 2, alpha, SmoothForm(patch, 2, {}), S.P, "h")
            pair = restrict_to_Z(w)[0]
            at = pair.alpha_tilde.comps[(0,)]
            _, X2 = modular_field(SurfaceStructure(
                S.topology, patch, S.P, se.ONE, S.orientation))
            for th in rng.uniform(0.0, 2 * np.pi, size=4):
                v = (eval_expr(at, {"theta": float(th)})
                     * eval_expr(X2, {"theta": float(th), "h": 0.0}))
                assert abs(v - 1.0) < 1e-8


def top_coefficient_by_formula(bform):
    """The top coefficient of f * omega^n as forms.top_coefficient wrote it
    out before it read BForm.b_coefficient: f * omega^n is
    alpha_top ^ dz + f * beta_top, and dz moves into its slot with sign
    (-1)^(m - 1 - zi)."""
    m = bform.patch.dim
    power = bform
    for _ in range(m // 2 - 1):
        power = bwedge(power, bform)
    zi = bform.zindex
    rest = tuple(i for i in range(m) if i != zi)
    sign = Fraction((-1) ** (m - 1 - zi))
    a = se.mul(se.Num(sign), power.alpha.coefficient(*rest))
    b = se.mul(power.f, power.beta.coefficient(*range(m)))
    return se.add(a, b)


class TestTopCoefficient:
    def test_equals_the_formula(self):
        rng = np.random.default_rng(17)
        patch = patch4()
        for _ in range(N_CASES):
            zname = patch.names[rng.integers(0, patch.dim)]
            w = (random_bform(rng, patch, 2, zname=zname)
                 + random_bform(rng, patch, 2, zname=zname))
            if rng.integers(0, 2):
                w = w.with_defining_function(se.add(
                    se.Num(2), random_poly(rng, patch, scale=Fraction(1, 10))))
            assert top_coefficient(w) == top_coefficient_by_formula(w)


class TestCanonicalTrees:
    def test_tree_digest(self, monkeypatch):
        trees = []
        real_eval = eval_expr

        def record_equiv(a, b, *args, **kwargs):
            trees.extend((se.to_string(a), se.to_string(b)))
            return True  # the laws themselves are the suites' business

        def record_eval(e, *args, **kwargs):
            trees.append(se.to_string(e))
            return real_eval(e, *args, **kwargs)

        monkeypatch.setitem(globals(), "N_CASES", TREE_PIN_CASES)
        monkeypatch.setitem(globals(), "expr_equiv", record_equiv)
        monkeypatch.setitem(globals(), "eval_expr", record_eval)
        TestExteriorCalculus().test_d_squared_is_zero()
        TestExteriorCalculus().test_graded_leibniz()
        TestDualizeRoundTrip().test_round_trip()
        TestRestrictionCovariance().test_covariance()
        TestModularField().test_volume_change_covariance()
        TestModularField().test_pairing_with_intrinsic_form()
        digest = hashlib.sha256("\n".join(trees).encode()).hexdigest()
        assert (len(trees), digest) == TREE_DIGEST

    def test_handed_trees_are_fixed_points(self, monkeypatch):
        """Every tree the suites hand to expr_equiv or eval_expr is already
        canonical: normalize leaves it as it is."""
        real_se = se
        trees = []

        class Recording:
            """symexpr, with to_string also keeping each tree it prints."""

            def to_string(self, e):
                trees.append(e)
                return real_se.to_string(e)

            def __getattr__(self, name):
                return getattr(real_se, name)

        monkeypatch.setitem(globals(), "se", Recording())
        self.test_tree_digest(monkeypatch)
        assert len(trees) == TREE_DIGEST[0]
        for tree in trees:
            assert normalize(tree) == tree, real_se.to_string(tree)
