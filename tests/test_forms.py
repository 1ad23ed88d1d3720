"""Tests for smooth forms, singular forms, restriction, and duality."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bgeo import forms
from bgeo import symexpr as se
from bgeo._poly import poly_const, poly_quotient, rat_add, rat_mul
from bgeo.evalcore import _RTOL
from bgeo.forms import (
    BForm,
    GeometryError,
    SmoothForm,
    ZComponent,
    b_matrix,
    bwedge,
    d_bform,
    d_smooth,
    find_z_components,
    form_equiv,
    interior_product,
    nondegeneracy_check,
    pullback_to_level,
    restrict_to_Z,
    smooth_equivalent,
    top_coefficient,
    transversality_check,
    wedge,
)
from bgeo.symexpr import (ONE, Num, Patch, ZERO, diff_expr, expr_equiv, mul,
                          parse_expr, sym)
from duality import _inverse_expr, bform_equiv, bivector_to_bform, dualize
from expr_oracles import eval_expr
from full_grid_scan import full_grid_range
from tree_eval import tree_eval

PLANE = Patch(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)))
R4 = Patch(("x1", "y1", "x2", "y2"), ((-2.0, 2.0),) * 4)
TAU = 2 * math.pi
T4 = Patch(("t1", "t2", "t3", "t4"), ((0.0, TAU),) * 4, periods=(TAU,) * 4)


def affine_bform():
    # dx ^ dy / y
    return BForm(PLANE, 2, SmoothForm(PLANE, 1, {("x",): 1}),
                 SmoothForm(PLANE, 2, {}), sym("y"), "y")


def standard_r4():
    # dx1 ^ dy1 / y1 + dx2 ^ dy2
    return BForm(R4, 2, SmoothForm(R4, 1, {("x1",): 1}),
                 SmoothForm(R4, 2, {("x2", "y2"): 1}), sym("y1"), "y1")


class TestSmoothForms:
    def test_antisymmetry_normalization(self):
        a = SmoothForm(PLANE, 2, {("y", "x"): 1})
        assert a.coefficient("x", "y") == Num(Fraction(-1))

    def test_repeated_index_drops(self):
        a = SmoothForm(PLANE, 2, {("x", "x"): parse_expr("x*y", PLANE)})
        assert a.is_zero()

    def test_wedge_anticommutes(self):
        dx = SmoothForm(PLANE, 1, {("x",): 1})
        dy = SmoothForm(PLANE, 1, {("y",): 1})
        ab = wedge(dx, dy)
        ba = wedge(dy, dx)
        assert ab.coefficient("x", "y") == Num(Fraction(1))
        assert (ab + ba).is_zero()

    def test_d_squared_zero(self):
        f = SmoothForm(PLANE, 0, {(): parse_expr("sin(x)*y^3 + exp(x*y)", PLANE)})
        assert d_smooth(d_smooth(f)).is_zero()

    def test_d_of_product_leibniz(self):
        # d(fg) = df g + f dg on functions, via forms
        f = parse_expr("x^2*y", PLANE)
        g = parse_expr("sin(y) + x", PLANE)
        lhs = d_smooth(SmoothForm(PLANE, 0, {(): mul(f, g)}))
        fg = SmoothForm(PLANE, 0, {(): f})
        gg = SmoothForm(PLANE, 0, {(): g})
        rhs = d_smooth(fg).scale(g) + d_smooth(gg).scale(f)
        assert form_equiv(lhs, rhs)

    def test_interior_product(self):
        # iota_{d/dx}(dx ^ dy) = dy
        a = SmoothForm(PLANE, 2, {("x", "y"): 1})
        v = interior_product({"x": 1}, a)
        assert v.coefficient("y") == Num(Fraction(1))
        # second slot picks up the sign
        v = interior_product({"y": 1}, a)
        assert v.coefficient("x") == Num(Fraction(-1))

    def test_pullback_to_level(self):
        a = SmoothForm(PLANE, 1, {("x",): parse_expr("x*y", PLANE),
                                   ("y",): parse_expr("x^2", PLANE)})
        r = pullback_to_level(a, "y", 0.0)
        assert r.patch.names == ("x",)
        assert r.is_zero()  # x*y at y=0 is 0, dy comps dropped


class TestBFormAlgebra:
    def test_alpha_dz_components_dropped(self):
        a = SmoothForm(PLANE, 1, {("x",): 1, ("y",): parse_expr("x", PLANE)})
        w = BForm(PLANE, 2, a, SmoothForm(PLANE, 2, {}), sym("y"), "y")
        assert list(w.alpha.comps) == [(0,)]

    def test_wedge_square_standard(self):
        w = standard_r4()
        w2 = bwedge(w, w)
        # omega^2 = 2 dx1 ^ (dy1/y1) ^ dx2 ^ dy2
        assert w2.beta.is_zero()
        assert w2.alpha.coefficient("x1", "x2", "y2") == Num(Fraction(2))

    def test_d_closed(self):
        dw = d_bform(standard_r4())
        assert dw.alpha.is_zero() and dw.beta.is_zero()

    def test_d_squared_zero(self):
        a = SmoothForm(R4, 0, {(): parse_expr("x1*y2^2 + sin(x2)", R4)})
        w = BForm(R4, 1, a, SmoothForm(R4, 1, {("x2",): parse_expr("y1*x1", R4)}),
                  sym("y1"), "y1")
        ddw = d_bform(d_bform(w))
        assert ddw.alpha.is_zero() and ddw.beta.is_zero()

    def test_d_rejects_mixed_defining_function(self):
        w = affine_bform().with_defining_function(parse_expr("1 + x^2", PLANE))
        with pytest.raises(GeometryError):
            d_bform(w)


class TestZComponents:
    def test_affine_single_component(self):
        comps = find_z_components(affine_bform())
        assert len(comps) == 1
        assert comps[0].value == pytest.approx(0.0, abs=1e-12)

    def test_periodic_sine_two_components(self):
        # f = sin(t4) on the 4-torus vanishes at t4 = 0 and pi
        a = SmoothForm(T4, 1, {("t1",): 1})
        b = SmoothForm(T4, 2, {("t2", "t3"): 1})
        w = BForm(T4, 2, a, b, parse_expr("sin(t4)", T4), "t4")
        comps = find_z_components(w)
        vals = [c.value for c in comps]
        assert vals == pytest.approx([0.0, math.pi], abs=1e-9)

    def test_degenerate_zero_rejected(self):
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {("x",): 1}),
                  SmoothForm(PLANE, 2, {}), parse_expr("y^2", PLANE), "y")
        with pytest.raises(GeometryError):
            find_z_components(w)

    def test_no_zeros_rejected_by_transversality(self):
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {("x",): 1}),
                  SmoothForm(PLANE, 2, {}), parse_expr("4 + y", PLANE), "y")
        # f = 4 + y has no zero inside |y| < 2
        with pytest.raises(GeometryError):
            transversality_check(w)


def scalar_find_z_components(bform, n_samples=2048, snap=True):
    """find_z_components as it was before it moved onto tapes: the scan and
    scipy's brentq over the tree walker, one point at a time.  With snap
    False, no root is moved to a nearby rational."""
    from scipy.optimize import brentq

    patch = bform.patch
    zname = bform.zname
    zi = patch.index(zname)
    a, b = patch.intervals[zi]
    period = patch.periods[zi]
    mid = {n: 0.5 * (lo + hi) for n, (lo, hi) in zip(patch.names, patch.intervals)}
    mid.update({p: 1.0 for p in patch.params})

    def fz_only(z):
        env = dict(mid)
        env[zname] = z
        return tree_eval(bform.f, env)

    zs = np.linspace(a, b, n_samples, endpoint=period is None)
    vals = np.array([fz_only(z) for z in zs])
    roots = []
    for i in range(len(zs) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if v0 == 0.0:
            roots.append(zs[i])
        elif v0 * v1 < 0:
            roots.append(brentq(fz_only, zs[i], zs[i + 1]))
    if period is None:
        if vals[-1] == 0.0:
            roots.append(zs[-1])
    else:
        if vals[-1] == 0.0:
            roots.append(zs[-1])
        elif vals[-1] * vals[0] < 0:
            roots.append(brentq(fz_only, zs[-1], b))
        roots = [a + (r - a) % period for r in roots]
    absvals = np.abs(vals)
    scale = max(float(absvals.max()), 1.0)
    for i in range(1, len(zs) - 1):
        if (absvals[i] <= absvals[i - 1] and absvals[i] <= absvals[i + 1]
                and absvals[i] < 1e-5 * scale
                and not any(abs(zs[i] - r) < 2 * (zs[1] - zs[0]) for r in roots)):
            raise GeometryError(
                f"degenerate zero of the defining function near "
                f"{zname}={zs[i]:.6g}")

    def snap_near_rational(r):
        q = Fraction(r).limit_denominator(10 ** 6)
        if abs(float(q) - r) < 1e-9 and abs(fz_only(float(q))) < 1e-9:
            return float(q)
        return r

    if snap:
        roots = [snap_near_rational(r) for r in roots]
    out = []
    dfdz = diff_expr(bform.f, zname)
    for r in roots:
        if any(abs(r - q.value) < 1e-8 for q in out):
            continue
        env = dict(mid)
        env[zname] = r
        fz = tree_eval(dfdz, env)
        if abs(fz) < 1e-8:
            raise GeometryError(
                f"degenerate zero of the defining function at {zname}={r:.6g}")
        out.append(ZComponent(zname, float(r)))
    return sorted(out, key=lambda c: c.value)


class TestZComponentsAgainstScalar:
    """find_z_components on tapes with the batched bracket solver, against
    the scalar scan and brentq it replaced, on seeded b-forms."""

    GRID = Patch(("x", "y"), ((-1.0, 1.0), (-1023.0, 1024.0)))  # integer scan
    CIRCLE = Patch(("x", "t"), ((-1.0, 1.0), (0.0, TAU)), periods=(None, TAU))
    WITH_A = Patch(("x", "y"), ((-2.0, 2.0), (-2.0, 2.0)), params=("a",))

    @staticmethod
    def bform(patch, f_text):
        x, z = patch.names
        return BForm(patch, 2, SmoothForm(patch, 1, {(x,): 1}),
                     SmoothForm(patch, 2, {}), parse_expr(f_text, patch), z)

    @staticmethod
    def seeded_texts(seed):
        rng = np.random.default_rng(seed)
        r = [float(v) for v in np.sort(rng.uniform(-1.9, 1.9, 3))]
        c = float(rng.uniform(0.5, 2.0))
        k, p = int(rng.integers(1, 4)), float(rng.uniform(0.0, TAU))
        return [
            ("plane", f"(y - {r[0]!r})*(y - {r[1]!r})*(y - {r[2]!r})"
                      f"*({c!r} + x^2)"),
            ("plane", f"exp(y) - {c!r} + x*y"),
            ("circle", f"sin({k}*t + {p!r}) + x"),
            ("circle", f"{c!r}*cos(t - {p!r})^3 - {c!r}/8"),
            ("with_a", f"a*y^3 - {c!r}*y + a*{r[1]!r}"),
        ]

    FIXED = [
        ("grid", "y"),                            # roots on scan points
        ("grid", "(y - 5)*(y + 300)"),
        ("circle", "sin(t - 6.282185307179586)"),  # a root in the wrap bracket
        ("circle", "sin(t)"),                     # a root at the period's end
        ("plane", "3*y - 1"),                     # snapped to 1/3
        ("plane", "y^2 - 2"),                     # unsnapped +-sqrt(2)
        ("plane", "(y - 0.3)^2"),                 # tangential zero
        ("plane", "(y - 0.3)^3"),                 # degenerate zero at a root
        ("plane", "4 + y"),                       # no zero
        ("with_a", "a*y - 1/2"),
    ]

    def patch(self, name):
        return {"plane": PLANE, "grid": self.GRID, "circle": self.CIRCLE,
                "with_a": self.WITH_A}[name]

    @staticmethod
    def exact_root(w, value):
        """Whether value is a rational q of denominator at most 1000 at which
        f is exactly 0, with the other coordinates at their midpoints and
        the parameters at 1, as both scans probe it."""
        patch = w.patch
        q = Fraction(value).limit_denominator(1000)
        at = {n: Fraction(0.5 * (lo + hi))
              for n, (lo, hi) in zip(patch.names, patch.intervals)}
        at.update({p: 1 for p in patch.params})
        at[w.zname] = q
        return float(q) == value and se.is_zero(se.substitute(w.f, at))

    def assert_agree(self, patch_name, f_text, monkeypatch):
        w = self.bform(self.patch(patch_name), f_text)
        try:
            want = scalar_find_z_components(w)
        except GeometryError as exc:
            with pytest.raises(GeometryError) as info:
                find_z_components(w)
            assert str(info.value) == str(exc)
            return
        got = find_z_components(w)
        assert len(got) == len(want)
        # both solve to brentq's xtol 2e-12 and rtol 4 eps; the snap to a
        # rational of denominator up to 10^6 may pick two different
        # convergents of one irrational root from two roots that differ in
        # their last bits (6.7e-12 apart on test_seeded[6])
        tol = [2 * (2e-12 + _RTOL * abs(c.value)) for c in want]
        for g, c in zip(got, want):
            if self.exact_root(w, c.value):
                assert g.value == c.value
            else:
                assert abs(g.value - c.value) < 1e-11
        with monkeypatch.context() as m:
            m.setattr(forms, "_near_rational", lambda r: None)
            got = find_z_components(w)
        want = scalar_find_z_components(w, snap=False)
        assert len(got) == len(want)
        for g, c, t in zip(got, want, tol):
            assert abs(g.value - c.value) <= t

    @pytest.mark.parametrize("patch_name,f_text", FIXED)
    def test_fixed(self, patch_name, f_text, monkeypatch):
        self.assert_agree(patch_name, f_text, monkeypatch)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded(self, seed, monkeypatch):
        for patch_name, f_text in self.seeded_texts(seed):
            self.assert_agree(patch_name, f_text, monkeypatch)


class TestRootSnap:
    """A root moves to a nearby rational only where f is no further from 0
    than at the root itself."""

    bform = staticmethod(TestZComponentsAgainstScalar.bform)

    def test_seeded_cubic_keeps_its_root(self):
        # the snap used to move a root of this cubic 2.75e-12 from its true
        # root, past the solver's xtol of 2e-12
        rng = np.random.default_rng(3)
        r = [float(v) for v in np.sort(rng.uniform(-1.9, 1.9, 3))]
        ((_, f_text), *_) = TestZComponentsAgainstScalar.seeded_texts(3)
        got = [c.value for c in find_z_components(self.bform(PLANE, f_text))]
        assert len(got) == 3
        for g, root in zip(got, r):
            assert abs(g - root) <= 2e-12 + _RTOL * abs(g)

    @pytest.mark.parametrize("f_text,want", [("3*y - 1", 1 / 3),
                                             ("y", 0.0),
                                             ("y - 1/2", 0.5)])
    def test_rational_roots_snap(self, f_text, want):
        (comp,) = find_z_components(self.bform(PLANE, f_text))
        assert comp.value == want


class TestRestriction:
    def test_affine_pair(self):
        pairs = restrict_to_Z(affine_bform())
        (pair,) = pairs
        assert pair.alpha_tilde.coefficient("x") == Num(Fraction(1))
        assert pair.beta_tilde.is_zero()

    def test_orientation_of_fz(self):
        # f = -y flips df/dz, so the intrinsic part flips sign with it
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {("x",): 1}),
                  SmoothForm(PLANE, 2, {}), parse_expr("-y", PLANE), "y")
        (pair,) = restrict_to_Z(w)
        assert pair.alpha_tilde.coefficient("x") == Num(Fraction(-1))

    def test_alpha_tilde_invariant_under_rescaling(self):
        w = standard_r4()
        comps = find_z_components(w)
        base = restrict_to_Z(w, comps)
        h = parse_expr("1 + x1^2/8 + x2^2/8", R4)
        scaled = restrict_to_Z(w.with_defining_function(h), comps)
        for p1, p2 in zip(base, scaled):
            assert form_equiv(p1.alpha_tilde, p2.alpha_tilde)

    def test_beta_tilde_covariance(self):
        # beta~' = beta~ - alpha~ ^ d(log h)|_Z under f -> f h
        w = standard_r4()
        comps = find_z_components(w)
        h = parse_expr("1 + x2^2/8", R4)
        (base,) = restrict_to_Z(w, comps)
        (scaled,) = restrict_to_Z(w.with_defining_function(h), comps)
        logh = SmoothForm(R4, 0, {(): parse_expr("log(1 + x2^2/8)", R4)})
        dlogh_z = pullback_to_level(d_smooth(logh), "y1", 0.0)
        want = base.beta_tilde - wedge(base.alpha_tilde, dlogh_z)
        assert form_equiv(scaled.beta_tilde, want)


class TestSmoothness:
    def test_genuinely_singular(self):
        assert smooth_equivalent(affine_bform()) is None

    def test_disguised_smooth_with_equivalent(self):
        # y dx ^ dy / y is just dx ^ dy
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {("x",): sym("y")}),
                  SmoothForm(PLANE, 2, {}), sym("y"), "y")
        eq = smooth_equivalent(w)
        assert eq.coefficient("x", "y") == Num(Fraction(1))

    def test_smooth_without_exact_quotient(self):
        # sin(y) dx ^ dy / y is smooth but not a polynomial quotient, so
        # it has no exact smooth equivalent
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {("x",): parse_expr("sin(y)", PLANE)}),
                  SmoothForm(PLANE, 2, {}), sym("y"), "y")
        assert smooth_equivalent(w) is None


class TestNondegeneracy:
    def test_standard_r4(self):
        verdict, detail = nondegeneracy_check(standard_r4())
        assert verdict == "nonvanishing-symbolic"
        assert detail["min_abs"] == pytest.approx(2.0)

    def test_smooth_form_degenerates_as_bform(self):
        # dx ^ dy viewed with defining function y: f*omega = y dx^dy
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {}),
                  SmoothForm(PLANE, 2, {("x", "y"): 1}), sym("y"), "y")
        verdict, detail = nondegeneracy_check(w, grid=33)
        assert verdict == "degenerate"

    def test_torus_form(self):
        # dt1 ^ d(sin t4)/sin(t4)-type structure with beta = dt2 ^ dt3
        a = SmoothForm(T4, 1, {("t1",): 1})
        b = SmoothForm(T4, 2, {("t2", "t3"): 1})
        w = BForm(T4, 2, a, b, parse_expr("sin(t4)", T4), "t4")
        c = top_coefficient(w)
        verdict, detail = nondegeneracy_check(w, grid=12)
        assert verdict.startswith("nonvanishing")
        assert abs(detail["min_abs"]) == pytest.approx(2.0)


# a 4-D patch with a declared parameter; x and u take the sample 0.0 on an
# odd grid, where 1/x and 1/u have poles
SCAN4 = Patch(("x", "y", "u", "v"), ((-1.0, 1.0), (-1.0, 2.0), (-1.0, 1.0),
                                     (0.0, TAU)),
              periods=(None, None, None, TAU), params=("a",))
# terms of one coordinate ({v}) or of none; 1/{v} has a pole at the
# sample 0.0, and log({v} + 1/2) is nan below -1/2
SCAN_TERMS = ["{c}*{v}", "{v}^2", "sin({c}*{v})", "cos({v})*a", "exp({v}/2)",
              "{c}/(2 + {v}^2)", "1/{v}", "log({v} + 1/2)", "a*{c}", "{c}"]


def scan_case(seed):
    """A seeded expression over SCAN4 that reads none, some or all of its
    coordinates, and the axes of the grid to scan it on: the patch grid of
    one block, or of several (more than symexpr.GRID_BLOCK points)."""
    rng = np.random.default_rng(seed)
    k = seed % 5   # how many coordinates the expression reads
    names = [str(v) for v in rng.permutation(SCAN4.names)[:k]]
    terms = []
    for name in names:
        for _ in range(int(rng.integers(1, 3))):
            text = str(rng.choice(SCAN_TERMS))
            terms.append(text.format(v=name,
                                     c=int(rng.integers(-3, 4)) / 2 or 1))
    if not terms or rng.random() < 0.5:
        terms.append(str(rng.choice(["a", "2 - a/4", "1/(a + 1)"])))
    grid = (5, 9, 17, 21)[seed % 4]
    return parse_expr(" + ".join(terms), SCAN4), SCAN4.axis_grid(grid)


def outcome(scan, expr, axes):
    """(min, max) of a scan of expr on SCAN4, or the text of the
    EvalDomainError it raised."""
    try:
        return repr(scan(expr, SCAN4, axes))
    except se.EvalDomainError as exc:
        return "EvalDomainError: %s" % exc


class TestChartScan:
    """forms._chart_range samples a coordinate that the expression does
    not read once, and gives what the full-grid scan gives."""

    @pytest.mark.parametrize("seed", range(40))
    def test_against_full_grid(self, seed):
        expr, axes = scan_case(seed)
        assert (outcome(forms._chart_range, expr, axes)
                == outcome(full_grid_range, expr, axes)), str(expr)

    def test_cases_read_none_some_and_all(self):
        read = {len(se.free_symbols(scan_case(seed)[0]) - {"a"})
                for seed in range(40)}
        assert read == {0, 1, 2, 3, 4}

    def test_non_finite_cases(self):
        # the cases hit a pole (inf) and a log of a negative (nan)
        texts = [outcome(forms._chart_range, *scan_case(seed))
                 for seed in range(40)]
        raised = [t for t in texts if t.startswith("EvalDomainError")]
        assert any("nan" in t for t in raised)
        assert any("inf" in t for t in raised)

    def test_unread_axes_sampled_once(self, monkeypatch):
        # the top coefficient of the symbolic workload's check reads y
        # alone: 37 points at grid 64, where the full grid has 37^4
        counts = []
        real = forms.evaluate_tape

        def counted(tape, pts):
            counts.append(len(pts))
            return real(tape, pts)

        monkeypatch.setattr(forms, "evaluate_tape", counted)
        patch = Patch(("x", "y", "u", "v"), ((-1.0, 1.0),) * 4)
        vmin, n = forms._grid_min_abs(parse_expr("2 - 4/5*y^2", patch),
                                      patch, 64)
        assert (n, sum(counts)) == (37, 37)
        assert vmin == 2 - 4 / 5


class TestBuildsOnlyWhatItReads:
    def test_wedge_skips_repeated_indices(self, monkeypatch):
        # of the 36 key pairs of two full 2-forms on a 4-D patch, only the
        # 6 with disjoint keys wedge to something that is not zero
        calls = []
        real = forms.mul
        monkeypatch.setattr(forms, "mul",
                            lambda *a: calls.append(a) or real(*a))
        full = SmoothForm(R4, 2, {(i, j): sym("x1") for i in range(4)
                                  for j in range(i + 1, 4)})
        w = wedge(full, full)
        assert len(calls) == 6
        assert w.coefficient(0, 1, 2, 3) == mul(Num(Fraction(2)),
                                                sym("x1"), sym("x1"))

    def test_restriction_substitutes_each_coefficient_once(self, monkeypatch):
        # f = y1 (1 + x1^2 + x2^2) gives kappa components along x1 and x2:
        # one substitution for df/dz on Z, one per alpha coefficient and
        # per beta coefficient without dy1, and two per kappa component
        # (the test that df/dx_i vanishes on Z, and the coefficient itself)
        calls = []
        real = forms.substitute
        monkeypatch.setattr(forms, "substitute",
                            lambda *a: calls.append(a) or real(*a))
        f = parse_expr("y1*(1 + x1^2 + x2^2)", R4)
        alpha = SmoothForm(R4, 1, {("x1",): sym("y2"), ("x2",): ONE,
                                   ("y2",): sym("x1")})
        beta = SmoothForm(R4, 2, {("x2", "y2"): ONE, ("x1", "y1"): sym("y1")})
        w = BForm(R4, 2, alpha, beta, f, "y1")
        (pair,) = restrict_to_Z(w, [ZComponent("y1", 0.0)])
        assert len(calls) == 1 + 3 + 1 + 2 * 2
        assert pair.alpha_tilde.coefficient("x2") == se.div(
            ONE, diff_expr(f, "y1"))

    def test_b_matrix_is_upper_and_nonzero(self):
        w = BForm(R4, 2, SmoothForm(R4, 1, {("x1",): ONE, ("y2",): sym("x2")}),
                  SmoothForm(R4, 2, {("x2", "y2"): ONE}), sym("y1"), "y1")
        # the zero entries (0, 2), (0, 3), (1, 2) and every (j, i) are absent
        assert b_matrix(w) == {(0, 1): ONE, (1, 3): se.neg(sym("x2")),
                               (2, 3): ONE}


class TestDuality:
    def test_affine_pair(self):
        pi = dualize(affine_bform())
        cc = pi.coordinate_components()
        assert expr_equiv(cc[(0, 1)], sym("y"), PLANE)

    def test_standard_r4_pair(self):
        pi = dualize(standard_r4())
        cc = pi.coordinate_components()
        assert expr_equiv(cc[(0, 1)], sym("y1"), R4)
        assert cc[(2, 3)] == Num(Fraction(1))

    def test_round_trip_symbolic(self):
        for w in (affine_bform(), standard_r4()):
            back = bivector_to_bform(dualize(w))
            assert bform_equiv(w, back)

    def test_round_trip_numeric_tolerance(self):
        # perturbed structure: round trip agrees pointwise to 1e-10
        beta = SmoothForm(R4, 2, {("x2", "y2"): parse_expr("1 + x1^2/4", R4),
                                   ("x1", "x2"): parse_expr("y2/8", R4)})
        w = BForm(R4, 2, SmoothForm(R4, 1, {("x1",): parse_expr("1 + y2^2/9", R4)}),
                  beta, sym("y1"), "y1")
        back = bivector_to_bform(dualize(w))
        rng = np.random.default_rng(5)
        for _ in range(25):
            pt = R4.random_point(rng)
            for i in range(4):
                for j in range(i + 1, 4):
                    v1 = eval_expr(w.b_coefficient(i, j), pt)
                    v2 = eval_expr(back.b_coefficient(i, j), pt)
                    assert abs(v1 - v2) < 1e-10

    def test_degenerate_rejected(self):
        w = BForm(PLANE, 2, SmoothForm(PLANE, 1, {}),
                  SmoothForm(PLANE, 2, {}), sym("y"), "y")
        with pytest.raises(GeometryError):
            dualize(w)


def _random_entry(rng, rational):
    """c0 + c1*x + c2*y, over 1 + x^2 when rational."""
    cs = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
          for _ in range(3)]
    e = se.add(Num(cs[0]), se.mul(Num(cs[1]), sym("x")),
               se.mul(Num(cs[2]), sym("y")))
    if rational:
        e = se.div(e, se.add(Num(Fraction(1)), se.powr(sym("x"), 2)))
    return e


def _random_matrix(rng, n, rational):
    # a constant diagonal shift keeps the seeded matrices invertible
    return [[se.add(_random_entry(rng, rational),
                    Num(Fraction(5 if i == j else 0)))
             for j in range(n)] for i in range(n)]


class TestInverseKernel:
    """_inverse_expr works on the exact (numerator, denominator) views of
    bgeo._poly; M * M^-1 must be the identity exactly."""

    @pytest.mark.parametrize("n, rational", [(2, False), (2, True),
                                             (4, False)])
    def test_product_is_identity(self, n, rational):
        rng = np.random.default_rng(40 + n + rational)
        for _ in range(6 if n == 2 else 2):
            M = _random_matrix(rng, n, rational)
            Minv = _inverse_expr(M)
            # symbolically, on the kernel's views over one atom index
            views, atoms = se._to_ratpoly([e for row in M + Minv
                                           for e in row])
            A = [views[i * n:(i + 1) * n] for i in range(n)]
            B = [views[(n + i) * n:(n + i + 1) * n] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    acc = ({}, poly_const(Fraction(1), len(atoms)))
                    for k in range(n):
                        acc = rat_add(acc, rat_mul(A[i][k], B[k][j]))
                    assert poly_quotient(*acc) == \
                        poly_const(Fraction(int(i == j)), len(atoms))
            # and at seeded rational points, by exact constant folding
            for _ in range(3):
                pt = {"x": Fraction(int(rng.integers(-9, 10)), 7),
                      "y": Fraction(int(rng.integers(-9, 10)), 5)}
                a = [[se.substitute(e, pt).value for e in row] for row in M]
                b = [[se.substitute(e, pt).value for e in row]
                     for row in Minv]
                for i in range(n):
                    for j in range(n):
                        assert sum(a[i][k] * b[k][j] for k in range(n)) \
                            == int(i == j)

    def test_float_entry_rejected(self):
        M = [[Num(2.5), sym("x")], [se.neg(sym("x")), Num(Fraction(1))]]
        with pytest.raises(GeometryError, match="no exact rational view"):
            _inverse_expr(M)

    def test_singular_rejected(self):
        M = [[sym("x"), sym("y")], [se.mul(Num(Fraction(2)), sym("x")),
                                    se.mul(Num(Fraction(2)), sym("y"))]]
        with pytest.raises(GeometryError, match="singular"):
            _inverse_expr(M)
