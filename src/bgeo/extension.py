"""Semilocal extension of corank-one hypersurface data.

Given an odd-dimensional manifold Z with a closed nowhere-vanishing
one-form alpha and a closed two-form omega whose combination
alpha ^ omega^(n-1) is a volume form, the product Z x (-eps, eps) carries
the singular symplectic model

    omega~ = p*alpha ^ dt/t + p*omega

with Z recovered as the zero set {t = 0} and (alpha, omega) as the
restriction data.  This module certifies the hypotheses and builds the
model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import symexpr as se
from .forms import (
    BForm,
    GeometryError,
    SmoothForm,
    _grid_min_abs,
    d_bform,
    d_smooth,
    form_equiv,
    nondegeneracy_check,
    restrict_to_Z,
    vanishes,
    wedge,
)
from .symexpr import Patch, num, parse_expr

ZERO = se.num(0)


@dataclass(frozen=True)
class HypersurfaceData:
    """Defining forms on an odd-dimensional hypersurface model."""
    patch: Patch
    alpha: SmoothForm
    omega: SmoothForm

    def __post_init__(self):
        if self.patch.dim % 2 == 0:
            raise ValueError("hypersurface patch must be odd-dimensional")
        if self.alpha.degree != 1 or self.omega.degree != 2:
            raise ValueError("expected a one-form and a two-form")
        if self.alpha.patch != self.patch or self.omega.patch != self.patch:
            raise ValueError("forms must live on the given patch")

    @property
    def n(self):
        return (self.patch.dim + 1) // 2


@dataclass(frozen=True)
class DefiningFormsReport:
    alpha_nonvanishing: bool
    alpha_closed: bool
    omega_closed: bool
    top_nonvanishing: bool
    detail: dict = field(default_factory=dict)

    @property
    def all_pass(self):
        return (self.alpha_nonvanishing and self.alpha_closed
                and self.omega_closed and self.top_nonvanishing)


def leaf_volume_form(data: HypersurfaceData) -> SmoothForm:
    """alpha ^ omega^(n-1), a top-degree form on the hypersurface."""
    power = data.alpha
    for _ in range(data.n - 1):
        power = wedge(power, data.omega)
    return power


def check_defining_forms(data: HypersurfaceData) -> DefiningFormsReport:
    """Verdicts for the four hypotheses of the extension construction, on
    grids of 32 points per axis where a coefficient is not constant."""
    patch = data.patch
    norm2 = se.add(*[se.mul(c, c) for c in data.alpha.comps.values()]) \
        if data.alpha.comps else ZERO
    detail = {}
    if isinstance(norm2, se.Num):
        alpha_nv = float(norm2.value) > 0
        detail["alpha_min_norm2"] = float(norm2.value)
    else:
        vmin, _ = _grid_min_abs(norm2, patch, 32)
        alpha_nv = vmin > 1e-12
        detail["alpha_min_norm2"] = vmin
    top = leaf_volume_form(data)
    c = top.coefficient(*patch.names) if top.comps else ZERO
    detail["top_coefficient"] = se.to_string(c)
    if isinstance(c, se.Num):
        top_nv = c.value != 0
    else:
        vmin, _ = _grid_min_abs(c, patch, 32)
        top_nv = vmin > 1e-12
        detail["top_min_abs"] = vmin
    return DefiningFormsReport(
        alpha_nonvanishing=alpha_nv,
        alpha_closed=vanishes(d_smooth(data.alpha)),
        omega_closed=vanishes(d_smooth(data.omega)),
        top_nonvanishing=top_nv,
        detail=detail)


@dataclass(frozen=True)
class ExtensionModel:
    patch: Patch
    bform: BForm
    data: HypersurfaceData
    provenance: dict = field(default_factory=dict)


def _lift_form(form, product):
    """Pull a form on Z back along the projection (same components; the new
    coordinate is appended last, so indices are unchanged)."""
    return SmoothForm(product, form.degree, dict(form.comps))


def build_extension(data: HypersurfaceData, eps=1.0, tname="t",
                    interval=None, period=None, f=None,
                    grid=24) -> ExtensionModel:
    """Singular symplectic model on the product of Z with a transverse
    interval.  By default the defining function is the new coordinate
    itself on (-eps, eps); a custom periodic coordinate and defining
    function (e.g. the sine of an angle) yield global variants with
    several hypersurface components.
    """
    report = check_defining_forms(data)
    if not report.all_pass:
        raise GeometryError("defining-form hypotheses fail: %r" % (report,))
    patch = data.patch
    if tname in patch.names:
        raise ValueError("coordinate name %r already in use" % tname)
    if interval is None:
        interval = (-float(eps), float(eps))
    product = patch.with_coordinate(tname, interval, period)
    f_expr = se.sym(tname) if f is None else se._coerce(f)
    omega_t = BForm(product, 2, _lift_form(data.alpha, product),
                    _lift_form(data.omega, product), f_expr, tname)

    provenance = {"defining_forms": report}
    # closedness of the model
    d = d_bform(omega_t)
    if not (vanishes(d.alpha) and vanishes(d.beta)):
        raise GeometryError("extension model is not closed")
    provenance["closed"] = True
    verdict, detail = nondegeneracy_check(omega_t, grid=grid)
    if verdict == "degenerate":
        raise GeometryError("extension model degenerates: %r" % (detail,))
    provenance["nondegeneracy"] = (verdict, detail)

    pairs = restrict_to_Z(omega_t)
    provenance["components"] = [p.component.value for p in pairs]
    if f is None:
        (pair,) = pairs
        ok = (form_equiv(pair.alpha_tilde, data.alpha)
              and form_equiv(pair.beta_tilde, data.omega))
        if not ok:
            raise GeometryError("restriction of the model does not return "
                                "the input data")
        provenance["restriction_returns_data"] = True
    return ExtensionModel(patch=product, bform=omega_t, data=data,
                          provenance=provenance)


# ---------------------------------------------------------------------------
# builtin hypersurface data


def torus3_data(a="a", b="b") -> HypersurfaceData:
    """Corank-one data on the 3-torus: the closed defining pair

        alpha = (a dθ1 + b dθ2 - dθ3) / (a^2 + b^2 + 1)
        omega = dθ1^dθ2 + b dθ1^dθ3 - a dθ2^dθ3

    satisfies alpha ^ omega = -dθ1^dθ2^dθ3 identically in the slopes."""
    two_pi = 2 * math.pi
    params = tuple(s for s in (a, b) if not _is_number(s))
    patch = Patch(("theta1", "theta2", "theta3"), ((0.0, two_pi),) * 3,
                  periods=(two_pi,) * 3, params=params)
    av = parse_expr(str(a), patch)
    bv = parse_expr(str(b), patch)
    den = se.add(se.mul(av, av), se.mul(bv, bv), num(1))
    alpha = SmoothForm(patch, 1, {
        ("theta1",): se.div(av, den),
        ("theta2",): se.div(bv, den),
        ("theta3",): se.div(num(-1), den),
    })
    omega = SmoothForm(patch, 2, {
        ("theta1", "theta2"): num(1),
        ("theta1", "theta3"): bv,
        ("theta2", "theta3"): se.neg(av),
    })
    return HypersurfaceData(patch, alpha, omega)


def _is_number(s):
    try:
        float(s)
        return True
    except (TypeError, ValueError):
        return False


def torus4_extension(a="a", b="b") -> ExtensionModel:
    """Global variant on the 4-torus: the transverse coordinate is an angle
    and the defining function sin(θ4) cuts out two copies of T^3."""
    data = torus3_data(a, b)
    two_pi = 2 * math.pi
    return build_extension(data, tname="theta4", interval=(0.0, two_pi),
                           period=two_pi,
                           f=parse_expr("sin(theta4)",
                                        data.patch.with_coordinate(
                                            "theta4", (0.0, two_pi), two_pi)))
