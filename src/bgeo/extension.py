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

from dataclasses import dataclass, field

from . import symexpr as se
from .forms import (
    BForm,
    GeometryError,
    SmoothForm,
    _grid_min_abs,
    d_smooth,
    form_equiv,
    nondegeneracy_check,
    restrict_to_Z,
    vanishes,
    wedge,
)
from .symexpr import Patch


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
    alpha = list(data.alpha.comps.values())
    # a sum of squares never changes sign: one component is screened itself,
    # its threshold on the square
    screened, power = ((alpha[0], 2) if len(alpha) == 1 else
                       (se.add(*[se.mul(c, c) for c in alpha]), 1))
    top = leaf_volume_form(data).coefficient(*patch.names)
    alpha_nv, top_nv = (
        e.value != 0 if isinstance(e, se.Num)
        else _grid_min_abs(e, patch, 32)[0] ** k > 1e-12
        for e, k in ((screened, power), (top, 1)))
    return DefiningFormsReport(
        alpha_nonvanishing=alpha_nv,
        alpha_closed=vanishes(d_smooth(data.alpha)),
        omega_closed=vanishes(d_smooth(data.omega)),
        top_nonvanishing=top_nv)


@dataclass(frozen=True)
class ExtensionModel:
    bform: BForm
    provenance: dict = field(default_factory=dict)


def _lift_form(form, product):
    """Pull a form on Z back along the projection (same components; the new
    coordinate is appended last, so indices are unchanged)."""
    return SmoothForm(product, form.degree, dict(form.comps))


def build_extension(data: HypersurfaceData, eps=1.0,
                    grid=24) -> ExtensionModel:
    """Singular symplectic model on the product of Z with the interval
    (-eps, eps) of a new last coordinate t, whose zero set {t = 0} is Z.

    The data must pass check_defining_forms, which the caller runs once
    (``bgeo extend`` reports its verdicts); this does not check it again,
    closedness included: d commutes with the lift, and d(dt/t) = 0.
    """
    patch = data.patch
    if "t" in patch.names:
        raise ValueError("coordinate name 't' already in use")
    product = patch.with_coordinate("t", (-float(eps), float(eps)))
    omega_t = BForm(product, 2, _lift_form(data.alpha, product),
                    _lift_form(data.omega, product), se.sym("t"), "t")

    verdict, detail = nondegeneracy_check(omega_t, grid=grid)
    if verdict == "degenerate":
        raise GeometryError("extension model degenerates: %r" % (detail,))
    provenance = {"nondegeneracy": (verdict, detail)}

    pairs = restrict_to_Z(omega_t)
    provenance["components"] = [p.component.value for p in pairs]
    (pair,) = pairs
    if not (form_equiv(pair.alpha_tilde, data.alpha)
            and form_equiv(pair.beta_tilde, data.omega)):
        raise GeometryError("restriction of the model does not return "
                            "the input data")
    return ExtensionModel(bform=omega_t, provenance=provenance)
