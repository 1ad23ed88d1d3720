"""JSON schemas for patches, forms, surfaces, and hypersurface data.

All documents carry a "schema": "bgeo/1" tag.  Expressions are stored as
grammar strings; component keys of forms are comma-joined coordinate
indices ("0,2" for dx0^dx2).  A b-form document additionally records which
coordinate is the singular one ("zcoord"), since the pair (alpha, beta)
only has meaning relative to it.
"""

from __future__ import annotations

import json

from .forms import BForm, SmoothForm
from .surface2d import SurfaceStructure, make_surface
from .symexpr import Patch, parse_expr, to_string

SCHEMA = "bgeo/1"


class SchemaError(ValueError):
    pass


def _require(doc, *keys):
    for k in keys:
        if k not in doc:
            raise SchemaError("missing field %r" % k)


def check_schema(doc):
    if not isinstance(doc, dict):
        raise SchemaError("a document must be a JSON object, got %s"
                          % type(doc).__name__)
    if doc.get("schema") != SCHEMA:
        raise SchemaError("expected schema %r, got %r"
                          % (SCHEMA, doc.get("schema")))


# --- patches ---------------------------------------------------------------

def patch_to_dict(patch: Patch) -> dict:
    return {
        "names": list(patch.names),
        "intervals": [list(iv) for iv in patch.intervals],
        "periods": list(patch.periods),
        "params": list(patch.params),
    }


def patch_from_dict(doc) -> Patch:
    _require(doc, "names", "intervals")
    return Patch(tuple(doc["names"]),
                 tuple(tuple(iv) for iv in doc["intervals"]),
                 periods=tuple(doc.get("periods") or
                               [None] * len(doc["names"])),
                 params=tuple(doc.get("params", ())))


# --- forms -----------------------------------------------------------------

def _comps_to_dict(form: SmoothForm) -> dict:
    return {",".join(str(i) for i in key): to_string(c)
            for key, c in sorted(form.comps.items())}


def _comps_from_dict(patch, degree, doc) -> SmoothForm:
    comps = {}
    for key, text in doc.items():
        idx = tuple(int(s) for s in key.split(",")) if key else ()
        comps[idx] = parse_expr(text, patch)
    return SmoothForm(patch, degree, comps)


def bform_to_dict(bform: BForm) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "bform",
        "patch": patch_to_dict(bform.patch),
        "degree": bform.degree,
        "f": to_string(bform.f),
        "zcoord": bform.zname,
        "alpha": _comps_to_dict(bform.alpha),
        "beta": _comps_to_dict(bform.beta),
    }


def bform_from_dict(doc) -> BForm:
    check_schema(doc)
    _require(doc, "patch", "degree", "f", "zcoord")
    patch = patch_from_dict(doc["patch"])
    degree = int(doc["degree"])
    alpha = _comps_from_dict(patch, degree - 1, doc.get("alpha", {}))
    beta = _comps_from_dict(patch, degree, doc.get("beta", {}))
    return BForm(patch, degree, alpha, beta,
                 parse_expr(doc["f"], patch), doc["zcoord"])


# --- surfaces ---------------------------------------------------------------

def surface_to_dict(S: SurfaceStructure) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "surface",
        "topology": S.topology,
        "P": to_string(S.P),
        "V": to_string(S.V),
        "orientation": S.orientation,
    }


def surface_from_dict(doc) -> SurfaceStructure:
    check_schema(doc)
    _require(doc, "topology", "P")
    return make_surface(doc["topology"], doc["P"], doc.get("V", "1"),
                        int(doc.get("orientation", 1)))


# --- hypersurface data -------------------------------------------------------

def zdata_to_dict(data) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "zdata",
        "patch": patch_to_dict(data.patch),
        "alpha": _comps_to_dict(data.alpha),
        "omega": _comps_to_dict(data.omega),
    }


def zdata_from_dict(doc):
    from .extension import HypersurfaceData
    check_schema(doc)
    _require(doc, "patch", "alpha")
    patch = patch_from_dict(doc["patch"])
    params = doc.get("params", {})
    if params:
        # numeric parameter values replace declared parameter symbols
        subs = {k: float(v) for k, v in params.items()}
        names = tuple(n for n in patch.params if n not in subs)
        patch = Patch(patch.names, patch.intervals, patch.periods, names)

        def build(degree, comps_doc):
            from .symexpr import substitute
            form = _comps_from_dict(
                Patch(patch.names, patch.intervals, patch.periods,
                      tuple(subs)), degree, comps_doc)
            return SmoothForm(patch, degree,
                              {k: substitute(c, subs)
                               for k, c in form.comps.items()})
        alpha = build(1, doc["alpha"])
        omega = build(2, doc.get("omega", {}))
    else:
        alpha = _comps_from_dict(patch, 1, doc["alpha"])
        omega = _comps_from_dict(patch, 2, doc.get("omega", {}))
    return HypersurfaceData(patch, alpha, omega)


# --- helpers -----------------------------------------------------------------

def load(path):
    with open(path) as fh:
        return json.load(fh)


def dumps_canonical(obj) -> str:
    """Deterministic serialization: sorted keys, fixed separators.  NaN and
    infinity are not JSON: a ValueError, never invalid output."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
