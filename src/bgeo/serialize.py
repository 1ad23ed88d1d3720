"""JSON schemas for patches, forms, surfaces, and hypersurface data.

All documents carry a "schema": "bgeo/1" tag.  Expressions are stored as
grammar strings; component keys of forms are comma-joined coordinate
indices ("0,2" for dx0^dx2).  A b-form document additionally records which
coordinate is the singular one ("zcoord"), since the pair (alpha, beta)
only has meaning relative to it.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

from .forms import BForm, SmoothForm
from .surface2d import SurfaceStructure, make_surface
from .symexpr import Patch, parse_expr, substitute, to_string

SCHEMA = "bgeo/1"


class SchemaError(ValueError):
    pass


# --- typed reads -------------------------------------------------------------

_MISSING = object()


def _is_number(v):
    """A JSON number with a finite float value (a boolean is not one)."""
    try:
        return not isinstance(v, bool) and math.isfinite(v)
    except (TypeError, OverflowError):
        return False


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str)


def _is_object(v):
    return isinstance(v, dict)


def _is_names(v):
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def _is_intervals(v):
    return isinstance(v, list) and all(
        isinstance(iv, list) and len(iv) == 2 and all(map(_is_number, iv))
        for iv in v)


def _is_periods(v):
    return v is None or isinstance(v, list) and all(
        p is None or _is_number(p) for p in v)


def _is_values(v):
    return isinstance(v, dict) and all(map(_is_number, v.values()))


def _read(doc, key, ok=None, what=None, default=_MISSING):
    """doc[key], or default when the field is absent.  A SchemaError names
    the field when it is absent without a default, or when ok rejects its
    value; expressions are checked by parse_expr, not here."""
    if key not in doc:
        if default is _MISSING:
            raise SchemaError("missing field %r" % key)
        return default
    value = doc[key]
    if ok is not None and not ok(value):
        raise SchemaError("field %r must be %s, got %s"
                          % (key, what, type(value).__name__))
    return value


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
    if not _is_object(doc):
        raise SchemaError("field 'patch' must be an object, got %s"
                          % type(doc).__name__)
    # null or empty periods: no coordinate is periodic
    return Patch(_read(doc, "names", _is_names, "a list of strings"),
                 _read(doc, "intervals", _is_intervals,
                       "a list of pairs of finite numbers"),
                 periods=_read(doc, "periods", _is_periods,
                               "a list of finite numbers and nulls",
                               None) or None,
                 params=_read(doc, "params", _is_names, "a list of strings",
                              ()))


# --- forms -----------------------------------------------------------------

def _comps_to_dict(form: SmoothForm) -> dict:
    return {",".join(str(i) for i in key): to_string(c)
            for key, c in sorted(form.comps.items())}


def _comps_from_dict(patch, degree, doc, key, default=_MISSING) -> SmoothForm:
    """The form in field `key` of doc: an object from comma-joined indices
    to expressions."""
    comps = {}
    for idx, text in _read(doc, key, _is_object, "an object",
                           default).items():
        idx = tuple(int(s) for s in idx.split(",")) if idx else ()
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
    patch = patch_from_dict(_read(doc, "patch"))
    degree = _read(doc, "degree", _is_int, "an integer")
    if not 1 <= degree <= patch.dim:
        raise SchemaError("field 'degree' must be from 1 to %d, the patch "
                          "dimension, got %d" % (patch.dim, degree))
    return BForm(patch, degree,
                 _comps_from_dict(patch, degree - 1, doc, "alpha", {}),
                 _comps_from_dict(patch, degree, doc, "beta", {}),
                 parse_expr(_read(doc, "f"), patch),
                 _read(doc, "zcoord", _is_str, "a string"))


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
    return make_surface(_read(doc, "topology", _is_str, "a string"),
                        _read(doc, "P"), _read(doc, "V", default="1"),
                        _read(doc, "orientation", _is_int, "an integer", 1))


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
    patch = patch_from_dict(_read(doc, "patch"))
    subs = _read(doc, "params", _is_values, "an object of numbers", {})
    for name in subs:
        if name not in patch.params:
            raise SchemaError("params names %r, which the patch does not "
                              "declare" % name)
    forms = [_comps_from_dict(patch, 1, doc, "alpha"),
             _comps_from_dict(patch, 2, doc, "omega", {})]
    if subs:   # numbers replace the parameters they name
        subs = {k: float(v) for k, v in subs.items()}
        patch = replace(patch, params=tuple(p for p in patch.params
                                            if p not in subs))
        forms = [SmoothForm(patch, form.degree,
                            {k: substitute(c, subs)
                             for k, c in form.comps.items()})
                 for form in forms]
    return HypersurfaceData(patch, *forms)


# the readers and writers of the document kinds that `bgeo parse` takes
KINDS = {"surface": (surface_from_dict, surface_to_dict),
         "bform": (bform_from_dict, bform_to_dict),
         "zdata": (zdata_from_dict, zdata_to_dict)}


# --- helpers -----------------------------------------------------------------

def load(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise SchemaError("document nested too deeply") from None


def dumps_canonical(obj) -> str:
    """Deterministic serialization: sorted keys, fixed separators.  NaN and
    infinity are not JSON: a ValueError, never invalid output."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
