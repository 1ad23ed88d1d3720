"""Command-line front end.

Every subcommand reads JSON documents (schema "bgeo/1") and prints a single
deterministic JSON report to stdout.  Exit codes: 0 success; 1 a failed
verification, or an invalid document, expression or knob value (reported
as a JSON error); 2 a command-line usage error (from argparse) or a missing
input file; 3 any other failure, an internal error reported as a JSON
error with no traceback.  Reports embed the tolerances, grid sizes, and
seed that produced them (a grid size only where a grid was sampled), and
each subcommand accepts only the options it reads.  A --grid below 2 is a
JSON error (exit 1), and so is a tolerance (--tol, --tol-log,
--tol-residual, --tol-tangency) that is negative or not finite, or an
--eps that is not finite and positive.  A tensor grid is capped at
2,000,000 points: a larger --grid samples fewer points per axis, which
check always reports and darboux, invariants and classify report when the
cap lowered them (grid_per_axis).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from . import serialize as ser
from .cohomology import BettiData, b_betti, nonvanishing_witness, poisson_betti
from .forms import GeometryError, nondegeneracy_check, transversality_check
from .surface2d import classify_pair, extract_zero_set, modular_period, \
    regularized_volume
from .symexpr import ExprError, grid_per_axis, to_string


def _fail(msg, code=1):
    print(ser.dumps_canonical({"schema": ser.SCHEMA, "error": str(msg)}))
    return code


def _emit(doc):
    doc["schema"] = ser.SCHEMA
    print(ser.dumps_canonical(doc))
    return 0


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _surface_grid(doc, grid):
    """doc with the points per axis of a surface grid, when the cap lowered
    grid."""
    n = grid_per_axis(grid, 2)
    if n < grid:
        doc["grid_per_axis"] = n
    return doc


def _grid_config(grid, detail):
    """The grid knob, when a grid search decided nondegeneracy (a symbolic
    verdict samples no grid)."""
    return {"grid": grid} if "grid_per_axis" in detail else {}


# --- subcommand handlers ----------------------------------------------------

def cmd_parse(args):
    doc = ser.load(args.input)
    ser.check_schema(doc)
    kind = doc.get("kind")
    if kind == "surface":
        S = ser.surface_from_dict(doc)
        out = ser.surface_to_dict(S)
    elif kind == "bform":
        out = ser.bform_to_dict(ser.bform_from_dict(doc))
    elif kind == "zdata":
        out = ser.zdata_to_dict(ser.zdata_from_dict(doc))
    else:
        raise ser.SchemaError("unknown document kind %r" % kind)
    return _emit({"kind": kind, "ok": True, "normalized": out})


def cmd_check(args):
    bform = ser.bform_from_dict(ser.load(args.input))
    comps = transversality_check(bform)
    verdict, detail = nondegeneracy_check(bform, grid=args.grid)
    doc = {
        "transversal": True,
        "components": [{"coordinate": c.zname, "value": c.value}
                       for c in comps],
        "nondegeneracy": verdict,
        "detail": {k: (float(v) if isinstance(v, (int, float)) else str(v))
                   for k, v in detail.items()},
        "config": _grid_config(args.grid, detail),
    }
    code = 0 if verdict != "degenerate" else 1
    _emit(doc)
    return code


def cmd_invariants(args):
    S = ser.surface_from_dict(ser.load(args.input))
    curves = extract_zero_set(S, grid=args.grid)
    if not curves:
        return _fail("defining function has no zeros: not a b-Poisson "
                     "structure on this surface")
    periods = sorted(modular_period(S, c) for c in curves)
    vol, logc, series = regularized_volume(S, grid=args.grid,
                                           tau_log=args.tol_log,
                                           return_series=True)
    if args.emit_plot:
        _write_csv(args.emit_plot, ("eps", "volume"), series)
    return _emit(_surface_grid({
        "n": len(curves),
        "periods": [float(p) for p in periods],
        "volume": float(vol),
        "log_coefficient": float(logc),
        "config": {"grid": args.grid, "tol_log": args.tol_log},
    }, args.grid))


def cmd_classify(args):
    S1 = ser.surface_from_dict(ser.load(args.input))
    S2 = ser.surface_from_dict(ser.load(args.other))
    verdict, witness, r1, r2 = classify_pair(S1, S2, tol=args.tol,
                                             grid=args.grid)
    _emit(_surface_grid({
        "verdict": verdict,
        "witness": witness,
        "invariants": [
            {"n": r.n, "periods": [float(p) for p in r.periods],
             "volume": float(r.volume)} for r in (r1, r2)],
        "config": {"grid": args.grid, "tol": args.tol},
    }, args.grid))
    return 0 if verdict == "invariant-equivalent" else 1


def _parse_int_list(text):
    return [int(s) for s in text.split(",") if s != ""]


def cmd_cohomology(args):
    if args.surface:
        g, n = _parse_int_list(args.surface)
        data = BettiData(2, (1, 2 * g, 1), tuple((1, 1) for _ in range(n)))
    elif args.betti_m:
        bm = _parse_int_list(args.betti_m)
        comps = tuple(tuple(_parse_int_list(part))
                      for part in (args.betti_z or "").split(";") if part)
        data = BettiData(len(bm) - 1, tuple(bm), comps)
    else:
        raise ser.SchemaError("need --surface g,n or --betti-m/--betti-z")
    witness = nonvanishing_witness(data)
    return _emit({
        "b_betti": b_betti(data),
        "poisson_betti": poisson_betti(data),
        "consistent": witness.consistent,
        "reasons": list(witness.reasons),
    })


def cmd_darboux(args):
    from .normalform import darboux_verify
    bform = ser.bform_from_dict(ser.load(args.input))
    rep = darboux_verify(bform, grid=args.grid, seed=args.seed)
    doc = {
        "ok": rep.ok,
        "max_residual": float(rep.max_residual),
        "config": {"grid": args.grid, "seed": args.seed},
    }
    if rep.change is not None:
        doc["forward"] = [to_string(e) for e in rep.change.forward]
        doc["jacobian_det"] = to_string(rep.change.jacobian_det)
        doc["target_names"] = list(rep.change.target.names)
        if rep.change.grid_per_axis is not None:
            doc["grid_per_axis"] = rep.change.grid_per_axis
    _emit(doc)
    return 0 if rep.ok else 1


def cmd_moser(args):
    from .normalform import moser_relative_verify
    if args.steps < 1:
        raise ValueError("--steps must be at least 1, got %d" % args.steps)
    w0 = ser.bform_from_dict(ser.load(args.input))
    w1 = ser.bform_from_dict(ser.load(args.other))
    rep = moser_relative_verify(w0, w1, n_points=args.points,
                                rk_step=Fraction(1, args.steps))
    if args.emit_plot:
        rows = [tuple(p) + (r,)
                for p, r in zip(rep.sample_points, rep.residuals)]
        _write_csv(args.emit_plot, w0.patch.names + ("residual",), rows)
    ok = (rep.max_residual < args.tol_residual
          and rep.v_on_Z_max < args.tol_tangency)
    _emit({
        "ok": ok,
        "max_residual": float(rep.max_residual),
        "vfield_on_Z_max": float(rep.v_on_Z_max),
        "collar_halvings": rep.collar_halvings,
        "collar_radius": float(rep.collar_radius),
        "steps": rep.steps,
        "config": {"points": args.points, "steps": args.steps,
                   "tol_residual": args.tol_residual,
                   "tol_tangency": args.tol_tangency},
    })
    return 0 if ok else 1


def cmd_extend(args):
    from .extension import build_extension, check_defining_forms
    data = ser.zdata_from_dict(ser.load(args.input))
    report = check_defining_forms(data)
    doc = {
        "defining_forms": {
            "alpha_nonvanishing": report.alpha_nonvanishing,
            "alpha_closed": report.alpha_closed,
            "omega_closed": report.omega_closed,
            "top_nonvanishing": report.top_nonvanishing,
        },
        "config": {"eps": args.eps},
    }
    if not report.all_pass:
        doc["ok"] = False
        _emit(doc)
        return 1
    model = build_extension(data, eps=args.eps, grid=args.grid)
    verdict, detail = model.provenance["nondegeneracy"]
    doc["ok"] = True
    doc["nondegeneracy"] = verdict
    doc["config"].update(_grid_config(args.grid, detail))
    doc["components"] = [float(v) for v in model.provenance["components"]]
    doc["model"] = ser.bform_to_dict(model.bform)
    _emit(doc)
    return 0


# --- argument parsing ---------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="bgeo",
        description="symbolic/numerical toolkit for singular (b-)symplectic "
                    "structures on coordinate patches")
    sub = p.add_subparsers(dest="command", required=True)

    def grid(sp, default=64):
        sp.add_argument("--grid", type=int, default=default)

    sp = sub.add_parser("parse", help="validate and normalize a document")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("check", help="transversality and nondegeneracy of "
                                      "a b-form document")
    sp.add_argument("input")
    grid(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("invariants", help="curve count, periods, and "
                                           "regularized volume of a surface")
    sp.add_argument("input")
    sp.add_argument("--tol-log", type=float, default=1e-4)
    grid(sp)
    sp.add_argument("--emit-plot", metavar="CSV", default=None)
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("classify", help="compare the invariants of two "
                                         "surface structures")
    sp.add_argument("input")
    sp.add_argument("other")
    sp.add_argument("--tol", type=float, default=1e-4)
    grid(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("cohomology", help="Betti arithmetic of the "
                                           "splitting")
    sp.add_argument("--surface", metavar="G,N", default=None)
    sp.add_argument("--betti-m", metavar="B0,B1,...", default=None)
    sp.add_argument("--betti-z", metavar="B0,...;B0,...", default=None)
    sp.set_defaults(fn=cmd_cohomology)

    sp = sub.add_parser("darboux", help="flatten/verify a 2-D singular form")
    sp.add_argument("input")
    grid(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_darboux)

    sp = sub.add_parser("moser", help="flow verification for two forms with "
                                      "equal restriction data")
    sp.add_argument("input")
    sp.add_argument("other")
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--steps", type=int, default=256)
    sp.add_argument("--tol-residual", type=float, default=1e-5)
    sp.add_argument("--tol-tangency", type=float, default=1e-8)
    sp.add_argument("--emit-plot", metavar="CSV", default=None)
    sp.set_defaults(fn=cmd_moser)

    sp = sub.add_parser("extend", help="build the product extension of "
                                       "hypersurface data")
    sp.add_argument("input")
    sp.add_argument("--eps", type=float, default=1.0)
    grid(sp, default=24)
    sp.set_defaults(fn=cmd_extend)
    return p


def _knob_error(args):
    """Why a knob of args is out of range, or None."""
    # a grid needs two samples per axis to bracket anything
    if getattr(args, "grid", 2) < 2:
        return "--grid must be at least 2, got %d" % args.grid
    for name in ("tol", "tol_log", "tol_residual", "tol_tangency"):
        value = getattr(args, name, 0.0)
        if not (math.isfinite(value) and value >= 0):
            return "--%s must be finite and not negative, got %r" % (
                name.replace("_", "-"), value)
    eps = getattr(args, "eps", 1.0)
    if not (math.isfinite(eps) and eps > 0):
        return "--eps must be finite and positive, got %r" % eps
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _knob_error(args)
    if error:
        return _fail(error)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(ser.dumps_canonical({"schema": ser.SCHEMA,
                                   "error": str(exc)}))
        return 2
    # OverflowError: float() of an exact constant past the float range
    except (ser.SchemaError, GeometryError, ExprError, ValueError,
            OverflowError) as exc:
        return _fail(exc)
    except Exception as exc:  # last resort: a JSON error, not a traceback
        return _fail("internal error: %s: %s" % (type(exc).__name__, exc),
                     code=3)


if __name__ == "__main__":
    sys.exit(main())
