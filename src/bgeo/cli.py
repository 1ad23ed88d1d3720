"""Command-line front end.

Every subcommand reads JSON documents (schema "bgeo/1") and prints a single
deterministic JSON report to stdout.  Exit codes: 0 success; 1 a failed
verification, or an invalid document, expression or knob value (reported
as a JSON error); 2 a command-line usage error (from argparse), or a file
that cannot be opened, read or written (a missing input, a directory), as
a JSON error; 3 any other failure, an internal error reported as a JSON
error with no traceback.  Reports embed the tolerances, grid sizes, and
seed that produced them (a grid size only where a grid was sampled), and
each subcommand accepts only the options it reads.  Every knob has its
rule in KNOBS, checked before any document is read; a value that breaks
it is a JSON error (exit 1) naming the flag.  A tensor grid is capped at
2,000,000 points: a larger --grid samples fewer points per axis, which
check always reports and darboux, invariants and classify report when the
cap lowered them (grid_per_axis).  moser's --points and --steps are
charged against the flow budget of normalform._check_flow."""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

from . import serialize as ser
from .cohomology import BettiData, b_betti, nonvanishing_witness, poisson_betti
from .forms import GeometryError, nondegeneracy_check, transversality_check
from .surface2d import classify_pair, radko_invariants, \
    surface_poisson_cohomology
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
    if not isinstance(kind, str) or kind not in ser.KINDS:
        raise ser.SchemaError("unknown document kind %r" % (kind,))
    read, write = ser.KINDS[kind]
    return _emit({"kind": kind, "ok": True, "normalized": write(read(doc))})


def cmd_check(args):
    bform = ser.bform_from_dict(ser.load(args.input))
    comps = transversality_check(bform)
    verdict, detail = nondegeneracy_check(bform, grid=args.grid)
    doc = {
        "transversal": True,
        "components": [{"coordinate": c.zname, "value": c.value}
                       for c in comps],
        "nondegeneracy": verdict,
        "detail": detail,
        "config": _grid_config(args.grid, detail),
    }
    code = 0 if verdict != "degenerate" else 1
    _emit(doc)
    return code


def cmd_invariants(args):
    S = ser.surface_from_dict(ser.load(args.input))
    r = radko_invariants(S, grid=args.grid, tau_log=args.tol_log)
    if args.emit_plot:
        _write_csv(args.emit_plot, ("eps", "volume"), r.diagnostics["series"])
    return _emit(_surface_grid({
        "n": r.n,
        "periods": [float(p) for p in r.periods],
        "volume": float(r.volume),
        "log_coefficient": float(r.diagnostics["log_coefficient"]),
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
    return [int(s) for s in text.split(",")]


def cmd_cohomology(args):
    if args.surface:
        g, n = _parse_int_list(args.surface)
        # in closed form, so a huge n costs nothing: every curve has b_1 = 1
        # and b-H^2 has dimension n + 1, so the witness finds no reason
        betti = list(surface_poisson_cohomology(g, n))
        return _emit({"b_betti": betti, "poisson_betti": betti,
                      "consistent": True, "reasons": []})
    # BettiData warns about Betti numbers without Poincare symmetry; the
    # report lists the warnings, so stderr stays empty
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.betti_m:
            bm = _parse_int_list(args.betti_m)
            comps = tuple(tuple(_parse_int_list(part))
                          for part in (args.betti_z or "").split(";") if part)
            data = BettiData(len(bm) - 1, tuple(bm), comps)
        else:
            raise ser.SchemaError("need --surface g,n or --betti-m/--betti-z")
    witness = nonvanishing_witness(data)
    doc = {
        "b_betti": b_betti(data),
        "poisson_betti": poisson_betti(data),
        "consistent": witness.consistent,
        "reasons": list(witness.reasons),
    }
    if caught:
        doc["warnings"] = [str(w.message) for w in caught]
    return _emit(doc)


def cmd_darboux(args):
    from .normalform import darboux_verify
    bform = ser.bform_from_dict(ser.load(args.input))
    rep = darboux_verify(bform, grid=args.grid, seed=args.seed)
    doc = {
        "ok": rep.ok,
        "max_residual": float(rep.max_residual),
        "config": {"seed": args.seed},
    }
    if rep.change is not None:   # a 2-D patch, the only kind with a grid
        doc["forward"] = [to_string(e) for e in rep.change.forward]
        doc["jacobian_det"] = to_string(rep.change.jacobian_det)
        doc["target_names"] = list(rep.change.target.names)
        doc["config"]["grid"] = args.grid
        _surface_grid(doc, args.grid)
    _emit(doc)
    return 0 if rep.ok else 1


def cmd_moser(args):
    from .normalform import moser_relative_verify
    w0 = ser.bform_from_dict(ser.load(args.input))
    w1 = ser.bform_from_dict(ser.load(args.other))
    rep = moser_relative_verify(w0, w1, n_points=args.points,
                                n_steps=args.steps)
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

def _at_least(low):
    return (lambda v: v >= low), "at least %d" % low


def _matches(pattern, rule):
    return ((lambda v: re.fullmatch(pattern, v) is not None),
            rule + ", each of at most %d digits" % _DIGITS)


_NOT_NEGATIVE = (lambda v: math.isfinite(v) and v >= 0,
                 "finite and not negative")
# an entry, and any sum of fewer than 10^300 entries that a report prints,
# stays within Python's limit of 4,300 digits on int/str conversion
_DIGITS = 4000
_INT = r"\s*[+-]?\d{1,%d}\s*" % _DIGITS
_INTS = "%s(,%s)*" % (_INT, _INT)
# the rule of every knob, by argparse dest: a test of its value and what the
# error says the value must be (a grid needs two samples per axis to bracket
# anything; a list knob holds integers, and no empty entry)
KNOBS = {"grid": _at_least(2), "steps": _at_least(1), "points": _at_least(1),
         "seed": _at_least(0), "tol": _NOT_NEGATIVE, "tol_log": _NOT_NEGATIVE,
         "tol_residual": _NOT_NEGATIVE, "tol_tangency": _NOT_NEGATIVE,
         "eps": (lambda v: math.isfinite(v) and v > 0, "finite and positive"),
         "surface": _matches("%s,%s" % (_INT, _INT), "two integers G,N"),
         "betti_m": _matches(_INTS, "integers separated by commas"),
         "betti_z": _matches("%s(;%s)*" % (_INTS, _INTS),
                             "lists of integers separated by semicolons")}
METAVARS = {"surface": "G,N", "betti_m": "B0,B1,...",
            "betti_z": "B0,...;B0,...", "emit_plot": "CSV"}


def build_parser():
    p = argparse.ArgumentParser(
        prog="bgeo",
        description="symbolic/numerical toolkit for singular (b-)symplectic "
                    "structures on coordinate patches")
    sub = p.add_subparsers(dest="command", required=True)
    # each subcommand: its name, handler, documents, knobs with their
    # defaults (a knob's type is that of its default, str for None) and help
    for name, fn, docs, knobs, help_ in [
            ("parse", cmd_parse, ["input"], {},
             "validate and normalize a document"),
            ("check", cmd_check, ["input"], {"grid": 64},
             "transversality and nondegeneracy of a b-form document"),
            ("invariants", cmd_invariants, ["input"],
             {"tol_log": 1e-4, "grid": 64, "emit_plot": None},
             "curve count, periods, and regularized volume of a surface"),
            ("classify", cmd_classify, ["input", "other"],
             {"tol": 1e-4, "grid": 64},
             "compare the invariants of two surface structures"),
            ("cohomology", cmd_cohomology, [],
             {"surface": None, "betti_m": None, "betti_z": None},
             "Betti arithmetic of the splitting"),
            ("darboux", cmd_darboux, ["input"], {"grid": 64, "seed": 0},
             "flatten/verify a 2-D singular form"),
            ("moser", cmd_moser, ["input", "other"],
             {"points": 200, "steps": 256, "tol_residual": 1e-5,
              "tol_tangency": 1e-8, "emit_plot": None},
             "flow verification for two forms with equal restriction data"),
            ("extend", cmd_extend, ["input"], {"eps": 1.0, "grid": 24},
             "build the product extension of hypersurface data")]:
        sp = sub.add_parser(name, help=help_)
        for doc in docs:
            sp.add_argument(doc)
        for dest, default in knobs.items():
            sp.add_argument("--" + dest.replace("_", "-"), default=default,
                            type=None if default is None else type(default),
                            metavar=METAVARS.get(dest))
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, (ok, rule) in KNOBS.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            return _fail("--%s must be %s, got %r" % (dest.replace("_", "-"),
                                                      rule, value))
    try:
        return args.fn(args)
    except OSError as exc:   # a file that cannot be opened, read or written
        return _fail(exc, code=2)
    # OverflowError: float() of an exact constant past the float range
    except (ser.SchemaError, GeometryError, ExprError, ValueError,
            OverflowError) as exc:
        return _fail(exc)
    except Exception as exc:  # last resort: a JSON error, not a traceback
        return _fail("internal error: %s: %s" % (type(exc).__name__, exc),
                     code=3)


if __name__ == "__main__":
    sys.exit(main())
