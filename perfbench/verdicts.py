"""Run one verdict and check it against its closed-form reference.

CLI verdicts go in-process through bgeo.cli.main(argv) with stdout and
stderr captured; law verdicts call laws.py.  A verdict fails if it raised,
printed a traceback or non-JSON, exited with the wrong code, or disagreed
with the reference in the manifest (written by docs.py from closed forms,
never from an earlier output of the program).
"""

import contextlib
import io
import json
import math
import re

from bgeo import cli
from laws import LAWS

PERIOD_TOL = 1e-6
VOLUME_TOL = 1e-4
DARBOUX_TOL = 1e-9

_SAFE_TEXT = re.compile(r"[0-9a-z_ +\-*/^().]*")
_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
          "log": math.log, "abs": abs}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def run_verdict(entry, law_cases):
    """Returns (report text, failure reason or None)."""
    kind, expect = entry["kind"], entry["expect"]
    try:
        if kind in LAWS:
            holds = LAWS[kind](law_cases[kind][entry["index"]])
            return ("holds" if holds else "fails",
                    None if holds is expect["holds"] else "law fails")
        code, out, err = run_cli(entry["argv"])
    except Exception as exc:  # a verdict that raises is a failed verdict
        return f"raised {type(exc).__name__}: {exc}", \
            "raised " + type(exc).__name__
    if "Traceback" in out or "Traceback" in err:
        return out, "traceback"
    try:
        report = json.loads(out)
    except ValueError:
        return out, "non-JSON output"
    if code != expect["code"]:
        return out, f"exit code {code}, expected {expect['code']}"
    try:
        return out, CHECKS[kind](expect, report)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return out, f"malformed report ({type(exc).__name__}: {exc})"


def eval_text(text, env):
    """Evaluate an expression printed by the program with plain Python
    arithmetic, so the check does not rely on bgeo's own parser."""
    if not _SAFE_TEXT.fullmatch(text):
        raise ValueError(f"unexpected characters in {text!r}")
    code = compile(text.replace("^", "**"), "<report>", "eval")
    names = dict(_FUNCS, **env)
    unknown = set(code.co_names) - set(names)
    if unknown:
        raise ValueError(f"unknown names {sorted(unknown)} in {text!r}")
    return eval(code, {"__builtins__": {}}, names)


def _close(values, refs, tol):
    return (len(values) == len(refs)
            and all(abs(v - r) <= tol for v, r in zip(values, refs)))


def _invariants_differ(report, n, periods, volume):
    if report["n"] != n:
        return f"n = {report['n']}, expected {n}"
    if not _close(sorted(report["periods"]), periods, PERIOD_TOL):
        return f"periods {report['periods']}, expected {periods}"
    if volume is not None and abs(report["volume"] - volume) > VOLUME_TOL:
        return f"volume {report['volume']}, expected {volume}"
    return None


def check_invariants(expect, report):
    return _invariants_differ(report, expect["n"], expect["periods"],
                              expect["volume"])


def check_classify(expect, report):
    if report["verdict"] != expect["verdict"]:
        return f"verdict {report['verdict']}"
    for got, (n, periods, volume) in zip(report["invariants"],
                                         expect["invariants"]):
        why = _invariants_differ(got, n, periods, volume)
        if why:
            return why
    return None


def check_moser(expect, report):
    return None if report["ok"] is expect["ok"] else "moser verdict not ok"


def check_darboux(expect, report):
    if report["ok"] is not expect["ok"]:
        return "darboux verdict not ok"
    if not report["max_residual"] < DARBOUX_TOL:
        return f"residual {report['max_residual']}"
    for z2 in (-0.9, -0.35, 0.0, 0.2, 0.75):
        env = {"z1": 0.5, "z2": z2}
        got = eval_text(report["forward"][1], env)
        ref = eval_text(expect["t"], env)
        if abs(got - ref) > 1e-12:
            return f"t = {report['forward'][1]}, expected {expect['t']}"
    return None


def check_check(expect, report):
    comps = [[c["coordinate"], c["value"]] for c in report["components"]]
    if (not report["transversal"]
            or [c[0] for c in comps] != [c[0] for c in expect["components"]]
            or not _close([c[1] for c in comps],
                          [c[1] for c in expect["components"]], 1e-9)):
        return f"components {comps}"
    if not report["nondegeneracy"].startswith("nonvanishing"):
        return f"nondegeneracy {report['nondegeneracy']}"
    return None


def check_extend(expect, report):
    if report["ok"] is not expect["ok"] or not all(
            report["defining_forms"].values()):
        return "extension rejected"
    if not _close(report["components"], expect["components"], 1e-9):
        return f"components {report['components']}"
    if not report["nondegeneracy"].startswith("nonvanishing"):
        return f"nondegeneracy {report['nondegeneracy']}"
    return None


def check_cohomology(expect, report):
    want = expect["b_betti"]
    if report["b_betti"] != want or report["poisson_betti"] != want:
        return f"betti {report['b_betti']}, expected {want}"
    return None if report["consistent"] else "reported inconsistent"


CHECKS = {"invariants": check_invariants, "classify": check_classify,
          "moser2": check_moser, "moser4": check_moser,
          "darboux": check_darboux, "check": check_check,
          "extend": check_extend, "cohomology": check_cohomology}
