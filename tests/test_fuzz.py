"""Fuzzing of the expression parser and of the CLI's document reads.

Every input to parse_expr must end in an expression (which prints), an
ExprError or a SchemaError: never another exception and never a hang.
Every mutated document that a subcommand reads must end in one JSON
report with exit code 0, 1 or 2 and nothing on stderr, and so must every
subcommand run with extreme knob values.  The runs are derandomized, so
they draw the same inputs every time."""

import copy
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bgeo import cli

from bgeo.serialize import SchemaError
from bgeo.symexpr import (FUNCTIONS, MAX_NESTING, ExprError, Patch,
                          parse_expr, to_string)

PATCH = Patch(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)), params=("a",))

small = st.integers(0, 12).map(str)
integers = st.one_of(small, st.integers(0, 10 ** 40).map(str))
decimals = st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,10})?",
                         fullmatch=True)
# rational exponents: signed integers up to 10^40, right-associative
# towers, and fractions whose numerator or denominator is a power
powers = st.tuples(small, st.integers(0, 400).map(str)).map("^".join)
exponents = st.one_of(
    integers, st.integers(-10 ** 12, -1).map(str),
    st.lists(small, min_size=2, max_size=6).map("^".join),
    st.tuples(st.sampled_from(["", "-"]), st.one_of(small, powers),
              st.one_of(small, powers)).map(
        lambda t: f"({t[0]}{t[1]}/{t[2]})"))
atoms = st.one_of(
    st.sampled_from(["x", "y", "a"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
    st.text(st.characters(min_codepoint=0x80, max_codepoint=0x30ff),
            min_size=1, max_size=3),
    integers, decimals)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " "]),
                  inner).map("".join),
        st.tuples(inner, exponents).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(atoms, exponents).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(st.sampled_from(FUNCTIONS + ("sinh", "")),
                  inner).map(lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda s: f"-{s}"))


expressions = st.recursive(atoms, _compound, max_leaves=8)
# nesting at the parser's limit, on either side of it
nested = st.tuples(st.integers(MAX_NESTING - 3, MAX_NESTING + 3),
                   st.sampled_from(["(", "sin(", "-", "+", "exp(-"]),
                   expressions).map(
    lambda t: t[1] * t[0] + t[2] + ")" * (t[0] * t[1].count("(")))
inputs = st.one_of(expressions, nested,
                   st.tuples(decimals, exponents).map("^".join),
                   st.text(max_size=24),
                   st.tuples(expressions, st.text(max_size=3),
                             expressions).map("".join))


@settings(derandomize=True, database=None, max_examples=300, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(inputs)
def test_parse_ends_in_value_or_documented_error(text):
    try:
        e = parse_expr(text, PATCH)
    except (ExprError, SchemaError):
        return
    assert isinstance(to_string(e), str)


# --- mutated documents through cli.main -------------------------------------

TWO_PI = 2 * math.pi
DOCS = {
    "surface": {"schema": "bgeo/1", "kind": "surface", "topology": "sphere",
                "P": "h", "V": "1", "orientation": 1},
    "bform": {"schema": "bgeo/1", "kind": "bform", "degree": 2,
              "zcoord": "y", "f": "y",
              "patch": {"names": ["x", "y"], "intervals": [[-1, 1], [-1, 1]],
                        "periods": [None, None], "params": ["a"]},
              "alpha": {"0": "a + x^2"}, "beta": {"0,1": "y"}},
    "zdata": {"schema": "bgeo/1", "kind": "zdata",
              "patch": {"names": ["u", "v", "w"],
                        "intervals": [[0, TWO_PI]] * 3,
                        "periods": [TWO_PI] * 3, "params": ["a", "b"]},
              "alpha": {"0": "1/(a^2 + 2)", "1": "b/3", "2": "-1/6"},
              "omega": {"0,1": "1", "0,2": "2", "1,2": "-1"},
              "params": {"a": 1.0}},
}
# the subcommands that read each kind, with small grids and flows; DOC
# stands for the mutated document
COMMANDS = {"surface": [["parse", "DOC"],
                        ["invariants", "DOC", "--grid", "8"],
                        ["classify", "DOC", "DOC", "--grid", "8"]],
            "bform": [["parse", "DOC"], ["check", "DOC", "--grid", "6"],
                      ["darboux", "DOC", "--grid", "6"],
                      ["moser", "DOC", "DOC", "--points", "4", "--steps", "2"]],
            "zdata": [["parse", "DOC"], ["extend", "DOC", "--grid", "4"]]}
# the fields a mutation may replace or delete, as paths into a document
FIELDS = {kind: [(k,) for k in doc if k != "schema"]
          + [("patch", k) for k in doc.get("patch", {})]
          + [(k, c) for k in ("alpha", "beta", "omega", "params")
             for c in doc.get(k, {})]
          for kind, doc in DOCS.items()}
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 2.5, 1e300, "", "x",
                     "sphere", [], [1, 2], [[0, 1]], ["x", "y"], {},
                     {"a": 1}, {"0": "x"}]),
    st.integers(-3, 3), st.text(max_size=4))


@st.composite
def mutated_runs(draw):
    kind = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[kind])
    for path in draw(st.lists(st.sampled_from(FIELDS[kind]), min_size=1,
                              max_size=3, unique=True)):
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue   # an earlier mutation replaced the enclosing object
        if draw(st.booleans()):
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return draw(st.sampled_from(COMMANDS[kind])), doc


@settings(derandomize=True, database=None, max_examples=300, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_runs())
def test_cli_reports_every_mutated_document(run):
    argv, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([str(path) if a == "DOC" else a for a in argv])
    assert code in (0, 1, 2), out.getvalue()
    assert err.getvalue() == "" and not caught
    assert isinstance(json.loads(out.getvalue()), dict)


# --- knob values through cli.main -------------------------------------------

INT_VALUES = ["-1", "0", "1", "2", "3", "1000000", "100000000000",
              "1" + "0" * 400]
FLOAT_VALUES = ["nan", "inf", "-inf", "-0.0", "5e-324", "1e300"]
LIST_VALUES = ["1,1", "1,,1", "1", "a,b", "", "1,2", "1,0,1", "1,1;1,1",
               "1;1"]
# each subcommand with the kinds of its documents (as in DOCS) and the
# values each of its knobs is drawn from
KNOB_RUNS = {
    "parse": (["bform"], {}),
    "check": (["bform"], {"--grid": INT_VALUES}),
    "invariants": (["surface"], {"--grid": INT_VALUES}),
    "classify": (["surface", "surface"], {"--grid": INT_VALUES,
                                          "--tol": FLOAT_VALUES}),
    "cohomology": ([], {"--surface": LIST_VALUES, "--betti-m": LIST_VALUES,
                        "--betti-z": LIST_VALUES}),
    "darboux": (["bform"], {"--grid": INT_VALUES, "--seed": INT_VALUES}),
    "moser": (["bform", "bform"], {
        "--points": INT_VALUES, "--steps": INT_VALUES,
        "--tol-residual": FLOAT_VALUES, "--tol-tangency": FLOAT_VALUES}),
    "extend": (["zdata"], {"--grid": INT_VALUES, "--eps": FLOAT_VALUES}),
}


@st.composite
def knob_runs(draw):
    command = draw(st.sampled_from(sorted(KNOB_RUNS)))
    kinds, knobs = KNOB_RUNS[command]
    argv = [command] + kinds
    for flag, values in knobs.items():
        value = draw(st.one_of(st.none(), st.sampled_from(values)))
        if value is not None:
            argv.append(flag + "=" + value)
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=10000,
          suppress_health_check=[HealthCheck.too_slow])
@given(knob_runs())
# a step size of 0.0 (exit 3), a flow of minutes, RuntimeWarnings on
# stderr and a degree that a 1-manifold lacks (exit 3), once
@example(["moser", "bform", "bform", "--steps=1" + "0" * 400])
@example(["moser", "bform", "bform", "--points=1", "--steps=1000000"])
@example(["extend", "zdata", "--eps=1e300"])
@example(["cohomology", "--betti-m=1,1"])
def test_cli_reports_every_knob_value(argv):
    # a value past every cap must end at once: a grid is sampled with fewer
    # points per axis, and a flow past its budget is refused
    with tempfile.TemporaryDirectory() as tmp:
        for kind, doc in DOCS.items():
            (Path(tmp) / kind).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([str(Path(tmp) / a) if a in DOCS else a
                             for a in argv])
    assert code in (0, 1, 2), out.getvalue()
    assert err.getvalue() == "" and not caught
    assert isinstance(json.loads(out.getvalue()), dict)
