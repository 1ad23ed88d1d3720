"""Grammar-directed fuzzing of the expression parser.

Every input to parse_expr must end in an expression (which prints), an
ExprError or a SchemaError: never another exception and never a hang.
The run is derandomized, so it draws the same inputs every time."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
