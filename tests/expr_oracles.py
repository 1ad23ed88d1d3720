"""Two oracles of the tests over bgeo.symexpr trees, moved unchanged from
the library, where no verdict used them.

normalize rebuilds a tree through the canonical constructors; constructor
output is already a fixed point of it, which the tests check.  eval_expr
evaluates a tree at one point as a one-point tape call.
"""

from bgeo.evalcore import compile_tape, evaluate_tape, finite
from bgeo.symexpr import (Add, EvalDomainError, Fun, Mul, Num, Pow, Sym, add,
                          free_symbols, fun, mul, powr)


def normalize(e):
    """Rebuild a tree through the canonical constructors (idempotent).
    Constructor output is already a fixed point, so no library code calls
    this; the tests use it as the oracle of that."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Sym):
        return e
    if isinstance(e, Add):
        return add(*[normalize(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[normalize(f) for f in e.factors])
    if isinstance(e, Pow):
        return powr(normalize(e.base), e.exp)
    if isinstance(e, Fun):
        return fun(e.fn, normalize(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def eval_expr(e, point):
    """Evaluate at a point (dict name -> float, parameters included), as a
    one-point tape call.  Raises EvalDomainError on poles, non-finite
    results and unbound symbols instead of returning them."""
    env = dict(point)
    try:
        tape = compile_tape(e, tuple(env))
    except KeyError:
        unbound = sorted(free_symbols(e) - env.keys())
        raise EvalDomainError(f"unbound symbol '{unbound[0]}'") from None
    pts = [[float(x) for x in env.values()]]
    return float(finite(evaluate_tape(tape, pts))[0])
