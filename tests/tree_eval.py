"""Reference scalar evaluator for the tests: a recursive walk over the
expression tree, independent of the tape compiler and interpreter in
bgeo.evalcore.  It was the library's `eval_expr` before every value came
from a tape; tests compare the tape against it, and the scalar oracles of
the surface tests call it because a tree walk costs a tenth of a one-point
tape call.
"""

import math

from bgeo.symexpr import Add, EvalDomainError, Fun, Mul, Num, Pow, Sym


def tree_eval(e, point, params=None):
    """Evaluate at a point (dict name -> float).  Raises EvalDomainError on
    poles and non-finite results instead of returning them."""
    env = dict(point)
    if params:
        env.update(params)
    v = _eval(e, env)
    if not math.isfinite(v):
        raise EvalDomainError(f"non-finite value {v}")
    return v


def _eval(e, env):
    if isinstance(e, Num):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(env[e.name])
        except KeyError:
            raise EvalDomainError(f"unbound symbol '{e.name}'") from None
    if isinstance(e, Add):
        return math.fsum(_eval(t, env) for t in e.terms)
    if isinstance(e, Mul):
        r = 1.0
        for f in e.factors:
            r *= _eval(f, env)
        return r
    if isinstance(e, Pow):
        b = _eval(e.base, env)
        if e.exp.denominator == 1:
            n = e.exp.numerator
            if b == 0 and n < 0:
                raise EvalDomainError("pole: division by zero")
            return b ** n
        if b < 0:
            raise EvalDomainError("fractional power of negative base")
        if b == 0 and e.exp < 0:
            raise EvalDomainError("pole: division by zero")
        return b ** float(e.exp)
    if isinstance(e, Fun):
        a = _eval(e.arg, env)
        if e.fn == "abs":
            return abs(a)
        if e.fn == "log":
            if a <= 0:
                raise EvalDomainError(f"log of non-positive value {a}")
            return math.log(a)
        try:
            return getattr(math, e.fn)(a)
        except (ValueError, OverflowError) as exc:
            raise EvalDomainError(str(exc)) from exc
    raise TypeError
