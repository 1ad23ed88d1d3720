"""Reference tape for the tests: the compiler and interpreter as they were
before constants were folded into the operations.  Every constant is its
own CONST row and every Add or Mul term is combined with a whole-row
ADD or MUL, in the order of the tree.  The folded tape of bgeo.evalcore
must give the same bits on every point, inf and nan included.
"""

import numpy as np

from bgeo.symexpr import Add, Expr, ExprError, Fun, Mul, Num, Pow, Sym

CONST, VAR, ADD, MUL, POWI, POWF, SIN, COS, EXP, LOG, ABS = range(11)
_FUN = {"sin": SIN, "cos": COS, "exp": EXP, "log": LOG, "abs": ABS}


def compile_unfolded(expr, var_names):
    """(ops, stack depth, outputs) of an expression or a list of them; ops
    is a list of (opcode, argument), a constant's argument its float."""
    var_index = {name: i for i, name in enumerate(var_names)}
    ops = []
    depth = max_depth = 0

    def push(op, arg=None, n=0):
        nonlocal depth, max_depth
        ops.append((op, arg))
        depth += n
        max_depth = max(max_depth, depth)

    def go(e):
        if isinstance(e, Num):
            try:
                push(CONST, float(e.value), 1)
            except OverflowError:
                raise ExprError("constant too large for a float") from None
        elif isinstance(e, Sym):
            push(VAR, var_index[e.name], 1)
        elif isinstance(e, (Add, Mul)):
            parts, op = ((e.terms, ADD) if isinstance(e, Add)
                         else (e.factors, MUL))
            for i, t in enumerate(parts):
                go(t)
                if i:
                    push(op, n=-1)
        elif isinstance(e, Pow):
            go(e.base)
            if e.exp.denominator != 1:
                push(POWF, float(e.exp))
            else:
                push(POWI, int(e.exp))
        elif isinstance(e, Fun):
            go(e.arg)
            push(_FUN[e.fn])
        else:
            raise TypeError(f"cannot compile {e!r}")

    single = isinstance(expr, Expr)
    for e in [expr] if single else expr:
        go(e)
    return ops, max_depth, None if single else len(expr)


def evaluate_unfolded(compiled, points):
    """Evaluate at points of shape (n, nvars): shape (n,) for one
    expression, (k, n) for a list of k."""
    ops, need, outputs = compiled
    points = np.asarray(points, dtype=np.float64)
    stack = np.empty((need, points.shape[0]))
    top = -1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for op, arg in ops:
            if op == CONST:
                top += 1
                stack[top] = arg
            elif op == VAR:
                top += 1
                stack[top] = points[:, arg]
            elif op == ADD:
                stack[top - 1] += stack[top]
                top -= 1
            elif op == MUL:
                stack[top - 1] *= stack[top]
                top -= 1
            elif op == POWI:
                stack[top] = stack[top] ** arg
            elif op == POWF:
                x = stack[top]
                stack[top] = np.where(x >= 0, x, np.nan) ** arg
            elif op == LOG:
                x = stack[top]
                stack[top] = np.where(x > 0, np.log(np.abs(x) + (x <= 0)),
                                      np.nan)
            else:
                fn = {SIN: np.sin, COS: np.cos, EXP: np.exp, ABS: np.abs}[op]
                fn(stack[top], out=stack[top])
    return stack[0].copy() if outputs is None else stack[:outputs]
