"""Batch evaluation of expressions on point arrays, and the one root finder.

`compile_tape` flattens an expression into a postfix tape; `evaluate_tape`
interprets it with numpy, one instruction at a time over the whole point
batch.  A constant term or factor is folded into the instruction that
combines it (OP_ADDC, OP_MULC: one in-place pass over the other operand's
row, no row filled with the constant), and a square is an in-place
np.square, which is what x ** 2 calls; IEEE addition and multiplication
commute, so the bits are those of the unfolded tape.  A list of
expressions compiles to one multi-output tape, emitted back to back on one
stack, and evaluates to a (k, n) array in one call; every output keeps the
floating-point operations of its own single tape.
Callers that need several expressions at the same points compile them as
one list.  This is the library's only numeric evaluation path: every value
a verdict rests on comes from `evaluate_tape`.  Poles and domain violations come back as inf/nan;
a caller that needs numbers passes them through `finite`, the library's
only check that raises on a non-finite value.

`_solve_brackets` is the library's only root finder: a batched Illinois
regula falsi with a bisection fallback and the Dekker-Brent minimum step
that solves many brackets together, and `_opposite_signs` finds the
sign-change ones.  `_line_roots`, the one scan for roots along sampled
lines, serves `forms.find_z_components` and `surface2d.regularized_volume`;
`surface2d._refine_curve` calls the solver itself.  They live here because
`surface2d` imports `forms`.
"""

import numpy as np

from ._tape import (OP_ABS, OP_ADD, OP_ADDC, OP_CONST, OP_COS, OP_EXP,
                    OP_LOG, OP_MUL, OP_MULC, OP_POWF, OP_POWI, OP_SIN, OP_VAR,
                    Tape, as_float, compile_tape)
from ..symexpr import EvalDomainError

# Recorded as `evalcore_kernel` in benchmark results; kept so they stay comparable.
KERNEL_NAME = "python"

__all__ = ["Tape", "as_float", "compile_tape", "evaluate_tape", "finite",
           "KERNEL_NAME"]

# a bracket at least halves every three solver steps (the minimum step never
# moves a bisection point): 200 take a chart-wide bracket far below
# xtol = 1e-15
_MAX_STEPS = 200
_RTOL = 4 * np.finfo(float).eps   # as scipy's brentq


def evaluate_tape(tape, points):
    """Evaluate a tape at points of shape (n, nvars); returns shape (n,)
    for one expression, (k, n) for a list of k (the first k rows of the
    stack, which no other call shares).  Poles and domain violations come
    back as inf/nan, not exceptions."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    stack = np.empty((tape.stack_need, n))
    consts = tape.consts
    top = -1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for op, arg in zip(tape.opcodes, tape.iargs):
            if op == OP_VAR:
                top += 1
                stack[top] = points[:, arg]
            elif op == OP_MULC:
                stack[top] *= consts[arg]
            elif op == OP_ADDC:
                stack[top] += consts[arg]
            elif op == OP_MUL:
                stack[top - 1] *= stack[top]
                top -= 1
            elif op == OP_ADD:
                stack[top - 1] += stack[top]
                top -= 1
            elif op == OP_POWI:
                if arg == 2:   # what x ** 2 calls, in place
                    np.square(stack[top], out=stack[top])
                else:
                    stack[top] = stack[top] ** arg
            elif op == OP_CONST:
                top += 1
                stack[top] = consts[arg]
            elif op == OP_POWF:
                x = stack[top]
                stack[top] = np.where(x >= 0, x, np.nan) ** consts[arg]
            elif op == OP_SIN:
                np.sin(stack[top], out=stack[top])
            elif op == OP_COS:
                np.cos(stack[top], out=stack[top])
            elif op == OP_EXP:
                np.exp(stack[top], out=stack[top])
            elif op == OP_LOG:
                x = stack[top]
                stack[top] = np.where(x > 0, np.log(np.abs(x) + (x <= 0)), np.nan)
            elif op == OP_ABS:
                np.abs(stack[top], out=stack[top])
            else:
                raise ValueError(f"bad opcode {op}")
    if tape.outputs is None:
        return stack[0].copy()
    return stack[:tape.outputs]


def finite(values):
    """values as an array; EvalDomainError names the first non-finite one."""
    values = np.asarray(values)
    bad = ~np.isfinite(values)
    if bad.any():
        raise EvalDomainError(f"non-finite value {values[bad][0]}")
    return values


def _opposite_signs(a, b):
    """Elementwise, whether a and b have opposite signs (0 and nan have
    none), without a product a * b that would overflow or underflow."""
    return ((a < 0) & (b > 0)) | ((a > 0) & (b < 0))


def _solve_brackets(f, a, b, fa, fb, xtol):
    """Roots of f in the brackets [a, b], a < b, whose end values fa and fb
    have opposite signs, all solved together; one whose fa or fb is 0 gives
    that end (a if both are) and f is not evaluated on it.  f(x, k) gives
    the values at the points x of the brackets numbered k.  Each step is
    Illinois regula falsi (an end kept twice in a row has its weight
    halved), or bisection when the falsi point is not inside or two steps
    have not halved the bracket.  With tol = (xtol + _RTOL * max(|a|,
    |b|)) / 2, a bracket stops on an exact zero or once narrower than 2
    tol, at its end of smaller |f|; one on which f turns non-finite gives
    nan.  A point within tol of an end moves tol inward, never past the
    midpoint (the minimum step of Dekker and Brent): once the falsi points
    pin a root from one side, the next point lands past it and the bracket
    stops, where the far end would otherwise move in only by the bisection
    every third step."""
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    k = np.flatnonzero((fa != 0) & (fb != 0))   # a zero end is the root
    a, b, fa, fb = a[k], b[k], fa[k], fb[k]
    ma, mb = np.ones(k.size), np.ones(k.size)
    kept = np.zeros(k.size, dtype=int)   # end kept last step: -1 a, 1 b
    w1, w2 = np.full(k.size, np.inf), np.full(k.size, np.inf)
    for _ in range(_MAX_STEPS):
        w = b - a
        tol = 0.5 * (xtol + _RTOL * np.maximum(abs(a), abs(b)))
        going = w > 2 * tol
        root[k[~going]] = np.where(np.abs(fa) <= np.abs(fb), a, b)[~going]
        k, a, b, fa, fb, ma, mb, kept, w, w1, w2, tol = (
            v[going] for v in (k, a, b, fa, fb, ma, mb, kept, w, w1, w2, tol))
        if not k.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):   # nan bisects
            x = (a * fb * mb - b * fa * ma) / (fb * mb - fa * ma)
        bisect = ~((x > a) & (x < b)) | (w > 0.5 * w2)
        mid = 0.5 * (a + b)
        x = np.where(bisect, mid, x)
        x = np.where(x - a < tol, np.minimum(a + tol, mid), x)
        x = np.where(b - x < tol, np.maximum(b - tol, mid), x)
        fx = f(x, k)
        real = np.isfinite(fx)
        root[k[~real]] = np.nan
        root[k[fx == 0]] = x[fx == 0]
        left = np.sign(fx) == np.sign(fa)   # x replaces a, b is kept
        mb = np.where(left, np.where(kept == 1, 0.5 * mb, mb), 1.0)
        ma = np.where(left, 1.0, np.where(kept == -1, 0.5 * ma, ma))
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, fx)
        kept = np.where(left, 1, -1)
        live = real & (fx != 0)
        k, a, b, fa, fb, ma, mb, kept, w1, w2 = (
            v[live] for v in (k, a, b, fa, fb, ma, mb, kept, w, w1))
    root[k] = np.where(np.abs(fa) <= np.abs(fb), a, b)
    return root


def _line_roots(f, zs, vals, periodic, xtol):
    """The roots along lines sampled at the points zs, which include the
    interval's end; vals holds one row of values per line, and f(x, k)
    gives line k at the points x.  Returns (lines, roots): first every
    sample where a line is exactly 0, then one root per sign change between
    neighbouring samples, all solved in one _solve_brackets call.  On a
    periodic axis the end sample takes the first sample's value, so a zero
    there counts once and the wrap interval is decided and solved on it."""
    if periodic:
        vals = np.concatenate([vals[:, :-1], vals[:, :1]], axis=1)
    # flat indices, as np.nonzero of a 2-D mask takes about twice as long
    zero = (vals[:, :-1] if periodic else vals) == 0.0
    z_line, z_i = np.divmod(np.flatnonzero(zero), zero.shape[1])
    b_line, b_i = np.divmod(np.flatnonzero(
        _opposite_signs(vals[:, :-1], vals[:, 1:])), zs.size - 1)
    roots = _solve_brackets(lambda x, k: f(x, b_line[k]), zs[b_i],
                            zs[b_i + 1], vals[b_line, b_i],
                            vals[b_line, b_i + 1], xtol)
    return (np.concatenate([z_line, b_line]),
            np.concatenate([zs[z_i], roots]))
