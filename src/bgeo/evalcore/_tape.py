"""Compile expressions to a flat postfix tape for batch evaluation.

The tape is a stack program: each instruction pushes or combines values on
an evaluation stack; `bgeo.evalcore.evaluate_tape` interprets it.  A list
of expressions compiles to one tape that emits them back to back, so
output k is left in stack row k, computed by the operations of its own
tape.

A constant term of an Add or factor of a Mul is folded into the operation
that combines it: OP_ADDC and OP_MULC add or multiply the row on top of
the stack by the constant in place, so no row is filled with it.  The
tree's left fold c + x (or c*x) becomes x + c (x*c); IEEE addition and
multiplication are commutative, a finite constant leaves a nan operand's
payload alone, and the order of every other operation is kept, so a
folded tape gives the bits of the unfolded one.  A constant that stands
alone (the whole expression, or the argument of a function) is still a
row, OP_CONST.

Non-finite values (poles, log of a non-positive number) propagate as
inf/nan in the output; a caller either masks them or, where it needs
numbers, passes them through `bgeo.evalcore.finite`.
An exact constant too large for a float, or an integer exponent past the
int32 range, cannot be compiled: compile_tape raises ExprError.
"""

from __future__ import annotations

import numpy as np

from ..symexpr import Add, Expr, ExprError, Fun, Mul, Num, Pow, Sym

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_POWI = 4   # integer exponent stored in iarg
OP_POWF = 5   # float exponent stored in consts[iarg]
OP_SIN = 6
OP_COS = 7
OP_EXP = 8
OP_LOG = 9
OP_ABS = 10
OP_ADDC = 11  # top += consts[iarg]
OP_MULC = 12  # top *= consts[iarg]

_FUN_OP = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "log": OP_LOG,
           "abs": OP_ABS}


def as_float(v):
    """The float of an exact constant; ExprError when no float holds it."""
    try:
        return float(v)
    except OverflowError:
        raise ExprError("constant too large for a float") from None


class Tape:
    """A compiled expression, or list of expressions: instruction lists
    over the variables in the order compile_tape was given them.  outputs
    is None for one expression, else the length of the list."""

    __slots__ = ("opcodes", "iargs", "consts", "stack_need", "outputs")

    def __init__(self, opcodes, iargs, consts, stack_need, outputs):
        self.opcodes = list(opcodes)
        self.iargs = list(iargs)
        self.consts = list(consts)
        self.stack_need = int(stack_need)
        self.outputs = outputs

    def __len__(self):
        return len(self.opcodes)


def compile_tape(expr, var_names):
    """Flatten an expression, or a sequence of expressions, into a Tape
    over the given variable order."""
    var_index = {name: i for i, name in enumerate(var_names)}
    opcodes, iargs, consts = [], [], []
    const_cache = {}

    def const_slot(v):
        v = as_float(v)
        key = np.float64(v).tobytes()
        if key not in const_cache:
            const_cache[key] = len(consts)
            consts.append(v)
        return const_cache[key]

    def emit(op, arg=0):
        opcodes.append(op)
        iargs.append(arg)

    depth = 0
    max_depth = 0

    def push(n):
        nonlocal depth, max_depth
        depth += n
        max_depth = max(max_depth, depth)

    def fold(parts, op, op_const):
        # the left fold of parts; a constant is folded into the operation
        # that combines it, and a leading one combines with the second part
        # (c + x is computed as x + c)
        lead = 1 if len(parts) > 1 and isinstance(parts[0], Num) else 0
        go(parts[lead])
        for p in parts[:lead] + parts[lead + 1:]:
            if isinstance(p, Num):
                emit(op_const, const_slot(p.value))
            else:
                go(p)
                emit(op)
                push(-1)

    def go(e):
        if isinstance(e, Num):
            emit(OP_CONST, const_slot(e.value))
            push(1)
            return
        if isinstance(e, Sym):
            try:
                emit(OP_VAR, var_index[e.name])
            except KeyError:
                raise KeyError(f"expression uses '{e.name}' which is not "
                               f"among tape variables {var_names}") from None
            push(1)
            return
        if isinstance(e, Add):
            fold(e.terms, OP_ADD, OP_ADDC)
            return
        if isinstance(e, Mul):
            fold(e.factors, OP_MUL, OP_MULC)
            return
        if isinstance(e, Pow):
            go(e.base)
            if e.exp.denominator != 1:
                emit(OP_POWF, const_slot(e.exp))
            elif abs(e.exp) < 2 ** 31:
                emit(OP_POWI, int(e.exp))
            else:
                raise ExprError("integer exponent out of the int32 range")
            return
        if isinstance(e, Fun):
            go(e.arg)
            emit(_FUN_OP[e.fn])
            return
        raise TypeError(f"cannot compile {e!r}")

    single = isinstance(expr, Expr)
    exprs = [expr] if single else list(expr)
    for k, e in enumerate(exprs):
        go(e)
        if depth != k + 1:
            raise AssertionError("tape stack imbalance")
    return Tape(opcodes, iargs, consts, max_depth,
                None if single else len(exprs))
