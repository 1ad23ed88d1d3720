"""Batch evaluation of expressions on point arrays.

`compile_tape` flattens an expression into a postfix tape; `evaluate_tape`
interprets it with numpy, one instruction at a time over the whole point
batch.
"""

import numpy as np

from ._tape import (OP_ABS, OP_ADD, OP_CONST, OP_COS, OP_EXP, OP_LOG,
                    OP_MUL, OP_POWF, OP_POWI, OP_SIN, OP_VAR, Tape,
                    compile_tape)

# Recorded as `evalcore_kernel` in benchmark results; kept so they stay comparable.
KERNEL_NAME = "python"

__all__ = ["Tape", "compile_tape", "evaluate_tape", "KERNEL_NAME"]


def evaluate_tape(tape, points):
    """Evaluate a tape at points of shape (n, nvars); returns shape (n,).
    Poles and domain violations come back as inf/nan, not exceptions."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    stack = np.empty((tape.stack_need, n))
    top = -1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for op, arg in zip(tape.opcodes, tape.iargs):
            if op == OP_CONST:
                top += 1
                stack[top] = tape.consts[arg]
            elif op == OP_VAR:
                top += 1
                stack[top] = points[:, arg]
            elif op == OP_ADD:
                stack[top - 1] += stack[top]
                top -= 1
            elif op == OP_MUL:
                stack[top - 1] *= stack[top]
                top -= 1
            elif op == OP_POWI:
                stack[top] = stack[top] ** int(arg)
            elif op == OP_POWF:
                x = stack[top]
                stack[top] = np.where(x >= 0, x, np.nan) ** tape.consts[arg]
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
    return stack[0].copy()
