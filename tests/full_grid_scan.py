"""Reference chart scan for the tests: ``forms._chart_range`` as it was
before a coordinate that the expression does not read was sampled once.
Every coordinate axis keeps all its samples, so the tape runs on the full
tensor grid, streamed by ``symexpr.grid_blocks`` in the same blocks, each
through ``evalcore.finite``.  The library's scan must give the same
(min, max) and the same EvalDomainError text.
"""

import numpy as np

from bgeo import symexpr as se
from bgeo.evalcore import evaluate_tape, finite
from bgeo.forms import _chart_tape


def full_grid_range(expr, patch, axes):
    """(min, max) of the values of expr on the full tensor grid of `axes`,
    every declared parameter at 1.0; the first non-finite value raises."""
    tape = _chart_tape(expr, patch)
    lo = hi = None
    for pts in se.grid_blocks(list(axes) + [np.ones(1)] * len(patch.params)):
        v = finite(evaluate_tape(tape, pts))
        vlo, vhi = float(v.min()), float(v.max())
        lo, hi = (vlo, vhi) if lo is None else (min(lo, vlo), max(hi, vhi))
    return lo, hi
