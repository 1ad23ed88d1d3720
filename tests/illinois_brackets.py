"""Reference bracket solver for the tests: `evalcore._solve_brackets` as it
was before it took the Dekker-Brent minimum step.  Each step is Illinois
regula falsi, or bisection when the falsi point is not inside or two steps
have not halved the bracket.  When the falsi points close in on a root from
one side, the far end moves only by the forced bisection, so a bracket that
the solver pins in a few steps can take some 80 evaluations to narrow.
It takes what `_solve_brackets` takes and stops as it does.
"""

import numpy as np

from bgeo.evalcore import _MAX_STEPS, _RTOL


def illinois_brackets(f, a, b, fa, fb, xtol):
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    k = np.arange(a.size)
    ma, mb = np.ones(a.size), np.ones(a.size)
    kept = np.zeros(a.size, dtype=int)   # end kept last step: -1 a, 1 b
    w1, w2 = np.full(a.size, np.inf), np.full(a.size, np.inf)
    for _ in range(_MAX_STEPS):
        w = b - a
        going = w > xtol + _RTOL * np.maximum(abs(a), abs(b))
        root[k[~going]] = np.where(np.abs(fa) <= np.abs(fb), a, b)[~going]
        k, a, b, fa, fb, ma, mb, kept, w, w1, w2 = (
            v[going] for v in (k, a, b, fa, fb, ma, mb, kept, w, w1, w2))
        if not k.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):   # nan bisects
            x = (a * fb * mb - b * fa * ma) / (fb * mb - fa * ma)
        bisect = ~((x > a) & (x < b)) | (w > 0.5 * w2)
        x = np.where(bisect, 0.5 * (a + b), x)
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
