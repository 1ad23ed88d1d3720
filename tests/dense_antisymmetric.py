"""Reference dense formulas for the tests.

``dense_solve_antisymmetric`` is ``normalform._solve_antisymmetric`` as it
was before an absent entry stayed absent.  Every absent entry of W enters
the closed-form formulas as the scalar 0.0, so each term of the Pfaffian
and of each adjugate numerator is formed, and the right-hand side has no
absent column.  On finite data the library's solver must give the same
values (``np.array_equal``: an exactly-zero component may differ in the
sign of its zero).

``einsum_congruence`` is ``normalform._congruence`` as the pullback
residual formed it before the batched matmul.
"""

import numpy as np

from bgeo.forms import GeometryError
from bgeo.normalform import _DEGENERATE, _antisymmetric


def dense_solve_antisymmetric(rows, b, n):
    """Solve W u = b for a batch of n antisymmetric m x m matrices, W given
    by its strict upper triangle (rows, absent entries 0.0) and b by its m
    columns, each an (n,) array or a scalar."""
    m = len(b)
    u = np.empty((n, m), order="F")
    if m == 2:
        a01 = rows.get((0, 1), 0.0)
        if np.any(a01 == 0.0):
            raise GeometryError(_DEGENERATE)
        np.divide(b[1], -a01, out=u[:, 0])
        np.divide(b[0], a01, out=u[:, 1])
        return u
    if m == 4:
        a01, a02, a03, a12, a13, a23 = (
            rows.get(key, 0.0)
            for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        pf = a01 * a23 - a02 * a13 + a03 * a12
        if np.any(pf == 0.0):
            raise GeometryError(_DEGENERATE)
        b0, b1, b2, b3 = b
        np.divide(-a23 * b1 + a13 * b2 - a12 * b3, pf, out=u[:, 0])
        np.divide(a23 * b0 - a03 * b2 + a02 * b3, pf, out=u[:, 1])
        np.divide(-a13 * b0 + a03 * b1 - a01 * b3, pf, out=u[:, 2])
        np.divide(a12 * b0 - a02 * b1 + a01 * b2, pf, out=u[:, 3])
        return u
    B = np.empty((n, m))
    for k, col in enumerate(b):
        B[:, k] = col
    try:
        u[:] = np.linalg.solve(_antisymmetric(rows, n, m),
                               B[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise GeometryError(_DEGENERATE) from None
    return u


def einsum_congruence(A, Omega):
    """A^T Omega A for each of the (n, m, m) matrices A and Omega, by one
    three-operand np.einsum without optimize: each entry is the sum over
    (i, j), in C order, of the products A[i, a] * Omega[i, j] * A[j, b]."""
    return np.einsum("nia,nij,njb->nab", A, Omega, A)
