"""Reference line scans for the tests: the two scans for roots along a line
that the library kept before `evalcore._line_roots` replaced both.

`find_z_scan` is the scan of `forms.find_z_components`, up to the fold of
its roots into the period: 2048 samples, without the end on a periodic
axis; in scan order, a root at each sample where f is 0 and one solved
root per sign change, then a zero at the last sample or the root of the
wrap bracket, which ends on f evaluated at the period's end.

`volume_scan` is the scan of `surface2d.regularized_volume`: one row of
values per line at samples that include the end, which takes the first
sample's value on a periodic axis; the exact zeros in C order, then one
solved root per sign change, all in one call of the bracket solver.
"""

import numpy as np

from bgeo.evalcore import _opposite_signs, _solve_brackets


def find_z_scan(f_at, a, b, period):
    """The roots, before the fold into the period, of the scan of f_at
    along [a, b] (period None, or b - a)."""
    zs = np.linspace(a, b, 2048, endpoint=period is None)
    vals = f_at(zs)
    zero = vals[:-1] == 0.0
    cross = _opposite_signs(vals[:-1], vals[1:])
    lo, hi = zs[:-1][cross], zs[1:][cross]
    flo, fhi = vals[:-1][cross], vals[1:][cross]
    wrap = period is not None and _opposite_signs(vals[-1], vals[0])
    if wrap:
        lo, hi = np.append(lo, zs[-1]), np.append(hi, b)
        flo, fhi = np.append(flo, vals[-1]), np.append(fhi, f_at([b]))
    solved = _solve_brackets(lambda z, k: f_at(z), lo, hi, flo, fhi, 2e-12)
    inner = np.where(zero, zs[:-1], np.nan)
    inner[cross] = solved[:np.count_nonzero(cross)]
    roots = [float(r) for r in inner[zero | cross]]
    if vals[-1] == 0.0:
        roots.append(float(zs[-1]))
    elif wrap:
        roots.append(float(solved[-1]))
    return roots


def volume_scan(f, zs, ps, periodic, xtol):
    """(lines, roots) of the lines whose values at zs are the rows of ps;
    f(x, k) gives line k."""
    ps = np.array(ps, dtype=float)
    if periodic:
        ps[:, -1] = ps[:, 0]
    z_line, z_i = np.nonzero((ps[:, :-1] if periodic else ps) == 0.0)
    b_line, b_i = np.nonzero(_opposite_signs(ps[:, :-1], ps[:, 1:]))
    r_line = np.concatenate([z_line, b_line])
    roots = np.concatenate([zs[z_i], _solve_brackets(
        lambda x, k: f(x, b_line[k]), zs[b_i], zs[b_i + 1],
        ps[b_line, b_i], ps[b_line, b_i + 1], xtol)])
    return r_line, roots
