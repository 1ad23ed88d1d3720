"""Reference volume series for the tests: every eps-level of the regularized
volume integrated over the whole of its strip {|P * cut| > eps}, as the
volume did before later levels added only their bands.  It takes what
`bgeo.surface2d._volume_series` takes, so a test can run the volume on
either one and compare the values: the pieces between one level's strip
edges are cut at the uniform nodes and at knots graded geometrically toward
both of their ends, and every panel gets the 8-point Gauss-Legendre rule.
"""

import numpy as np


def volume_series_per_level(integrate, pieces, uniform, eps_list, levels):
    graded = (uniform[-1] - uniform[0]) * np.geomspace(1e-10, 0.5, 36)

    def level(eps, cut):
        s_line, a, b, g = pieces(cut)
        inside = g - eps > 0
        s_line, a, b = s_line[inside], a[inside], b[inside]
        knots = np.concatenate([
            np.broadcast_to(uniform, (a.size, uniform.size)),
            a[:, None] + graded, b[:, None] - graded,
            a[:, None], b[:, None]], axis=1)
        knots = np.sort(np.clip(knots, a[:, None], b[:, None]), axis=1)
        lo, hi = knots[:, :-1], knots[:, 1:]
        return integrate(np.broadcast_to(s_line[:, None], lo.shape), lo, hi)

    return [level(eps, cut) for eps, cut in zip(eps_list, levels)]
