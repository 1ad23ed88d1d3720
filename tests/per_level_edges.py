"""Reference strip-edge solve for the tests: the regularized volume's
strip edges as they were solved before every eps-level shared one call,
with one `_solve_brackets` call per level.  It takes and returns what
`bgeo.surface2d._strip_edges` does, so a test can run the volume on
either one and compare the bits.
"""

import numpy as np

from bgeo.evalcore import _solve_brackets


def strip_edges_per_level(gate_abs, mesh, m_line, eps_list):
    mesh_abs = gate_abs(mesh, m_line)
    same = m_line[1:] == m_line[:-1]
    out = []
    for eps in eps_list:
        g = mesh_abs - eps
        e_i = np.flatnonzero(same & (g[:-1] * g[1:] < 0))
        z_i = np.flatnonzero(same & (g[:-1] == 0.0))
        edges = _solve_brackets(
            lambda x, k: gate_abs(x, m_line[e_i[k]]) - eps,
            mesh[e_i], mesh[e_i + 1], g[e_i], g[e_i + 1], 1e-15)
        out.append((z_i, e_i, edges))
    return out
