"""Reference primitive for the tests: ``normalform._collar_primitive`` as it
was before it tried the antiderivative table.  Each component is (z - c)
times the 32-point Gauss-Legendre rule of its coefficient along the ray
from the level c, which is a float constant also for a Fraction c.
``ray_primitive`` is that rule for one coefficient.
"""

import numpy as np

from bgeo import symexpr as se
from bgeo.forms import SmoothForm, interior_product


def ray_primitive(a, name, c):
    """(name - c) * sum_k w_k a(c + u_k (name - c)), c taken as a float."""
    x, w = np.polynomial.legendre.leggauss(32)
    level = se.Num(float(c))
    disp = se.sub(se.sym(name), level)
    ray = [se.mul(se.Num(float(wk)),
                  se.substitute(a, {name: se.add(level,
                                                 se.mul(se.Num(float(u)),
                                                        disp))}))
           for u, wk in zip(0.5 * (x + 1.0), 0.5 * w)]
    return se.mul(disp, se.add(*ray))


def ray_collar_primitive(delta, zname, c):
    """The ray rule applied to each component of the interior product of
    d/dz with delta."""
    eta = interior_product({zname: se.num(1)}, delta)
    return SmoothForm(delta.patch, delta.degree - 1,
                      {key: ray_primitive(a, zname, c)
                       for key, a in eta.comps.items()})
