"""The T^3 -> T^4 scenario: corank-one data on the 3-torus, and its
extension to the 4-torus, where the defining function sin(θ4) cuts out
two copies of T^3."""

import math

from bgeo import symexpr as se
from bgeo.extension import HypersurfaceData
from bgeo.forms import BForm, SmoothForm
from bgeo.symexpr import Patch, num, parse_expr


def torus3_data(a="a", b="b") -> HypersurfaceData:
    """Corank-one data on the 3-torus: the closed defining pair

        alpha = (a dθ1 + b dθ2 - dθ3) / (a^2 + b^2 + 1)
        omega = dθ1^dθ2 + b dθ1^dθ3 - a dθ2^dθ3

    satisfies alpha ^ omega = -dθ1^dθ2^dθ3 identically in the slopes."""
    two_pi = 2 * math.pi
    params = tuple(s for s in (a, b) if not _is_number(s))
    patch = Patch(("theta1", "theta2", "theta3"), ((0.0, two_pi),) * 3,
                  periods=(two_pi,) * 3, params=params)
    av = parse_expr(str(a), patch)
    bv = parse_expr(str(b), patch)
    den = se.add(se.mul(av, av), se.mul(bv, bv), num(1))
    alpha = SmoothForm(patch, 1, {
        ("theta1",): se.div(av, den),
        ("theta2",): se.div(bv, den),
        ("theta3",): se.div(num(-1), den),
    })
    omega = SmoothForm(patch, 2, {
        ("theta1", "theta2"): num(1),
        ("theta1", "theta3"): bv,
        ("theta2", "theta3"): se.neg(av),
    })
    return HypersurfaceData(patch, alpha, omega)


def _is_number(s):
    try:
        float(s)
        return True
    except (TypeError, ValueError):
        return False


def torus4_extension(a="a", b="b") -> BForm:
    """The b-form alpha ^ dθ4/sin(θ4) + omega on the 4-torus, with
    (alpha, omega) = torus3_data(a, b) lifted along the projection and θ4
    a fourth periodic angle: its hypersurface {sin θ4 = 0} is the two
    copies θ4 = 0 and θ4 = π of T^3."""
    data = torus3_data(a, b)
    two_pi = 2 * math.pi
    z = data.patch
    patch = Patch(z.names + ("theta4",), z.intervals + ((0.0, two_pi),),
                  z.periods + (two_pi,), z.params)
    return BForm(patch, 2, SmoothForm(patch, 1, dict(data.alpha.comps)),
                 SmoothForm(patch, 2, dict(data.omega.comps)),
                 parse_expr("sin(theta4)", patch), "theta4")
