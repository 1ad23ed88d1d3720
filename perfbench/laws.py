"""The four symbolic laws of the `symbolic` workload, one seeded case per
verdict.  Each case arrives as bgeo/1 documents (see docs.py) and is loaded
through bgeo.serialize, so the library sees only generated documents.  A
case holds when every component identity is confirmed by expr_equiv."""

from bgeo import serialize as ser
from bgeo import symexpr as se
from bgeo.forms import (
    SmoothForm,
    bwedge,
    d_bform,
    pullback_to_level,
    restrict_to_Z,
    wedge,
)
from bgeo.surface2d import modular_field
from bgeo.symexpr import diff_expr, expr_equiv, parse_expr


def _all_zero(w):
    return all(expr_equiv(c, se.ZERO, w.patch)
               for c in list(w.alpha.comps.values())
               + list(w.beta.comps.values()))


def _forms_equiv(a, b, patch):
    return all(expr_equiv(a.comps.get(k, se.ZERO), b.comps.get(k, se.ZERO),
                          patch)
               for k in set(a.comps) | set(b.comps))


def d_squared(case):
    """d(d w) = 0."""
    w = ser.bform_from_dict(case["w"])
    return _all_zero(d_bform(d_bform(w)))


def graded_leibniz(case):
    """d(a ^ b) = da ^ b + (-1)^p a ^ db."""
    a = ser.bform_from_dict(case["a"])
    b = ser.bform_from_dict(case["b"])
    lhs = d_bform(bwedge(a, b))
    rhs = (bwedge(d_bform(a), b)
           + bwedge(a, d_bform(b)).scale((-1) ** a.degree))
    return (_forms_equiv(lhs.alpha, rhs.alpha, a.patch)
            and _forms_equiv(lhs.beta, rhs.beta, a.patch))


def restriction_covariance(case):
    """Under f -> f*h with h nonvanishing, alpha~ is unchanged and beta~
    picks up -alpha~ ^ d(log h) restricted to Z.

    h = Num(2) + p is built as the repository's property suite builds it:
    add() turns the integer constant into the float 2.0, and the float
    sends most of the comparisons down the sampled path."""
    w = ser.bform_from_dict(case["w"])
    patch = w.patch
    h = se.add(se.Num(2), parse_expr(case["h_poly"], patch))
    p1 = restrict_to_Z(w)[0]
    p2 = restrict_to_Z(w.with_defining_function(h))[0]
    zpatch = p1.alpha_tilde.patch
    if not _forms_equiv(p1.alpha_tilde, p2.alpha_tilde, zpatch):
        return False
    dlogh = SmoothForm(patch, 1, {(i,): se.div(diff_expr(h, n), h)
                                  for i, n in enumerate(patch.names)})
    dlogh_z = pullback_to_level(dlogh, w.zname, 0.0)
    expected = p1.beta_tilde - wedge(p1.alpha_tilde, dlogh_z)
    return _forms_equiv(expected, p2.beta_tilde, zpatch)


def modular_covariance(case):
    """The modular field for volume V*H differs from the one for V by the
    Hamiltonian field of log H."""
    S = ser.surface_from_dict(case["surface"])
    patch = S.patch
    H = parse_expr(case["H"], patch)
    S2 = type(S)(S.topology, patch, S.P, se.mul(S.V, H), S.orientation)
    X1a, X2a = modular_field(S)
    X1b, X2b = modular_field(S2)
    ham1 = se.mul(S.P, se.div(diff_expr(H, "theta"), H))
    ham2 = se.neg(se.mul(S.P, se.div(diff_expr(H, "h"), H)))
    return (expr_equiv(se.sub(X1b, X1a), ham1, patch)
            and expr_equiv(se.sub(X2b, X2a), ham2, patch))


LAWS = {
    "law.d_squared": d_squared,
    "law.leibniz": graded_leibniz,
    "law.restriction": restriction_covariance,
    "law.modular": modular_covariance,
}
