"""Betti-number arithmetic for b-manifolds.

The b-de-Rham cohomology of a b-manifold splits as the cohomology of the
ambient manifold plus a degree-shifted copy of the cohomology of each
connected component of the critical hypersurface:

    b-H^k(M)  ~=  H^k(M)  (+)  (+)_i H^{k-1}(Z_i)

so the b-Betti numbers are computable from ordinary Betti numbers by
integer arithmetic.  Poisson cohomology of the associated b-Poisson
structure is isomorphic to b-de-Rham cohomology, hence shares the same
dimensions.  Nothing here computes singular cohomology; Betti numbers are
supplied by the caller.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field


@dataclass(frozen=True)
class BettiData:
    """Betti numbers of an ambient manifold and its critical hypersurface.

    dim        -- dimension of the ambient manifold M
    betti_M    -- b_0 .. b_dim of M (length dim+1)
    components -- one Betti list per connected component of Z, each of
                  length dim (Z has dimension dim-1)
    """
    dim: int
    betti_M: tuple
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "betti_M", tuple(self.betti_M))
        object.__setattr__(self, "components",
                          tuple(tuple(c) for c in self.components))
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if len(self.betti_M) != self.dim + 1:
            raise ValueError(
                "betti_M must list b_0 .. b_%d (got %d entries)"
                % (self.dim, len(self.betti_M)))
        for comp in self.components:
            if len(comp) != self.dim:
                raise ValueError(
                    "each hypersurface component needs b_0 .. b_%d "
                    "(got %d entries)" % (self.dim - 1, len(comp)))
        for seq in (self.betti_M,) + self.components:
            if any((not isinstance(b, int)) or b < 0 for b in seq):
                raise ValueError("Betti numbers must be nonnegative integers")
        if self.betti_M != self.betti_M[::-1]:
            warnings.warn("betti_M is not Poincare-symmetric; fine for "
                          "non-orientable or open M, double-check otherwise",
                          stacklevel=2)


def b_betti(data: BettiData) -> list:
    """Dimensions of the b-cohomology groups, degree 0 .. dim."""
    out = []
    for k in range(data.dim + 1):
        below = sum(c[k - 1] for c in data.components) if k >= 1 else 0
        out.append(data.betti_M[k] + below)
    return out


@dataclass(frozen=True)
class WitnessReport:
    consistent: bool
    reasons: tuple = field(default_factory=tuple)


def nonvanishing_witness(data: BettiData) -> WitnessReport:
    """Necessary-condition filter for hosting a b-symplectic structure.

    Checks that every component of Z has b_1 >= 1 (each component carries
    a nonvanishing degree-1 class), that the total b-H^2 is nonzero, and when
    dim >= 4 additionally that each component has b_2 >= 1 and b-H^3 != 0.
    Passing is necessary, not sufficient.
    """
    reasons = []
    bb = b_betti(data) + [0]   # a missing degree (dim 1) counts 0
    for i, comp in enumerate(data.components):
        if (comp + (0,))[1] < 1:
            reasons.append("component %d has b_1 = 0" % i)
        if data.dim >= 4 and comp[2] < 1:
            reasons.append("component %d has b_2 = 0" % i)
    if bb[2] < 1:
        reasons.append("b-H^2 vanishes")
    if data.dim >= 4 and bb[3] < 1:
        reasons.append("b-H^3 vanishes")
    return WitnessReport(consistent=not reasons, reasons=tuple(reasons))
