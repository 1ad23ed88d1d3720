"""Betti arithmetic tests: splitting formula, witness filter, builtin tables."""

import json
import warnings

import pytest

from bgeo.cohomology import (
    BettiData,
    b_betti,
    nonvanishing_witness,
)
from bgeo.surface2d import surface_poisson_cohomology
from betti_tables import (betti_genus_surface, betti_product, betti_sphere,
                          betti_torus)


def surface_data(g, n):
    return BettiData(2, betti_genus_surface(g), tuple((1, 1) for _ in range(n)))


class TestBBetti:
    def test_sphere_one_circle(self):
        assert b_betti(surface_data(0, 1)) == [1, 1, 2]

    def test_torus_two_circles(self):
        assert b_betti(surface_data(1, 2)) == [1, 4, 3]

    def test_top_degree_counts_components(self):
        for r in range(1, 6):
            data = surface_data(1, r)
            assert b_betti(data)[-1] == 1 + r

    def test_agrees_with_surface_formula(self):
        for g in range(11):
            for n in range(1, 11):
                assert tuple(b_betti(surface_data(g, n))) == \
                    surface_poisson_cohomology(g, n)

    def test_telescoping_sum(self):
        # sum of b-Betti = sum over M + sum over all Z components
        data = BettiData(4, betti_torus(4), (betti_torus(3), betti_sphere(3)))
        total = sum(b_betti(data))
        assert total == sum(data.betti_M) + sum(map(sum, data.components))

    def test_poisson_equals_b(self, capsys):
        # the Poisson cohomology of a b-Poisson structure is its
        # b-cohomology: bgeo cohomology prints the b-Betti numbers as both
        from bgeo import cli

        data = BettiData(4, betti_product(betti_torus(2), betti_sphere(2)),
                        (betti_torus(3),))
        listed = [",".join(map(str, b)) for b in data.components]
        assert cli.main(["cohomology",
                         "--betti-m", ",".join(map(str, data.betti_M)),
                         "--betti-z", ";".join(listed)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["poisson_betti"] == doc["b_betti"] == b_betti(data)

    def test_t4_with_t3_hypersurface(self):
        data = BettiData(4, betti_torus(4), (betti_torus(3),))
        assert b_betti(data) == [1, 5, 9, 7, 2]


class TestValidation:
    def test_wrong_ambient_length(self):
        with pytest.raises(ValueError, match="betti_M"):
            BettiData(2, (1, 0), ((1, 1),))

    def test_wrong_component_length(self):
        with pytest.raises(ValueError, match="component"):
            BettiData(2, (1, 0, 1), ((1, 1, 1),))

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="nonnegative"):
            BettiData(2, (1, -1, 1), ((1, 1),))

    def test_duality_warning_not_error(self):
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            BettiData(2, (1, 0, 0), ((1, 1),))
        assert any("Poincare" in str(x.message) for x in w)


class TestWitness:
    def test_s3_hypersurface_rejected(self):
        data = BettiData(4, betti_sphere(4), (betti_sphere(3),))
        rep = nonvanishing_witness(data)
        assert not rep.consistent
        assert any("b_1" in r for r in rep.reasons)

    def test_t3_hypersurface_accepted(self):
        data = BettiData(4, betti_torus(4), (betti_torus(3),))
        assert nonvanishing_witness(data).consistent

    def test_surface_accepted(self):
        assert nonvanishing_witness(surface_data(0, 1)).consistent

    def test_mixed_components(self):
        data = BettiData(4, betti_torus(4), (betti_torus(3), betti_sphere(3)))
        rep = nonvanishing_witness(data)
        assert not rep.consistent
        assert any("component 1" in r for r in rep.reasons)


class TestTables:
    def test_sphere(self):
        assert betti_sphere(2) == (1, 0, 1)
        assert betti_sphere(3) == (1, 0, 0, 1)
        assert betti_sphere(1) == (1, 1)

    def test_torus(self):
        assert betti_torus(3) == (1, 3, 3, 1)
        assert betti_torus(1) == (1, 1)

    def test_genus(self):
        assert betti_genus_surface(0) == (1, 0, 1)
        assert betti_genus_surface(2) == (1, 4, 1)

    def test_product(self):
        # T^2 x S^2
        assert betti_product(betti_torus(2), betti_sphere(2)) == \
            (1, 2, 2, 2, 1)
        # T^1 x T^2 = T^3
        assert betti_product(betti_torus(1), betti_torus(2)) == betti_torus(3)
