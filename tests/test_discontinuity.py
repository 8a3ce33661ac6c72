import math

import numpy as np
import pytest

import slpkit as sk
from slpkit.charts import c_point_matrix
from slpkit.discontinuity import chart_signed_residuals
from slpkit.errors import ZeroF
from slpkit.fixtures import COUPLING_BC, ex11_bc, ex31_equation, free_equation

from conftest import random_bc, random_equation, random_invertible, random_problem


def coupling_bc():
    return sk.validate_bc(np.array(COUPLING_BC))


def eq_with_f0(f0, n=2):
    return sk.validate_equation([f0] + [1.0] * n, [0.0] * n, [1.0] * n)


class TestXi:
    def test_values(self):
        assert sk.xi_of(1.0) == pytest.approx(3 * math.pi / 4, abs=1e-14)
        assert sk.xi_of(-1.0) == pytest.approx(math.pi / 4, abs=1e-14)

    def test_ranges(self):
        for f0 in (0.1, 0.9, 3.0, 100.0):
            assert math.pi / 2 < sk.xi_of(f0) < math.pi
        for f0 in (-0.1, -0.9, -3.0, -100.0):
            assert 0.0 < sk.xi_of(f0) < math.pi / 2

    def test_large_f0_limit(self):
        assert sk.xi_of(1e12) == pytest.approx(math.pi, abs=1e-11)

    def test_zero_rejected(self):
        with pytest.raises(ZeroF):
            sk.xi_of(0.0)


class TestEquationSide:
    def test_coupling_bc_invariants(self):
        c = sk.classify_equation_side(coupling_bc(), eq_with_f0(1.0))
        assert c.case == "i"
        assert c.mu1 == pytest.approx(1.0)
        assert c.mu2 == pytest.approx(-1.0)
        assert c.eta == pytest.approx(1.0)
        assert c.membership == "E"

    def test_coupling_bc_below(self):
        c = sk.classify_equation_side(coupling_bc(), eq_with_f0(2.0))
        assert c.membership == "E_minus"  # 1/f0 = 0.5 < eta = 1
        assert c.distance == pytest.approx(0.5)

    def test_coupling_bc_above(self):
        c = sk.classify_equation_side(coupling_bc(), eq_with_f0(0.5))
        assert c.membership == "E_plus"

    def test_case_two_never_singular(self):
        bc = sk.separated_matrix(0.0, math.pi / 2)  # mu1 != 0, mu2 = 0
        for f0 in (0.3, 1.0, -2.0):
            c = sk.classify_equation_side(bc, eq_with_f0(f0))
            assert c.case == "ii"
            assert c.membership == "NotSingular_caseII"

    def test_case_three_reduced_form_one(self):
        bc = sk.validate_bc([[2, -1, 0, 0], [0, 0, -1, 0]])
        c = sk.classify_equation_side(bc, eq_with_f0(-2.0))  # 1/f0 = -1/2
        assert c.case == "iii"
        assert c.membership == "E1"
        assert c.reduced_form == "A1"
        assert c.reduced_value == pytest.approx(2.0, abs=1e-12)
        above = sk.classify_equation_side(bc, eq_with_f0(-2.5))  # 1/f0 = -0.4
        assert above.membership == "E1_plus"

    def test_case_three_reduced_form_two(self):
        alpha = 1.2  # |tan| > 1 selects the second reduced form
        bc = sk.separated_matrix(alpha, math.pi)
        target = -math.tan(alpha)
        c = sk.classify_equation_side(bc, eq_with_f0(1.0 / target))
        assert c.case == "iii"
        assert c.membership == "E2"
        below = sk.classify_equation_side(bc, eq_with_f0(1.0 / (target - 0.3)))
        assert below.membership == "E2_minus"

    def test_case_three_degenerate_angles(self):
        c = sk.classify_equation_side(
            sk.separated_matrix(0.0, math.pi), eq_with_f0(0.7)
        )
        assert c.membership == "NotSingular_caseIII_a0"
        c = sk.classify_equation_side(
            sk.separated_matrix(math.pi / 2, math.pi), eq_with_f0(0.7)
        )
        assert c.membership == "NotSingular_caseIII_a0"

    def test_zero_pattern_invariance(self, rng):
        for _ in range(150):
            bc = random_bc(rng)
            eq = random_equation(rng, int(rng.integers(2, 7)))
            twisted = sk.validate_bc(random_invertible(rng) @ bc.matrix)
            c1 = sk.classify_equation_side(bc, eq)
            c2 = sk.classify_equation_side(twisted, eq)
            assert c1.case == c2.case
            assert c1.membership == c2.membership
            if c1.eta is not None:
                assert c1.eta == pytest.approx(c2.eta, abs=1e-8)


class TestBCSide:
    def test_critical_separated_line(self):
        eq = eq_with_f0(1.0)
        xi = sk.xi_of(1.0)
        c = sk.classify_bc_side(eq, sk.separated_matrix(xi, 1.1))
        assert "BS1" in c.sets
        assert {"B14", "B24"} <= c.sets

    def test_c_point(self):
        eq = eq_with_f0(1.0)
        c = sk.classify_bc_side(eq, sk.separated_matrix(sk.xi_of(1.0), math.pi))
        assert "C_point" in c.sets
        assert "B13r" not in c.sets and "B13l" not in c.sets

    def test_coupled_critical_ratio(self):
        eq = eq_with_f0(1.0)
        c = sk.classify_bc_side(eq, sk.coupled_matrix(0.0, [[1, 1], [0, 1]]))
        assert "BC1" in c.sets
        plus = sk.classify_bc_side(eq, sk.coupled_matrix(0.0, [[2, 1], [1, 1]]))
        assert "BC1_plus" in plus.sets  # k11/k12 = 2 > f0 = 1
        minus = sk.classify_bc_side(eq, sk.coupled_matrix(0.0, [[0.5, 1], [-1, 0]]))
        assert "BC1_minus" in minus.sets

    def test_cone_partition(self, rng):
        # members of the rank-one set in O13 split into exactly one of the
        # two closed cones away from the double-degeneracy point
        eq = eq_with_f0(1.3)
        inv_f0 = 1.0 / 1.3
        for _ in range(200):
            t = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
            z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            a12 = inv_f0 + abs(z) ** 2 / t
            bc = sk.validate_bc(
                sk.chart_matrix("O13", (a12, z.real, z.imag, t))
            )
            c = sk.classify_bc_side(eq, bc)
            assert "B13" in c.sets
            assert ("B13r" in c.sets) != ("B13l" in c.sets)
            assert ("B13r" in c.sets) == (t > 0)

    def test_second_chart_pair_cones(self, rng):
        # same cone structure in the O23 chart: (a11 + f0) b22 = |z|^2
        eq = eq_with_f0(-0.7)
        f0 = -0.7
        for _ in range(100):
            t = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0)
            z = rng.uniform(-1.5, 1.5) + 1j * rng.uniform(-1.5, 1.5)
            a11 = -f0 + abs(z) ** 2 / t
            bc = sk.validate_bc(sk.chart_matrix("O23", (a11, z.real, z.imag, t)))
            c = sk.classify_bc_side(eq, bc)
            assert "B23" in c.sets
            assert ("B23r" in c.sets) == (t > 0)
            assert ("B23l" in c.sets) == (t < 0)

    def test_decomposition_into_separated_and_coupled_parts(self, rng):
        # fixed equation: chart-set membership holds iff the boundary
        # condition lies on the critical separated lines or the critical
        # coupled ratio
        eq = eq_with_f0(0.8)
        f0 = 0.8
        xi = sk.xi_of(f0)
        members = []
        for _ in range(60):
            beta = rng.uniform(0.05, math.pi)
            members.append(sk.separated_matrix(xi, beta))
            alpha = rng.uniform(0.0, math.pi * 0.999)
            members.append(sk.separated_matrix(alpha, math.pi))
            k12 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            k11 = f0 * k12
            k21 = rng.uniform(-2.0, 2.0)
            k22 = (1.0 + k12 * k21) / k11
            members.append(
                sk.coupled_matrix(rng.uniform(0, math.pi * 0.999), [[k11, k12], [k21, k22]])
            )
        chart_sets = {"B13", "B14", "B23", "B24"}
        for bc in members:
            c = sk.classify_bc_side(eq, bc)
            assert c.sets & chart_sets, c
            assert ("BS1" in c.sets) or ("BC1" in c.sets), c
        for _ in range(150):
            bc = random_bc(rng)
            c = sk.classify_bc_side(eq, bc)
            in_chart_sets = bool(c.sets & chart_sets)
            in_canonical = bool(c.sets & {"BS1", "BC1"})
            assert in_chart_sets == in_canonical


class TestProduct:
    def test_ex31_at_one(self):
        p = sk.Problem(ex31_equation(1.0), coupling_bc())
        c = sk.classify_product(p)
        assert c.in_singular_set
        assert "P14" in c.sets

    def test_ex11_critical(self):
        p = sk.Problem(free_equation(), ex11_bc(0.75 * math.pi))
        assert sk.classify_product(p).in_singular_set

    def test_p5(self):
        eq = eq_with_f0(2.0)
        p = sk.Problem(eq, sk.validate_bc(c_point_matrix(0.5)))
        c = sk.classify_product(p)
        assert "P5" in c.sets

    def test_membership_tracks_theta_predicate(self, rng):
        # Dirichlet-Dirichlet and random problems: membership must equal
        # the vanishing of the leading coefficient
        cases = [
            sk.Problem(random_equation(rng, 3), sk.separated_matrix(0.0, math.pi)),
            sk.Problem(free_equation(), sk.separated_matrix(0.0, math.pi / 2)),
        ]
        cases += [random_problem(rng, n_max=6) for _ in range(100)]
        for p in cases:
            member = sk.classify_product(p).in_singular_set
            theta_zero = sk.count_case(p) != "N"
            count_drop = sk.count_eigenvalues(p) < p.equation.N
            assert member == theta_zero == count_drop

    def test_residuals_signed_and_present(self):
        p = sk.Problem(free_equation(), sk.separated_matrix(0.3, 2.0))
        res = chart_signed_residuals(p)
        assert res
        assert all(isinstance(v, float) for v in res.values())

    def test_residuals_in_chart_order(self):
        # the order must not follow set iteration, which varies with
        # PYTHONHASHSEED
        p = sk.Problem(free_equation(), sk.validate_bc(sk.chart_matrix("O14", (0.3, 0.2, 0.1, 0.6))))
        assert list(chart_signed_residuals(p)) == list(sk.CHART_IDS)
        p = sk.Problem(free_equation(), sk.separated_matrix(0.3, 2.0))
        assert list(chart_signed_residuals(p)) == [
            c for c in sk.CHART_IDS if c in sk.covering_charts(p.bc)
        ]
