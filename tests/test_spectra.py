import math

import numpy as np
import pytest

import slpkit as sk
from slpkit.errors import DegreeMismatch, NonRealRoot
from slpkit.fixtures import COUPLING_BC, ex31_equation, free_equation
from slpkit.oracles import pencil_eigenvalues_separated
from slpkit.spectra import leading_coefficients

from conftest import random_bc, random_equation, random_invertible, random_problem


def ex11_problem(alpha):
    return sk.Problem(sk.fixtures.free_equation(), sk.fixtures.ex11_bc(alpha))


class TestFundamentalSolutions:
    def test_free_equation_boundary_polynomials(self):
        # values frozen from the pointwise numeric recursion (oracle route)
        fs = sk.fundamental_solutions(free_equation())
        np.testing.assert_allclose(fs.phi_N.coeffs, [1, -1, 0], atol=1e-15)
        np.testing.assert_allclose(fs.psi_N.coeffs, [2, -1, 0], atol=1e-15)
        np.testing.assert_allclose(fs.fdphi_N.coeffs, [0, -2, 1], atol=1e-15)
        np.testing.assert_allclose(fs.fdpsi_N.coeffs, [1, -3, 1], atol=1e-15)

    def test_psi_at_zero(self):
        fs = sk.fundamental_solutions(free_equation())
        assert fs.psi_N(0.0) == pytest.approx(2.0, abs=1e-14)

    def test_quasi_derivative_leading_coefficient_free_equation(self):
        # (-1)^2 * (w_2/f_0) * (w_1/f_1) = 1
        fs = sk.fundamental_solutions(free_equation())
        assert fs.fdpsi_N.coeffs[2] == pytest.approx(1.0, rel=1e-14)

    def test_degrees(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 13))
            fs = sk.fundamental_solutions(random_equation(rng, n))
            assert fs.phi_N.degree(1e-12) == n - 1
            assert fs.psi_N.degree(1e-12) == n - 1
            assert fs.fdphi_N.degree(1e-12) == n
            assert fs.fdpsi_N.degree(1e-12) == n

    def test_leading_terms_closed_form(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            eq = random_equation(rng, n)
            fs = sk.fundamental_solutions(eq)
            lead = leading_coefficients(eq)
            got = (
                fs.phi_N.coeffs[n - 1],
                fs.psi_N.coeffs[n - 1],
                fs.fdphi_N.coeffs[n],
                fs.fdpsi_N.coeffs[n],
            )
            for g, want in zip(got, lead):
                assert abs(g - want) <= 1e-12 * abs(want)


class TestCMatrix:
    def test_identity_coupled(self):
        bc = sk.validate_bc([[1, 0, -1, 0], [0, 1, 0, -1]])
        np.testing.assert_allclose(sk.c_matrix(bc), -np.eye(2), atol=1e-15)

    def test_ex11_alpha_zero(self):
        bc = sk.fixtures.ex11_bc(0.0)
        np.testing.assert_allclose(
            sk.c_matrix(bc), np.array([[0, 0], [0, -1]], dtype=complex), atol=1e-15
        )

    def test_determinant_scaling(self, rng):
        # C built from T.[A|B] is det(T) times C built from [A|B]
        for _ in range(100):
            bc = random_bc(rng)
            t = random_invertible(rng)
            det_t = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
            c1 = sk.c_matrix(sk.validate_bc(t @ bc.matrix))
            c0 = sk.c_matrix(bc)
            np.testing.assert_allclose(c1, det_t * c0, atol=1e-12 * abs(det_t))


class TestCharPoly:
    def test_ex31_at_2(self):
        p = sk.Problem(ex31_equation(2.0), sk.validate_bc(np.array(COUPLING_BC)))
        g = sk.char_poly(p)
        # (s-1) lam^2 - s lam + 1 - s at s = 2
        np.testing.assert_allclose(g.coeffs, [-1, -2, 1], atol=1e-14)

    def test_ex21_at_0(self):
        p = sk.Problem(
            sk.fixtures.ex21_equation(0.0), sk.validate_bc(np.array(COUPLING_BC))
        )
        np.testing.assert_allclose(sk.char_poly(p).coeffs, [-1, -2, 1], atol=1e-14)

    def test_scales_by_det(self, rng):
        for _ in range(100):
            p = random_problem(rng, n_max=8)
            t = random_invertible(rng)
            det_t = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
            g0 = sk.char_poly(p).coeffs
            g1 = sk.char_poly(
                sk.Problem(p.equation, sk.validate_bc(t @ p.bc.matrix))
            ).coeffs
            scale = np.abs(g0).max()
            np.testing.assert_allclose(g1, det_t * g0, atol=1e-11 * scale * abs(det_t))


class TestCountLaw:
    def test_ex11_critical_angle(self):
        p = ex11_problem(0.75 * math.pi)
        assert sk.rank_r(p) == 1
        assert sk.count_eigenvalues(p) == 1

    def test_dirichlet_rank_one(self, rng):
        bc = sk.separated_matrix(0.0, math.pi)
        for _ in range(20):
            eq = random_equation(rng, int(rng.integers(2, 9)))
            assert sk.rank_r(sk.Problem(eq, bc)) == 1

    def test_identity_coupled_full_rank(self):
        p = sk.Problem(free_equation(), sk.validate_bc([[1, 0, -1, 0], [0, 1, 0, -1]]))
        assert sk.rank_r(p) == 2
        assert sk.count_eigenvalues(p) == 2
        assert sk.char_poly(p).degree() == 2

    def test_single_eigenvalue_at_degenerate_parameters(self):
        bc = sk.validate_bc(np.array(COUPLING_BC))
        for eq in (sk.fixtures.ex21_equation(1.0), ex31_equation(1.0)):
            p = sk.Problem(eq, bc)
            assert sk.count_eigenvalues(p) == 1
            assert sk.count_case(p) == "N-1"
            vals = sk.eigenvalues(p).values()
            assert len(vals) == 1
            assert abs(vals[0]) < 1e-12

    def test_double_drop_case(self):
        for f0 in (1.0, 2.0, -0.5):
            eq = sk.validate_equation([f0, 1, 1], [0, 0], [1, 1])
            from slpkit.charts import c_point_matrix

            p = sk.Problem(eq, sk.validate_bc(c_point_matrix(1.0 / f0)))
            assert sk.count_eigenvalues(p) == 0
            assert sk.count_case(p) == "N-2"
            assert sk.eigenvalues(p).values() == ()


class TestTheta:
    def test_ex11_values(self):
        assert abs(sk.theta(ex11_problem(0.75 * math.pi))) < 1e-12
        assert sk.theta(ex11_problem(0.0)) == pytest.approx(-1.0, abs=1e-14)

    def test_matches_leading_coefficient(self, rng):
        for _ in range(200):
            p = random_problem(rng)
            th = sk.theta(p)
            c_top = sk.char_poly(p).coeffs[p.equation.N]
            assert abs(th - c_top) <= 1e-10 * max(abs(th), abs(c_top))


class TestEigenvalues:
    def test_ex11_critical(self):
        spec = sk.eigenvalues(ex11_problem(0.75 * math.pi))
        assert spec.predicted_count == 1
        assert abs(spec.values()[0] - 1.0) < 1e-10

    def test_ex11_alpha_zero(self):
        spec = sk.eigenvalues(ex11_problem(0.0))
        want = ((3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2)
        np.testing.assert_allclose(spec.values(), want, atol=1e-12)

    def test_ex31_at_2(self):
        p = sk.Problem(ex31_equation(2.0), sk.validate_bc(np.array(COUPLING_BC)))
        np.testing.assert_allclose(
            sk.eigenvalues(p).values(), (1 - math.sqrt(2), 1 + math.sqrt(2)), atol=1e-12
        )

    def test_antiperiodic_double_root(self):
        # Gamma = (lam - 2)^2 for the free equation with [-I | -I]
        bc = sk.validate_bc([[-1, 0, -1, 0], [0, -1, 0, -1]])
        spec = sk.eigenvalues(sk.Problem(free_equation(), bc))
        assert spec.eigenvalues == ((2.0, 2),)
        assert spec.predicted_count == 2

    def test_multiplicity_sum_equals_degree(self, rng):
        for _ in range(200):
            p = random_problem(rng)
            spec = sk.eigenvalues(p)
            n = p.equation.N
            assert spec.predicted_count == n - 2 + spec.r
            assert sum(m for _, m in spec.eigenvalues) == spec.predicted_count
            assert sk.char_poly(p).degree() == spec.predicted_count
            vals = spec.values()
            assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_degree_mismatch_in_tolerance_gap(self):
        # leading coefficient inside (trim, rank) tolerance gap by design
        eq = free_equation()
        bc = sk.validate_bc(sk.chart_matrix("O14", (1 + 3e-12, 0.5, -0.3, 0.7)))
        with pytest.raises(DegreeMismatch):
            sk.eigenvalues(sk.Problem(eq, bc))

    def test_near_singular_flag(self):
        eq = free_equation()
        bc = sk.validate_bc(sk.chart_matrix("O14", (1 + 1e-9, 0.5, -0.3, 0.7)))
        spec = sk.eigenvalues(sk.Problem(eq, bc))
        assert spec.near_singular
        assert spec.predicted_count == 2

    def test_non_real_root_guard(self, monkeypatch):
        monkeypatch.setattr(sk.TOL, "real_root", 1e-300)
        eq = sk.validate_equation(
            [0.8, 1.3, 0.7, 1.9, 1.1], [0.4, -0.3, 0.8, 0.1], [1.2, 0.9, 1.5, 1.0]
        )
        bc = sk.coupled_matrix(0.9, [[1.1, 0.6], [-0.4, (1 + 0.6 * -0.4) / 1.1]])
        with pytest.raises(NonRealRoot):
            # complex coefficients leave imaginary rounding residue above
            # an absurdly tight bound
            sk.eigenvalues(sk.Problem(eq, bc))

    def test_overflowing_roots_raise_instead_of_nan(self):
        # benign separated N = 32 problems drawn as below; at draw 32
        # (alpha ~ 0.798, beta ~ 0.398) the monomial root iteration
        # overflowed, and a NaN root used to pass the realness test as a
        # spectrum of 32 NaNs; the pencil gives its 32 eigenvalues
        rng = np.random.default_rng(5)
        n = 32
        for draw in range(40):
            f = rng.uniform(0.5, 2.0, n + 1)
            q = rng.uniform(-1.0, 1.0, n)
            w = rng.uniform(0.5, 2.0, n)
            alpha = rng.uniform(0.0, math.pi)
            beta = math.pi - rng.uniform(0.0, math.pi)
            eq = sk.validate_equation(f, q, w)
            p = sk.Problem(eq, sk.separated_matrix(alpha, beta))
            if draw == 32:
                assert (round(alpha, 3), round(beta, 3)) == (0.798, 0.398)
                values = np.array(sk.eigenvalues(p).values())
                want = pencil_eigenvalues_separated(eq, alpha, beta)
                assert len(values) == 32 and np.all(np.isfinite(values))
                assert np.all(np.abs(values - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
                continue
            try:
                values = sk.eigenvalues(p).values()
            except (DegreeMismatch, NonRealRoot):
                continue
            assert np.all(np.isfinite(values))

    def test_separated_draws_match_the_tridiagonal_pencil(self):
        # sign-indefinite f, a quarter twisted, and draws on the sets
        # alpha = xi(f_0), beta = pi and both (the C point)
        rng = np.random.default_rng(2121)
        for draw in range(600):
            eq = random_equation(rng, int(rng.integers(2, 13)))
            alpha = rng.uniform(0.0, math.pi * 0.999)
            beta = rng.uniform(1e-3, math.pi)
            if draw % 5 in (0, 2):
                alpha = sk.xi_of(eq.f[0])
            if draw % 5 in (1, 2):
                beta = math.pi
            bc = sk.separated_matrix(alpha, beta)
            if draw % 4 == 0:
                bc = sk.validate_bc(random_invertible(rng) @ bc.matrix)
            got = np.array(sk.eigenvalues(sk.Problem(eq, bc)).values())
            want = pencil_eigenvalues_separated(eq, alpha, beta)
            assert len(got) == len(want), draw
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), draw

    def test_spectrum_json_shape(self):
        d = sk.eigenvalues(ex11_problem(0.0)).to_json_dict()
        assert set(d) == {"count", "r", "theta", "eigenvalues", "near_singular"}
        assert d["count"] == 2 and d["r"] == 2
        assert d["theta"] == [pytest.approx(-1.0), pytest.approx(0.0)]


class TestQuotientInvariance:
    def test_eigenvalues_and_rank(self, rng):
        for _ in range(100):
            p = random_problem(rng, n_max=9)
            t = random_invertible(rng)
            p2 = sk.Problem(p.equation, sk.validate_bc(t @ p.bc.matrix))
            assert sk.rank_r(p) == sk.rank_r(p2)
            v1 = np.array(sk.eigenvalues(p).values())
            v2 = np.array(sk.eigenvalues(p2).values())
            assert len(v1) == len(v2)
            if len(v1):
                assert np.max(np.abs(v1 - v2) / (1 + np.abs(v1))) < 1e-8
