"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np
import pytest

import slpkit as sk
from slpkit.fixtures import (
    builtin_family,
    ex11_closed,
    ex21_closed,
    ex31_closed,
)
from slpkit.oracles import gamma_by_interpolation, pencil_eigenvalues_separated
from slpkit.spectra import leading_coefficients

from conftest import (
    random_bc,
    random_equation,
    random_invertible,
    random_problem,
)


def _report(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, f"{name}{tail}"


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded random problems, N in [2, 12], mixed boundary kinds."""
    rng = np.random.default_rng(511)
    problems = []
    for i in range(1000):
        kind = ("separated", "coupled", "chart")[i % 3]
        problems.append(random_problem(rng, kind=kind, twist=bool(i % 5 == 0)))
    return problems


@pytest.fixture(scope="module")
def corpus_spectra(corpus):
    return [(p, sk.char_poly(p), sk.eigenvalues(p)) for p in corpus]


def _singular_members(rng, count=150):
    """Problems constructed to lie exactly on the discontinuity sets."""
    out = []
    for i in range(count):
        n = int(rng.integers(2, 7))
        eq = random_equation(rng, n)
        f0 = eq.f[0]
        which = i % 4
        if which == 0:
            bc = sk.separated_matrix(sk.xi_of(f0), rng.uniform(0.05, math.pi))
        elif which == 1:
            bc = sk.separated_matrix(rng.uniform(0.0, math.pi * 0.999), math.pi)
        elif which == 2:
            k12 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            k11 = f0 * k12
            k21 = rng.uniform(-2.0, 2.0)
            bc = sk.coupled_matrix(
                rng.uniform(0.0, math.pi * 0.999),
                [[k11, k12], [k21, (1.0 + k12 * k21) / k11]],
            )
        else:
            coords = (1.0 / f0, rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-2, 2))
            bc = sk.validate_bc(sk.chart_matrix("O14", coords))
        out.append(sk.Problem(eq, bc))
    return out


def test_criterion_1_example_1_1():
    fam = builtin_family("ex1.1")
    worst = 0.0
    for i in range(256):
        alpha = (i + 0.5) * math.pi / 256.0  # never hits the critical angle
        got = sk.eigenvalues(fam.resolve(alpha)).values()
        want = ex11_closed(alpha)
        assert len(got) == 2 == len(want)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    spec = sk.eigenvalues(fam.resolve(0.75 * math.pi))
    exact_ok = spec.predicted_count == 1 and abs(spec.values()[0] - 1.0) <= 1e-10
    _report(
        "criterion 1: example 1.1 reproduction",
        worst <= 1e-9 and exact_ok,
        f"max formula error {worst:.2e}; critical point count={spec.predicted_count}",
    )


def test_criterion_2_example_2_1():
    fam = builtin_family("ex2.1")
    worst = 0.0
    for i in range(256):
        s = (i + 0.5) * 2.0 / 256.0
        got = sk.eigenvalues(fam.resolve(s)).values()
        want = ex21_closed(s)
        assert len(got) == len(want)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    jc = sk.classify_jump(sk.trace(fam, 512), 1.0)
    lower_ok = all(
        side.limits[0].kind == "converges" and abs(side.limits[0].value - 0.0) <= 1e-4
        for side in (jc.left, jc.right)
    )
    upper_ok = all(
        side.limits[1].kind == "diverges" and side.limits[1].sign == +1
        for side in (jc.left, jc.right)
    )
    _report(
        "criterion 2: example 2.1 reproduction",
        worst <= 1e-9 and lower_ok and upper_ok,
        f"max formula error {worst:.2e}; lower branch continuous, upper escapes up",
    )


def _expected_pattern_from_closed(closed, nu0, side, limit_values):
    """Divergence signs and index shifts implied by a closed form, obtained
    by evaluating it along a dyadic approach (no hand-coded constants)."""
    sgn = -1.0 if side == "left" else 1.0
    hs = 0.25 * 0.5 ** np.arange(20)
    seqs = np.array([closed(nu0 + sgn * h) for h in hs])
    pattern = []
    n_minus = 0
    for n in range(seqs.shape[1]):
        seq = seqs[:, n]
        if abs(seq[-1]) > 1e5 and abs(seq[-1]) > 4.0 * abs(seq[0]):
            pattern.append(("diverges", int(np.sign(seq[-1]))))
            if seq[-1] < 0:
                n_minus += 1
        else:
            lim = 2.0 * seq[-1] - seq[-2]
            idx = int(np.argmin(np.abs(np.array(limit_values) - lim)))
            pattern.append(("converges", n - idx))
    return pattern


def test_criterion_3_example_3_1():
    fam = builtin_family("ex3.1")
    worst = 0.0
    for i in range(256):
        s = 0.1 + (i + 0.5) * 1.9 / 256.0
        got = sk.eigenvalues(fam.resolve(s)).values()
        want = ex31_closed(s)
        assert len(got) == len(want)
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))
    jc = sk.classify_jump(sk.trace(fam, 512), 1.0)
    pattern_ok = True
    for side_name, side in (("left", jc.left), ("right", jc.right)):
        expected = _expected_pattern_from_closed(
            ex31_closed, 1.0, side_name, jc.limit_values
        )
        observed = [
            (b.kind, b.sign if b.kind == "diverges" else b.shift) for b in side.limits
        ]
        pattern_ok = pattern_ok and observed == expected and side.consistent
    _report(
        "criterion 3: example 3.1 reproduction",
        worst <= 1e-9 and pattern_ok,
        f"max formula error {worst:.2e}; jump pattern matches the closed forms",
    )


def test_criterion_4_count_law(corpus_spectra):
    bad = 0
    worst_theta = 0.0
    for p, gamma, spec in corpus_spectra:
        n = p.equation.N
        expected = n - 2 + spec.r
        if gamma.degree() != expected:
            bad += 1
        if sum(m for _, m in spec.eigenvalues) != expected:
            bad += 1
        th, c_top = sk.theta(p), gamma.coeffs[n]
        denom = max(abs(th), abs(c_top))
        if denom > 0.0:
            worst_theta = max(worst_theta, abs(th - c_top) / denom)
    _report(
        "criterion 4: count law on 1000 random problems",
        bad == 0 and worst_theta <= 1e-10,
        f"failures={bad}, worst leading-coefficient identity {worst_theta:.2e}",
    )


def test_criterion_5_reality_and_oracles(corpus_spectra):
    worst_imag = 0.0
    worst_fit = 0.0
    for p, gamma, spec in corpus_spectra:
        trimmed = gamma.trimmed()
        if trimmed.degree() >= 1:
            roots = np.polynomial.polynomial.polyroots(trimmed.coeffs)
            worst_imag = max(
                worst_imag,
                float(np.max(np.abs(roots.imag) / (1.0 + np.abs(roots.real)))),
            )
        fitted = gamma_by_interpolation(p).coeffs
        scale = max(float(np.abs(gamma.coeffs).max()), 1e-300)
        worst_fit = max(
            worst_fit, float(np.abs(fitted - gamma.coeffs).max()) / scale
        )
    rng = np.random.default_rng(907)
    worst_pencil = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        eq = random_equation(rng, n)
        alpha = rng.uniform(0.0, math.pi * 0.999)
        beta = rng.uniform(1e-3, math.pi)
        engine = np.array(
            sk.eigenvalues(sk.Problem(eq, sk.separated_matrix(alpha, beta))).values()
        )
        pencil = pencil_eigenvalues_separated(eq, alpha, beta)
        assert len(engine) == len(pencil)
        if len(engine):
            worst_pencil = max(
                worst_pencil,
                float(np.max(np.abs(engine - pencil) / (1.0 + np.abs(pencil)))),
            )
    ok = worst_imag <= 1e-7 and worst_fit <= 1e-8 and worst_pencil <= 1e-8
    _report(
        "criterion 5: reality + oracle equivalence",
        ok,
        f"imag {worst_imag:.2e}, interpolation {worst_fit:.2e}, pencil {worst_pencil:.2e}",
    )


def test_criterion_6_leading_terms():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        eq = random_equation(rng, n)
        fs = sk.fundamental_solutions(eq)
        got = (
            fs.phi_N.coeffs[n - 1],
            fs.psi_N.coeffs[n - 1],
            fs.fdphi_N.coeffs[n],
            fs.fdpsi_N.coeffs[n],
        )
        for g, want in zip(got, leading_coefficients(eq)):
            worst = max(worst, abs(g - want) / abs(want))
    _report(
        "criterion 6: boundary-polynomial leading terms",
        worst <= 1e-12,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_7_monotonicity_suite():
    rng = np.random.default_rng(707)
    total_violations = 0
    fn_sweeps = 0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        eq = random_equation(rng, n, mixed_signs=False)
        which = trial % 7
        if which == 0:
            j = int(rng.integers(0, n))
            fam = sk.equation_axis_family(
                eq, random_bc(rng), ("inv_f", j), 0.4, 2.5
            )
        elif which == 1:
            fam = sk.equation_axis_family(eq, random_bc(rng), ("f", n), 0.5, 3.0)
            fn_sweeps += 1
        elif which == 2:
            j = int(rng.integers(1, n + 1))
            fam = sk.equation_axis_family(eq, random_bc(rng), ("q", j), -2.0, 2.0)
        elif which == 3:
            j = int(rng.integers(1, n + 1))
            fam = sk.equation_axis_family(eq, random_bc(rng), ("w", j), 0.3, 3.0)
        elif which == 4:
            chart = str(rng.choice(sk.CHART_IDS))
            coords = rng.uniform(-1.5, 1.5, size=4)
            index = int(rng.choice([0, 3]))
            fam = sk.chart_axis_family(eq, chart, coords, index, -2.0, 2.0)
        elif which == 5:
            fam = sk.separated_angle_family(
                eq, "alpha", rng.uniform(0.2, math.pi - 0.2), 0.0, math.pi * 0.98
            )
        else:
            fam = sk.separated_angle_family(
                eq, "beta", rng.uniform(0.0, math.pi * 0.999), 0.05, math.pi
            )
        report = sk.check_monotonicity(fam, grid_size=33)
        total_violations += len(report.violations)
    _report(
        "criterion 7: monotonicity suite (100 sweeps)",
        total_violations == 0 and fn_sweeps >= 10,
        f"violations={total_violations}, inert-coefficient sweeps={fn_sweeps}",
    )


def test_criterion_8_asymptotic_patterns():
    failures = []
    checks = 0
    for name in sk.ASYMPTOTIC_FIXTURES:
        try:
            report = sk.verify_asymptotic_theorem(name)
            checks += len(report.checks)
        except sk.errors.PatternMismatch as exc:
            failures.append((name, exc.table))
    _report(
        "criterion 8: asymptotic-pattern suite",
        not failures,
        f"{checks} crossing fixtures verified" if not failures else repr(failures),
    )


def test_criterion_9_quotient_invariance():
    rng = np.random.default_rng(909)
    worst_eig = 0.0
    bad = 0
    for i in range(500):
        if i % 10 == 0:
            p = _singular_members(rng, 1)[0]
        else:
            p = random_problem(rng, n_max=9)
        t = random_invertible(rng)
        p2 = sk.Problem(p.equation, sk.validate_bc(t @ p.bc.matrix))
        if sk.rank_r(p) != sk.rank_r(p2):
            bad += 1
            continue
        v1 = np.array(sk.eigenvalues(p).values())
        v2 = np.array(sk.eigenvalues(p2).values())
        if len(v1) != len(v2):
            bad += 1
            continue
        if len(v1):
            worst_eig = max(
                worst_eig, float(np.max(np.abs(v1 - v2) / (1.0 + np.abs(v1))))
            )
        c1, c2 = sk.classify_product(p), sk.classify_product(p2)
        if c1.sets != c2.sets or c1.in_singular_set != c2.in_singular_set:
            bad += 1
        e1 = sk.classify_equation_side(p.bc, p.equation)
        e2 = sk.classify_equation_side(p2.bc, p2.equation)
        if (e1.case, e1.membership) != (e2.case, e2.membership):
            bad += 1
        b1 = sk.classify_bc_side(p.equation, p.bc)
        b2 = sk.classify_bc_side(p.equation, p2.bc)
        if b1.sets != b2.sets:
            bad += 1
    _report(
        "criterion 9: quotient invariance over 500 twists",
        bad == 0 and worst_eig <= 1e-8,
        f"mismatches={bad}, worst eigenvalue drift {worst_eig:.2e}",
    )


def test_criterion_10_singular_set_consistency(corpus):
    rng = np.random.default_rng(1010)
    problems = corpus + _singular_members(rng, 150)
    bad = 0
    for p in problems:
        member = sk.classify_product(p).in_singular_set
        theta_zero = sk.count_case(p) != "N"
        count_drop = sk.count_eigenvalues(p) < p.equation.N
        if not (member == theta_zero == count_drop):
            bad += 1
    # fixed-equation decomposition: chart-set membership is exactly the
    # union of the critical separated lines and the critical coupled ratio
    eq = random_equation(rng, 4, mixed_signs=False)
    decomposition_bad = 0
    chart_sets = {"B13", "B14", "B23", "B24"}
    for p in _singular_members(np.random.default_rng(4242), 120):
        c = sk.classify_bc_side(eq, p.bc)
        in_chart = bool(c.sets & chart_sets)
        in_canonical = bool(c.sets & {"BS1", "BC1"})
        if in_chart != in_canonical:
            decomposition_bad += 1
    for _ in range(200):
        c = sk.classify_bc_side(eq, random_bc(rng))
        in_chart = bool(c.sets & chart_sets)
        in_canonical = bool(c.sets & {"BS1", "BC1"})
        if in_chart != in_canonical:
            decomposition_bad += 1
    _report(
        "criterion 10: singular-set consistency",
        bad == 0 and decomposition_bad == 0,
        f"equivalence failures={bad}, decomposition failures={decomposition_bad}",
    )
