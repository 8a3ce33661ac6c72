"""The batched root solve: stacking rows, trace grids and jump samples into
one Aberth-Ehrlich iteration changes no bit of any spectrum."""

import math

import numpy as np
import pytest

import slpkit as sk
from slpkit import spectra
from slpkit.errors import DegreeMismatch, NonRealRoot
from slpkit.fixtures import builtin_family, free_equation
from numpy.polynomial import polynomial as npoly

from slpkit.spectra import _aberth_roots, eigenvalues_many

from conftest import random_coupled, random_equation, random_separated


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _reference_roots(coeffs):
    """The one-row Aberth-Ehrlich loop that the batched kernel reproduces:
    the same start circle, cap, stopping test and Newton polish."""
    monic = coeffs / coeffs[-1]
    d = len(monic) - 1
    if d == 0:
        return np.zeros(0, dtype=complex)
    if d == 1:
        return np.array([-monic[0]], dtype=complex)
    dmonic = npoly.polyder(monic)
    radius = 1.0 + float(np.abs(monic[:-1]).max())
    k = np.arange(d)
    z = radius * np.exp(2j * np.pi * (k + 0.35) / d)
    for _ in range(200):
        p = npoly.polyval(z, monic)
        dp = npoly.polyval(z, dmonic)
        dp = np.where(np.abs(dp) > 0.0, dp, 1e-300)
        ratio = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - ratio * s
        denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
        step = ratio / denom
        z = z - step
        if float(np.abs(step).max()) <= 1e-15 * (1.0 + float(np.abs(z).max())):
            break
    for _ in range(2):
        p = npoly.polyval(z, monic)
        dp = npoly.polyval(z, dmonic)
        step = np.where(np.abs(dp) > 0.0, p / np.where(np.abs(dp) > 0.0, dp, 1.0), 0.0)
        z = z - step
    return z


def _char_poly_rows(rng):
    """Trimmed characteristic polynomials of seeded problems, by degree:
    C-point problems give degree 0, beta = pi gives N - 1, generic
    conditions give N."""
    rows = {}
    for n in range(2, 13):
        for t in range(6):
            eq = random_equation(rng, n)
            if t == 0:
                bc = sk.separated_matrix(sk.xi_of(eq.f[0]), math.pi)
            elif t == 1:
                bc = sk.separated_matrix(rng.uniform(0.1, 3.0), math.pi)
            else:
                bc = random_coupled(rng) if t % 2 else random_separated(rng)
            coeffs = sk.char_poly(sk.Problem(eq, bc)).trimmed().coeffs
            rows.setdefault(len(coeffs) - 1, []).append(coeffs)
    return rows


def test_stacked_roots_equal_row_by_row_bits(monkeypatch):
    rows = _char_poly_rows(np.random.default_rng(606))
    assert sorted(rows) == list(range(13))

    passes = []  # Horner passes of each single-row solve
    horner = spectra._horner_pair

    def counting(*args):
        passes[-1] += 1
        return horner(*args)

    with np.errstate(all="ignore"):
        for degree, group in sorted(rows.items()):
            stacked = _aberth_roots(np.array(group))
            assert stacked.shape == (len(group), degree)
            for row, got in zip(group, stacked):
                passes.append(0)
                with monkeypatch.context() as m:
                    m.setattr(spectra, "_horner_pair", counting)
                    alone = _aberth_roots(row)
                assert alone.shape == (degree,)
                assert np.array_equal(_bits(alone), _bits(got))
                assert np.array_equal(_bits(alone), _bits(_reference_roots(row)))
    # a capped row makes 200 iteration passes and 2 polishing passes;
    # degrees 0 and 1 are closed-form and make none
    assert any(0 < p < 202 for p in passes), "no row stopped early"
    assert any(p == 202 for p in passes), "no row reached the iteration cap"


def _per_point(family, grid_size):
    """values, counts and near flags of a trace grid, one eigenvalues call
    per point."""
    grid = sk.tracing._grid_points(family, grid_size)
    spectra_ = []
    for nu in grid:
        try:
            spectra_.append(sk.eigenvalues(family.resolve(float(nu))))
        except DegreeMismatch:
            spectra_.append(None)
    counts = np.array([s.predicted_count if s else -1 for s in spectra_])
    near = np.array([s.near_singular if s else True for s in spectra_])
    values = np.full((max(int(counts.max()), 0), len(grid)), np.nan)
    for i, s in enumerate(spectra_):
        if s is not None:
            vals = s.values()
            values[: len(vals), i] = vals
    return values, counts, near


def _n12_k11_family(seed):
    """A coupled k11 sweep through the critical ratio f_0 k12 on a seeded
    N = 12 equation."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.5, 2.0, 13)
    q = rng.uniform(-1.0, 1.0, 12)
    w = rng.uniform(0.5, 2.0, 12)
    k12, k21 = 0.8, -0.4
    t_star = f[0] * k12
    k = [[t_star, k12], [k21, (1.0 + k12 * k21) / t_star]]
    eq = sk.validate_equation(f, q, w)
    return sk.coupled_axis_family(eq, 0.9, k, "k11", 0.5 * t_star, 1.5 * t_star)


@pytest.mark.parametrize(
    "family, grid_size",
    [(builtin_family("ex1.1"), 257), (_n12_k11_family(12), 65)],
    ids=["ex1.1", "n12-k11"],
)
def test_trace_grid_equals_per_point_eigenvalues(family, grid_size):
    values, counts, near = _per_point(family, grid_size)
    tr = sk.trace(family, grid_size)
    assert np.array_equal(_bits(tr.values), _bits(values))
    assert np.array_equal(tr.counts, counts)
    assert np.array_equal(tr.near_singular, near)
    assert tr.events


def _nonreal_n32_draw():
    # draw 32 of test_overflowing_roots_raise_instead_of_nan
    rng = np.random.default_rng(5)
    n = 32
    for _ in range(33):
        f = rng.uniform(0.5, 2.0, n + 1)
        q = rng.uniform(-1.0, 1.0, n)
        w = rng.uniform(0.5, 2.0, n)
        alpha = rng.uniform(0.0, math.pi)
        beta = math.pi - rng.uniform(0.0, math.pi)
    assert (round(alpha, 3), round(beta, 3)) == (0.798, 0.398)
    return sk.Problem(sk.validate_equation(f, q, w), sk.separated_matrix(alpha, beta))


def test_eigenvalues_many_returns_what_eigenvalues_raises():
    gap = sk.Problem(
        free_equation(), sk.validate_bc(sk.chart_matrix("O14", (1 + 3e-12, 0.5, -0.3, 0.7)))
    )
    benign = sk.Problem(free_equation(), sk.validate_bc(sk.chart_matrix("O14", (1.5, 0.5, -0.3, 0.7))))
    problems = [benign, gap, _nonreal_n32_draw(), benign]
    with np.errstate(over="ignore", invalid="ignore"):
        results = eigenvalues_many(problems)
        for problem, result in zip(problems, results):
            if problem is benign:
                assert result.values() == sk.eigenvalues(problem).values()
                continue
            with pytest.raises((DegreeMismatch, NonRealRoot)) as raised:
                sk.eigenvalues(problem)
            assert type(result) is type(raised.value)
            assert result.args == raised.value.args
    assert [type(r) for r in results[1:3]] == [DegreeMismatch, NonRealRoot]
