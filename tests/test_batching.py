"""The batched root solve: stacking rows, trace grids and jump samples into
one Aberth-Ehrlich iteration changes no bit of any spectrum."""

import math

import numpy as np
import pytest

import slpkit as sk
from slpkit import spectra, tracing
from slpkit.errors import DegreeMismatch, NonRealRoot
from slpkit.fixtures import builtin_family, free_equation
from slpkit.tolerances import TOL
from numpy.polynomial import polynomial as npoly

from slpkit.spectra import _aberth_roots, eigenvalues_many

from conftest import random_bc, random_coupled, random_equation, random_separated


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _capped_reference_roots(coeffs):
    """The one-row Aberth-Ehrlich loop that the kernel ran before its
    residual test: start circle 1 + max|c_k|, the step test alone, the
    200-iteration cap and two Newton polishes."""
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


def _reference_roots(coeffs, exits=None):
    """The one-row Aberth-Ehrlich loop that the batched kernel reproduces:
    the same Fujiwara start circle, residual and step tests, cap and Newton
    polish.  ``exits`` collects what stopped the loop: "step" when the step
    test holds, else "residual" or "cap"."""
    monic = coeffs / coeffs[-1]
    d = len(monic) - 1
    if d == 0:
        return np.zeros(0, dtype=complex)
    if d == 1:
        return np.array([-monic[0]], dtype=complex)
    dmonic = npoly.polyder(monic)
    k = np.arange(d)
    radius = 2.0 * float((np.abs(monic[:-1]) ** (1.0 / (d - k))).max())
    if not radius > 0.0:
        radius = 1.0
    z = radius * np.exp(2j * np.pi * (k + 0.35) / d)
    exit = "cap"
    for _ in range(200):
        p = npoly.polyval(z, monic)
        dp = npoly.polyval(z, dmonic)
        scale = npoly.polyval(np.abs(z), np.abs(monic))
        converged = bool(np.all(np.abs(p) <= 8 * np.finfo(float).eps * scale))
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
            exit = "step"
        elif converged:
            exit = "residual"
        if exit != "cap":
            break
    if exits is not None:
        exits.append(exit)
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

    # a NaN coefficient keeps a row from converging: it runs to the cap
    nan_row = rows[12][0].copy()
    nan_row[3] = np.nan
    rows[12].insert(1, nan_row)
    passes = []  # Horner passes of each single-row solve
    exits = []  # the test that stopped each reference loop
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
                assert np.array_equal(_bits(alone), _bits(_reference_roots(row, exits)))
    # a capped row makes 200 iteration passes and 2 polishing passes;
    # degrees 0 and 1 are closed-form and make none
    assert any(0 < p < 202 for p in passes), "no row stopped early"
    assert [p for p in passes if p >= 202] == [202], "only the NaN row reaches the cap"
    assert "residual" in exits, "no row stopped on the residual test"
    assert exits.count("cap") == 1


def test_capped_row_becomes_nonreal_root(monkeypatch):
    """A row that runs to the cap leaves NaN roots, which eigenvalues_many
    reports as NonRealRoot without touching its batch mates."""
    family = _sweep_n12_family(1)
    # the middle point sits on the set: a degree-11 stack of its own
    problems = [family.resolve(float(nu)) for nu in family.grid(5)]
    want = [sk.eigenvalues(p).values() for p in problems]
    kernel = spectra._aberth_roots

    def poisoned(stack):
        if len(stack) > 1:  # the degree-12 rows of problems 0, 1, 3 and 4
            stack = stack.copy()
            stack[1, 3] = np.nan
        return kernel(stack)

    monkeypatch.setattr(spectra, "_aberth_roots", poisoned)
    with np.errstate(all="ignore"):
        results = eigenvalues_many(problems)
    assert isinstance(results[1], NonRealRoot) and math.isnan(results[1].root.real)
    for i in (0, 2, 3, 4):
        assert np.array_equal(_bits(results[i].values()), _bits(want[i]))


def test_zero_polynomial_rows_give_zero_roots():
    """z^d has Fujiwara bound 0; its start circle falls back to radius 1."""
    for d in range(2, 13):
        row = np.zeros(d + 1)
        row[-1] = 2.0
        roots = _aberth_roots(row)
        assert roots.shape == (d,) and np.all(np.isfinite(roots))
        assert np.abs(roots).max() <= 1e-14
        assert np.array_equal(_bits(roots), _bits(_reference_roots(row)))


def test_sweep_n12_grid_rows_stop_early(monkeypatch):
    """No degree-12 row of the benchmark's seed-1 sweep-n12 grid reaches the
    cap; the median row stops within 40 Horner passes."""
    family = _sweep_n12_family(1)
    rows = [sk.char_poly(family.resolve(float(nu))).trimmed().coeffs for nu in family.grid(256)]
    assert {len(row) - 1 for row in rows} == {12}
    passes = []
    horner = spectra._horner_pair

    def counting(*args):
        passes[-1] += 1
        return horner(*args)

    monkeypatch.setattr(spectra, "_horner_pair", counting)
    for row in rows:
        passes.append(0)
        _aberth_roots(row)
    assert max(passes) < 202
    assert np.median(passes) <= 40


def _corpus(rng):
    """Seeded N <= 12 problems: separated, coupled and chart conditions,
    twisted or not, and problems exactly on a discontinuity set."""
    problems = []
    for n in range(2, 13):
        for kind in ("separated", "coupled", "chart"):
            for twist in (False, True):
                problems.append(sk.Problem(random_equation(rng, n), random_bc(rng, kind, twist)))
        eq = random_equation(rng, n, mixed_signs=False)
        xi = sk.xi_of(eq.f[0])
        for alpha, beta in ((xi, math.pi), (rng.uniform(0.1, 3.0), math.pi), (xi, 1.0)):
            problems.append(sk.Problem(eq, sk.separated_matrix(alpha, beta)))
    return problems


def test_spectra_stay_within_1e8_of_the_capped_iteration(monkeypatch):
    problems = _corpus(np.random.default_rng(1414))
    got = [sk.eigenvalues(p) for p in problems]
    monkeypatch.setattr(
        spectra, "_aberth_roots",
        lambda stack: np.array([_capped_reference_roots(row) for row in stack]),
    )
    for g, w in zip(got, map(sk.eigenvalues, problems)):
        assert g.predicted_count == w.predicted_count
        assert [m for _, m in g.eigenvalues] == [m for _, m in w.eigenvalues]
        for (a, _), (b, _) in zip(g.eigenvalues, w.eigenvalues):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def _per_point(family, grid_size):
    """values, counts and near flags of a trace grid, one eigenvalues call
    per point."""
    grid = family.grid(grid_size)
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


# -- the solves after the grid: refined candidates, a jump's limit and sides --


def _sweep_n12_family(seed):
    """The N = 12 coupled k11 family of the benchmark's sweep-n12 cycle 0."""
    rng = np.random.default_rng([seed, 0])
    f = rng.uniform(0.5, 2.0, 13)
    q = rng.uniform(-1.0, 1.0, 12)
    w = rng.uniform(0.5, 2.0, 12)
    t_star = f[0] * 0.8
    k = [[t_star, 0.8], [-0.4, (1.0 + 0.8 * -0.4) / t_star]]
    eq = sk.validate_equation(f, q, w)
    return sk.coupled_axis_family(eq, 0.9, k, "k11", 0.5 * t_star, 1.5 * t_star)


def _degree(coeffs):
    return np.asarray(coeffs).shape[-1] - 1


def test_kernel_call_budget(monkeypatch):
    """trace: one kernel call per degree for the grid and one per degree for
    the refined candidates; classify_jump: one per degree for the limit and
    both sides, plus one per row length for the escaped-root recovery."""
    calls = []  # (stage, module, degree)
    stage = ["outside"]
    kernel = spectra._aberth_roots
    spectra_or_none = tracing._spectra_or_none

    def counted(module):
        def run(coeffs):
            calls.append((stage[0], module, _degree(coeffs)))
            return kernel(coeffs)
        return run

    def staged(problems):
        stage[0] = "grid" if stage[0] == "outside" else "candidates"
        try:
            return spectra_or_none(problems)
        finally:
            stage[0] = "between"

    monkeypatch.setattr(spectra, "_aberth_roots", counted("spectra"))
    monkeypatch.setattr(tracing, "_aberth_roots", counted("tracing"))
    monkeypatch.setattr(tracing, "_spectra_or_none", staged)
    family = _sweep_n12_family(1)
    tr = sk.trace(family, 256)
    assert {c[0] for c in calls} == {"grid", "candidates"}
    for name in ("grid", "candidates"):
        degrees = [d for s, _, d in calls if s == name]
        assert len(degrees) == len(set(degrees)), (name, degrees)
    assert len(tr.events) == 1

    del calls[:]
    stage[0] = "jump"
    jc = sk.classify_jump(tr, tr.events[0].nu)
    solves = [d for _, module, d in calls if module == "spectra"]
    recovery = [d for _, module, d in calls if module == "tracing"]
    assert len(solves) == len(set(solves)), solves
    assert len(recovery) == len(set(recovery)), recovery
    assert recovery, "the escaped-root recovery did not run"
    assert jc.left.consistent and jc.right.consistent


def _reference_values(problem, escaping):
    """One problem's values as classify_jump samples them, one solve per
    problem: its spectrum, else the roots of the trimmed characteristic
    polynomial, plus, for a sample (``escaping``), its escaped roots."""
    try:
        return sk.eigenvalues(problem).values()
    except DegreeMismatch:
        pass
    gamma = sk.char_poly(problem)
    deg = gamma.degree()
    moderate = np.sort(_aberth_roots(gamma.coeffs[: deg + 1]).real)
    if not escaping:
        return tuple(moderate)
    expected = problem.equation.N - 2 + sk.rank_r(problem)
    if deg >= expected or abs(gamma.coeffs[expected]) == 0.0:
        return None
    escaped = np.sort(_aberth_roots(gamma.coeffs[deg : expected + 1]).real)
    return tuple(np.sort(np.concatenate([moderate, escaped])))


def _reference_sides(family, nu0, limit, bracket_width, gaps):
    limit_values = tuple(
        float(v) for v in _reference_values(limit, False) if abs(v) <= TOL.divergence
    )
    sides = {}
    for side, gap in gaps.items():
        samples = []
        for h, problem in tracing._side_offsets(family, nu0, side, bracket_width, gap):
            values = _reference_values(problem, True)
            if values is not None:
                samples.append((h, values))
        sides[side] = tracing._side_classification(side, samples, limit_values)
    return limit_values, sides


def _reference_jump(tr, nu_star):
    """classify_jump with one solve per problem."""
    family, span = tr.family, tr.family.span
    event = min(tr.events, key=lambda e: abs(e.nu - nu_star))
    nu0 = event.nu
    boundaries = sorted(
        list(family.domain) + [e.nu for e in tr.events if abs(e.nu - nu0) > 1e-7 * span]
    )
    gaps = {}
    below = [b for b in boundaries if b < nu0 - 1e-12 * span]
    above = [b for b in boundaries if b > nu0 + 1e-12 * span]
    if below:
        gaps["left"] = nu0 - max(below)
    if above:
        gaps["right"] = min(above) - nu0
    limit_values, sides = _reference_sides(
        family, nu0, family.resolve(nu0), event.bracket[1] - event.bracket[0], gaps
    )
    return sk.JumpClassification(nu0, limit_values, sides.get("left"), sides.get("right"))


def _per_problem_spectra(problems):
    out = []
    for problem in problems:
        try:
            out.append(sk.eigenvalues(problem))
        except DegreeMismatch:
            out.append(None)
    return out


@pytest.mark.parametrize("name", sk.ASYMPTOTIC_FIXTURES)
def test_jump_classification_equals_per_problem_solves(name):
    for check in tracing._asymptotic_checks(name):
        if check.explicit_limit is not None:
            gaps = {side: check.family.span * 0.5 for side in check.expected}
            args = (check.family, check.nu_star, check.explicit_limit, 0.0, gaps)
            assert repr(tracing._classify_sides(*args)) == repr(_reference_sides(*args))
            continue
        tr = sk.trace(check.family, check.grid_size)
        got = sk.classify_jump(tr, check.nu_star)
        assert repr(got) == repr(_reference_jump(tr, check.nu_star)), check.label


def test_n12_trace_and_jump_equal_per_problem_solves(monkeypatch):
    family = _sweep_n12_family(1)
    tr = sk.trace(family, 256)
    got = sk.classify_jump(tr, tr.events[0].nu)
    # a jump sample in the tolerance gap exercises the escaped-root recovery
    assert repr(got) == repr(_reference_jump(tr, tr.events[0].nu))
    monkeypatch.setattr(tracing, "_spectra_or_none", _per_problem_spectra)
    assert repr(sk.trace(family, 256).events) == repr(tr.events)


def test_trace_events_equal_per_problem_solves(monkeypatch):
    family = builtin_family("ex1.1")
    tr = sk.trace(family, 257)
    monkeypatch.setattr(tracing, "_spectra_or_none", _per_problem_spectra)
    reference = sk.trace(family, 257)
    assert tr.events and repr(tr.events) == repr(reference.events)


def test_tolerance_gap_limit_and_samples_equal_per_problem_solves():
    """A limit problem in the tolerance gap keeps its trimmed roots; its row
    shares a stack with the samples' rows of the same length."""
    rng = np.random.default_rng([1, 0])
    eq = sk.validate_equation(
        rng.uniform(0.5, 2.0, 13), rng.uniform(-1.0, 1.0, 12), rng.uniform(0.5, 2.0, 12)
    )

    def gap_problem(eps):  # next to the i4 set r1 = 1/f_0
        coords = (1.0 / eq.f[0] + eps, 0.5, -0.3, 0.7)
        return sk.Problem(eq, sk.validate_bc(sk.chart_matrix("O14", coords)))

    limit, samples = gap_problem(1e-11), [(0.1, gap_problem(1e-10)), (0.2, gap_problem(1e-9))]
    for problem in [limit] + [p for _, p in samples]:
        with pytest.raises(DegreeMismatch):
            sk.eigenvalues(problem)
    limit_values, (got,) = tracing._jump_values(limit, [samples])
    want = tuple(float(v) for v in _reference_values(limit, False) if abs(v) <= TOL.divergence)
    assert len(limit_values) == 11 and repr(limit_values) == repr(want)
    assert repr(got) == repr([(h, _reference_values(p, True)) for h, p in samples])


class _Tagged:
    """A family whose resolved problems remember their parameter, and an
    ``eigenvalues_many`` that fails the problems at chosen parameters with
    ``NonRealRoot(nu)``."""

    def __init__(self, family):
        self.nu_of = {}
        self.fail = set()
        resolve = family.resolve_fn

        def tagged(nu):
            problem = resolve(nu)
            self.nu_of[id(problem)] = nu
            return problem

        self.family = sk.Family(family.kind, family.domain, tagged, label=family.label)

    def eigenvalues_many(self, problems):
        results = eigenvalues_many(problems)
        for i, problem in enumerate(problems):
            nu = self.nu_of.get(id(problem))
            if nu in self.fail:
                results[i] = NonRealRoot(complex(nu))
        return results


def test_jump_errors_come_in_limit_left_right_order(monkeypatch):
    check = tracing._asymptotic_checks("equation-crossing")[0]
    tagged = _Tagged(check.family)
    tr = sk.trace(tagged.family, check.grid_size)
    nu0 = tr.events[0].nu
    monkeypatch.setattr(tracing, "eigenvalues_many", tagged.eigenvalues_many)
    tagged.nu_of.clear()
    sk.classify_jump(tr, nu0)  # records the parameters of the samples
    # each side's offsets in sampling order: the farthest first
    left = sorted(nu for nu in tagged.nu_of.values() if nu < nu0)
    right = sorted((nu for nu in tagged.nu_of.values() if nu > nu0), reverse=True)
    for fail, first in [
        ({left[-1], right[0], nu0}, nu0),
        ({left[5], left[2], right[0]}, left[2]),
        ({right[3], right[1]}, right[1]),
    ]:
        tagged.fail = fail
        with pytest.raises(NonRealRoot) as raised:
            sk.classify_jump(tr, nu0)
        assert raised.value.root == complex(first)


def test_trace_errors_come_in_candidate_order(monkeypatch):
    tagged = _Tagged(_sweep_n12_family(1))
    solves = []

    def recorded(problems):
        solves.append([tagged.nu_of.get(id(p)) for p in problems])
        return tagged.eigenvalues_many(problems)

    monkeypatch.setattr(tracing, "eigenvalues_many", recorded)
    sk.trace(tagged.family, 256)
    grid, candidates = solves
    assert len(candidates) >= 3
    tagged.fail = {candidates[2], candidates[1]}
    with pytest.raises(NonRealRoot) as raised:
        sk.trace(tagged.family, 256)
    assert raised.value.root == complex(candidates[1])


# -- spectrum finishing ---------------------------------------------------------


def _mean_clusters(values):
    """The reference clustering: every cluster value is a ``np.mean``."""
    groups = []
    for v in np.sort(values):
        if groups and v - groups[-1][-1] <= TOL.cluster * (1.0 + abs(v)):
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return tuple((float(np.mean(g)), len(g)) for g in groups)


def test_cluster_values_equal_the_mean_bit_for_bit():
    rng = np.random.default_rng(808)
    singles = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.7e308, -1.7e308],
        rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000),
    ])
    rows = {1: (np.arange(300) - 150.0) * 10.0 + rng.uniform(-1.0, 1.0, 300)}
    for size in (2, 3):
        centers = (np.arange(300) - 150.0) * 10.0 + rng.uniform(-1.0, 1.0, 300)
        rows[size] = (centers[:, None] + 1e-9 * rng.standard_normal((300, size))).ravel()
    for size, values in rows.items():
        got = spectra._cluster_real_roots(values)
        want = _mean_clusters(values)
        assert {m for _, m in got} == {size}
        assert [m for _, m in got] == [m for _, m in want]
        assert np.array_equal(_bits([v for v, _ in got]), _bits([v for v, _ in want]))
    for v in singles:  # tiny values would cluster with each other
        ((got, _),) = spectra._cluster_real_roots(np.array([v]))
        ((want, _),) = _mean_clusters(np.array([v]))
        assert _bits([got]) == _bits([want])
    ((zero, _),) = spectra._cluster_real_roots(np.array([-0.0]))
    assert math.copysign(1.0, zero) == 1.0


def test_derivative_only_for_multiple_roots(monkeypatch):
    made = []
    derivative = spectra.Polynomial.derivative

    def counted(self):
        made.append(len(self.coeffs))
        return derivative(self)

    monkeypatch.setattr(spectra.Polynomial, "derivative", counted)
    eq = sk.validate_equation([1, 1, 1], [0, 0], [1, 1])
    simple = sk.eigenvalues(sk.Problem(eq, sk.separated_matrix(0.3, 2.0)))
    assert all(m == 1 for _, m in simple.eigenvalues) and not made
    # the antiperiodic-like condition of test_coupled_input_form
    double = sk.eigenvalues(sk.Problem(eq, sk.coupled_matrix(0.0, [[-1, 0], [0, -1]])))
    assert double.eigenvalues == ((2.0, 2),) and made
