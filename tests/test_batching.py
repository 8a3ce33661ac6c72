"""The batched pencil solve: stacking trace grids, refined candidates and
jump samples into one ``eigvalsh`` per pencil shape changes no bit of any
spectrum."""

import math

import numpy as np
import pytest

import slpkit as sk
from slpkit import fixtures, spectra, tracing
from slpkit.errors import DegreeMismatch, NonRealRoot
from slpkit.fixtures import builtin_family, free_equation
from slpkit.oracles import pencil_eigenvalues_separated
from slpkit.tolerances import TOL

from slpkit.spectra import _eigenvalues_many, eigenvalues_many


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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
    [(builtin_family("ex1.1"), 257), (builtin_family("ex2.1"), 257),
     (builtin_family("ex3.1"), 257), (_n12_k11_family(12), 65)],
    ids=["ex1.1", "ex2.1", "ex3.1", "n12-k11"],
)
def test_trace_grid_equals_per_point_eigenvalues(family, grid_size):
    values, counts, near = _per_point(family, grid_size)
    tr = sk.trace(family, grid_size)
    assert np.array_equal(_bits(tr.values), _bits(values))
    assert np.array_equal(tr.counts, counts)
    assert np.array_equal(tr.near_singular, near)
    assert tr.events


def _n32_draw():
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
    eq = sk.validate_equation(f, q, w)
    return sk.Problem(eq, sk.separated_matrix(alpha, beta)), (eq, alpha, beta)


def test_eigenvalues_many_returns_what_eigenvalues_raises():
    gap = sk.Problem(
        free_equation(), sk.validate_bc(sk.chart_matrix("O14", (1 + 3e-12, 0.5, -0.3, 0.7)))
    )
    benign = sk.Problem(free_equation(), sk.validate_bc(sk.chart_matrix("O14", (1.5, 0.5, -0.3, 0.7))))
    draw, separated = _n32_draw()
    problems = [benign, gap, draw, benign]
    results = eigenvalues_many(problems)
    for problem, result in zip(problems, results):
        if problem is not gap:
            assert result.values() == sk.eigenvalues(problem).values()
            continue
        with pytest.raises(DegreeMismatch) as raised:
            sk.eigenvalues(problem)
        assert type(result) is type(raised.value)
        assert result.args == raised.value.args
    assert type(results[1]) is DegreeMismatch
    # the N = 32 draw whose monomial roots overflowed: 32 pencil values
    got, want = np.array(results[2].values()), pencil_eigenvalues_separated(*separated)
    assert len(got) == 32 and np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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


def test_kernel_call_budget(monkeypatch):
    """trace: one ``eigvalsh`` stack per pencil shape for the grid and one
    per shape for the refined candidates; classify_jump: one per shape for
    the limit, both sides and the samples that fail the count gate."""
    calls = []  # (stage, matrix size, dtype kind)
    stage = ["outside"]
    eigvalsh = np.linalg.eigvalsh
    spectra_or_none = tracing._spectra_or_none
    many = tracing._eigenvalues_many
    recovered = []  # the rows of the jump's solve that fail the count gate

    def counted(h):
        calls.append((stage[0], h.shape[-1], h.dtype.kind))
        return eigvalsh(h)

    def staged(problems):
        stage[0] = "grid" if stage[0] == "outside" else "candidates"
        try:
            return spectra_or_none(problems)
        finally:
            stage[0] = "between"

    def recording(problems, recover=None):
        def recorded(i, mismatch):
            recovered.append(i)
            return recover(i, mismatch)
        return many(problems, recorded if recover else None)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(tracing, "_spectra_or_none", staged)
    monkeypatch.setattr(tracing, "_eigenvalues_many", recording)
    family = _sweep_n12_family(1)
    tr = sk.trace(family, 256)
    assert {c[0] for c in calls} == {"grid", "candidates"}
    for name in ("grid", "candidates"):
        shapes = [c[1:] for c in calls if c[0] == name]
        assert len(shapes) == len(set(shapes)), (name, shapes)
    assert len(tr.events) == 1

    del calls[:]
    stage[0] = "jump"
    jc = sk.classify_jump(tr, tr.events[0].nu)
    shapes = [c[1:] for c in calls]
    assert len(shapes) == len(set(shapes)), shapes
    assert recovered, "no jump sample failed the count gate"
    assert jc.left.consistent and jc.right.consistent


def _reference_values(problem, escaping):
    """One problem's values as classify_jump samples them, one solve per
    problem: its spectrum, else its pencil at the count of the trimmed
    characteristic polynomial (a limit), or, for a sample (``escaping``),
    at the rank-based count, which keeps the escaping eigenvalues."""
    try:
        return sk.eigenvalues(problem).values()
    except DegreeMismatch as mismatch:
        count = mismatch.expected if escaping else mismatch.degree
    r = min(max(count - problem.equation.N + 2, 0), 2)
    ((values, _),) = spectra._pencil_eigenvalues([problem], [r])
    return tuple(values)


def _reference_sides(family, nu0, limit, bracket_width, gaps):
    limit_values = tuple(
        float(v) for v in _reference_values(limit, False) if abs(v) <= TOL.divergence
    )
    sides = {}
    for side, gap in gaps.items():
        samples = [
            (h, _reference_values(problem, True))
            for h, problem in tracing._side_offsets(family, nu0, side, bracket_width, gap)
        ]
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
    # a jump sample in the tolerance gap is solved at the rank-based count
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
    """A limit problem in the tolerance gap is solved at the count of its
    trimmed characteristic polynomial, the samples beside it at the
    rank-based count, in one stacked solve."""
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
    ``eigenvalues_many`` (with the ``recover`` of ``_eigenvalues_many``)
    that fails the problems at chosen parameters with ``NonRealRoot(nu)``."""

    def __init__(self, family):
        self.nu_of = {}
        self.fail = set()
        resolve = family.resolve_fn

        def tagged(nu):
            problem = resolve(nu)
            self.nu_of[id(problem)] = nu
            return problem

        self.family = sk.Family(family.kind, family.domain, tagged, label=family.label)

    def eigenvalues_many(self, problems, recover=None):
        results = _eigenvalues_many(problems, recover)
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
    monkeypatch.setattr(tracing, "_eigenvalues_many", tagged.eigenvalues_many)
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
    # a separated family touching the alpha = xi(f_0) set near pi, 2 pi and
    # 3 pi: one refined candidate per event
    eq4 = fixtures._fixture_equation_n4()
    xi = sk.xi_of(eq4.f[0])
    family = sk.Family(
        "separated-angle", (0.0, 10.0),
        lambda nu: sk.Problem(eq4, sk.separated_matrix(xi + 0.3 * math.sin(nu), 1.9)),
    )
    tagged = _Tagged(family)
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
