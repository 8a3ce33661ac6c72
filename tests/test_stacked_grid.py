"""Stacked grid evaluation: the chart tests and the count data of a whole
trace grid, computed in stacks, carry the bits of one-problem evaluations."""

import dataclasses
import math

import numpy as np

import slpkit as sk
from slpkit import charts, discontinuity, spectra, tracing
from slpkit.charts import c_point_matrix
from slpkit.discontinuity import ChartTest, _chart_test_stack, _chart_tests
from slpkit.tolerances import TOL

from conftest import random_coupled, random_equation, random_invertible, random_separated
from test_batching import _sweep_n12_family


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# -- references: one problem at a time, in numpy-scalar arithmetic ----------------

_PIVOT = {"O13": (0, 2), "O14": (0, 3), "O23": (1, 2), "O24": (1, 3)}
_TARGET = {
    "O13": np.diag([1.0, -1.0]), "O14": np.diag([1.0, 1.0]),
    "O23": np.diag([-1.0, -1.0]), "O24": np.diag([-1.0, 1.0]),
}
_READOUT = {
    "O13": ((0, 1), (1, 1), (0, 3), (1, 3)),
    "O14": ((0, 1), (1, 1), (0, 2), (1, 2)),
    "O23": ((0, 0), (1, 0), (0, 3), (1, 3)),
    "O24": ((0, 0), (1, 0), (0, 2), (1, 2)),
}


def _reference_coords(bc, chart):
    """The chart coordinates read entry by entry from the normalized
    matrix; None where the chart does not cover ``bc``."""
    m = bc.matrix
    block = m[:, _PIVOT[chart]]
    if np.linalg.svd(block, compute_uv=False)[-1] <= TOL.rank * bc.scale:
        return None
    nm = (_TARGET[chart] @ np.linalg.inv(block)) @ m
    p1, pz, pzc, p2 = _READOUT[chart]
    z = 0.5 * (nm[pz] + nm[pzc].conjugate())
    drift = max(abs(nm[pz] - nm[pzc].conjugate()), abs(nm[p1].imag), abs(nm[p2].imag))
    if drift > 1e-6 * max(1.0, float(np.abs(nm).max())):
        return None
    return float(nm[p1].real), float(z.real), float(z.imag), float(nm[p2].real)


def _reference_chart_tests(bc, f0):
    inv_f0 = 1.0 / f0
    out = {}
    for chart in sk.CHART_IDS:
        coords = _reference_coords(bc, chart)
        if coords is None:
            continue
        r1, zr, zi, r2 = coords
        zsq = zr * zr + zi * zi
        sm = TOL.set_membership
        if chart == "O14":
            out[chart] = ChartTest(chart, r1 - inv_f0, sm * max(1.0, abs(r1), abs(inv_f0)))
        elif chart == "O24":
            out[chart] = ChartTest(chart, r1 + f0, sm * max(1.0, abs(r1), abs(f0)))
        else:
            p = (r1 - inv_f0) if chart == "O13" else (r1 + f0)
            other = inv_f0 if chart == "O13" else f0
            out[chart] = ChartTest(
                chart, p * r2 - zsq, sm * max(1.0, abs(p * r2), zsq), p=p, r2=r2,
                p_tol=sm * max(1.0, abs(r1), abs(other)), r2_tol=sm * max(1.0, abs(r2)),
            )
    return out


def _reference_char_poly(problem):
    """Coefficients combined per problem, with a numpy-scalar constant term."""
    a, b = problem.bc.A, problem.bc.B
    fs = spectra.fundamental_solutions(problem.equation)
    c = np.array([[b[0, 0], b[1, 0]], [b[0, 1], b[1, 1]]]) @ np.array(
        [[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]]
    )
    coeffs = np.zeros(problem.equation.N + 1, dtype=complex)
    coeffs += c[0, 0] * fs.phi_N.coeffs
    coeffs += c[0, 1] * fs.psi_N.coeffs
    coeffs += c[1, 0] * fs.fdphi_N.coeffs
    coeffs += c[1, 1] * fs.fdpsi_N.coeffs
    coeffs[0] += (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]) + (b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
    return coeffs


def _reference_rank(problem):
    a, b = problem.bc.A, problem.bc.B
    f0 = problem.equation.f[0]
    m = np.array([[-a[0, 0] + f0 * a[0, 1], b[0, 1]], [-a[1, 0] + f0 * a[1, 1], b[1, 1]]])
    scale = max(
        float(np.max(np.abs(a[:, 0]))),
        abs(f0) * float(np.max(np.abs(a[:, 1]))),
        float(np.max(np.abs(b[:, 1]))),
    )
    if scale == 0.0:
        return 0
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > TOL.rank * scale))


# -- a corpus that reaches every branch of the chart tests -------------------------


def _on_set_coords(rng, chart, f0):
    """Chart coordinates on the chart's set of the equation with this f_0."""
    r1, zr, zi, r2 = rng.uniform(-2.0, 2.0, 4)
    if chart == "O14":
        return 1.0 / f0, zr, zi, r2
    if chart == "O24":
        return -f0, zr, zi, r2
    shift = 1.0 / f0 if chart == "O13" else -f0
    return shift + (zr * zr + zi * zi) / r2, zr, zi, r2


def _chart_corpus(seed=515):
    """Chart conditions (random, on their set, with z = 0) plus separated,
    coupled and C-point conditions, a third of them twisted."""
    rng = np.random.default_rng(seed)
    problems = []
    for k in range(480):
        eq = random_equation(rng, int(rng.integers(2, 7)))
        f0 = eq.f[0]
        chart = sk.CHART_IDS[k % 4]
        kind = (k // 4) % 6
        if kind == 0:
            bc = sk.validate_bc(sk.chart_matrix(chart, rng.uniform(-2.0, 2.0, 4)))
        elif kind == 1:
            bc = sk.validate_bc(sk.chart_matrix(chart, _on_set_coords(rng, chart, f0)))
        elif kind == 2:
            r1, _, _, r2 = rng.uniform(-2.0, 2.0, 4)
            bc = sk.validate_bc(sk.chart_matrix(chart, (r1, 0.0, 0.0, r2)))
        elif kind == 3:
            # alpha = 0 leaves O23 out and alpha = pi/2 leaves O13 out
            bc = random_separated(rng) if k % 2 else sk.separated_matrix(
                (k % 4) * math.pi / 4, rng.uniform(0.1, 3.0)
            )
        elif kind == 4:
            bc = random_coupled(rng)
        else:
            bc = sk.validate_bc(c_point_matrix(1.0 / f0))
        if k % 3 == 2:
            bc = sk.validate_bc(random_invertible(rng) @ bc.matrix)
        problems.append(sk.Problem(eq, bc))
    return problems


def _stacked_tests(stack, i):
    """Row i of a _chart_test_stack result, as _chart_tests returns it."""
    out = {}
    for chart, fields in stack.items():
        if not np.isnan(fields["residual"][i]):
            out[chart] = ChartTest(chart, **{k: v[i].item() for k, v in fields.items()})
    return out


def test_stacked_chart_tests_equal_per_problem_tests():
    problems = _chart_corpus()
    stack = _chart_test_stack(problems)
    covered = {c: 0 for c in sk.CHART_IDS}
    on_set = {c: 0 for c in sk.CHART_IDS}
    for i, problem in enumerate(problems):
        f0 = problem.equation.f[0]
        want = repr(_reference_chart_tests(problem.bc, f0))
        assert repr(_chart_tests(problem.bc, f0)) == want, i
        assert repr(_stacked_tests(stack, i)) == want, i
        for chart, test in _reference_chart_tests(problem.bc, f0).items():
            covered[chart] += 1
            on_set[chart] += abs(test.residual) <= test.tol
    # every chart is both covered and left out (NotInChart), and reached on
    # its set
    assert all(0 < covered[c] < len(problems) for c in sk.CHART_IDS), covered
    assert all(on_set[c] >= 10 for c in sk.CHART_IDS), on_set


def test_normalize_to_chart_keeps_its_coordinates_and_errors():
    problems = _chart_corpus(616)[:120]
    for problem in problems:
        for chart in sk.CHART_IDS:
            want = _reference_coords(problem.bc, chart)
            try:
                got = sk.normalize_to_chart(problem.bc, chart).coords
            except sk.errors.NotInChart as exc:
                assert want is None
                assert str(exc).startswith(f"pivot block for {chart} is singular (sigma_min=")
                continue
            assert got == want and _bits(got).tolist() == _bits(want).tolist()
    gap = sk.separated_matrix(math.pi / 2, 2.0)  # its A block has no first column
    with np.testing.assert_raises(sk.errors.NotInChart):
        sk.normalize_to_chart(gap, "O13")


def test_stacked_count_data_equal_char_poly_and_rank_r():
    """The sweep-n12 seed-2 grid holds problems whose constant term moves
    in its last bit when the determinants are taken as array products."""
    family = _sweep_n12_family(2)
    problems = [family.resolve(float(nu)) for nu in family.grid(256)] + _chart_corpus()
    gammas, ranks = spectra._count_data(problems)
    for problem, gamma, r in zip(problems, gammas, ranks.tolist()):
        want = _reference_char_poly(problem)
        assert _bits(gamma.coeffs).tolist() == _bits(want).tolist()
        assert _bits(sk.char_poly(problem).coeffs).tolist() == _bits(want).tolist()
        assert r == sk.rank_r(problem) == _reference_rank(problem)
    assert set(ranks.tolist()) == {0, 1, 2}


def test_grid_makes_no_per_point_chart_or_count_call(monkeypatch):
    """An event-free trace computes its chart tests and count data in stacks
    only: no normalize_to_chart, rank_r or char_poly call at all."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def run(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, run)

    for module, name in [
        (charts, "normalize_to_chart"), (discontinuity, "normalize_to_chart"),
        (spectra, "char_poly"), (spectra, "rank_r"),
        (tracing, "_chart_test_stack"), (tracing, "eigenvalues_many"),
    ]:
        counted(module, name)
    eq = sk.validate_equation([1.0, 0.8, 1.3, 0.9], [0.2, -0.4, 0.1], [1.0, 1.5, 0.7])
    family = sk.coupled_axis_family(
        eq, 0.4, [[2.0, 0.5], [0.3, (1.0 + 0.15) / 2.0]], "k11", 2.0, 3.0
    )
    tr = sk.trace(family, 64)
    assert not tr.events and set(tr.counts.tolist()) == {3}
    assert calls.count("_chart_test_stack") == 1
    assert not {"normalize_to_chart", "char_poly", "rank_r"} & set(calls), calls


def test_unresolvable_grid_points_leave_the_other_tests_in_place():
    """Flagged unresolvable grid points stay out of the stacks, and every
    other point keeps its own tests: holes before a transversal crossing
    add their "degenerate" events and leave the crossing as it was."""
    eq = sk.validate_equation([1.0, 0.8, 1.3], [0.2, -0.4], [1.0, 1.5])
    base = sk.chart_axis_family(eq, "O14", (1.0, 0.5, -0.3, 0.7), 0, 0.5, 1.6)
    grid = base.grid(64)
    holes = (float(grid[5]), float(grid[9]))

    def resolve(nu):
        if nu in holes:
            raise sk.errors.OutOfRange("synthetic failure")
        return base.resolve_fn(nu)

    holed = sk.trace(dataclasses.replace(base, resolve_fn=resolve, flagged=holes), 64)
    whole = sk.trace(base, 64)
    assert [ev.kind for ev in whole.events] == ["crossing"]
    assert [ev.nu for ev in holed.events if ev.kind == "degenerate"] == list(holes)
    assert repr([ev for ev in holed.events if ev.kind != "degenerate"]) == repr(whole.events)
