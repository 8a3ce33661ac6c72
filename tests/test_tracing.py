import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slpkit as sk
from slpkit import tracing
from slpkit.charts import CHART_IDS
from slpkit.errors import FamilyNotAxisAligned
from slpkit.fixtures import builtin_family, free_equation

from conftest import random_equation
from test_batching import _sweep_n12_family


class TestTrace:
    def test_ex11_event_location_and_counts(self):
        tr = sk.trace(builtin_family("ex1.1"), 512)
        assert len(tr.events) == 1
        ev = tr.events[0]
        assert abs(ev.nu - 0.75 * math.pi) < 1e-3
        assert ev.count_at == 1
        off_event = tr.counts[np.abs(tr.grid - ev.nu) > 1e-6]
        assert set(off_event.tolist()) == {2}

    def test_ex11_event_found_on_misaligned_grid(self):
        # 509 points never hit 3*pi/4 exactly; the crossing detector must
        # still localize it
        tr = sk.trace(builtin_family("ex1.1"), 509)
        assert len(tr.events) == 1
        assert abs(tr.events[0].nu - 0.75 * math.pi) < 1e-9

    def test_ex21_tangential_event(self):
        tr = sk.trace(builtin_family("ex2.1"), 512)
        assert len(tr.events) == 1
        assert abs(tr.events[0].nu - 1.0) < 1e-9

    def test_constant_family_no_events(self):
        prob = sk.Problem(free_equation(), sk.separated_matrix(0.3, 2.0))
        tr = sk.trace(sk.constant_family(prob), 32)
        assert tr.events == []
        assert np.allclose(tr.values, tr.values[:, :1])

    def test_ex11_branch_identity_switches_across_the_jump(self):
        # before the critical angle the lower curve is the minus closed-form
        # root; after it, the plus root becomes the lower one (the escape
        # relabels the sorted indices)
        import math as _m

        def roots(alpha):
            s, c = _m.sin(alpha), _m.cos(alpha)
            disc = _m.sqrt(c * c + 4 * _m.sin(2 * alpha) + 4)
            den = 2 * (c + s)
            return (3 * c + 2 * s - disc) / den, (3 * c + 2 * s + disc) / den

        fam = builtin_family("ex1.1")
        before, after = 0.7 * math.pi, 0.8 * math.pi
        got_b = sk.eigenvalues(fam.resolve(before)).values()
        minus_b, plus_b = roots(before)
        assert got_b[0] == pytest.approx(minus_b, abs=1e-10)
        assert got_b[1] == pytest.approx(plus_b, abs=1e-10)
        got_a = sk.eigenvalues(fam.resolve(after)).values()
        minus_a, plus_a = roots(after)
        assert got_a[0] == pytest.approx(plus_a, abs=1e-10)
        assert got_a[1] == pytest.approx(minus_a, abs=1e-10)

    def test_values_sorted_and_count_aligned(self):
        tr = sk.trace(builtin_family("ex3.1"), 128)
        for i in range(len(tr.grid)):
            k = tr.counts[i]
            col = tr.values[:, i]
            assert np.sum(~np.isnan(col)) == k
            defined = col[~np.isnan(col)]
            assert np.all(np.diff(defined) >= 0)

    @pytest.mark.parametrize("name", ["ex1.1", "ex3.1"])
    def test_each_grid_point_resolved_once(self, name):
        fam = builtin_family(name)
        calls = []
        resolve_fn = fam.resolve_fn
        fam = dataclasses.replace(
            fam, resolve_fn=lambda nu: (calls.append(nu), resolve_fn(nu))[1]
        )
        tr = sk.trace(fam, 64)
        assert tr.events
        grid = [float(nu) for nu in tr.grid]
        assert calls[: len(grid)] == grid
        # refinement may converge onto a grid point that is an event, but
        # never evaluates any other grid point again
        again = set(calls[len(grid) :]) & set(grid)
        assert again <= {ev.nu for ev in tr.events}

    def test_n12_transversal_crossing_reported_as_crossing(self):
        tr = sk.trace(_sweep_n12_family(1), 256)
        assert [ev.kind for ev in tr.events] == ["crossing"]

    @pytest.mark.parametrize(
        "family, grid_size",
        [(builtin_family(name), 512) for name in ("ex1.1", "ex2.1", "ex3.1")]
        + [(_sweep_n12_family(1), 256)],
        ids=["ex1.1", "ex2.1", "ex3.1", "n12-seed1"],
    )
    def test_each_singular_parameter_refined_once(self, monkeypatch, family, grid_size):
        launches = []
        for name in ("_bisect_zero", "_golden_min"):
            refine = getattr(tracing, name)
            monkeypatch.setattr(
                tracing, name, lambda *a, refine=refine: (launches.append(a), refine(*a))[1]
            )
        calls = []
        resolve_fn = family.resolve_fn
        family = dataclasses.replace(
            family, resolve_fn=lambda nu: (calls.append(nu), resolve_fn(nu))[1]
        )
        tr = sk.trace(family, grid_size)
        events = len(tr.events)
        assert events and len(launches) == events
        refinement = calls[grid_size:]
        assert len(refinement) <= 70 * events
        assert len(refinement) - len(set(refinement)) <= events

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            sk.trace(builtin_family("ex1.1"), 8)

    def test_refinement_tightens_continuity_bound(self):
        # smooth stretch, away from the jump
        fam = dataclasses.replace(builtin_family("ex1.1"), domain=(0.0, 2.0), right_open=False)

        def sup_step(n):
            tr = sk.trace(fam, n)
            return float(np.nanmax(np.abs(np.diff(tr.values, axis=1))))

        coarse, fine = sup_step(64), sup_step(128)
        assert fine < 0.75 * coarse


class TestClassifyJump:
    def test_ex11_sides(self):
        tr = sk.trace(builtin_family("ex1.1"), 512)
        jc = sk.classify_jump(tr, 0.75 * math.pi)
        assert jc.limit_values == (pytest.approx(1.0, abs=1e-9),)
        left, right = jc.left, jc.right
        assert left.consistent and right.consistent
        assert [b.kind for b in left.limits] == ["diverges", "converges"]
        assert left.limits[0].sign == -1
        assert left.limits[1].shift == 1
        assert left.limits[1].target == pytest.approx(1.0, abs=1e-9)
        assert [b.kind for b in right.limits] == ["converges", "diverges"]
        assert right.limits[0].shift == 0
        assert right.limits[1].sign == +1

    def test_ex21_upper_branch_escapes_both_sides(self):
        tr = sk.trace(builtin_family("ex2.1"), 512)
        jc = sk.classify_jump(tr, 1.0)
        for side in (jc.left, jc.right):
            assert side.consistent
            assert side.limits[0].kind == "converges"
            assert side.limits[0].value == pytest.approx(0.0, abs=1e-4)
            assert side.limits[1].kind == "diverges"
            assert side.limits[1].sign == +1

    def test_ex31_mixed_pattern(self):
        tr = sk.trace(builtin_family("ex3.1"), 512)
        jc = sk.classify_jump(tr, 1.0)
        assert jc.left.limits[0].kind == "diverges"
        assert jc.left.limits[0].sign == -1
        assert jc.left.limits[1].shift == 1
        assert jc.right.limits[1].kind == "diverges"
        assert jc.right.limits[1].sign == +1
        assert jc.right.limits[0].shift == 0

    def test_unknown_parameter_rejected(self):
        tr = sk.trace(builtin_family("ex1.1"), 512)
        with pytest.raises(ValueError):
            sk.classify_jump(tr, 0.1)


class TestMonotonicity:
    def test_alpha_sweep_decreasing_before_critical(self):
        eq = free_equation()
        fam = sk.separated_angle_family(eq, "alpha", math.pi / 2, 0.0, 2.2)
        report = sk.check_monotonicity(fam, ("alpha",))
        assert report.rule == "non_increasing"
        assert report.ok

    def test_ex11_family_full_domain(self):
        report = sk.check_monotonicity(builtin_family("ex1.1"), grid_size=129)
        assert report.ok

    def test_q_sweep_non_decreasing(self):
        eq = free_equation()
        fam = sk.equation_axis_family(eq, sk.fixtures.ex11_bc(0.0), ("q", 1), 0.0, 5.0)
        report = sk.check_monotonicity(fam)
        assert report.rule == "non_decreasing"
        assert report.ok
        lo = sk.eigenvalues(fam.resolve(0.0)).values()
        hi = sk.eigenvalues(fam.resolve(5.0)).values()
        assert all(h > l for l, h in zip(lo, hi))

    def test_last_f_is_inert(self, rng):
        eq = random_equation(rng, 4, mixed_signs=False)
        bc = sk.separated_matrix(0.4, 2.0)
        fam = sk.equation_axis_family(eq, bc, ("f", 4), 0.5, 3.0)
        report = sk.check_monotonicity(fam)
        assert report.rule == "constant"
        assert report.ok

    def test_w_sweep_shrinks_magnitudes(self):
        eq = free_equation()
        fam = sk.equation_axis_family(eq, sk.fixtures.ex11_bc(0.2), ("w", 1), 0.3, 3.0)
        report = sk.check_monotonicity(fam)
        assert report.rule == "abs_non_increasing"
        assert report.ok

    def test_chart_real_axis_non_decreasing(self):
        eq = free_equation()
        fam = sk.chart_axis_family(eq, "O14", (0.0, 0.4, -0.3, 0.2), 3, -2.0, 2.0)
        report = sk.check_monotonicity(fam)
        assert report.rule == "non_decreasing"
        assert report.ok

    def test_inv_f_sweep_non_increasing(self):
        eq = free_equation()
        fam = sk.equation_axis_family(
            eq, sk.separated_matrix(0.3, 2.0), ("inv_f", 1), 0.4, 2.5
        )
        report = sk.check_monotonicity(fam)
        assert report.rule == "non_increasing"
        assert report.ok

    @pytest.mark.parametrize("grid_size", [64, 65])
    def test_inv_f_sweep_through_its_flagged_parameter(self, grid_size):
        # 1/f_0 = 0, the domain's midpoint, is the family's flagged parameter
        eq = sk.fixtures._fixture_equation_n4()
        bc = sk.validate_bc(np.array(sk.fixtures.COUPLING_BC))
        fam = sk.equation_axis_family(eq, bc, ("inv_f", 0), -1.0, 1.0)
        report = sk.check_monotonicity(fam, grid_size=grid_size)
        assert report.rule == "non_increasing"
        assert report.ok

    def test_misaligned_family_rejected(self):
        eq = free_equation()
        fam = sk.equation_affine_family(eq, free_equation(), sk.separated_matrix(0.3, 2.0))
        with pytest.raises(FamilyNotAxisAligned):
            sk.check_monotonicity(fam)

    def test_direction_mismatch_rejected(self):
        eq = free_equation()
        fam = sk.equation_axis_family(eq, sk.separated_matrix(0.3, 2.0), ("q", 1), 0.0, 1.0)
        with pytest.raises(FamilyNotAxisAligned):
            sk.check_monotonicity(fam, ("q", 2))

    def test_violations_of_a_contradicted_axis(self):
        # q_2 = -nu while the left angle sweeps as in ex1.1: both eigenvalues
        # fall, against the declared ("q", 2) axis; the singular angle
        # 3*pi/4 lies strictly between two grid points
        def resolve(nu):
            eq = sk.validate_equation([1.0, 1.0, 1.0], [0.0, -nu], [1.0, 1.0])
            return sk.Problem(eq, sk.fixtures.ex11_bc(nu))

        fam = sk.Family("axis", (2.0, 2.7), resolve, axis=("q", 2))
        report = sk.check_monotonicity(fam, ("q", 2), grid_size=64)
        tr = sk.trace(fam, 64)
        assert report.rule == "non_decreasing" and not report.ok
        split = int(np.searchsorted(tr.grid, 0.75 * math.pi))
        assert tr.grid[split - 1] < 0.75 * math.pi < tr.grid[split]
        assert set(tr.counts.tolist()) == {2}  # the count never drops on the grid
        assert report.runs == ((0, split), (split, 64))
        assert all(type(end) is int for run in report.runs for end in run)
        # every step of both branches, except the one across the event, in
        # (run, branch, grid index) order
        steps = [(n, i) for lo, hi in report.runs for n in range(2) for i in range(lo, hi - 1)]
        assert len(report.violations) == len(steps) == 124
        for v, (n, i) in zip(report.violations, steps):
            x0, x1 = tr.values[n, i], tr.values[n, i + 1]
            assert (v.index, v.nu_left, v.nu_right) == (n, tr.grid[i], tr.grid[i + 1])
            assert (v.value_left, v.value_right) == (x0, x1)
            assert v.excess == x0 - x1 - 1e-9 * (1.0 + max(abs(x0), abs(x1)))
            assert v.excess > 0.0
            assert [type(x) for x in dataclasses.astuple(v)] == [int] + [float] * 5

    def test_complex_chart_axis_has_no_rule(self):
        eq = free_equation()
        fam = sk.chart_axis_family(eq, "O14", (0.0, 0.4, -0.3, 0.2), 1, -1.0, 1.0)
        with pytest.raises(FamilyNotAxisAligned):
            sk.check_monotonicity(fam)


class TestEquationSideSweeps:
    def test_pole_flip_is_not_an_event(self):
        # sweeping 1/f_0 through 0 flips some chart residuals through a
        # pole (f_0 passes through infinity); with the critical value away
        # from 0 this must produce exactly one event, at the critical value
        eq = sk.validate_equation([1.0, 1.3, 0.7], [0.4, -0.3], [1.2, 0.9])
        bc = sk.validate_bc(np.array(sk.fixtures.COUPLING_BC))  # eta = 1
        fam = sk.equation_axis_family(eq, bc, ("inv_f", 0), -2.0, 2.0)
        tr = sk.trace(fam, 64)
        assert len(tr.events) == 1
        assert abs(tr.events[0].nu - 1.0) < 1e-9

    def test_boundary_limit_event_when_critical_value_is_zero(self):
        # with exactly one vanishing invariant the critical 1/f_0 is 0,
        # which lies on the (excluded) boundary of the equation space: the
        # divergence there is reported, with no resolvable count
        eq = sk.validate_equation([1.0, 1.3, 0.7], [0.4, -0.3], [1.2, 0.9])
        fam = sk.equation_axis_family(
            eq, sk.separated_matrix(0.0, math.pi / 2), ("inv_f", 0), -2.0, 2.0
        )
        tr = sk.trace(fam, 64)
        assert len(tr.events) == 1
        assert abs(tr.events[0].nu) < 1e-12
        assert set(tr.counts.tolist()) == {2}

    def test_case_three_crossing_classifies(self):
        # reduced boundary condition with both invariants zero: crossing
        # the critical 1/f_0 drops the count from N-1 to N-2, with the
        # standard one-down / one-up pattern
        bc = sk.validate_bc([[2.0, -1.0, 0, 0], [0, 0, -1.0, 0]])
        eq4 = sk.validate_equation(
            [1.0, 1.3, 0.7, 1.9, 1.1], [0.4, -0.3, 0.8, 0.1], [1.2, 0.9, 1.5, 1.0]
        )
        fam = sk.equation_axis_family(eq4, bc, ("inv_f", 0), -1.2, -0.1)
        tr = sk.trace(fam, 96)
        assert len(tr.events) == 1
        assert abs(tr.events[0].nu - (-0.5)) < 1e-9
        jc = sk.classify_jump(tr, -0.5)
        assert jc.left.count == 3 and jc.left.limit_count == 2
        assert (jc.left.n_div_minus, jc.left.n_div_plus) == (1, 0)
        assert (jc.right.n_div_minus, jc.right.n_div_plus) == (0, 1)
        assert jc.left.consistent and jc.right.consistent


class TestZeroCountLimit:
    def test_all_branches_escape_at_the_double_point(self):
        # N = 2 at the double-degeneracy point leaves no eigenvalues: the
        # single surviving branch on each side must diverge (no shifts)
        eq = sk.validate_equation([1.3, 0.8, 1.1], [0.2, -0.4], [1.0, 1.5])
        xi = sk.xi_of(eq.f[0])
        fam = sk.separated_angle_family(eq, "beta", xi, 0.0, math.pi)
        tr = sk.trace(fam, 64)
        assert [e.count_at for e in tr.events] == [0]
        jc = sk.classify_jump(tr, math.pi)
        assert jc.limit_values == ()
        assert jc.right is None  # domain ends at the singular point
        assert jc.left.count == 1 and jc.left.limit_count == 0
        assert jc.left.limits[0].kind == "diverges"
        assert jc.left.limits[0].sign == +1
        assert jc.left.consistent

    def test_wraparound_side_escapes_down(self):
        from slpkit.tracing import _classify_sides

        eq = sk.validate_equation([1.3, 0.8, 1.1], [0.2, -0.4], [1.0, 1.5])
        xi = sk.xi_of(eq.f[0])
        fam = sk.separated_angle_family(eq, "beta", xi, 0.0, math.pi)
        limit = sk.Problem(eq, sk.separated_matrix(xi, math.pi))
        _, sides = _classify_sides(fam, 0.0, limit, 0.0, {"right": fam.span * 0.5})
        side = sides["right"]
        assert side.consistent
        assert (side.n_div_minus, side.n_div_plus) == (1, 0)


class TestFamilyResolution:
    def test_unresolvable_off_flagged_set_propagates(self):
        # the straight line in 1/f coordinates crosses 1/f_1 = 0
        eq_a = sk.validate_equation([1.0, 1.0, 1.0], [0, 0], [1, 1])
        eq_b = sk.validate_equation([1.0, -1.0, 1.0], [0, 0], [1, 1])
        fam = sk.equation_affine_family(eq_a, eq_b, sk.separated_matrix(0.3, 2.0))
        with pytest.raises(sk.errors.UnresolvableFamily):
            sk.trace(fam, 17)  # grid hits t = 0.5 exactly

    def test_flagged_parameter_tolerated(self):
        eq = free_equation()
        bc = sk.separated_matrix(0.3, 2.0)

        def resolve(nu):
            if nu == 0.5:
                raise sk.errors.OutOfRange("synthetic failure")
            return sk.Problem(eq, bc)

        fam = sk.Family("constant", (0.0, 1.0), resolve, flagged=(0.5,))
        tr = sk.trace(fam, 17)
        i = int(np.argmin(np.abs(tr.grid - 0.5)))
        assert tr.counts[i] == -1
        assert all(c == 2 for j, c in enumerate(tr.counts) if j != i)

    def test_family_is_frozen(self):
        fam = builtin_family("ex1.1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.domain = (0.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.resolve_fn = fam.resolve


class TestAsymptoticFixture:
    def test_one_fixture_quickly(self):
        report = sk.verify_asymptotic_theorem("chart-i4-crossing")
        assert report.passed


# -- the grid scans against the per-point loops that they replaced -------------


def _loop_count_drops(grid, counts):
    """The count-drop scan of ``trace`` as the per-point loop that
    ``tracing._count_drops`` replaced, kept as its reference."""
    grid_size = len(grid)
    candidates = []

    def neighbor_counts(i):
        left = counts[i - 1] if i > 0 else None
        right = counts[i + 1] if i + 1 < grid_size else None
        return left, right

    # count drops sitting exactly on a grid point
    for i in range(grid_size):
        if counts[i] < 0:
            lo = grid[i - 1] if i > 0 else grid[i]
            hi = grid[i + 1] if i + 1 < grid_size else grid[i]
            cl, cr = neighbor_counts(i)
            candidates.append(
                sk.SingularEvent(float(grid[i]), (float(lo), float(hi)), "degenerate", None, cl, cr)
            )
            continue
        cl, cr = neighbor_counts(i)
        defined = [c for c in (cl, cr) if c is not None and c >= 0]
        if defined and counts[i] < max(defined):
            candidates.append(
                sk.SingularEvent(float(grid[i]), (float(grid[i]), float(grid[i])), "grid", int(counts[i]), cl, cr)
            )
    return candidates


def _loop_grid_flags(chart, fields):
    """The crossing, dip and cone detectors of ``trace`` on one chart's
    fields, as the per-point loops that ``tracing._grid_flags`` replaced,
    kept as its reference."""
    grid_size = len(fields["residual"])
    flags = []
    res, tols = fields["residual"], fields["tol"]
    live = ~np.isnan(res)
    on_set = live & (np.abs(res) <= tols)
    # transversal crossings: a genuine sign change between two points
    # solidly off the set
    for i in range(grid_size - 1):
        if not (live[i] and live[i + 1]):
            continue
        if on_set[i] or on_set[i + 1]:
            continue
        if (res[i] > 0) != (res[i + 1] > 0):
            flags.append((i, i + 1, "crossing", chart, "residual", res[i], res[i + 1]))
    # tangential touches, which never change sign: interior dips of
    # |residual|
    for i in range(1, grid_size - 1):
        if not (live[i - 1] and live[i] and live[i + 1]):
            continue
        if on_set[i - 1] or on_set[i + 1]:
            continue
        trio = np.abs(res[i - 1 : i + 2])
        # a symmetric touch can split its dip over two equal grid
        # values; break the tie toward the left point
        if trio[1] < trio[0] and trio[1] <= trio[2]:
            flags.append((i - 1, i + 1, "dip", chart, "residual", trio[0], trio[2]))
    # stretches inside a rank-one set: a double degeneracy announces
    # itself by a sign change of a cone coordinate
    if chart not in ("O13", "O23"):
        return flags
    for coord, coord_tol in (("p", "p_tol"), ("r2", "r2_tol")):
        cone, cone_tol = fields[coord], fields[coord_tol]
        for i in range(grid_size - 1):
            if not (on_set[i] and on_set[i + 1]):
                continue
            vi, vj = cone[i], cone[i + 1]
            if abs(vi) <= cone_tol[i] or abs(vj) <= cone_tol[i + 1]:
                continue
            if (vi > 0) != (vj > 0):
                flags.append((i, i + 1, "cone", chart, coord, vi, vj))
    return flags


def _typed(items):
    """The repr of every flag or event with the types of its parts: equal
    scans agree in numpy and Python scalar types too."""
    parts = [dataclasses.astuple(x) if dataclasses.is_dataclass(x) else x for x in items]
    return [(repr(x), [type(part) for part in p]) for x, p in zip(items, parts)]


# |residual| <= tol = 1e-9 lies on the set; repeated moduli make exact dip ties
_RESIDUALS = (-2.0, -1.0, -0.5, -1e-12, 0.0, 1e-12, 0.5, 1.0, 2.0, math.nan)
_CONES = (-1.0, -1e-12, 0.0, 1e-12, 1.0, math.nan)
_FIELD_VALUES = {
    "residual": _RESIDUALS, "tol": (1e-9, 1e-9, 0.6), "p": _CONES, "p_tol": (1e-9, 0.6),
    "r2": _CONES, "r2_tol": (1e-9,),
}


@st.composite
def _chart_fields(draw):
    """A chart and its test fields over a grid, with a stretch where the
    family is unresolvable (every field NaN) besides the NaN residuals
    where the chart alone leaves a point out."""
    n = draw(st.integers(3, 40))
    fields = {
        name: np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
        for name, values in _FIELD_VALUES.items()
    }
    start, length = draw(st.integers(0, n - 1)), draw(st.integers(0, 5))
    for column in fields.values():
        column[start : start + length] = np.nan
    return draw(st.sampled_from(CHART_IDS)), fields


def _edge_case_fields():
    """In the O13 chart: a dip tie, an on-set run whose p changes sign and
    whose r2 runs from positive to NaN (not positive, and clear of its
    tolerance), a NaN stretch, a crossing, and a dip whose middle lies on
    the set."""
    nan = math.nan
    fields = {
        "residual": [1.0, 0.5, 0.5, 1.0, 0.0, 1e-12, nan, nan, 2.0, -1.0, 0.0, -1.0],
        "p": [1.0, 1.0, 1.0, 1.0, 1.0, -1.0, nan, nan, 1.0, 1.0, 1.0, 1.0],
        "r2": [1.0, 1.0, 1.0, 1.0, 1.0, nan, nan, nan, 1.0, 1.0, 1.0, 1.0],
    }
    fields = {name: np.array(column) for name, column in fields.items()}
    for name in ("tol", "p_tol", "r2_tol"):
        fields[name] = np.full(12, 1e-9)
    return "O13", fields


@settings(max_examples=200, deadline=None)
@given(case=_chart_fields())
@example(case=_edge_case_fields())
def test_grid_flags_equal_the_per_point_loops(case):
    chart, fields = case
    assert _typed(tracing._grid_flags(chart, fields)) == _typed(_loop_grid_flags(chart, fields))


def test_edge_case_flags():
    flags = tracing._grid_flags(*_edge_case_fields())
    assert [flag[:3] for flag in flags] == [
        (8, 9, "crossing"), (0, 2, "dip"), (9, 11, "dip"), (4, 5, "cone"), (4, 5, "cone"),
    ]
    assert [flag[4] for flag in flags[3:]] == ["p", "r2"]
    assert flags[2][5:] == (1.0, 1.0)  # the moduli at the dip's ends


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.sampled_from((-1, 0, 1, 2, 3)), min_size=1, max_size=40),
    undefined_edges=st.booleans(),
)
@example(counts=[2, 1, 2, -1, 3, 3, 0], undefined_edges=True)
def test_count_drops_equal_the_per_point_loop(counts, undefined_edges):
    if undefined_edges:
        counts = [-1] + counts + [-1]
    counts = np.array(counts)
    grid = np.linspace(0.0, 1.0, len(counts))
    assert _typed(tracing._count_drops(grid, counts)) == _typed(_loop_count_drops(grid, counts))


def _loop_monotonicity(tr, rule, grid_size):
    """The run split and the excess loop of ``check_monotonicity`` as the
    per-point loops that the array version replaced, kept as its
    reference: the runs and the violations."""
    violations = []
    # constant-count stretches, additionally split at detected singular
    # parameters (which need not sit on the grid)
    event_nus = [ev.nu for ev in tr.events]

    def crosses_event(i):
        return any(tr.grid[i] < nu < tr.grid[i + 1] for nu in event_nus)

    runs = []
    start = 0
    for i in range(1, grid_size + 1):
        if (
            i == grid_size
            or tr.counts[i] != tr.counts[start]
            or crosses_event(i - 1)
        ):
            if tr.counts[start] > 0 and i - start >= 2:
                runs.append((start, i))
            start = i
    for lo, hi in runs:
        k = int(tr.counts[lo])
        for n in range(k):
            seq = tr.values[n, lo:hi]
            for i in range(len(seq) - 1):
                x0, x1 = float(seq[i]), float(seq[i + 1])
                slack = 1e-9 * (1.0 + max(abs(x0), abs(x1)))
                if rule == "non_decreasing":
                    excess = x0 - x1 - slack
                elif rule == "non_increasing":
                    excess = x1 - x0 - slack
                elif rule == "abs_non_increasing":
                    excess = abs(x1) - abs(x0) - slack
                else:  # constant
                    excess = abs(x1 - x0) - 1e-12 * (1.0 + max(abs(x0), abs(x1)))
                if excess > 0.0:
                    violations.append(
                        tracing.MonotonicityViolation(
                            n,
                            float(tr.grid[lo + i]),
                            float(tr.grid[lo + i + 1]),
                            x0,
                            x1,
                            excess,
                        )
                    )
    return tuple(runs), tuple(violations)


# steps within and just beyond each rule's slack, and sign flips for the
# magnitude rule
_BRANCH_VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 1e-10, 1.0 + 1e-8)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_monotonicity_runs_and_excess_equal_the_per_point_loops(data):
    n = data.draw(st.integers(2, 30))
    counts = np.array(data.draw(st.lists(st.sampled_from((-1, 0, 1, 2)), min_size=n, max_size=n)))
    values = np.full((2, n), np.nan)
    for i, count in enumerate(counts.tolist()):
        values[: max(count, 0), i] = data.draw(
            st.lists(st.sampled_from(_BRANCH_VALUES), min_size=max(count, 0), max_size=max(count, 0))
        )
    grid = np.linspace(0.0, 1.0, n)
    # on the grid, strictly inside an interval, or outside the domain
    places = np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:]), [-1.0, 2.0]]).tolist()
    nus = data.draw(st.lists(st.sampled_from(places), max_size=4))
    events = [sk.SingularEvent(nu, (nu, nu), "grid", 1, None, None) for nu in nus]
    rule = data.draw(st.sampled_from(("non_decreasing", "non_increasing", "abs_non_increasing", "constant")))
    tr = tracing.BranchTrace(None, grid, values, counts, counts < 0, events)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracing, "trace", lambda family, grid_size: tr)
        patch.setattr(tracing, "_rule_for_axis", lambda family, grid_size: rule)
        family = sk.Family("axis", (0.0, 1.0), None, axis=("q", 1))
        report = tracing.check_monotonicity(family, grid_size=n)
    runs, violations = _loop_monotonicity(tr, rule, n)
    assert (report.rule, report.runs) == (rule, runs)
    assert [[type(end) for end in run] for run in report.runs] == [[int, int]] * len(runs)
    assert _typed(report.violations) == _typed(violations)
