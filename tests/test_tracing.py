import dataclasses
import math

import numpy as np
import pytest

import slpkit as sk
from slpkit import tracing
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
