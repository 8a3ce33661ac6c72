"""Eigenvalue curves along one-parameter families of problems.

``trace`` samples the spectrum on a grid, locates the parameters where the
eigenvalue count drops (candidate singular parameters), and returns the
per-index curves; within any interval of constant count the sorted-order
indexing is continuous, so curves are meaningful there.  ``classify_jump``
decides, for each side of a singular parameter and each index, whether the
branch diverges (with sign) or converges to an eigenvalue of the limit
problem (with an integer index shift), and checks the bookkeeping: the
branches diverging to -infinity occupy the bottom indices, those to
+infinity the top ones, and every surviving branch shifts down by the
number lost below it.  ``check_monotonicity`` verifies the directional
monotonicity of the curves along single-coordinate sweeps, and
``verify_asymptotic_theorem`` runs the named crossing fixtures of
:mod:`slpkit.fixtures` against their expected divergence/shift patterns.
"""

from __future__ import annotations

import math
from itertools import starmap
from dataclasses import dataclass, replace

import numpy as np

from .charts import CHART_IDS
from .discontinuity import _chart_test_stack, _chart_tests
from .errors import DegreeMismatch, FamilyNotAxisAligned, PatternMismatch, UnresolvableFamily
from .families import Family
from .fixtures import PatternCheck, _asymptotic_checks
from .model import Problem
from .spectra import Spectrum, eigenvalues_many, _eigenvalues_many
from .tolerances import TOL

_EPS = float(np.finfo(float).eps)

# the sharper observation of a parameter first
_KIND_RANK = {"grid": 0, "crossing": 1, "cone": 2, "dip": 3, "degenerate": 4}


@dataclass(frozen=True)
class SingularEvent:
    """A located candidate singular parameter."""

    nu: float
    bracket: tuple
    kind: str  # "grid", "crossing", "dip", "cone", "degenerate"
    count_at: int | None
    count_left: int | None
    count_right: int | None


@dataclass
class BranchTrace:
    family: Family
    grid: np.ndarray
    values: np.ndarray  # (k_max, n) with NaN above the local count
    counts: np.ndarray  # -1 where the spectrum could not be computed
    near_singular: np.ndarray
    events: list


def _spectra_or_none(problems: list) -> list:
    """The spectrum of every problem, or None where it sits in the tolerance
    gap (DegreeMismatch), in one batched solve; the first other error, in
    problem order, is raised."""
    out = []
    for result in eigenvalues_many(problems):
        if isinstance(result, DegreeMismatch):
            result = None
        elif isinstance(result, Exception):
            raise result
        out.append(result)
    return out


def _grid_problem(family: Family, nu: float) -> Problem | None:
    """The problem at a grid parameter; None where the family is
    unresolvable at one of its flagged parameters."""
    try:
        return family.resolve(nu)
    except UnresolvableFamily:
        if any(abs(nu - fl) <= 1e-9 * max(1.0, abs(nu)) for fl in family.flagged):
            return None
        raise


@dataclass(frozen=True)
class _Candidate:
    """The refined candidate of one group of flags, waiting for the
    spectrum at its parameter; a trace solves its candidates together.
    ``event`` lacks only the count there, and ``ref`` is the count at the
    nearest grid point (None where undefined)."""

    problem: Problem
    event: SingularEvent
    ref: int | None
    residual_collapsed: bool

    def verified(self, spec: Spectrum | None) -> SingularEvent | None:
        """Accept the candidate only if the problem there actually
        degenerates.  A candidate whose spectrum cannot be evaluated at all
        additionally needs its residual to have collapsed: a sign flip
        through a pole (chart boundary, or f_0 passing through infinity)
        leaves the residual huge and is discarded."""
        if spec is None:
            return self.event if self.residual_collapsed else None
        if (self.ref is not None and spec.predicted_count < self.ref) or spec.near_singular:
            return replace(self.event, count_at=int(spec.predicted_count))
        return None


def _bisect_zero(fn, lo, hi, f_lo, f_hi):
    """Refine a sign change of fn to near machine width; exact zeros stop
    immediately."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = fn(mid)
        if f_mid is None:
            break
        if f_mid == 0.0:
            return mid, mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            break
    return lo, hi


def _golden_min(fn, lo, hi):
    """Golden-section minimizer of fn on [lo, hi] down to machine width."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(200):
        if hi - lo <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    return 0.5 * (lo + hi)


def _count_drops(grid: np.ndarray, counts: np.ndarray) -> list:
    """The events at grid points where the count drops, in grid order: a
    "degenerate" event where the count is undefined (-1), a "grid" event
    where a defined count lies below its larger defined neighbour."""
    padded = np.concatenate(([-1], counts, [-1]))  # an undefined neighbour
    last = len(grid) - 1
    events = []
    for i in np.flatnonzero((counts < 0) | (counts < np.maximum(padded[:-2], padded[2:]))).tolist():
        cl, cr = (counts[i - 1] if i > 0 else None), (counts[i + 1] if i < last else None)
        nu = float(grid[i])
        if counts[i] < 0:
            bracket = (float(grid[max(i - 1, 0)]), float(grid[min(i + 1, last)]))
            events.append(SingularEvent(nu, bracket, "degenerate", None, cl, cr))
        else:
            events.append(SingularEvent(nu, (nu, nu), "grid", int(counts[i]), cl, cr))
    return events


def _grid_flags(chart: str, fields: dict) -> list:
    """The flags (first grid index, last grid index, kind, chart, field,
    value at first, value at last) of one chart's test fields over the grid,
    whose residual is NaN where the chart or the family leaves a point out:
    "crossing", a sign change of the residual between two points off the
    set; "dip", an interior minimum of |residual| between two points off
    the set (a tangential touch never changes sign), carrying the moduli at
    its ends, where a tie goes to the left point, as a symmetric touch can
    split its dip over two equal values; "cone", in the rank-one charts, a
    sign change of a cone coordinate (p, then r2) between two points on the
    set, both clear of its tolerance.  In that order, each in grid order."""
    res = fields["residual"]
    live = ~np.isnan(res)
    on_set = live & (np.abs(res) <= fields["tol"])
    off_set = live & ~on_set
    mod = np.abs(res)

    def flagged(kind, coord, values, mask, width=1):
        return [(i, i + width, kind, chart, coord, values[i], values[i + width])
                for i in np.flatnonzero(mask).tolist()]

    def sign_change(values, where):  # between two neighbours where both hold
        positive = values > 0
        return where[:-1] & where[1:] & (positive[:-1] != positive[1:])

    flags = flagged("crossing", "residual", res, sign_change(res, off_set))
    dip = off_set[:-2] & live[1:-1] & off_set[2:] & (mod[1:-1] < mod[:-2]) & (mod[1:-1] <= mod[2:])
    flags += flagged("dip", "residual", mod, dip, width=2)
    for coord in ("p", "r2") if chart in ("O13", "O23") else ():
        clear = on_set & ~(np.abs(fields[coord]) <= fields[coord + "_tol"])  # NaN is clear
        flags += flagged("cone", coord, fields[coord], sign_change(fields[coord], clear))
    return flags


def trace(family: Family, grid_size: int) -> BranchTrace:
    """Evaluate the family on a grid and locate candidate singular
    parameters.

    Detection combines exact count drops at grid points
    (:func:`_count_drops`) with the flags of every chart's test fields
    (:func:`_grid_flags`), which only mark grid intervals.  Flags over
    overlapping intervals are grouped, and each group is refined once, by
    its sharpest flag (crossing, then cone, then dip; in ``CHART_IDS``
    order) that refinement accepts.  Every refined candidate is verified
    against an actual count drop or near-singular flag before being
    reported.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    grid = family.grid(grid_size)
    span = family.span

    # every grid parameter is resolved first, then every chart test and
    # spectrum of the grid is computed in stacks
    problems = [_grid_problem(family, nu) for nu in grid]
    rows = [i for i, p in enumerate(problems) if p is not None]
    resolved = [problems[i] for i in rows]
    solved = iter(_spectra_or_none(resolved))
    spectra = [next(solved) if p is not None else None for p in problems]
    counts = np.array([s.predicted_count if s is not None else -1 for s in spectra])
    near = np.array([bool(s.near_singular) if s is not None else True for s in spectra])

    k_max = max(int(counts.max(initial=0)), 0)
    values = np.full((k_max, grid_size), np.nan)
    for i, spec in enumerate(spectra):
        if spec is None:
            continue
        vals = spec.values()
        values[: len(vals), i] = vals

    # a _Candidate awaits verification; None: rejected
    candidates: list[SingularEvent | _Candidate | None] = _count_drops(grid, counts)

    def field_at(nu, chart, coord):
        """The problem at a refinement parameter and field ``coord`` of one
        chart's test there (None where the chart does not cover it); (None,
        None) where the family is unresolvable."""
        try:
            problem = family.resolve(nu)
        except UnresolvableFamily:
            return None, None
        test = _chart_tests(problem.bc, problem.equation.f[0], (chart,)).get(chart)
        return problem, getattr(test, coord) if test is not None else None

    def refined(first, last, kind, chart, coord, v_lo, v_hi):
        """The candidate refined from one flag, None where refinement
        rejects it: a sign change is bisected and a flip through a pole
        discarded; a dip of |field| is minimized to machine width."""
        if kind == "dip":
            def abs_field(nu):
                value = field_at(nu, chart, coord)[1]
                return abs(value) if value is not None else math.inf

            lo = hi = nu0 = float(_golden_min(abs_field, grid[first], grid[last]))
        else:
            lo, hi = _bisect_zero(
                lambda nu: field_at(nu, chart, coord)[1], grid[first], grid[last], v_lo, v_hi
            )
            nu0 = float(0.5 * (lo + hi))
        problem, v_mid = field_at(nu0, chart, coord)
        if problem is None:
            return None
        if kind != "dip" and v_mid is not None and abs(v_mid) > min(abs(v_lo), abs(v_hi)):
            return None  # the sign flipped through a pole, not a zero
        i_near = int(np.argmin(np.abs(grid - nu0)))
        ref = counts[i_near] if counts[i_near] >= 0 else None
        cl, cr = (int(counts[first]), int(counts[last])) if kind == "crossing" else (ref, ref)
        return _Candidate(
            problem, SingularEvent(nu0, (float(lo), float(hi)), kind, None, cl, cr), ref,
            residual_collapsed=v_mid is not None
            and abs(v_mid) <= 1e-6 * max(abs(v_lo), abs(v_hi)),
        )

    flags = []
    for chart, stacked in _chart_test_stack(resolved).items():
        # the test fields over the grid, NaN where the family is unresolvable
        fields = np.full((len(stacked), grid_size), np.nan)
        fields[:, rows] = list(stacked.values())
        flags += _grid_flags(chart, dict(zip(stacked, fields)))

    # flags over overlapping intervals observe one parameter: each group is
    # refined once, by its first flag in (kind rank, chart) order that
    # refinement accepts.  Flags sharing only an end point stay apart, as
    # two events can sit in adjacent intervals; the largest jump of a field
    # does not decide, since next to a chart boundary it is the pole flip.
    flags.sort(key=lambda flag: flag[:2])
    groups, reach = [], -1
    for flag in flags:
        if flag[0] >= reach:
            groups.append([])
        groups[-1].append(flag)
        reach = max(reach, flag[1])
    for group in groups:
        group.sort(key=lambda flag: (_KIND_RANK[flag[2]], CHART_IDS.index(flag[3])))
        candidates.append(next((c for c in starmap(refined, group) if c is not None), None))

    waiting = [i for i, ev in enumerate(candidates) if isinstance(ev, _Candidate)]
    for i, spec in zip(waiting, _spectra_or_none([candidates[i].problem for i in waiting])):
        candidates[i] = candidates[i].verified(spec)

    # dedupe: keep the sharpest observation of each parameter
    candidates = [ev for ev in candidates if ev is not None]
    candidates.sort(key=lambda e: (e.nu, _KIND_RANK[e.kind]))
    events: list[SingularEvent] = []
    min_sep = max(1e-7 * span, 64.0 * _EPS)
    for ev in candidates:
        if events and abs(ev.nu - events[-1].nu) <= min_sep:
            continue
        events.append(ev)

    return BranchTrace(family, grid, values, counts, near, events)


@dataclass(frozen=True)
class BranchLimit:
    """One-sided behavior of a single indexed branch at a singular point."""

    index: int
    kind: str  # "diverges" | "converges" | "unclassified"
    sign: int | None = None
    shift: int | None = None
    value: float | None = None
    target: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class SideClassification:
    side: str
    count: int
    limit_count: int
    limits: tuple
    n_div_minus: int
    n_div_plus: int
    consistent: bool

    @property
    def n_unclassified(self) -> int:
        return sum(1 for b in self.limits if b.kind == "unclassified")


@dataclass(frozen=True)
class JumpClassification:
    nu: float
    limit_values: tuple
    left: SideClassification | None
    right: SideClassification | None


def _jump_values(limit: Problem, sides: list) -> tuple:
    """The multiplicity-expanded values of a (possibly near-degenerate)
    limit problem, without any about-to-escape eigenvalue beyond the
    divergence threshold, and, for each side's ``(h, problem)`` offsets,
    the samples ``(h, values)``, from one stacked solve of the limit and
    every offset.  The first error is raised: the limit's, then the
    offsets' in side and offset order.

    A problem that fails the count gate is solved from its pencil anyway:
    the limit at the count of its trimmed characteristic polynomial, a
    sample at the rank-based count.  Next to a double-degeneracy point the
    leading coefficients vanish quadratically, opening a band where
    trimming removes them while the rank still demands the full count; the
    pencil keeps the escaping eigenvalues there, growing like the inverse
    of the smallest singular value of its boundary block."""
    problems = [limit] + [problem for resolved in sides for _, problem in resolved]

    def recover(i, mismatch):
        count = mismatch.degree if i == 0 else mismatch.expected
        return min(max(count - problems[i].equation.N + 2, 0), 2)

    values = []
    for result in _eigenvalues_many(problems, recover):
        if isinstance(result, Exception):
            raise result
        values.append(result.values() if isinstance(result, Spectrum) else tuple(result))
    limit_values = tuple(float(v) for v in values.pop(0) if abs(v) <= TOL.divergence)
    samples = []
    for resolved in sides:
        side_values, values = values[: len(resolved)], values[len(resolved) :]
        samples.append([(h, v) for (h, _), v in zip(resolved, side_values)])
    return limit_values, samples


def _side_offsets(
    family: Family, nu0: float, side: str, bracket_width: float, gap: float
) -> list:
    """The problems ``(h, problem)`` at the dyadically refined offsets
    nu0 +- delta * 2^-j of one side, where the family resolves.

    The innermost offset is floored so the sampled problems stay solidly
    off the singular set: limits converge linearly in the offset, so a
    two-point Richardson step reaches far beyond the matching tolerance,
    while the escaping branches grow like 1/offset and clear the
    divergence threshold comfortably.
    """
    sign_dir = -1.0 if side == "left" else 1.0
    delta = 0.45 * gap
    h_floor = max(
        1e-9 * (1.0 + abs(nu0)), 1e4 * bracket_width, 256.0 * _EPS * (1.0 + abs(nu0))
    )
    if delta <= 4.0 * h_floor:
        h_floor = max(delta / 16.0, 256.0 * _EPS * (1.0 + abs(nu0)))
    n_steps = min(48, max(10, int(math.floor(math.log2(delta / h_floor)))))
    offsets = delta * 0.5 ** np.arange(n_steps)
    resolved = []
    for h in offsets:
        try:
            resolved.append((h, family.resolve(nu0 + sign_dir * h)))
        except UnresolvableFamily:
            pass
    return resolved


def _classify_sides(
    family: Family, nu0: float, limit: Problem, bracket_width: float, gaps: dict
) -> tuple:
    """The limit values and the classification of each side in ``gaps``
    (side -> distance to the next boundary), from one stacked solve of the
    limit problem and every side's samples."""
    resolved = {
        side: _side_offsets(family, nu0, side, bracket_width, gap) for side, gap in gaps.items()
    }
    limit_values, samples = _jump_values(limit, list(resolved.values()))
    return limit_values, {
        side: _side_classification(side, side_samples, limit_values)
        for side, side_samples in zip(resolved, samples)
    }


def _side_classification(
    side: str, samples: list, limit_values: tuple
) -> SideClassification | None:
    """Classify every branch index on one side from its samples
    ``(h, values)``, the innermost offset last."""
    if len(samples) < 4:
        return None
    k = len(samples[-1][1])
    run = [s for s in samples if len(s[1]) == k]
    tail = run[-min(8, len(run)) :]
    m = len(limit_values)
    limits: list[BranchLimit] = []
    n_minus = 0
    for n in range(k):
        seq = np.array([s[1][n] for s in run])
        tail_seq = np.array([s[1][n] for s in tail])
        mags = np.abs(tail_seq)
        grows = bool(np.all(np.diff(mags) > 0.0))
        same_sign = bool(np.all(np.sign(tail_seq) == np.sign(tail_seq[-1])))
        if abs(seq[-1]) > TOL.divergence and grows and same_sign:
            limits.append(
                BranchLimit(n, "diverges", sign=int(np.sign(seq[-1])))
            )
            if seq[-1] < 0:
                n_minus += 1
            continue
        extrapolated = float(2.0 * seq[-1] - seq[-2])
        matches = [
            idx
            for idx, target in enumerate(limit_values)
            if abs(extrapolated - target) <= TOL.limit_match * (1.0 + abs(target))
        ]
        if matches:
            idx = min(matches, key=lambda j: (abs(j - (n - n_minus)), j))
            limits.append(
                BranchLimit(
                    n,
                    "converges",
                    shift=n - idx,
                    value=extrapolated,
                    target=limit_values[idx],
                )
            )
        else:
            limits.append(
                BranchLimit(
                    n,
                    "unclassified",
                    value=extrapolated,
                    detail=f"no divergence and no limit matches {extrapolated!r}",
                )
            )
    div_minus = [b.index for b in limits if b.kind == "diverges" and b.sign < 0]
    div_plus = [b.index for b in limits if b.kind == "diverges" and b.sign > 0]
    conv = [b for b in limits if b.kind == "converges"]
    consistent = (
        not any(b.kind == "unclassified" for b in limits)
        and div_minus == list(range(len(div_minus)))
        and div_plus == list(range(k - len(div_plus), k))
        and len(div_minus) + len(div_plus) == k - m
        and all(b.shift == len(div_minus) for b in conv)
    )
    return SideClassification(
        side, k, m, tuple(limits), len(div_minus), len(div_plus), consistent
    )


def classify_jump(trace_obj: BranchTrace, nu_star: float) -> JumpClassification:
    """Classify the branch behavior on both sides of a detected singular
    parameter of a trace."""
    family = trace_obj.family
    span = family.span
    if not trace_obj.events:
        raise ValueError("trace has no detected singular parameters")
    event = min(trace_obj.events, key=lambda e: abs(e.nu - nu_star))
    if abs(event.nu - nu_star) > 1e-2 * span:
        raise ValueError(
            f"no detected singular parameter near {nu_star} (closest: {event.nu})"
        )
    nu0 = event.nu
    limit = family.resolve(nu0)
    bracket_width = event.bracket[1] - event.bracket[0]
    lo, hi = family.domain
    boundaries = sorted(
        [lo, hi] + [e.nu for e in trace_obj.events if abs(e.nu - nu0) > 1e-7 * span]
    )
    below = max((b for b in boundaries if b < nu0 - 1e-12 * span), default=None)
    above = min((b for b in boundaries if b > nu0 + 1e-12 * span), default=None)
    gaps = {}
    if below is not None:
        gaps["left"] = nu0 - below
    if above is not None:
        gaps["right"] = above - nu0
    limit_values, sides = _classify_sides(family, nu0, limit, bracket_width, gaps)
    return JumpClassification(nu0, limit_values, sides.get("left"), sides.get("right"))


# -- monotonicity ------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityViolation:
    index: int
    nu_left: float
    nu_right: float
    value_left: float
    value_right: float
    excess: float


@dataclass(frozen=True)
class MonotonicityReport:
    rule: str
    grid_size: int
    runs: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


_AXIS_RULES = {"alpha": "non_increasing", "beta": "non_decreasing",
               "q": "non_decreasing", "w": "abs_non_increasing"}

# the excess of a step x0 -> x1 over each rule's slack, given
# 1 + max(|x0|, |x1|); positive where the step violates the rule
_EXCESS = {
    "non_decreasing": lambda x0, x1, scale: x0 - x1 - 1e-9 * scale,
    "non_increasing": lambda x0, x1, scale: x1 - x0 - 1e-9 * scale,
    "abs_non_increasing": lambda x0, x1, scale: np.abs(x1) - np.abs(x0) - 1e-9 * scale,
    "constant": lambda x0, x1, scale: np.abs(x1 - x0) - 1e-12 * scale,
}


def _rule_for_axis(family: Family, grid_size: int) -> str:
    axis = family.axis
    kind = axis[0]
    if kind in _AXIS_RULES:
        return _AXIS_RULES[kind]
    if kind in ("inv_f", "f"):
        # N where the grid resolves: a flagged parameter (1/f_j = 0) may not
        problems = (_grid_problem(family, nu) for nu in family.grid(grid_size))
        first = next((p for p in problems if p is not None), None)
        if first is not None and axis[1] == first.equation.N:
            return "constant"
        return "non_increasing" if kind == "inv_f" else "non_decreasing"
    if kind == "chart":
        if axis[2] in (0, 3):
            return "non_decreasing"
        raise FamilyNotAxisAligned(
            "no monotonicity rule along the complex chart coordinate"
        )
    raise FamilyNotAxisAligned(f"no monotonicity rule for axis {axis!r}")


def check_monotonicity(family: Family, direction=None, grid_size: int = 65) -> MonotonicityReport:
    """Verify the directional monotonicity of every eigenvalue curve on
    each constant-count stretch of the sweep.

    Rules by axis: eigenvalues never increase along 1/f_j (j < N) and never
    depend on f_N; never decrease along q_j and along the two real
    coordinates of any chart; their magnitude never grows along w_j;
    separated sweeps decrease in alpha and increase in beta.  Violations
    beyond a slack of 1e-9 * (1 + |lambda|) are reported with locations.
    """
    if family.axis is None:
        raise FamilyNotAxisAligned("family does not vary a single known coordinate")
    if direction is not None and tuple(direction) != tuple(family.axis):
        raise FamilyNotAxisAligned(
            f"family sweeps {family.axis!r}, not {tuple(direction)!r}"
        )
    rule = _rule_for_axis(family, grid_size)
    tr = trace(family, grid_size)
    counts, grid = tr.counts, tr.grid
    # constant-count stretches, split also where a detected singular
    # parameter lies strictly inside a grid interval
    cut = counts[1:] != counts[:-1]
    for ev in tr.events:
        cut |= (grid[:-1] < ev.nu) & (ev.nu < grid[1:])
    bounds = [0, *(np.flatnonzero(cut) + 1).tolist(), len(grid)]
    runs = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if counts[lo] > 0 and hi - lo >= 2]
    violations: list[MonotonicityViolation] = []
    for lo, hi in runs:
        seq = tr.values[: counts[lo], lo:hi]
        x0, x1 = seq[:, :-1], seq[:, 1:]
        excess = _EXCESS[rule](x0, x1, 1.0 + np.maximum(np.abs(x0), np.abs(x1)))
        n, i = np.nonzero(excess > 0.0)  # in (branch, grid index) order
        found = (n, grid[lo + i], grid[lo + i + 1], x0[n, i], x1[n, i], excess[n, i])
        violations += starmap(MonotonicityViolation, zip(*(a.tolist() for a in found)))
    return MonotonicityReport(rule, grid_size, tuple(runs), tuple(violations))


# -- the asymptotic theorem on the named fixtures -----------------------------


def _run_pattern_check(check: PatternCheck) -> list:
    rows = []
    if check.explicit_limit is not None:
        gaps = {side: check.family.span * 0.5 for side in check.expected}
        _, sides = _classify_sides(check.family, check.nu_star, check.explicit_limit, 0.0, gaps)
        for side, want in check.expected.items():
            rows.extend(_diff_side(check.label, side, want, sides[side]))
        return rows
    tr = trace(check.family, check.grid_size)
    try:
        jc = classify_jump(tr, check.nu_star)
    except ValueError as exc:
        return [(check.label, "event", "detected", str(exc))]
    for side, want in check.expected.items():
        got = jc.left if side == "left" else jc.right
        rows.extend(_diff_side(check.label, side, want, got))
    return rows


def _diff_side(label: str, side: str, want: tuple, got: SideClassification | None) -> list:
    if got is None:
        return [(label, side, f"pattern {want}", "side not classifiable")]
    rows = []
    if got.n_unclassified:
        rows.append((label, side, "all branches classified", f"{got.n_unclassified} unclassified"))
    if (got.n_div_minus, got.n_div_plus) != tuple(want):
        rows.append(
            (
                label,
                side,
                f"divergences {want}",
                f"observed ({got.n_div_minus}, {got.n_div_plus})",
            )
        )
    if not got.consistent:
        rows.append((label, side, "index bookkeeping", "shift pattern inconsistent"))
    return rows


@dataclass(frozen=True)
class AsymptoticReport:
    name: str
    checks: tuple
    passed: bool


def verify_asymptotic_theorem(name: str) -> AsymptoticReport:
    """Run the named crossing fixtures and compare every observed
    divergence sign and index shift with the expected pattern; raises
    PatternMismatch with a diff table on any disagreement."""
    checks = _asymptotic_checks(name)
    rows = []
    for check in checks:
        rows.extend(_run_pattern_check(check))
    if rows:
        raise PatternMismatch(rows)
    return AsymptoticReport(name, tuple(c.label for c in checks), True)
