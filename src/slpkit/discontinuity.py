"""Membership in the discontinuity sets of the n-th eigenvalue function.

The eigenvalue count drops exactly where the leading coefficient of the
characteristic polynomial vanishes, and the n-th eigenvalue jumps exactly
there.  That locus can be cut three ways: through equation space with the
boundary condition held fixed, through the boundary-condition manifold
with the equation held fixed, and through the full product space.  Each
classifier below evaluates the defining equalities in every covering
chart, reports which side of each set the input falls on, and attaches a
signed residual so callers can steer toward or away from the sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .charts import (
    CHART_IDS,
    Separated,
    _fmax,
    _normalize_stack,
    c_point_matrix,
    canonical_form,
    normalize_to_chart,
    row_span_distance,
)
from .errors import NotInChart, SLPError, ZeroF
from .model import BoundaryCondition, Equation, Problem
from .tolerances import TOL

_INF = float("inf")


def xi_of(f0: float) -> float:
    """The critical separated angle: arctan(-1/f_0), shifted into (pi/2, pi)
    for f_0 > 0 and lying in (0, pi/2) for f_0 < 0."""
    if f0 == 0.0:
        raise ZeroF(0)
    x = math.atan(-1.0 / f0)
    return x + math.pi if f0 > 0 else x


@dataclass(frozen=True)
class ChartTest:
    """Signed residual of one chart's defining equality, plus the cone data
    for the rank-one-drop charts (O13/O23)."""

    chart: str
    residual: float
    tol: float
    p: float | None = None  # first cone coordinate (a12 - 1/f0 resp. a11 + f0)
    r2: float | None = None  # second cone coordinate b22
    p_tol: float = 0.0
    r2_tol: float = 0.0


def _test_fields(chart: str, r1, zr, zi, r2, f0) -> dict:
    """The :class:`ChartTest` fields of one chart by name, from the chart
    coordinates and f_0: floats for one problem, or arrays over a stack of
    problems, whose elements carry the bits of the float arithmetic."""
    largest = _fmax if isinstance(r1, np.ndarray) else max
    inv_f0 = 1.0 / f0
    zsq = zr * zr + zi * zi
    if chart == "O14":
        return {
            "residual": r1 - inv_f0,
            "tol": TOL.set_membership * largest(1.0, abs(r1), abs(inv_f0)),
        }
    if chart == "O24":
        return {
            "residual": r1 + f0,
            "tol": TOL.set_membership * largest(1.0, abs(r1), abs(f0)),
        }
    p = (r1 - inv_f0) if chart == "O13" else (r1 + f0)
    other = inv_f0 if chart == "O13" else f0
    return {
        "residual": p * r2 - zsq,
        "tol": TOL.set_membership * largest(1.0, abs(p * r2), zsq),
        "p": p,
        "r2": r2,
        "p_tol": TOL.set_membership * largest(1.0, abs(r1), abs(other)),
        "r2_tol": TOL.set_membership * largest(1.0, abs(r2)),
    }


def _chart_tests(bc: BoundaryCondition, f0: float, charts=CHART_IDS) -> dict:
    """The tests of the listed charts that cover ``bc``, by chart id; each
    chart's test is computed on its own."""
    out = {}
    for chart in charts:
        try:
            coords = normalize_to_chart(bc, chart).coords
        except NotInChart:
            # chart does not cover bc, or its pivot block is so marginally
            # invertible that the coordinates are unreliable
            continue
        out[chart] = ChartTest(chart, **_test_fields(chart, *coords, f0))
    return out


def _chart_test_stack(problems: list) -> dict:
    """Every chart's test of every problem, with one stacked normalization
    per chart: by chart id, the :class:`ChartTest` fields by name as arrays
    over ``problems``, the residual NaN where :func:`_chart_tests` leaves
    the chart out.  Every element carries the bits of ``_chart_tests``."""
    matrices = np.array([p.bc.matrix for p in problems]).reshape(-1, 2, 4)
    scales = np.array([p.bc.scale for p in problems])
    f0 = np.array([p.equation.f[0] for p in problems])
    out = {}
    for chart in CHART_IDS:
        coords, accepted = _normalize_stack(matrices, scales, chart)
        fields = _test_fields(chart, *coords, f0)
        fields["residual"] = np.where(accepted, fields["residual"], np.nan)
        out[chart] = fields
    return out


def chart_signed_residuals(problem: Problem) -> dict:
    """Signed distance functions, one per covering chart in ``CHART_IDS``
    order, whose zero crossings locate the discontinuity sets along
    continuous families."""
    tests = _chart_tests(problem.bc, problem.equation.f[0])
    return {chart: t.residual for chart, t in tests.items()}


def _side(delta: float, tol: float) -> str:
    """The suffix of a set label: "" on the set (|delta| <= tol), else
    "_plus" or "_minus" by the sign of delta."""
    if abs(delta) <= tol:
        return ""
    return "_plus" if delta > 0 else "_minus"


@dataclass(frozen=True)
class EquationSideClassification:
    """Where a fixed boundary condition places an equation relative to the
    equation-space discontinuity sets."""

    mu1: complex
    mu2: complex
    case: str  # "i" both mu nonzero, "ii" exactly one zero, "iii" both zero
    eta: float | None
    membership: str
    distance: float
    reduced_form: str | None = None  # case iii: "A1" or "A2"
    reduced_value: float | None = None  # the surviving real entry


def classify_equation_side(bc_fixed: BoundaryCondition, eq: Equation) -> EquationSideClassification:
    """Classify ``eq`` against the sets cut out in equation space by the
    fixed boundary condition.

    With mu1 = a11 b22 - a21 b12 and mu2 = a22 b12 - a12 b22 (both scale by
    det T under a change of representative, so their zero pattern and ratio
    are invariants), the vanishing locus of the leading coefficient is
    1/f_0 = -mu2/mu1 when both are nonzero, empty when exactly one
    vanishes, and is governed by the single surviving entry of the reduced
    boundary condition when both vanish.
    """
    a, b = bc_fixed.A, bc_fixed.B
    mu1 = complex(a[0, 0] * b[1, 1] - a[1, 0] * b[0, 1])
    mu2 = complex(a[1, 1] * b[0, 1] - a[0, 1] * b[1, 1])
    tol_mu = TOL.set_membership * bc_fixed.scale ** 2
    zero1, zero2 = abs(mu1) <= tol_mu, abs(mu2) <= tol_mu
    inv_f0 = 1.0 / eq.f[0]

    if not zero1 and not zero2:
        eta_c = -mu2 / mu1
        if abs(eta_c.imag) > 1e-6 * (1.0 + abs(eta_c.real)):
            warnings.warn(
                f"eta = {eta_c} is not real; inconsistent representative",
                RuntimeWarning,
                stacklevel=2,
            )
        eta = float(eta_c.real)
        delta = inv_f0 - eta
        tol = TOL.set_membership * max(1.0, abs(eta), abs(inv_f0))
        membership = "E" + _side(delta, tol)
        return EquationSideClassification(mu1, mu2, "i", eta, membership, abs(delta))

    if zero1 != zero2:
        return EquationSideClassification(
            mu1, mu2, "ii", None, "NotSingular_caseII", _INF
        )

    # both vanish: the condition reduces to a separated one with beta = pi,
    # leaving a single real entry in the first row
    cf = canonical_form(bc_fixed)
    if not isinstance(cf, Separated) or abs(cf.beta - math.pi) > 1e-6:
        raise SLPError(
            "mu1 = mu2 = 0 but the boundary condition did not reduce to the "
            "expected separated form"
        )
    sin_a, cos_a = math.sin(cf.alpha), math.cos(cf.alpha)
    if abs(sin_a) <= TOL.set_membership:
        return EquationSideClassification(
            mu1, mu2, "iii", None, "NotSingular_caseIII_a0", _INF, "A2", 0.0
        )
    if abs(cos_a) <= TOL.set_membership:
        return EquationSideClassification(
            mu1, mu2, "iii", None, "NotSingular_caseIII_a0", _INF, "A1", 0.0
        )
    target = -sin_a / cos_a  # critical 1/f_0, the same for either reduction
    if abs(cos_a) >= abs(sin_a):
        base, form, value = "E1", "A1", cos_a / sin_a
    else:
        base, form, value = "E2", "A2", -sin_a / cos_a
    delta = inv_f0 - target
    tol = TOL.set_membership * max(1.0, abs(target), abs(inv_f0))
    return EquationSideClassification(
        mu1, mu2, "iii", None, base + _side(delta, tol), abs(delta), form, value
    )


def _cone_label(test: ChartTest) -> str | None:
    """Which closed cone (r or l) an on-set point of an O13/O23 chart lies
    in; the two cones meet only at the double-degeneracy point."""
    if test.p >= -test.p_tol and test.r2 >= -test.r2_tol:
        return "r"
    if test.p <= test.p_tol and test.r2 <= test.r2_tol:
        return "l"
    return None


def _chart_memberships(bc: BoundaryCondition, f0: float, prefix: str, c_key: str, c_set: str):
    """The verdicts shared by the bc-side and product classifications:
    distance ``c_key`` to the C point (set ``c_set`` on it), and for every
    chart equality its |residual|, side, and set ``prefix`` + chart digits
    (plus the cone letter on a rank-one set away from the C point).
    Returns fresh (sets, sides, distances)."""
    sets: set = set()
    sides: dict = {}
    dists: dict = {}

    c_dist = row_span_distance(bc.matrix, c_point_matrix(1.0 / f0))
    on_c = c_dist <= TOL.set_membership
    dists[c_key] = c_dist
    if on_c:
        sets.add(c_set)

    for chart, test in _chart_tests(bc, f0).items():
        name = prefix + chart[1:]
        dists[name] = abs(test.residual)
        if abs(test.residual) <= test.tol:
            sets.add(name)
            sides[chart] = "on"
            if test.p is not None and not on_c:
                cone = _cone_label(test)
                if cone:
                    sets.add(name + cone)
        elif test.residual > 0:
            if test.p is not None:
                sides[chart] = "plus_r" if test.p > 0 else "plus_l"
            else:
                sides[chart] = "plus"
        else:
            sides[chart] = "minus"
    return sets, sides, dists


@dataclass(frozen=True)
class BCSideClassification:
    """Memberships of a boundary condition relative to the sets cut out on
    the manifold by a fixed equation."""

    sets: frozenset
    sides: dict
    xi: float
    distances: dict


def classify_bc_side(eq_fixed: Equation, bc: BoundaryCondition) -> BCSideClassification:
    """Evaluate every chart equality for ``bc`` against the fixed equation,
    plus the separated/coupled canonical-form criteria."""
    f0 = eq_fixed.f[0]
    sets, sides, dists = _chart_memberships(bc, f0, "B", "C", "C_point")

    xi = xi_of(f0)
    cf = canonical_form(bc)
    if isinstance(cf, Separated):
        dist = min(abs(cf.alpha - xi), abs(math.pi - cf.beta))
        dists["BS1"] = dist
        if dist <= 4.0 * TOL.set_membership:
            sets.add("BS1")
    else:
        k = cf.K
        k_scale = max(1.0, float(abs(k).max()))
        if abs(k[0, 1]) > TOL.set_membership * k_scale:
            ratio = k[0, 0] / k[0, 1]
            delta = ratio - f0
            tol = TOL.set_membership * max(1.0, abs(ratio), abs(f0))
            dists["BC1"] = abs(delta)
            suffix = _side(delta, tol)
            sets.add("BC1" + suffix)
            sides["C1"] = suffix[1:] or "on"
        else:
            # k12 = 0: the leading coefficient cannot vanish on this fiber
            dists["BC1"] = _INF
    return BCSideClassification(frozenset(sets), sides, xi, dists)


@dataclass(frozen=True)
class ProductSideClassification:
    """Memberships of a full problem relative to the product-space sets."""

    sets: frozenset
    sides: dict
    distances: dict
    in_singular_set: bool


def classify_product(problem: Problem) -> ProductSideClassification:
    """Same chart predicates as the fixed-equation case, but with f_0 taken
    from the problem's own equation; membership is equivalent to the
    vanishing of the leading coefficient of the characteristic polynomial.
    """
    sets, sides, dists = _chart_memberships(
        problem.bc, problem.equation.f[0], "P", "P5", "P5"
    )

    member = bool(sets & {"P14", "P24", "P13", "P23"})
    return ProductSideClassification(frozenset(sets), sides, dists, member)
