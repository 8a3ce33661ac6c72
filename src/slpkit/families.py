"""One-parameter families of problems: the paths that ``trace`` samples.

A ``Family`` maps a real parameter nu to a ``Problem``.  The constructors
below cover the sweeps of the paper: straight lines in equation space or
in one chart of the boundary-condition manifold, single-coordinate sweeps
of the equation, of a chart, of the separated angles and of the coupled
form, and the constant family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import chart_matrix, coupled_matrix, separated_matrix
from .errors import OutOfRange, UnresolvableFamily, ValidationError
from .model import BoundaryCondition, Equation, Problem, validate_bc, validate_equation


@dataclass(frozen=True)
class Family:
    """A one-parameter family nu -> Problem over a real interval.

    ``axis`` identifies single-coordinate sweeps (e.g. ``("q", 2)``,
    ``("alpha",)``, ``("chart", "O14", 0)``); it drives the monotonicity
    rules.  Open interval ends are excluded from grids.  ``flagged``
    lists finitely many parameters where the resolver is allowed to fail.
    """

    kind: str
    domain: tuple
    resolve_fn: Callable
    right_open: bool = False
    left_open: bool = False
    axis: tuple | None = None
    label: str = ""
    flagged: tuple = ()

    def resolve(self, nu: float) -> Problem:
        try:
            return self.resolve_fn(float(nu))
        except ValidationError as exc:
            raise UnresolvableFamily(float(nu), str(exc)) from exc

    @property
    def span(self) -> float:
        return self.domain[1] - self.domain[0]

    def grid(self, n: int) -> np.ndarray:
        """``n`` parameters spread evenly over the domain, open ends
        excluded."""
        a, b = self.domain
        if self.left_open and self.right_open:
            return a + (b - a) * np.arange(1, n + 1) / (n + 1)
        if self.right_open:
            return a + (b - a) * np.arange(n) / n
        if self.left_open:
            return a + (b - a) * np.arange(1, n + 1) / n
        return np.linspace(a, b, n)


def constant_family(problem: Problem, domain=(0.0, 1.0)) -> Family:
    return Family("constant", tuple(domain), lambda nu: problem, label="constant")


def equation_affine_family(eq_from: Equation, eq_to: Equation, bc: BoundaryCondition) -> Family:
    """Straight line between two equations in the (1/f, q, w) coordinates,
    boundary condition fixed; parameter runs over [0, 1]."""
    inv_a, inv_b = np.array(eq_from.inv_f), np.array(eq_to.inv_f)
    q_a, q_b = np.array(eq_from.q), np.array(eq_to.q)
    w_a, w_b = np.array(eq_from.w), np.array(eq_to.w)

    def resolve(t):
        inv = (1.0 - t) * inv_a + t * inv_b
        q = (1.0 - t) * q_a + t * q_b
        w = (1.0 - t) * w_a + t * w_b
        with np.errstate(divide="ignore"):
            f = 1.0 / inv  # validation rejects the non-finite entries
        return Problem(validate_equation(f, q, w), bc)

    return Family("equation-affine", (0.0, 1.0), resolve, label="equation-affine")


def equation_axis_family(eq: Equation, bc: BoundaryCondition, axis: tuple, lo: float, hi: float) -> Family:
    """Sweep one equation coordinate; the parameter is the coordinate value.

    ``axis`` is ``("inv_f", j)`` with 0 <= j <= N (parameter is 1/f_j),
    ``("f", j)``, ``("q", j)`` or ``("w", j)`` with 1-based lattice j.
    """
    kind, j = axis

    def resolve(nu):
        f, q, w = list(eq.f), list(eq.q), list(eq.w)
        if kind == "inv_f":
            if nu == 0.0:
                raise OutOfRange("1/f = 0 lies on the boundary of the equation space")
            f[j] = 1.0 / nu
        elif kind == "f":
            f[j] = nu
        elif kind == "q":
            q[j - 1] = nu
        elif kind == "w":
            w[j - 1] = nu
        else:
            raise KeyError(f"unknown equation axis {kind!r}")
        return Problem(validate_equation(f, q, w), bc)

    flagged = (0.0,) if kind in ("inv_f", "f") and lo < 0.0 < hi else ()
    return Family(
        "equation-affine", (float(lo), float(hi)), resolve, axis=(kind, j),
        label=f"{kind}[{j}] sweep", flagged=flagged,
    )


def chart_axis_family(eq: Equation, chart: str, base_coords, index: int, lo: float, hi: float) -> Family:
    """Sweep one chart coordinate with the equation fixed."""

    def resolve(nu):
        coords = list(base_coords)
        coords[index] = nu
        return Problem(eq, validate_bc(chart_matrix(chart, coords)))

    return Family(
        "chart-affine", (float(lo), float(hi)), resolve,
        axis=("chart", chart, index), label=f"{chart}[{index}] sweep",
    )


def chart_affine_family(eq: Equation, chart: str, coords_from, coords_to) -> Family:
    """Straight line between two coordinate vectors of one chart."""
    a = np.asarray(coords_from, dtype=float)
    b = np.asarray(coords_to, dtype=float)

    def resolve(t):
        return Problem(eq, validate_bc(chart_matrix(chart, (1.0 - t) * a + t * b)))

    moving = np.nonzero(a != b)[0]
    axis = ("chart", chart, int(moving[0])) if len(moving) == 1 else None
    return Family("chart-affine", (0.0, 1.0), resolve, axis=axis, label=f"{chart} line")


def separated_angle_family(eq: Equation, axis: str, fixed: float, lo: float, hi: float) -> Family:
    """Sweep alpha (fixed beta) or beta (fixed alpha) of the separated
    canonical form."""
    if axis == "alpha":
        def resolve(nu):
            return Problem(eq, separated_matrix(nu, fixed))
        dom_kwargs = dict(right_open=math.isclose(hi, math.pi))
    elif axis == "beta":
        def resolve(nu):
            return Problem(eq, separated_matrix(fixed, nu))
        dom_kwargs = dict(left_open=lo == 0.0)
    else:
        raise KeyError(f"unknown separated axis {axis!r}")
    return Family(
        "separated-angle", (float(lo), float(hi)), resolve,
        axis=(axis,), label=f"{axis} sweep", **dom_kwargs,
    )


def coupled_axis_family(eq: Equation, gamma: float, K, axis: str, lo: float, hi: float) -> Family:
    """Sweep gamma or the k11 entry (k22 compensating to keep det K = 1)."""
    k = np.asarray(K, dtype=float)

    def resolve(nu):
        if axis == "gamma":
            return Problem(eq, coupled_matrix(nu, k))
        if axis == "k11":
            knew = k.copy()
            knew[0, 0] = nu
            knew[1, 1] = (1.0 + k[0, 1] * k[1, 0]) / nu
            return Problem(eq, coupled_matrix(gamma, knew))
        raise KeyError(f"unknown coupled axis {axis!r}")

    return Family(
        "coupled-sweep", (float(lo), float(hi)), resolve,
        axis=(axis,), label=f"coupled {axis} sweep",
    )
