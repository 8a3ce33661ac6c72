"""Named fixtures: built-in example families with closed-form spectra,
and the crossing tables of the asymptotic theorem.

Three N=2 families exercise the three ways a spectrum can degenerate:

* ``ex1.1`` sweeps the left endpoint angle of a separated condition on the
  free equation; the count drops from 2 to 1 at alpha = 3*pi/4.
* ``ex2.1`` sweeps a piecewise equation family under a fixed coupled-shape
  condition; at s = 1 only the upper eigenvalue escapes (to +infinity on
  both sides) while the lower one stays continuous.
* ``ex3.1`` sweeps 1/f_0 directly; at s = 1 the lower eigenvalue escapes
  to -infinity on one side and the upper to +infinity on the other.

The closed forms are used by ``slp verify-example`` and by the acceptance
tests; each returns the sorted eigenvalue tuple, with a single entry at
the degenerate parameter.

Each name in ``ASYMPTOTIC_FIXTURES`` is a list of crossings with the
divergence pattern expected on each side, which
``tracing.verify_asymptotic_theorem`` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import chart_matrix, separated_matrix
from .discontinuity import xi_of
from .errors import UnknownExample
from .families import (
    Family,
    chart_axis_family,
    coupled_axis_family,
    equation_axis_family,
    separated_angle_family,
)
from .model import BoundaryCondition, Equation, Problem, validate_bc, validate_equation

#: the matrix used by the two equation-side examples
COUPLING_BC = ((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 1.0))

EX11_SINGULAR = 0.75 * math.pi


def free_equation():
    """N = 2, f = w = 1, q = 0."""
    return validate_equation([1.0, 1.0, 1.0], [0.0, 0.0], [1.0, 1.0])


def ex11_bc(alpha: float) -> BoundaryCondition:
    return validate_bc(
        [
            [math.cos(alpha), -math.sin(alpha), 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]
    )


def ex11_closed(alpha: float) -> tuple:
    s, c = math.sin(alpha), math.cos(alpha)
    den = c + s
    if abs(den) < 1e-12:
        return (1.0,)
    disc = math.sqrt(c * c + 4.0 * math.sin(2.0 * alpha) + 4.0)
    lam_m = (3.0 * c + 2.0 * s - disc) / (2.0 * den)
    lam_p = (3.0 * c + 2.0 * s + disc) / (2.0 * den)
    return tuple(sorted((lam_m, lam_p)))


def ex11_family() -> Family:
    eq = free_equation()

    def resolve(alpha):
        return Problem(eq, ex11_bc(alpha))

    return Family(
        "builtin", (0.0, math.pi), resolve, right_open=True, axis=("alpha",),
        label="ex1.1",
    )


def ex21_equation(s: float):
    if s < 1.0:
        f0, f1 = 1.0 / (2.0 - s), 1.0
    else:
        f0, f1 = 1.0 / s, 1.0 / s
    return validate_equation([f0, f1, 1.0], [0.0, 0.0], [1.0, 1.0])


def ex21_closed(s: float) -> tuple:
    if s < 1.0:
        disc = math.sqrt(5.0 * s * s - 12.0 * s + 8.0)
        den = 2.0 * (1.0 - s)
        return ((2.0 - s - disc) / den, (2.0 - s + disc) / den)
    if s == 1.0:
        return (0.0,)
    a = s * s - s
    b = s * s - 4.0 * s + 2.0
    disc = math.sqrt(b * b - 4.0 * a * (2.0 - 2.0 * s))
    return ((-b - disc) / (2.0 * a), (-b + disc) / (2.0 * a))


def ex21_family() -> Family:
    bc = validate_bc(np.array(COUPLING_BC))

    def resolve(s):
        return Problem(ex21_equation(s), bc)

    return Family("builtin", (0.0, 2.0), resolve, label="ex2.1")


def ex31_equation(s: float):
    return validate_equation([1.0 / s, 1.0, 1.0], [0.0, 0.0], [1.0, 1.0])


def ex31_closed(s: float) -> tuple:
    if s == 1.0:
        return (0.0,)
    disc = math.sqrt(5.0 * s * s - 8.0 * s + 4.0)
    den = 2.0 * (s - 1.0)
    lo, hi = ((s + disc) / den, (s - disc) / den) if s < 1.0 else (
        (s - disc) / den,
        (s + disc) / den,
    )
    return (lo, hi)


def ex31_family() -> Family:
    bc = validate_bc(np.array(COUPLING_BC))

    def resolve(s):
        return Problem(ex31_equation(s), bc)

    # the parameter is literally the coordinate 1/f_0
    return Family("builtin", (0.1, 2.0), resolve, axis=("inv_f", 0), label="ex3.1")


BUILTINS = {
    "ex1.1": {
        "family": ex11_family,
        "closed": ex11_closed,
        "singular": (EX11_SINGULAR,),
    },
    "ex2.1": {
        "family": ex21_family,
        "closed": ex21_closed,
        "singular": (1.0,),
    },
    "ex3.1": {
        "family": ex31_family,
        "closed": ex31_closed,
        "singular": (1.0,),
    },
}


def builtin_family(name: str) -> Family:
    try:
        return BUILTINS[name]["family"]()
    except KeyError:
        raise UnknownExample(f"unknown builtin example {name!r}") from None


def closed_form(name: str):
    try:
        return BUILTINS[name]["closed"]
    except KeyError:
        raise UnknownExample(f"unknown builtin example {name!r}") from None


# -- named asymptotic fixtures ------------------------------------------------


@dataclass
class PatternCheck:
    """One crossing (or endpoint approach) with its expected divergence
    pattern per side: side -> (branches to -inf, branches to +inf)."""

    label: str
    family: Family
    nu_star: float
    expected: dict
    grid_size: int = 96
    explicit_limit: Problem | None = None  # endpoint approaches only


def _fixture_equation_n4() -> Equation:
    return validate_equation(
        [0.8, 1.3, 0.7, 1.9, 1.1], [0.4, -0.3, 0.8, 0.1], [1.2, 0.9, 1.5, 1.0]
    )


def _asymptotic_checks(name: str) -> list:
    eq4 = _fixture_equation_n4()
    inv_f0 = 1.0 / eq4.f[0]  # 1.25
    z = (0.3, 0.2)
    zsq = z[0] ** 2 + z[1] ** 2

    if name == "equation-crossing":
        # fixed condition with both invariants nonzero; crossing 1/f_0 = eta = 1
        bc = validate_bc([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]])
        base = validate_equation(
            [1.0, 1.3, 0.7, 1.9, 1.1], [0.4, -0.3, 0.8, 0.1], [1.2, 0.9, 1.5, 1.0]
        )
        fam = equation_axis_family(base, bc, ("inv_f", 0), 0.4, 1.6)
        return [
            PatternCheck("equation space: crossing the critical hyperplane", fam, 1.0, {"left": (1, 0), "right": (0, 1)})
        ]

    if name == "chart-i4-crossing":
        fam = chart_axis_family(
            eq4, "O14", (0.0, z[0], z[1], 0.6), 0, inv_f0 - 0.8, inv_f0 + 0.8
        )
        return [
            PatternCheck(
                "i4 chart: crossing the rank-one set", fam, inv_f0, {"left": (0, 1), "right": (1, 0)}
            )
        ]

    if name == "chart-i3-crossing":
        checks = []
        p = 0.7
        b_star = zsq / p
        fam_r = chart_axis_family(
            eq4, "O13", (inv_f0 + p, z[0], z[1], 0.0), 3, b_star - 0.5, b_star + 0.5
        )
        checks.append(
            PatternCheck(
                "i3 chart: crossing at a generic r point", fam_r, b_star, {"left": (0, 1), "right": (1, 0)}
            )
        )
        fam_l = chart_axis_family(
            eq4, "O13", (inv_f0 - p, z[0], z[1], 0.0), 3, -b_star - 0.5, -b_star + 0.5
        )
        checks.append(
            PatternCheck(
                "i3 chart: crossing at a generic l point", fam_l, -b_star, {"left": (0, 1), "right": (1, 0)}
            )
        )

        # the double-degeneracy point: all four approach cones
        def diag_family(sign):
            def resolve(s):
                return Problem(
                    eq4,
                    validate_bc(
                        chart_matrix("O13", (inv_f0 + sign * s, 0.0, 0.0, sign * s))
                    ),
                )
            return Family("chart-affine", (0.0, 0.8), resolve, label="cone path")

        checks.append(
            PatternCheck("i3 chart: double point from inside the r cone", diag_family(+1.0), 0.0, {"right": (2, 0)})
        )
        checks.append(
            PatternCheck("i3 chart: double point from inside the l cone", diag_family(-1.0), 0.0, {"right": (0, 2)})
        )
        fam_on_r = chart_axis_family(
            eq4, "O13", (0.0, 0.0, 0.0, 0.0), 0, inv_f0, inv_f0 + 0.8
        )
        checks.append(
            PatternCheck("i3 chart: double point along the r set", fam_on_r, inv_f0, {"right": (1, 0)})
        )
        fam_on_l = chart_axis_family(
            eq4, "O13", (0.0, 0.0, 0.0, 0.0), 0, inv_f0 - 0.8, inv_f0
        )
        checks.append(
            PatternCheck("i3 chart: double point along the l set", fam_on_l, inv_f0, {"left": (0, 1)})
        )
        fam_minus = chart_axis_family(
            eq4, "O13", (inv_f0, 0.0, 0.0, 0.0), 1, -0.5, 0.5
        )
        checks.append(
            PatternCheck(
                "i3 chart: double point from the minus side", fam_minus, 0.0,
                {"left": (1, 1), "right": (1, 1)},
            )
        )
        return checks

    if name == "product-diagonal":
        def resolve(nu):
            eq = validate_equation(
                [1.0 / (1.0 - nu), 1.3, 0.7, 1.9, 1.1],
                [0.4, -0.3, 0.8, 0.1],
                [1.2, 0.9, 1.5, 1.0],
            )
            bc = validate_bc(chart_matrix("O14", (1.0 + nu, z[0], z[1], 0.6)))
            return Problem(eq, bc)

        fam = Family("product-diagonal", (-0.5, 0.5), resolve, label="diagonal")
        return [
            PatternCheck(
                "product space: diagonal crossing", fam, 0.0, {"left": (0, 1), "right": (1, 0)}
            )
        ]

    if name == "separated-sweeps":
        xi = xi_of(eq4.f[0])
        checks = []
        beta0 = 1.9
        fam_alpha = separated_angle_family(eq4, "alpha", beta0, 0.0, math.pi)
        checks.append(
            PatternCheck(
                "separated: alpha sweep through the critical angle", fam_alpha, xi, {"left": (1, 0), "right": (0, 1)}
            )
        )
        checks.append(
            PatternCheck(
                "separated: alpha wraparound limit", fam_alpha, math.pi, {"left": (0, 0)},
                explicit_limit=Problem(eq4, separated_matrix(0.0, beta0)),
            )
        )
        alpha0 = 0.7
        fam_beta = separated_angle_family(eq4, "beta", alpha0, 0.0, math.pi)
        checks.append(
            PatternCheck(
                "separated: beta to pi", fam_beta, math.pi, {"left": (0, 1)}
            )
        )
        checks.append(
            PatternCheck(
                "separated: beta to 0", fam_beta, 0.0, {"right": (1, 0)},
                explicit_limit=Problem(eq4, separated_matrix(alpha0, math.pi)),
            )
        )
        fam_alpha_pi = separated_angle_family(eq4, "alpha", math.pi, 0.0, math.pi)
        checks.append(
            PatternCheck(
                "separated: alpha sweep on the singular line", fam_alpha_pi, xi,
                {"left": (1, 0), "right": (0, 1)},
            )
        )
        fam_beta_xi = separated_angle_family(eq4, "beta", xi, 0.0, math.pi)
        checks.append(
            PatternCheck(
                "separated: beta to pi at the critical alpha", fam_beta_xi, math.pi,
                {"left": (0, 1)},
            )
        )
        checks.append(
            PatternCheck(
                "separated: beta to 0 at the critical alpha", fam_beta_xi, 0.0,
                {"right": (1, 0)},
                explicit_limit=Problem(eq4, separated_matrix(xi, math.pi)),
            )
        )
        return checks

    if name == "coupled-sweep":
        k12, k21, gamma = 0.8, -0.4, 0.9
        t_star = eq4.f[0] * k12  # 0.64
        fam = coupled_axis_family(
            eq4, gamma, [[t_star, k12], [k21, (1.0 + k12 * k21) / t_star]],
            "k11", t_star - 0.5, t_star + 0.5,
        )
        return [
            PatternCheck(
                "coupled: k11 sweep through the critical ratio", fam, t_star, {"left": (1, 0), "right": (0, 1)}
            )
        ]

    raise KeyError(f"unknown asymptotic fixture {name!r}")


ASYMPTOTIC_FIXTURES = (
    "equation-crossing",
    "chart-i4-crossing",
    "chart-i3-crossing",
    "product-diagonal",
    "separated-sweeps",
    "coupled-sweep",
)
