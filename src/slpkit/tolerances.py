"""Numeric thresholds shared across the package.

All comparisons against measure-zero loci (rank drops, set membership,
vanishing leading coefficients) go through the single instance ``TOL`` so
that the command line can retune them in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Tolerances:
    # relative singular-value cutoff for every numerical rank decision
    rank: float = 1e-12
    # relative residual allowed in the self-adjointness identity
    self_adjoint: float = 1e-10
    # relative tolerance for singular-set equality tests
    set_membership: float = 1e-9
    # relative coefficient cutoff when trimming polynomials
    trim: float = 1e-11
    # leading coefficients inside (trim, near_singular) flag a fragile problem
    near_singular: float = 1e-8
    # relative gap under which eigenvalues merge into one multiple eigenvalue
    cluster: float = 1e-6
    # allowed anti-Hermitian residue of the reduced pencil's boundary block,
    # relative to its largest entry and divided by max(1, s_1 / s_r) of E
    real_root: float = 1e-7
    # block-singularity cutoff used when detecting separated boundary conditions
    separated: float = 1e-10
    # tolerance for matching one-sided limits of eigenvalue branches
    limit_match: float = 1e-4
    # |lambda| beyond this threshold counts as divergence (not a tolerance)
    divergence: float = 1e6


TOL = Tolerances()

_FIELD_NAMES = {f.name for f in fields(Tolerances)}


def apply_overrides(overrides: dict) -> None:
    """Retune thresholds process-wide; values must be positive and, except
    for ``divergence``, at most 1e-2."""
    for key, value in overrides.items():
        if key not in _FIELD_NAMES:
            raise KeyError(f"unknown tolerance {key!r}")
        value = float(value)
        if not value > 0.0:
            raise ValueError(f"tolerance {key!r} must be positive, got {value}")
        if key != "divergence" and value > 1e-2:
            raise ValueError(f"tolerance {key!r} must be <= 1e-2, got {value}")
        setattr(TOL, key, value)
