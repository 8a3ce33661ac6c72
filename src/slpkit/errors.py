"""Exception types raised across the package."""

from __future__ import annotations


class SLPError(Exception):
    """Base class for all package errors."""


class ValidationError(SLPError):
    """An input fails the defining constraints of the problem space."""


class ZeroF(ValidationError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"f_{n} must be nonzero")


class NonPositiveW(ValidationError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"w_{n} must be positive")


class BadLength(ValidationError):
    pass


class RankDeficient(ValidationError):
    pass


class NotSelfAdjoint(ValidationError):
    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(
            f"self-adjointness residual {residual:.3e} exceeds tolerance"
        )


class OutOfRange(ValidationError):
    pass


class NotInChart(SLPError):
    """The pivot block for the requested chart is numerically singular."""


class DegreeMismatch(SLPError):
    """Trimmed degree of the characteristic polynomial disagrees with the
    rank-based eigenvalue count; the problem sits too close to a
    discontinuity set for the requested tolerances."""

    def __init__(self, degree: int, expected: int):
        self.degree = degree
        self.expected = expected
        super().__init__(
            f"characteristic polynomial has degree {degree}, count law expects {expected}"
        )


class NonRealRoot(SLPError):
    """The spectrum cannot be certified real: the reduced pencil's boundary
    block departs from Hermitian by the relative residue ``root`` (see
    ``TOL.real_root``; NaN where the pencil is not finite)."""

    def __init__(self, root: float):
        self.root = root
        super().__init__(f"pencil is not Hermitian: anti-Hermitian residue {root}")


class IllConditioned(SLPError):
    """A computation leaves what double precision can certify: an
    interpolated polynomial fails its out-of-sample residual check, or the
    fundamental-solution recursion of a spectrum leaves the floating-point
    range, so its characteristic polynomial is not finite."""


class AssemblyError(SLPError):
    """Boundary rows could not eliminate the endpoint unknowns of the pencil."""


class UnresolvableFamily(SLPError):
    def __init__(self, nu: float, reason: str = ""):
        self.nu = nu
        super().__init__(f"family cannot be resolved at nu={nu!r}: {reason}")


class FamilyNotAxisAligned(SLPError):
    pass


class PatternMismatch(SLPError):
    def __init__(self, table):
        self.table = table
        lines = "\n".join(str(row) for row in table)
        super().__init__(f"observed asymptotics disagree with the expected pattern:\n{lines}")


class UnknownExample(SLPError):
    pass
