"""Problem space for self-adjoint discrete Sturm-Liouville problems.

An equation is the coefficient triple (f, q, w) of the second-order
difference equation

    -(f_n (y_{n+1} - y_n) - f_{n-1} (y_n - y_{n-1})) + q_n y_n = lam * w_n * y_n

for lattice points n = 1..N, with f_n != 0 and w_n > 0.  A boundary
condition couples the endpoint vectors (y_0, f_0 (y_1 - y_0)) and
(y_N, f_N (y_{N+1} - y_N)) through a 2x4 complex matrix [A | B] of rank 2
satisfying A J A* = B J B* with J the standard 2x2 symplectic matrix.
Boundary conditions are identified up to left multiplication by invertible
2x2 matrices; the stored matrix is one representative, kept verbatim.
All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import BadLength, NonPositiveW, NotSelfAdjoint, RankDeficient, ZeroF
from .tolerances import TOL

#: the symplectic form appearing in the self-adjointness identity
J = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class Equation:
    """Validated coefficient triple; ``f`` has N+1 entries, ``q`` and ``w`` have N.

    ``f`` is indexed 0..N.  ``q`` and ``w`` are stored 0-based, so ``q[i]``
    and ``w[i]`` sit at lattice point i+1.  Values are stored exactly as
    given; the reciprocal coordinates 1/f are computed on demand.
    """

    f: tuple
    q: tuple
    w: tuple

    def __post_init__(self):
        f = tuple(float(x) for x in self.f)
        q = tuple(float(x) for x in self.q)
        w = tuple(float(x) for x in self.w)
        if len(q) < 2:
            raise BadLength(f"need N >= 2 lattice points, got N={len(q)}")
        if len(f) != len(q) + 1 or len(w) != len(q):
            raise BadLength(
                f"inconsistent lengths: len(f)={len(f)}, len(q)={len(q)}, len(w)={len(w)}"
            )
        for name, seq in (("f", f), ("q", q), ("w", w)):
            if not all(np.isfinite(seq)):
                raise BadLength(f"{name} contains a non-finite entry")
        for n, fn in enumerate(f):
            if fn == 0.0:
                raise ZeroF(n)
        for i, wn in enumerate(w):
            if wn <= 0.0:
                raise NonPositiveW(i + 1)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)

    @property
    def N(self) -> int:
        return len(self.q)

    @property
    def inv_f(self) -> tuple:
        """The coordinates 1/f_0..1/f_N of the equation space."""
        return tuple(1.0 / fn for fn in self.f)

    @property
    def f_signs(self) -> tuple:
        """Sign pattern of f, labelling the connected component of the
        equation space this point lies in."""
        return tuple(1 if fn > 0 else -1 for fn in self.f)

    def replace(self, f=None, q=None, w=None) -> "Equation":
        return Equation(
            f if f is not None else self.f,
            q if q is not None else self.q,
            w if w is not None else self.w,
        )


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """One 2x4 complex representative [A | B] of a self-adjoint boundary
    condition; construction validates rank and self-adjointness."""

    matrix: np.ndarray
    _scale: float = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 4):
            raise BadLength(f"boundary condition matrix must be 2x4, got {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise BadLength("boundary condition matrix contains a non-finite entry")
        s = np.linalg.svd(m, compute_uv=False)
        if s[1] <= TOL.rank * s[0]:
            raise RankDeficient(
                f"rank of [A|B] is below 2 (singular values {s[0]:.3e}, {s[1]:.3e})"
            )
        a, b = m[:, :2], m[:, 2:]
        residual = a @ J @ a.conj().T - b @ J @ b.conj().T
        rel = float(np.linalg.norm(residual)) / float(s[0] ** 2)
        if rel > TOL.self_adjoint:
            raise NotSelfAdjoint(rel)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_scale", float(s[0]))

    @property
    def A(self) -> np.ndarray:
        return self.matrix[:, :2]

    @property
    def B(self) -> np.ndarray:
        return self.matrix[:, 2:]

    @property
    def scale(self) -> float:
        """Largest singular value of the stored representative."""
        return self._scale


@dataclass(frozen=True, eq=False)
class Problem:
    """A difference equation paired with a self-adjoint boundary condition."""

    equation: Equation
    bc: BoundaryCondition


def validate_equation(f: Sequence, q: Sequence, w: Sequence) -> Equation:
    """Check (f, q, w) against the defining constraints and wrap them.

    Raises ZeroF, NonPositiveW, or BadLength; values are stored exactly as
    given, with no normalization.
    """
    return Equation(tuple(f), tuple(q), tuple(w))


def validate_bc(matrix) -> BoundaryCondition:
    """Check a 2x4 complex matrix for rank 2 and self-adjointness.

    Raises RankDeficient or NotSelfAdjoint.  The matrix is stored verbatim;
    canonical normal forms live in :mod:`slpkit.charts`.
    """
    return BoundaryCondition(np.asarray(matrix, dtype=complex))
