"""Charts and canonical forms on the manifold of self-adjoint boundary conditions.

The manifold is covered by four coordinate patches.  Each patch picks one
column from the A block and one from the B block; wherever that 2x2 block
is invertible, left-multiplying by its (sign-adjusted) inverse lands the
representative on a rigid template with two real free entries and one
complex one, giving four real coordinates.  Independently, every
self-adjoint boundary condition is either separated, with canonical form

    [[cos(alpha), -sin(alpha), 0, 0], [0, 0, cos(beta), -sin(beta)]],
    alpha in [0, pi), beta in (0, pi],

or coupled, with canonical form [e^{i*gamma} K | -I], gamma in [0, pi),
K real with det K = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInChart, OutOfRange
from .model import BoundaryCondition
from .tolerances import TOL

CHART_IDS = ("O13", "O14", "O23", "O24")

# (column of the A block, column of the B block) forming the pivot, and the
# two free columns, which read [[r1, conj(z)], [z, r2]] on the template
_PIVOT_COLS = {"O13": (0, 2), "O14": (0, 3), "O23": (1, 2), "O24": (1, 3)}
_FREE_COLS = {"O13": (1, 3), "O14": (1, 2), "O23": (0, 3), "O24": (0, 2)}

# what the pivot block looks like on the template (complex, so that the
# template product needs no cast)
_PIVOT_TARGET = {
    "O13": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "O14": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    "O23": np.array([[-1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "O24": np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex),
}


def _fmax(*values):
    """``max(*values)`` elementwise over arrays; like ``max``, it skips a
    NaN after the first value."""
    return functools.reduce(np.fmax, values)


def _modulus(z):
    """``abs`` of every element of a complex array as ``abs`` of a complex
    scalar computes it, the hypot of its parts; ``np.abs`` of an array may
    round differently."""
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True)
class ChartCoordinates:
    """Local coordinates (real parameter, Re z, Im z, real parameter) of a
    boundary condition inside one chart."""

    chart: str
    coords: tuple

    @property
    def z(self) -> complex:
        return complex(self.coords[1], self.coords[2])


@dataclass(frozen=True)
class Separated:
    alpha: float
    beta: float


@dataclass(frozen=True)
class Coupled:
    gamma: float
    K: np.ndarray


def chart_matrix(chart: str, coords) -> np.ndarray:
    """Fill the chart template with coordinates; the result is always a
    valid self-adjoint representative."""
    r1, zr, zi, r2 = (float(c) for c in coords)
    z = complex(zr, zi)
    zc = z.conjugate()
    if chart == "O13":
        return np.array([[1.0, r1, 0.0, zc], [0.0, z, -1.0, r2]], dtype=complex)
    if chart == "O14":
        return np.array([[1.0, r1, zc, 0.0], [0.0, z, r2, 1.0]], dtype=complex)
    if chart == "O23":
        return np.array([[r1, -1.0, 0.0, zc], [z, 0.0, -1.0, r2]], dtype=complex)
    if chart == "O24":
        return np.array([[r1, -1.0, zc, 0.0], [z, 0.0, r2, 1.0]], dtype=complex)
    raise KeyError(f"unknown chart {chart!r}")


def _columns(matrices: np.ndarray, cols: tuple) -> np.ndarray:
    """Columns i < j of a 2x4 matrix, or of every matrix of a (n, 2, 4)
    stack, as a view."""
    i, j = cols
    return matrices[..., i : j + 1 : j - i]


def _pivot_test(blocks: np.ndarray, scale) -> tuple:
    """The smallest singular value of a pivot block, or of every block of a
    stack in one SVD, and whether the block is invertible relative to the
    representative's scale."""
    # .T puts the trailing axis first, for one block and for a stack alike
    sigma_min = np.linalg.svd(blocks, compute_uv=False).T[-1]
    return sigma_min, sigma_min > TOL.rank * scale


def _template_readout(blocks: np.ndarray, matrices: np.ndarray, chart: str) -> tuple:
    """Left-multiply a representative, or every one of a stack, so that its
    pivot block matches the chart template, and read off its coordinates.
    A stack takes one inversion and one template product; numpy's stacked
    LAPACK and BLAS calls run the one-matrix routine on every matrix, and
    the readout is elementwise, so every row carries the bits of a
    one-matrix call.

    Returns ``((r1, Re z, Im z, r2), drift, unreliable)``, each entry a
    number, or an array over the stack computed elementwise alike."""
    largest, modulus = (max, abs) if matrices.ndim == 2 else (_fmax, _modulus)
    nm = _PIVOT_TARGET[chart] @ np.linalg.inv(blocks) @ matrices
    # .T puts the matrix axes first: [j, i] is entry (i, j) of one matrix,
    # or of every matrix of a stack
    free = _columns(nm, _FREE_COLS[chart]).T
    r1, z, zc, r2 = free[0, 0], free[0, 1], free[1, 0].conjugate(), free[1, 1]
    mid = 0.5 * (z + zc)
    drift = largest(modulus(z - zc), abs(r1.imag), abs(r2.imag))
    # validated inputs keep the drift near rounding level unless the pivot
    # block is so ill-conditioned that the coordinates are meaningless
    unreliable = drift > 1e-6 * largest(1.0, np.abs(nm).max(axis=(-2, -1)))
    return (r1.real, mid.real, mid.imag, r2.real), drift, unreliable


def normalize_to_chart(bc: BoundaryCondition, chart: str) -> ChartCoordinates:
    """Left-multiply the representative so it matches the chart template and
    read off the four real coordinates.

    Raises NotInChart when the pivot block is singular relative to the
    matrix scale.
    """
    if chart not in CHART_IDS:
        raise KeyError(f"unknown chart {chart!r}")
    m = bc.matrix
    block = _columns(m, _PIVOT_COLS[chart])
    sigma_min, covered = _pivot_test(block, bc.scale)
    if not covered:
        raise NotInChart(f"pivot block for {chart} is singular (sigma_min={sigma_min:.3e})")
    coords, drift, unreliable = _template_readout(block, m, chart)
    if unreliable:
        raise NotInChart(
            f"normalization to {chart} is numerically unreliable (drift {drift:.3e})"
        )
    return ChartCoordinates(chart, tuple(map(float, coords)))


def _normalize_stack(matrices: np.ndarray, scales, chart: str) -> tuple:
    """:func:`normalize_to_chart` of every representative of a (n, 2, 4)
    stack with scales ``scales``, in one SVD, one inversion and one template
    product.  Returns the coordinates (r1, Re z, Im z, r2) as four arrays,
    and a mask of the rows for which ``normalize_to_chart`` returns them
    rather than raising NotInChart."""
    blocks = _columns(matrices, _PIVOT_COLS[chart])
    _, covered = _pivot_test(blocks, scales)
    if not covered.all():
        # an identity in place of a singular pivot block keeps the stack
        # invertible; its row is rejected anyway
        blocks = np.where(covered[:, None, None], blocks, np.eye(2))
    coords, _, unreliable = _template_readout(blocks, matrices, chart)
    return coords, covered & ~unreliable


def covering_charts(bc: BoundaryCondition) -> frozenset:
    """Chart ids whose pivot block is invertible for this condition; the
    four charts form an atlas, so the result is never empty."""
    m = bc.matrix
    return frozenset(
        chart for chart in CHART_IDS
        if _pivot_test(_columns(m, _PIVOT_COLS[chart]), bc.scale)[1]
    )


def row_span_distance(m1, m2) -> float:
    """Sine of the largest principal angle between the row spans of two
    2x4 matrices; zero iff they represent the same boundary condition."""

    def projector(m):
        _, _, vh = np.linalg.svd(np.asarray(m, dtype=complex))
        q = vh[:2].T
        return q @ q.conj().T

    return float(np.linalg.norm(projector(m1) - projector(m2), 2))


def _real_direction(v: np.ndarray) -> np.ndarray:
    """Strip the common phase from a complex 2-vector known to be a complex
    multiple of a real one."""
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    vr = v / phase
    return vr.real


def _angle_half_open(v) -> float:
    """Angle t in [0, pi) with (cos t, -sin t) parallel to the real pair v."""
    t = math.atan2(-v[1], v[0])
    if t < 0.0:
        t += math.pi
    if t >= math.pi:
        t -= math.pi
    return t + 0.0


def _angle_half_closed(v) -> float:
    """Angle t in (0, pi] with (cos t, -sin t) parallel to the real pair v."""
    t = math.atan2(-v[1], v[0])
    if t <= 0.0:
        t += math.pi
    return t


def canonical_form(bc: BoundaryCondition):
    """Return ``Separated(alpha, beta)`` or ``Coupled(gamma, K)``.

    A condition is separated exactly when its A and B blocks are singular
    (their determinant moduli agree by self-adjointness); the endpoint rows
    are then recovered through the blocks' left null vectors.  Otherwise
    -B^{-1} A has determinant of modulus one, and splitting off the phase
    e^{2i*gamma} leaves a real unimodular K.
    """
    m = bc.matrix
    a, b = m[:, :2], m[:, 2:]
    scale = bc.scale
    ua, sa, _ = np.linalg.svd(a)
    ub, sb, _ = np.linalg.svd(b)
    if sa[-1] <= TOL.separated * scale and sb[-1] <= TOL.separated * scale:
        # row combination killing the B block gives the left-endpoint row
        left_row = ub[:, -1].conj() @ a
        right_row = ua[:, -1].conj() @ b
        alpha = _angle_half_open(_real_direction(left_row))
        beta = _angle_half_closed(_real_direction(right_row))
        return Separated(alpha, beta)
    c = -np.linalg.solve(b, a)
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    gamma = 0.5 * math.atan2(det.imag, det.real)
    k = np.exp(-1j * gamma) * c
    if gamma < 0.0:
        gamma += math.pi
        k = -k
    kr = k.real
    kr.setflags(write=False)
    return Coupled(gamma, kr)


def separated_matrix(alpha: float, beta: float) -> BoundaryCondition:
    """Canonical separated representative for angles alpha in [0, pi),
    beta in (0, pi]."""
    if not 0.0 <= alpha < math.pi:
        raise OutOfRange(f"alpha must lie in [0, pi), got {alpha}")
    if not 0.0 < beta <= math.pi:
        raise OutOfRange(f"beta must lie in (0, pi], got {beta}")
    m = np.array(
        [
            [math.cos(alpha), -math.sin(alpha), 0.0, 0.0],
            [0.0, 0.0, math.cos(beta), -math.sin(beta)],
        ],
        dtype=complex,
    )
    return BoundaryCondition(m)


def coupled_matrix(gamma: float, K) -> BoundaryCondition:
    """Canonical coupled representative [e^{i*gamma} K | -I] for gamma in
    [0, pi) and real K with det K = 1."""
    if not 0.0 <= gamma < math.pi:
        raise OutOfRange(f"gamma must lie in [0, pi), got {gamma}")
    k = np.asarray(K, dtype=float)
    if k.shape != (2, 2):
        raise OutOfRange(f"K must be 2x2, got shape {k.shape}")
    det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
    if abs(det - 1.0) > 1e-10 * max(1.0, float(np.abs(k).max()) ** 2):
        raise OutOfRange(f"det K must equal 1, got {det}")
    m = np.hstack([np.exp(1j * gamma) * k, -np.eye(2)]).astype(complex)
    return BoundaryCondition(m)


def c_point_matrix(inv_f0: float) -> np.ndarray:
    """The distinguished representative [[1, 1/f_0, 0, 0], [0, 0, 1, 0]]
    at which the eigenvalue count drops by two."""
    return np.array([[1.0, inv_f0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], dtype=complex)
