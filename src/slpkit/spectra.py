"""Eigenvalue count, characteristic polynomial, and eigenvalues from the
reduced Hermitian pencil.

The number of eigenvalues is N - 2 + r, where r is the rank of a 2x2
matrix built from the boundary condition and f_0.  The eigenvalues come
from a Hermitian matrix of exactly that size: the boundary rows express
the endpoint values y_0 and y_{N+1} through y_1 and y_N where they can
(r of them), which adds a corner to the tridiagonal difference operator,
and the other 2 - r rows constrain (y_1, y_N), whose null space the
operator is projected onto.

The characteristic polynomial, built from the fundamental solutions of the
difference equation in polynomial arithmetic, has these eigenvalues as its
real zeros.  It decides no eigenvalue; it gates the count: where its
trimmed degree disagrees with N - 2 + r the problem sits in the tolerance
gap next to a discontinuity set, and a relatively tiny leading coefficient
flags a near-singular problem.  A batch runs the fundamental-solution
recursion once per lattice length for all its distinct equations and
combines the coefficients of all its problems of that length at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charts import _fmax, c_point_matrix, row_span_distance
from .errors import DegreeMismatch, IllConditioned, NonRealRoot
from .model import Equation, Problem
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Coefficients in ascending degree order (real or complex dtype)."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.array(self.coeffs))
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def degree(self, rel_tol: float | None = None) -> int:
        """Largest index whose coefficient exceeds rel_tol times the largest
        coefficient magnitude; -1 for the (numerically) zero polynomial."""
        if rel_tol is None:
            rel_tol = TOL.trim
        mags = np.abs(self.coeffs)
        top = float(mags.max(initial=0.0))
        if top == 0.0:
            return -1
        keep = np.nonzero(mags > rel_tol * top)[0]
        return int(keep[-1]) if keep.size else -1

    def trimmed(self, rel_tol: float | None = None) -> "Polynomial":
        return Polynomial(self.coeffs[: self.degree(rel_tol) + 1])

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)


@dataclass(frozen=True, eq=False)
class FundamentalSolutions:
    """Right-endpoint values of the two fundamental solutions, as
    polynomials in the spectral parameter.

    ``phi_N`` and ``psi_N`` have degree N-1; the quasi-derivatives
    ``fdphi_N`` and ``fdpsi_N`` have degree N.
    """

    phi_N: Polynomial
    psi_N: Polynomial
    fdphi_N: Polynomial
    fdpsi_N: Polynomial


@np.errstate(over="ignore", invalid="ignore")
def _boundary_stack(equations) -> np.ndarray:
    """phi_N, psi_N, fdphi_N and fdpsi_N of k equations of one lattice
    length N, as a (k, 4, N+1) array of coefficients.

    One recursion advances (y, u) with u_n = u_{n-1} + (q_n - lam*w_n)*y_n
    and y_n = y_{n-1} + u_{n-1}/f_{n-1}, carrying coefficient arrays, on a
    (2, k, N+1) stack: the phi rows start at (y_0, u_0) = (1, 0) and the psi
    rows at (0, 1).  Every 8 steps each row is rescaled on its own by a
    power of two (exact in floating point) to keep intermediate products in
    range; the accumulated exponents are folded back at the end.  A row that
    leaves the range all the same stays non-finite, silently.
    """
    k = len(equations)
    if k == 1:  # Python floats, which numpy applies to the stack as scalars
        f, q, w = equations[0].f, equations[0].q, equations[0].w
    else:  # per step, a (k, 1) column that the phi and psi rows share
        f, q, w = (
            np.array([getattr(eq, name) for eq in equations]).T[:, :, None] for name in "fqw"
        )
    n_pts = len(q)
    # y and u of the phi and psi rows: yu[0, 0] is phi_N, yu[1, 1] fdpsi_N
    yu = np.zeros((2, 2, k, n_pts + 1))
    y, u = yu
    y[0, :, 0] = 1.0
    u[1, :, 0] = 1.0
    y_rows, u_rows = y.reshape(2 * k, -1), u.reshape(2 * k, -1)  # views
    exp2 = np.zeros(2 * k, dtype=np.int64)
    for n in range(1, n_pts + 1):
        y += u / f[n - 1]
        u += q[n - 1] * y
        u[:, :, 1:] -= w[n - 1] * y[:, :, :-1]
        if n % 8 == 0:
            y_top, u_top = np.abs(y_rows).max(axis=1), np.abs(u_rows).max(axis=1)
            top = np.where(u_top > y_top, u_top, y_top)  # Python's max(y_top, u_top)
            in_range = (2.0**-64 < top) & (top < 2.0**64)
            rows = np.flatnonzero((top > 0.0) & (top < np.inf) & ~in_range)
            if rows.size:
                shift = np.array([-math.floor(math.log2(t)) for t in top[rows].tolist()])
                y_rows[rows] = np.ldexp(y_rows[rows], shift[:, None])
                u_rows[rows] = np.ldexp(u_rows[rows], shift[:, None])
                exp2[rows] -= shift
    if exp2.any():
        np.ldexp(y_rows, exp2[:, None], out=y_rows)
        np.ldexp(u_rows, exp2[:, None], out=u_rows)
    return np.ascontiguousarray(yu.reshape(4, k, n_pts + 1).swapaxes(0, 1))


@functools.lru_cache(maxsize=256)
def fundamental_solutions(eq: Equation) -> FundamentalSolutions:
    """Boundary polynomials of the fundamental solutions of ``eq``."""
    return FundamentalSolutions(*map(Polynomial, _boundary_stack([eq])[0]))


def leading_coefficients(eq: Equation) -> tuple:
    """Closed forms of the leading coefficients of the four boundary
    polynomials: common factor P = prod_{i=1}^{N-1} w_i / f_i, then

        phi:   (-1)^(N-1) P             psi:   (-1)^(N-1) P / f_0
        fdphi: (-1)^N     P w_N         fdpsi: (-1)^N     P w_N / f_0
    """
    n = eq.N
    p = 1.0
    for i in range(1, n):
        p *= eq.w[i - 1] / eq.f[i]
    sign = -1.0 if (n - 1) % 2 else 1.0
    return (
        sign * p,
        sign * p / eq.f[0],
        -sign * p * eq.w[n - 1],
        -sign * p * eq.w[n - 1] / eq.f[0],
    )


def c_matrix(bc) -> np.ndarray:
    """The 2x2 weight matrix combining the boundary blocks with the
    fundamental solutions: transpose(B) times transpose(adj(A))."""
    return _c_matrices(bc.matrix)


def _c_matrices(matrices: np.ndarray) -> np.ndarray:
    """:func:`c_matrix` of a 2x4 representative, or of every one of a
    (n, 2, 4) stack in one matmul."""
    a, b = matrices[..., :2], matrices[..., 2:]
    first = np.ascontiguousarray(b.swapaxes(-1, -2))
    # [[a22, a21], [a12, a11]], then the off-diagonal negated
    second = np.ascontiguousarray(a[..., ::-1, ::-1])
    for off in (second[..., 0, 1], second[..., 1, 0]):
        np.negative(off, out=off)
    return first @ second


def _det2(m) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@np.errstate(invalid="ignore")  # a non-finite recursion row stays non-finite
def _char_poly_rows(boundary: np.ndarray, matrices: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial coefficients of each boundary matrix of a
    (B, 2, 4) stack, whose c matrices are ``c``, one row each: ``boundary``
    holds the complex phi_N, psi_N, fdphi_N and fdpsi_N rows of their
    equations, as one (4, N+1) array they share or a (B, 4, N+1) stack."""
    terms = c.reshape(-1, 4, 1) * boundary  # c_11 phi, c_12 psi, c_21 fdphi, c_22 fdpsi
    coeffs = np.zeros((len(matrices), boundary.shape[-1]), dtype=complex)
    for j in range(4):
        coeffs += terms[:, j]
    # scalar products: array complex products may round differently (fused
    # multiply-add), which would move the last bit of the constant term
    for row, m in zip(coeffs, matrices):
        row[0] += _det2(m[:, :2]) + _det2(m[:, 2:])
    return coeffs


def char_poly(problem: Problem) -> Polynomial:
    """Characteristic polynomial of the problem, degree at most N, for the
    stored boundary-condition representative.

    Changing the representative by an invertible T rescales the polynomial
    by det T, so its zeros are representative-independent.
    """
    m = problem.bc.matrix[None]
    fs = fundamental_solutions(problem.equation)
    boundary = np.array(
        [fs.phi_N.coeffs, fs.psi_N.coeffs, fs.fdphi_N.coeffs, fs.fdpsi_N.coeffs], dtype=complex
    )
    return Polynomial(_char_poly_rows(boundary, m, _c_matrices(m))[0])


def _rank_matrices(matrices: np.ndarray, f0) -> np.ndarray:
    """The 2x2 matrix whose rank fixes the eigenvalue count, of a 2x4
    representative with its f_0, or of every one of a (n, 2, 4) stack with
    an array of f_0."""
    out = matrices[..., 1::2].copy()  # [a_i2, b_i2]
    out[..., 0] *= np.asarray(f0)[..., None]
    out[..., 0] -= matrices[..., 0]  # bit for bit -a_i1 + f_0 a_i2
    return out


def _rank_input_scale(matrices: np.ndarray, f0):
    """Magnitude bound on the rank-matrix entries from their inputs: the
    entries are -a_i1 + f_0 a_i2 and b_i2, so the bound tracks each column
    separately.  Measuring ranks against this (rather than the matrix's own
    largest singular value) keeps exactly degenerate problems with rounding
    residue at low rank without drowning honest small entries when f_0 is
    extreme.  One representative, or a stack as :func:`_rank_matrices`."""
    largest = max if matrices.ndim == 2 else _fmax
    mags = np.abs(matrices).max(axis=-2)  # of each column of [A | B]
    return largest(mags[..., 0], abs(f0) * mags[..., 1], mags[..., 3])


def _ranks(matrices: np.ndarray, f0):
    """:func:`rank_r` of one representative, or of every one of a stack in
    one SVD, as :func:`_rank_matrices`."""
    s = np.linalg.svd(_rank_matrices(matrices, f0), compute_uv=False)
    scale = np.asarray(_rank_input_scale(matrices, f0))
    return np.where(scale == 0.0, 0, (s > TOL.rank * scale[..., None]).sum(axis=-1))


def rank_r(problem: Problem) -> int:
    """Numerical rank (0, 1, or 2) of :func:`_rank_matrices`."""
    return int(_ranks(problem.bc.matrix, problem.equation.f[0]))


def _theta_bracket(problem: Problem) -> complex:
    a, b = problem.bc.A, problem.bc.B
    f0 = problem.equation.f[0]
    return (a[0, 0] * b[1, 1] - a[1, 0] * b[0, 1]) / f0 + a[1, 1] * b[0, 1] - a[0, 1] * b[1, 1]


def theta(problem: Problem) -> complex:
    """Coefficient of lambda^N in the characteristic polynomial, evaluated
    in closed form for the stored representative:

        (-1)^N (w_N prod_{i=1}^{N-1} w_i/f_i)
            * [(a11 b22 - a21 b12)/f_0 + a22 b12 - a12 b22].

    It vanishes exactly on the discontinuity sets of the eigenvalue count.
    """
    eq = problem.equation
    n = eq.N
    pref = eq.w[n - 1]
    for i in range(1, n):
        pref *= eq.w[i - 1] / eq.f[i]
    if n % 2:
        pref = -pref
    return pref * _theta_bracket(problem)


def count_eigenvalues(problem: Problem) -> int:
    """Total number of eigenvalues (with multiplicity): N - 2 + r."""
    return problem.equation.N - 2 + rank_r(problem)


def count_case(problem: Problem) -> str:
    """Three-way classification of the count: ``"N"`` when the leading
    coefficient survives, else ``"N-1"``, or ``"N-2"`` when the boundary
    condition is the distinguished double-degeneracy point.

    The zero test measures the bracket against the matrix scale: entries of
    canonical representatives carry rounding at that level (for example the
    vanishing entries built from sin(pi)), so a tighter per-entry scale
    would misread them as nonzero.
    """
    m = problem.bc.matrix
    f0 = problem.equation.f[0]
    scale = problem.bc.scale ** 2 * max(1.0, 1.0 / abs(f0))
    if abs(_theta_bracket(problem)) > TOL.set_membership * scale:
        return "N"
    if row_span_distance(m, c_point_matrix(1.0 / f0)) <= TOL.set_membership:
        return "N-2"
    return "N-1"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenvalues with multiplicities plus the count-law data."""

    eigenvalues: tuple  # ((value, multiplicity), ...) strictly increasing
    predicted_count: int
    r: int
    theta: complex
    near_singular: bool

    def values(self) -> tuple:
        """Eigenvalues repeated according to multiplicity."""
        out = []
        for v, m in self.eigenvalues:
            out.extend([v] * m)
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "count": self.predicted_count,
            "r": self.r,
            "theta": [self.theta.real, self.theta.imag],
            "eigenvalues": [
                {"value": v, "multiplicity": m} for v, m in self.eigenvalues
            ],
            "near_singular": self.near_singular,
        }


def _cluster_real_roots(values: np.ndarray) -> tuple:
    groups: list[list[float]] = []
    for v in np.sort(values):
        if groups and v - groups[-1][-1] <= TOL.cluster * (1.0 + abs(v)):
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    # v + 0.0 is the one-element mean bit for bit (it also turns -0.0 into 0.0)
    return tuple((float(np.mean(g)) if len(g) > 1 else g[0] + 0.0, len(g)) for g in groups)


def eigenvalues(problem: Problem) -> Spectrum:
    """Compute the full spectrum of the problem.

    The characteristic polynomial's trimmed degree must agree with the
    rank-based count (DegreeMismatch otherwise --- the problem sits in the
    tolerance gap next to a discontinuity set).  The eigenvalues are those
    of the reduced Hermitian pencil (NonRealRoot where its boundary block
    is not Hermitian to ``TOL.real_root``), clustered into multiplicities.
    A leading coefficient that survives trimming but is relatively tiny
    flags the spectrum as near-singular: one eigenvalue is about to escape
    to infinity.  IllConditioned: the fundamental-solution recursion left
    the floating-point range, so the count cannot be gated.
    """
    result = eigenvalues_many([problem])[0]
    if isinstance(result, Exception):
        raise result
    return result


def eigenvalues_many(problems) -> list:
    """:func:`eigenvalues` of every problem, with the count data of all
    problems in stacks (:func:`_count_data`) and one ``eigvalsh`` per
    pencil shape: a list holding each problem's Spectrum, or the exception
    that ``eigenvalues`` raises for it.  Each spectrum carries the same bits
    as a separate ``eigenvalues`` call."""
    return _eigenvalues_many(problems)


def _eigenvalues_many(problems, recover=None) -> list:
    """:func:`eigenvalues_many`, where ``recover(i, mismatch)``, if given,
    names the rank at which problem i is solved although it fails the
    count gate; its slot then holds the sorted eigenvalues of that pencil,
    unchecked, in place of the DegreeMismatch."""
    results: list = [None] * len(problems)
    degrees, near, ranks = _count_data(problems)
    solve: dict = {}  # index -> rank of its pencil
    for i, (problem, degree, r) in enumerate(zip(problems, degrees, ranks)):
        if degree is None:  # the recursion left the floating-point range
            results[i] = IllConditioned("characteristic polynomial is not finite")
            continue
        expected = problem.equation.N - 2 + r
        if degree == expected:
            solve[i] = r
            continue
        results[i] = DegreeMismatch(degree, expected)
        if recover is not None:
            solve[i] = recover(i, results[i])
    solved = _pencil_eigenvalues([problems[i] for i in solve], list(solve.values()))
    for (i, r), (values, residue) in zip(solve.items(), solved):
        if results[i] is not None:  # recovered
            results[i] = values
        elif not residue <= TOL.real_root:  # NaN included
            results[i] = NonRealRoot(residue)
        else:
            problem, found = problems[i], values.tolist()
            if any(b - a <= TOL.cluster * (1.0 + abs(b)) for a, b in zip(found, found[1:])):
                clusters = _cluster_real_roots(values)
            else:  # no gap to merge: v + 0.0 is what clustering makes of each
                clusters = tuple((v + 0.0, 1) for v in found)
            results[i] = Spectrum(
                eigenvalues=clusters,
                predicted_count=problem.equation.N - 2 + r,
                r=r,
                theta=complex(theta(problem)),
                near_singular=near[i],
            )
    return results


def _pencil_eigenvalues(problems, ranks) -> list:
    """The sorted eigenvalues of the reduced Hermitian pencil of every
    problem at the given rank r, with the pencil's relative anti-Hermitian
    residue: one SVD and one ``eigvalsh`` per (N, r, dtype) stack, real
    wherever the boundary matrix is.

    With E = [A_1 - f_0 A_2, f_N B_2] on (y_0, y_{N+1}) and
    G = [f_0 A_2, B_1 - f_N B_2] on (y_1, y_N), the boundary rows read
    E (y_0, y_{N+1}) + G (y_1, y_N) = 0.  Take E = U S V*.  The first r rows
    of U* give (y_0, y_{N+1}) = -V_r S_r^-1 (U*G)_r (y_1, y_N), which adds
    the corner D V_r S_r^-1 (U*G)_r, D = diag(f_0, f_N), to the {1, N}
    block of the tridiagonal operator.  The other 2 - r rows C = (U*G)_{r:}
    constrain (y_1, y_N); the operator is projected onto null(C): nothing
    at r = 2, one merged coordinate p at r = 1, y_1 = y_N = 0 at r = 0.
    The weights stay diagonal, so the matrix is scaled by W^-1/2.  The
    anti-Hermitian residue of the boundary block is taken relative to the
    largest entry of the matrix and divided by max(1, s_1 / s_r), the
    conditioning of the corner; the block is then replaced by its
    Hermitian part."""
    out: list = [None] * len(problems)
    groups: dict = {}
    for i, (problem, r) in enumerate(zip(problems, ranks)):
        real = not problem.bc.matrix.imag.any()
        groups.setdefault((problem.equation.N, r, real), []).append(i)
    for (n, r, real), members in groups.items():
        m = np.array([problems[i].bc.matrix for i in members])
        if real:
            m = m.real
        f = np.array([problems[i].equation.f for i in members])
        q = np.array([problems[i].equation.q for i in members])
        w = np.array([problems[i].equation.w for i in members])
        d = f[:, [0, n]]  # diag(f_0, f_N)
        e = np.stack([m[:, :, 0] - d[:, :1] * m[:, :, 1], d[:, 1:] * m[:, :, 3]], axis=-1)
        g = np.stack([d[:, :1] * m[:, :, 1], m[:, :, 2] - d[:, 1:] * m[:, :, 3]], axis=-1)
        u, s, vh = np.linalg.svd(e)
        ug = u.conj().swapaxes(-1, -2) @ g
        corner = (vh[:, :r].conj().swapaxes(-1, -2) / s[:, None, :r]) @ ug[:, :r]
        corner *= d[:, :, None]
        # the tridiagonal operator: its {1, N} block joins the corner
        diag = f[:, :-1] + f[:, 1:] + q
        off = -f[:, 1:n]
        corner[:, 0, 0] += diag[:, 0]
        corner[:, 1, 1] += diag[:, -1]
        if n == 2:
            corner[:, 0, 1] += off[:, 0]
            corner[:, 1, 0] += off[:, 0]
        # (y_1, y_N) = links t: the r coordinates t come first, then y_2..y_{N-1}
        if r == 2:
            links = np.broadcast_to(np.eye(2), (len(members), 2, 2))
        else:
            c = ug[:, 1:]  # at r = 1, the one row of C
            links = c[:, :, ::-1] * np.array([1.0, -1.0])  # its null vector
            links /= np.linalg.norm(links, axis=-1, keepdims=True)
            links = links.swapaxes(-1, -2)[:, :, :r]
        size = n - 2 + r
        h = np.zeros((len(members), size, size), m.dtype)
        h[:, :r, :r] = links.conj().swapaxes(-1, -2) @ corner @ links
        inner = np.arange(r, size)
        h[:, inner, inner] = diag[:, 1:-1]
        h[:, inner[1:], inner[:-1]] = off[:, 1:-1]
        h[:, inner[:-1], inner[1:]] = off[:, 1:-1]
        if n > 2:  # y_2 and y_{N-1} couple to y_1 and y_N through -f_1 and -f_{N-1}
            for row, link in ((r, off[:, :1] * links[:, 0]), (size - 1, off[:, -1:] * links[:, 1])):
                h[:, row, :r] += link
                h[:, :r, row] += link.conj()
        weight = np.empty((len(members), size))
        weight[:, :r] = (np.abs(links) ** 2 * w[:, [0, -1], None]).sum(axis=1)
        weight[:, r:] = w[:, 1:-1]
        scale = 1.0 / np.sqrt(weight)
        h *= scale[:, :, None]
        h *= scale[:, None, :]
        block = h[:, :r, :r]
        skew = np.abs(block - block.conj().swapaxes(-1, -2)).max(axis=(1, 2), initial=0.0)
        top = np.abs(h).max(axis=(1, 2), initial=0.0)
        spread = np.maximum(1.0, s[:, 0] / s[:, r - 1]) if r else 1.0
        residue = skew / np.where(top > 0.0, top, 1.0) / spread
        h[:, :r, :r] = 0.5 * (block + block.conj().swapaxes(-1, -2))
        finite = np.isfinite(h).all(axis=(1, 2))
        h[~finite] = 0.0  # keeps its stack mates solvable
        values = np.linalg.eigvalsh(h)
        values[~finite] = np.nan
        for i, row, res in zip(members, values, np.where(finite, residue, np.nan)):
            out[i] = (row, float(res))
    return out


def _count_data(problems) -> tuple:
    """The trimmed degree of the characteristic polynomial (None where its
    coefficients are not finite), the near-singular flag (r = 2 and a
    leading coefficient below ``TOL.near_singular`` times the largest one)
    and ``rank_r`` of every problem, as three lists.  A batch takes one SVD
    for all rank matrices, one matmul for all c matrices, and per lattice
    length one fundamental-solution recursion and one coefficient
    combination (:func:`_char_poly_stacks`), whose moduli give the degrees
    and flags.  Each carries the bits of :func:`char_poly`,
    ``Polynomial.degree`` and :func:`rank_r`."""
    if len(problems) == 1:  # nothing to stack
        problem = problems[0]
        gamma, r = char_poly(problem), rank_r(problem)
        coeffs, n = gamma.coeffs, problem.equation.N
        near = r == 2 and abs(coeffs[n]) < TOL.near_singular * float(np.abs(coeffs).max())
        return [gamma.degree() if np.isfinite(coeffs).all() else None], [bool(near)], [r]
    matrices = np.array([p.bc.matrix for p in problems]).reshape(-1, 2, 4)
    ranks = _ranks(matrices, np.array([p.equation.f[0] for p in problems]))
    degrees = np.empty(len(problems), dtype=int)
    near, finite = np.empty(len(problems), dtype=bool), np.empty(len(problems), dtype=bool)
    for members, coeffs in _char_poly_stacks(problems, matrices, _c_matrices(matrices)):
        finite[members] = np.isfinite(coeffs).all(axis=1)
        mags = np.abs(coeffs)
        top = mags.max(axis=1)
        kept = mags > TOL.trim * top[:, None]
        n = coeffs.shape[1] - 1
        degrees[members] = np.where(kept.any(axis=1), n - kept[:, ::-1].argmax(axis=1), -1)
        # np.hypot of the parts, not np.abs, carries the bits of the scalar abs
        lead = coeffs[:, n]
        near[members] = np.hypot(lead.real, lead.imag) < TOL.near_singular * top
    return np.where(finite, degrees, None).tolist(), (near & (ranks == 2)).tolist(), ranks.tolist()


def _char_poly_stacks(problems, matrices: np.ndarray, c: np.ndarray):
    """The characteristic-polynomial coefficients of a list of problems,
    whose boundary matrices and c matrices are the stacks ``matrices`` and
    ``c``: for each lattice length N, the indices of its problems and their
    (B, N+1) coefficients, from one :func:`_boundary_stack` of the distinct
    equations (by identity) and one :func:`_char_poly_rows`."""
    by_length: dict = {}  # N -> (row of each equation by id, equations, problem indices, rows)
    for i, problem in enumerate(problems):
        eq = problem.equation
        rows, equations, members, eq_rows = by_length.setdefault(eq.N, ({}, [], [], []))
        if id(eq) not in rows:
            rows[id(eq)] = len(equations)
            equations.append(eq)
        members.append(i)
        eq_rows.append(rows[id(eq)])
    for _, equations, members, eq_rows in by_length.values():
        boundary = _boundary_stack(equations).astype(complex)
        boundary = boundary[0] if len(equations) == 1 else boundary[eq_rows]
        picked = members if len(by_length) > 1 else slice(None)  # no gather for one
        yield members, _char_poly_rows(boundary, matrices[picked], c[picked])
