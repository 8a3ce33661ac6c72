"""Characteristic polynomial, eigenvalue count, and eigenvalue computation.

The fundamental solutions of the difference equation with initial data
(1, 0) and (0, 1) in the (value, quasi-derivative) coordinates are
polynomials in the spectral parameter; running the equation's first-order
form in polynomial arithmetic yields their values at the right endpoint.
Combining those four boundary polynomials with the boundary-condition
matrix gives the characteristic polynomial, whose real zeros (with
multiplicity) are exactly the eigenvalues.  The number of eigenvalues is
N - 2 + r where r is the rank of a 2x2 matrix built from the boundary
condition and f_0; equivalently, it is the degree of the characteristic
polynomial.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .charts import _fmax, c_point_matrix, row_span_distance
from .errors import DegreeMismatch, NonRealRoot
from .model import Equation, Problem
from .tolerances import TOL

# Aberth's residual test: |p(z)| within this multiple of the rounding error
# bound eps * p~(|z|) of evaluating p by Horner, p~ having the coefficient
# moduli (Bini 1996).  The factor is not tuned: 2 or 64 in place of 8 stop
# a few rows one pass earlier or later, with the same median and maximum.
_ROUNDING = 8 * np.finfo(float).eps


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

    def derivative(self) -> "Polynomial":
        return Polynomial(npoly.polyder(self.coeffs))


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


def _run_polynomial_recursion(f, q, w, y0: float, u0: float):
    """Advance (y, u) with u_n = u_{n-1} + (q_n - lam*w_n)*y_n and
    y_n = y_{n-1} + u_{n-1}/f_{n-1}, carrying coefficient arrays.

    Every 8 steps the pair is rescaled by a power of two (exact in floating
    point) to keep intermediate products in range; the accumulated exponent
    is folded back at the end.
    """
    n_pts = len(q)
    y = np.zeros(n_pts + 1)
    u = np.zeros(n_pts + 1)
    y[0] = y0
    u[0] = u0
    exp2 = 0
    for n in range(1, n_pts + 1):
        y = y + u / f[n - 1]
        u_new = u + q[n - 1] * y
        u_new[1:] -= w[n - 1] * y[:-1]
        u = u_new
        if n % 8 == 0:
            top = max(float(np.abs(y).max()), float(np.abs(u).max()))
            if top > 0.0 and not 2.0**-64 < top < 2.0**64:
                shift = -int(math.floor(math.log2(top)))
                y = np.ldexp(y, shift)
                u = np.ldexp(u, shift)
                exp2 -= shift
    if exp2:
        y = np.ldexp(y, exp2)
        u = np.ldexp(u, exp2)
    return y, u


@functools.lru_cache(maxsize=256)
def fundamental_solutions(eq: Equation) -> FundamentalSolutions:
    """Boundary polynomials of the fundamental solutions of ``eq``."""
    phi, fdphi = _run_polynomial_recursion(eq.f, eq.q, eq.w, 1.0, 0.0)
    psi, fdpsi = _run_polynomial_recursion(eq.f, eq.q, eq.w, 0.0, 1.0)
    return FundamentalSolutions(
        Polynomial(phi), Polynomial(psi), Polynomial(fdphi), Polynomial(fdpsi)
    )


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


def _char_poly_rows(fs: FundamentalSolutions, matrices: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial coefficients of the equation with
    fundamental solutions ``fs`` and each boundary matrix of a (k, 2, 4)
    stack, whose c matrices are ``c``, one row each."""
    boundary = np.array(
        [fs.phi_N.coeffs, fs.psi_N.coeffs, fs.fdphi_N.coeffs, fs.fdpsi_N.coeffs], dtype=complex
    )
    terms = c.reshape(-1, 4, 1) * boundary  # c_11 phi, c_12 psi, c_21 fdphi, c_22 fdpsi
    coeffs = np.zeros((len(matrices), boundary.shape[1]), dtype=complex)
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
    return Polynomial(_char_poly_rows(fs, m, _c_matrices(m))[0])


def rank_matrix(problem: Problem) -> np.ndarray:
    """The 2x2 matrix whose rank fixes the eigenvalue count."""
    return _rank_matrices(problem.bc.matrix, problem.equation.f[0])


def _rank_matrices(matrices: np.ndarray, f0) -> np.ndarray:
    """:func:`rank_matrix` of a 2x4 representative with its f_0, or of every
    one of a (n, 2, 4) stack with an array of f_0."""
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
    """Numerical rank (0, 1, or 2) of :func:`rank_matrix`."""
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
    gamma: Polynomial
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


def _horner_pair(upper: np.ndarray, c0: np.ndarray, z: np.ndarray) -> tuple:
    """p and p' of every row at that row's points, in one ``npoly.polyval``
    pass.

    ``upper`` is (d, B, 2, 1): along the first axis, the monic coefficients
    1..d of p beside the d coefficients of p'; ``c0`` holds the constant
    terms of p, which take one last Horner step.  Both operands of every
    product are contiguous along the roots, so each value carries the same
    bits as a one-row ``polyval`` call."""
    acc = npoly.polyval(z[:, None, :], upper, tensor=False)
    return c0[:, None] + acc[:, 0] * z, acc[:, 1]


def _aberth_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of trimmed polynomials by Aberth-Ehrlich simultaneous
    iteration on the monic normalization, polished with two Newton steps.

    The start points lie on a circle of Fujiwara's root bound.  A row stops
    once every residual |p(z)| is at the rounding error of evaluating p
    (Bini 1996), or once its steps fall below 1e-15 relative, or after 200
    iterations.  ``coeffs`` is one coefficient row, or a (B, d+1) stack of
    rows of one degree.  Each row stops on its own test and leaves the
    working set, so its roots do not depend on the rows batched with it."""
    coeffs = np.asarray(coeffs)
    if coeffs.ndim == 1:
        return _aberth_roots(coeffs[None, :])[0]
    monic = coeffs / coeffs[:, -1:]
    d = monic.shape[1] - 1
    if d == 0:
        return np.zeros((len(monic), 0), dtype=complex)
    if d == 1:
        return (-monic[:, :1]).astype(complex)
    upper = np.empty((d, len(monic), 2, 1), dtype=monic.dtype)
    upper[:, :, 0, 0] = monic[:, 1:].T
    # npoly.polyder's two products: by the scale 1, then by the power
    upper[:, :, 1, 0] = (np.arange(1, d + 1) * (monic[:, 1:] * 1)).T
    c0 = monic[:, 0]
    moduli = np.abs(monic).T[:, :, None]  # (d+1, B, 1): the coefficients of p~
    k = np.arange(d)
    radius = 2.0 * (np.abs(monic[:, :-1]) ** (1.0 / (d - k))).max(axis=1)
    radius = np.where(radius > 0.0, radius, 1.0)  # z^d: a zero circle gives 0/0
    z = radius[:, None] * np.exp(2j * np.pi * (k + 0.35) / d)
    roots = np.empty_like(z)
    # the rows still iterating
    live, live_upper, live_c0, live_moduli = np.arange(len(z)), upper, c0, moduli
    for _ in range(200):
        p, dp = _horner_pair(live_upper, live_c0, z)
        scale = npoly.polyval(np.abs(z), live_moduli, tensor=False)
        converged = np.all(np.abs(p) <= _ROUNDING * scale, axis=1)
        dp = np.where(np.abs(dp) > 0.0, dp, 1e-300)
        ratio = p / dp
        diff = z[:, :, None] - z[:, None, :]
        diff.reshape(len(z), d * d)[:, :: d + 1] = np.inf  # each row's diagonal
        s = np.sum(1.0 / diff, axis=2)
        denom = 1.0 - ratio * s
        denom = np.where(np.abs(denom) > 1e-300, denom, 1.0)
        step = ratio / denom
        z = z - step
        done = converged | (np.abs(step).max(axis=1) <= 1e-15 * (1.0 + np.abs(z).max(axis=1)))
        if np.count_nonzero(done):
            roots[live[done]] = z[done]
            keep = ~done
            live, live_upper, live_c0 = live[keep], live_upper[:, keep], live_c0[keep]
            live_moduli, z = live_moduli[:, keep], z[keep]
            if not len(live):
                break
    roots[live] = z
    for _ in range(2):
        p, dp = _horner_pair(upper, c0, roots)
        step = np.where(np.abs(dp) > 0.0, p / np.where(np.abs(dp) > 0.0, dp, 1.0), 0.0)
        roots = roots - step
    return roots


def _cluster_real_roots(values: np.ndarray) -> tuple:
    groups: list[list[float]] = []
    for v in np.sort(values):
        if groups and v - groups[-1][-1] <= TOL.cluster * (1.0 + abs(v)):
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    # v + 0.0 is the one-element mean bit for bit (it also turns -0.0 into 0.0)
    return tuple((float(np.mean(g)) if len(g) > 1 else g[0] + 0.0, len(g)) for g in groups)


def _polish_double_root(dgamma: Polynomial, center: float, radius: float) -> float:
    """At a double root the derivative has a simple zero; a few Newton
    steps on it recover the location to full precision where the cluster
    mean is only square-root accurate."""
    d2 = dgamma.derivative()
    x = center
    for _ in range(8):
        dp = dgamma(x)
        d2p = d2(x)
        if abs(d2p) == 0.0:
            break
        step = (dp / d2p).real
        x -= step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    if abs(x - center) > max(radius, TOL.cluster * (1.0 + abs(center))):
        return center
    return x


def eigenvalues(problem: Problem) -> Spectrum:
    """Compute the full spectrum of the problem.

    The characteristic polynomial is trimmed to its numerical degree, which
    must agree with the rank-based count (DegreeMismatch otherwise --- the
    problem sits in the tolerance gap next to a discontinuity set); all its
    roots are found simultaneously, checked to be finite and real
    (NonRealRoot otherwise), and clustered into multiplicities.  A leading
    coefficient that survives trimming but is relatively tiny flags the
    spectrum as near-singular: one root is about to escape to infinity.
    """
    result = eigenvalues_many([problem])[0]
    if isinstance(result, Exception):
        raise result
    return result


def eigenvalues_many(problems) -> list:
    """:func:`eigenvalues` of every problem, with the count data of all
    problems in stacks (:func:`_count_data`) and one root solve per degree:
    a list holding each problem's Spectrum, or the exception that
    ``eigenvalues`` raises for it.  Each spectrum carries the same bits as
    a separate ``eigenvalues`` call."""
    results: list = [None] * len(problems)
    prepared: dict = {}  # index -> (gamma, r, expected) of a problem to solve
    groups: dict = {}  # degree -> indices of the problems to solve
    gammas, ranks = _count_data(problems)
    for i, (problem, gamma, r) in enumerate(zip(problems, gammas, ranks.tolist())):
        expected = problem.equation.N - 2 + r
        degree = gamma.degree()
        if degree != expected:
            results[i] = DegreeMismatch(degree, expected)
            continue
        prepared[i] = (gamma, r, expected)
        groups.setdefault(degree, []).append(i)
    solved: dict = {}
    for degree, members in groups.items():
        stack = np.array([prepared[i][0].coeffs[: degree + 1] for i in members])
        solved.update(zip(members, _aberth_roots(stack)))
    for i, (gamma, r, expected) in prepared.items():
        try:
            results[i] = _finish_spectrum(problems[i], gamma, r, expected, solved[i])
        except NonRealRoot as exc:
            results[i] = exc
    return results


def _count_data(problems) -> tuple:
    """The characteristic polynomials and ``rank_r`` of a list of problems:
    one SVD for all rank matrices, one matmul for all c matrices and one
    coefficient combination per set of fundamental solutions, looked up
    per problem as ``char_poly`` does.  Each carries the bits of
    :func:`char_poly` and :func:`rank_r`."""
    if len(problems) == 1:  # nothing to stack
        return [char_poly(problems[0])], np.array([rank_r(problems[0])])
    matrices = np.array([p.bc.matrix for p in problems]).reshape(-1, 2, 4)
    ranks = _ranks(matrices, np.array([p.equation.f[0] for p in problems]))
    c = _c_matrices(matrices)
    # problems that share an equation share its (cached) fundamental solutions
    groups: dict = {}  # id -> (fundamental solutions, indices of their problems)
    for i, problem in enumerate(problems):
        fs = fundamental_solutions(problem.equation)
        groups.setdefault(id(fs), (fs, []))[1].append(i)
    gammas: list = [None] * len(problems)
    for fs, members in groups.values():
        rows = members if len(groups) > 1 else slice(None)  # no gather for one
        for i, coeffs in zip(members, _char_poly_rows(fs, matrices[rows], c[rows])):
            gammas[i] = Polynomial(coeffs)
    return gammas, ranks


def _finish_spectrum(problem: Problem, gamma: Polynomial, r: int, expected: int,
                     roots: np.ndarray) -> Spectrum:
    """Check the roots of a solved problem, cluster them into
    multiplicities and polish the double ones.  Warnings name the caller of
    ``eigenvalues`` (or of the function that called ``eigenvalues_many``)."""
    n = problem.equation.N
    coeffs = gamma.coeffs
    top = float(np.abs(coeffs).max())
    near = bool(expected == n and abs(coeffs[n]) < TOL.near_singular * top)
    for root in roots:
        # a NaN imaginary part would pass the size test silently
        if not np.isfinite(root) or abs(root.imag) > TOL.real_root * (1.0 + abs(root.real)):
            raise NonRealRoot(complex(root))
    pairs = _cluster_real_roots(roots.real)
    # only multiple roots are polished and checked against the derivative
    dgamma = gamma.derivative() if any(mult >= 2 for _, mult in pairs) else None
    polished = []
    for value, mult in pairs:
        if mult >= 3:
            warnings.warn(
                f"eigenvalue {value} clustered with multiplicity {mult} > 2",
                RuntimeWarning,
                stacklevel=4,
            )
        if mult == 2:
            value = _polish_double_root(dgamma, value, TOL.cluster * (1.0 + abs(value)))
        if mult >= 2:
            dscale = float(npoly.polyval(abs(value), np.abs(dgamma.coeffs)))
            if abs(dgamma(value)) > 1e-3 * max(dscale, top):
                warnings.warn(
                    f"cluster at {value} does not flatten the derivative; "
                    "possibly two close simple eigenvalues",
                    RuntimeWarning,
                    stacklevel=4,
                )
        polished.append((float(value), mult))
    return Spectrum(
        eigenvalues=tuple(polished),
        predicted_count=expected,
        r=r,
        theta=complex(theta(problem)),
        gamma=gamma,
        near_singular=near,
    )
