"""Independent ground truth used to cross-check the spectral engine.

Two routes, neither sharing the engine's polynomial arithmetic:

* the characteristic polynomial is reconstructed from pointwise numeric
  evaluations of the difference-equation recursion at Chebyshev nodes;
* separated problems are assembled into a symmetric-definite tridiagonal
  matrix pencil and solved by bisection on Sturm sequences.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import AssemblyError, IllConditioned, OutOfRange
from .model import Equation, Problem
from .spectra import Polynomial
from .tolerances import TOL


def _endpoint_values(eq: Equation, lam: float):
    """Numeric (y_N, f_N dy_N) for both fundamental solutions at one lambda."""
    f, q, w = eq.f, eq.q, eq.w
    out = []
    for y, u in ((1.0, 0.0), (0.0, 1.0)):
        for n in range(1, eq.N + 1):
            y = y + u / f[n - 1]
            u = u + (q[n - 1] - lam * w[n - 1]) * y
        out.append((y, u))
    return out


def gamma_value(problem: Problem, lam: float) -> complex:
    """Characteristic polynomial evaluated at one point, built from the
    numeric recursion (no polynomial arithmetic anywhere)."""
    a, b = problem.bc.A, problem.bc.B
    (phi, fdphi), (psi, fdpsi) = _endpoint_values(problem.equation, lam)
    first = np.array([[b[0, 0], b[1, 0]], [b[0, 1], b[1, 1]]])
    second = np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]])
    c = first @ second
    det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    det_b = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    return complex(
        det_a
        + det_b
        + c[0, 0] * phi
        + c[0, 1] * psi
        + c[1, 0] * fdphi
        + c[1, 1] * fdpsi
    )


def gamma_by_interpolation(problem: Problem) -> Polynomial:
    """Recover the characteristic polynomial's coefficients from N+1
    Chebyshev samples of :func:`gamma_value`, then verify the fit at
    2(N+1) fresh points (IllConditioned on failure)."""
    n = problem.equation.N
    # Coefficient recovery needs no root enclosure (a degree-N polynomial
    # is determined exactly by N+1 samples anywhere); what matters is the
    # error amplification eps * max|value| / R^k when mapping fitted
    # coefficients back to the power basis, which is minimized on an
    # interval of unit half-width R.  Enclosure-sized intervals lose ~R^N in
    # the low-order coefficients and were measured to break the cross-check
    # entirely for spread-out spectra.
    radius = 1.0
    nodes = np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))
    samples = np.array([gamma_value(problem, radius * t) for t in nodes])
    cheb_coeffs = ncheb.chebfit(nodes, samples, n)
    coeffs_t = ncheb.cheb2poly(cheb_coeffs)
    if len(coeffs_t) < n + 1:  # exact trailing zeros get dropped by cheb2poly
        coeffs_t = np.concatenate([coeffs_t, np.zeros(n + 1 - len(coeffs_t))])
    coeffs = coeffs_t / radius ** np.arange(n + 1)

    check_t = np.cos(np.pi * (2 * np.arange(2 * (n + 1)) + 1) / (4 * (n + 1)))
    exact = np.array([gamma_value(problem, radius * t) for t in check_t])
    fitted = np.polynomial.polynomial.polyval(radius * check_t, coeffs)
    scale = max(1.0, float(np.abs(exact).max()))
    residual = float(np.abs(exact - fitted).max()) / scale
    if residual > 1e-9:
        raise IllConditioned(
            f"interpolated polynomial misses by {residual:.3e} out of sample"
        )
    return Polynomial(coeffs)


def _sturm_count(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (d, e) below x,
    via the signs of the LDL^T pivots."""
    pivmin = 1e-290 * max(1.0, float(np.max(e * e)) if len(e) else 1.0)
    count = 0
    piv = d[0] - x
    if abs(piv) < pivmin:
        piv = -pivmin
    if piv < 0.0:
        count += 1
    for i in range(1, len(d)):
        piv = (d[i] - x) - e[i - 1] * e[i - 1] / piv
        if abs(piv) < pivmin:
            piv = -pivmin
        if piv < 0.0:
            count += 1
    return count


def tridiagonal_eigenvalues(d, e) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix by Sturm-sequence
    bisection inside the Gershgorin enclosure."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = len(d)
    if n == 0:
        return np.zeros(0)
    rad = np.zeros(n)
    if n > 1:
        rad[:-1] += np.abs(e)
        rad[1:] += np.abs(e)
    lo = float(np.min(d - rad)) - 1.0
    hi = float(np.max(d + rad)) + 1.0
    out = np.empty(n)
    for k in range(n):
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if _sturm_count(d, e, mid) >= k + 1:
                b = mid
            else:
                a = mid
            if b - a <= 1e-15 * max(1.0, abs(a), abs(b)):
                break
        out[k] = 0.5 * (a + b)
    return out


def pencil_eigenvalues_separated(eq: Equation, alpha: float, beta: float) -> np.ndarray:
    """Eigenvalues of the problem with separated boundary condition
    (alpha, beta), via direct elimination of the endpoint unknowns.

    The left row ties y_0 to y_1 except at the critical angle where it
    degenerates to y_1 = 0; the right row ties y_{N+1} to y_N except at
    beta = pi where it forces y_N = 0.  Each degeneracy removes one row, so
    the pencil dimension reproduces the count law.  The reduced problem is
    symmetric-definite tridiagonal and is solved by Sturm bisection.
    """
    if not 0.0 <= alpha < math.pi:
        raise OutOfRange(f"alpha must lie in [0, pi), got {alpha}")
    if not 0.0 < beta <= math.pi:
        raise OutOfRange(f"beta must lie in (0, pi], got {beta}")
    f = np.asarray(eq.f)
    q = np.asarray(eq.q)
    w = np.asarray(eq.w)
    n = eq.N
    diag = f[:-1] + f[1:] + q
    off = -f[1:n]
    left_gate = math.cos(alpha) + f[0] * math.sin(alpha)
    right_gate = math.sin(beta)
    # same degeneracy thresholds as the engine's rank computation, measured
    # against the per-column input magnitudes of the rank matrix
    thr = TOL.rank * max(
        abs(math.cos(alpha)), abs(f[0] * math.sin(alpha)), abs(math.sin(beta))
    )
    keep_lo, keep_hi = 0, n
    if abs(left_gate) <= thr:
        keep_lo = 1  # boundary row collapses to y_1 = 0
    else:
        diag = diag.copy()
        diag[0] -= f[0] * (math.sin(alpha) * f[0] / left_gate)
    if abs(right_gate) <= thr:
        keep_hi = n - 1  # boundary row collapses to y_N = 0
    else:
        diag = diag.copy()
        diag[-1] -= f[n] + math.cos(beta) / right_gate
    expected = n - 2 + int(abs(left_gate) > thr) + int(abs(right_gate) > thr)
    d2 = diag[keep_lo:keep_hi]
    w2 = w[keep_lo:keep_hi]
    e2 = off[keep_lo : keep_hi - 1] if keep_hi - keep_lo > 1 else off[:0]
    if len(d2) != expected:
        raise AssemblyError(
            f"pencil dimension {len(d2)} does not match the count {expected}"
        )
    if len(d2) == 0:
        return np.zeros(0)
    dt = d2 / w2
    et = e2 / np.sqrt(w2[:-1] * w2[1:]) if len(e2) else e2
    return tridiagonal_eigenvalues(dt, et)
