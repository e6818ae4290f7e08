"""Symmetric tridiagonal eigensolver: Sturm bisection + inverse iteration.

Self-contained solver for matrices with constant off-diagonal (the shape
every discrete Hamiltonian here has):

    T = tridiag(e, d_i, e),  d real array, e real scalar.

Eigenvalues are located by bisection on the Sturm count (the number of
negative pivots of the LDL^T factorization of T - sigma*I equals the
number of eigenvalues below sigma), then each eigenvector is refined by
inverse iteration with a partially pivoted tridiagonal solve, and the
eigenvalue is replaced by its Rayleigh quotient.  A final Rayleigh-shift
polish (re-solving at the quotient itself) drops the residual from the
fixed-shift plateau near 10^2 eps |T| to a few eps |T|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = 1e-300
_MAX_INVERSE_ITERATIONS = 12


class EigensolverError(RuntimeError):
    """Raised when inverse iteration fails to reach the residual target."""


def sturm_count(diag: list[float], off: float, sigma: float) -> int:
    """Number of eigenvalues of tridiag(off, diag, off) strictly below sigma."""
    e2 = off * off
    count = 0
    q = 1.0
    first = True
    for d in diag:
        if first:
            q = d - sigma
            first = False
        else:
            q = (d - sigma) - e2 / q
        if q == 0.0:
            q = -_TINY
        if q < 0.0:
            count += 1
    return count


def solve_shifted(
    diag: np.ndarray, off: float, sigma: float, rhs: np.ndarray
) -> np.ndarray:
    """Solve (T - sigma*I) x = rhs by Gaussian elimination with row pivoting.

    Tolerates nearly singular shifts (zero pivots are replaced by a tiny
    number), which is exactly what inverse iteration wants.
    """
    n = diag.shape[0]
    d = (diag - sigma).tolist()
    c = [off] * (n - 1)  # superdiagonal
    u2 = [0.0] * n       # second superdiagonal fill-in
    b = rhs.tolist()
    for i in range(n - 1):
        a_i = off
        if abs(d[i]) >= abs(a_i):
            piv = d[i] if d[i] != 0.0 else _TINY
            m = a_i / piv
            d[i] = piv
            d[i + 1] -= m * c[i]
            if i + 1 < n - 1:
                c[i + 1] -= m * u2[i]
            b[i + 1] -= m * b[i]
        else:
            # swap rows i and i+1
            m = d[i] / a_i
            d_next, c_next = d[i + 1], c[i + 1] if i + 1 < n - 1 else 0.0
            d[i] = a_i
            ci_old, u2i_old = c[i], u2[i]
            c[i] = d_next
            u2[i] = c_next
            d[i + 1] = ci_old - m * d_next
            if i + 1 < n - 1:
                c[i + 1] = u2i_old - m * c_next
            b[i], b[i + 1] = b[i + 1], b[i] - m * b[i + 1]
    if d[n - 1] == 0.0:
        d[n - 1] = _TINY
    x = [0.0] * n
    x[n - 1] = b[n - 1] / d[n - 1]
    if n >= 2:
        x[n - 2] = (b[n - 2] - c[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (b[i] - c[i] * x[i + 1] - u2[i] * x[i + 2]) / d[i]
    return np.asarray(x)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v; rescales v in place by max|v| first if the
    sum of squares overflows (a near-singular shift can leave entries
    near 1/_TINY)."""
    with np.errstate(over="ignore"):
        nv = np.linalg.norm(v)
    if not np.isfinite(nv):
        v /= np.max(np.abs(v))
        nv = np.linalg.norm(v)
    return nv


def _apply(diag: np.ndarray, off: float, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += off * v[:-1]
    out[:-1] += off * v[1:]
    return out


@dataclass(frozen=True)
class TridiagonalEigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j is the j-th eigenvector, unit l2 norm
    iterations: tuple[int, ...]


def lowest_eigenpairs(
    diag: np.ndarray, off: float, k: int
) -> TridiagonalEigenResult:
    """The k smallest eigenpairs of tridiag(off, diag, off), ascending.

    Eigenvectors have unit Euclidean norm. Raises EigensolverError with
    iteration diagnostics if inverse iteration stalls.
    """
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    diag_list = diag.tolist()
    radius = 2.0 * abs(off)
    lo0 = float(diag.min()) - radius
    hi0 = float(diag.max()) + radius
    scale = max(abs(lo0), abs(hi0), 1.0)
    width_target = 1e-8 * scale
    # ~250 eps: the attainable floor is a small multiple of eps*|T|, and
    # clustered shifts (tunnelling doublets) sit a factor above isolated
    # ones
    res_target = 250.0 * np.finfo(float).eps * scale

    # deterministic start vector for inverse iteration
    rng = np.random.Generator(np.random.Philox(0x5EED))
    start = rng.standard_normal(n)

    values = np.empty(k)
    vectors = np.empty((n, k))
    iteration_counts: list[int] = []
    for j in range(k):
        lo, hi = lo0, hi0
        while hi - lo > width_target:
            mid = 0.5 * (lo + hi)
            if sturm_count(diag_list, off, mid) <= j:
                lo = mid
            else:
                hi = mid
        sigma = 0.5 * (lo + hi)

        v = start.copy()
        theta = sigma
        residual = float("inf")
        converged = False
        for it in range(1, _MAX_INVERSE_ITERATIONS + 1):
            v = solve_shifted(diag, off, sigma, v)
            # keep the iterate orthogonal to earlier vectors of a cluster
            for i in range(j):
                if abs(values[i] - sigma) < 1e-6 * scale:
                    v -= np.dot(vectors[:, i], v) * vectors[:, i]
            nv = _norm(v)
            if nv == 0.0:
                v = start.copy()
                continue
            v /= nv
            theta = float(np.dot(v, _apply(diag, off, v)))
            residual = float(
                np.max(np.abs(_apply(diag, off, v) - theta * v))
            )
            if residual <= res_target:
                converged = True
                iteration_counts.append(it)
                break
        if not converged:
            raise EigensolverError(
                f"inverse iteration for eigenvalue index {j} did not reach "
                f"residual {res_target:.3e} within "
                f"{_MAX_INVERSE_ITERATIONS} iterations (shift {sigma!r}, "
                f"last residual {residual:.3e})"
            )

        # Rayleigh-shift polish.  The fixed bisection shift stalls around
        # 10^2 eps |T| because its offset from the eigenvalue caps the
        # per-step contraction; one or two solves at the Rayleigh quotient
        # push the residual to the eps |T| floor.  Accept a step only if
        # the residual actually drops and the quotient stays within the
        # cluster radius of the bracket (so a polish step can never walk
        # to a neighboring eigenvalue).
        for _ in range(2):
            w = solve_shifted(diag, off, theta, v)
            for i in range(j):
                if abs(values[i] - sigma) < 1e-6 * scale:
                    w -= np.dot(vectors[:, i], w) * vectors[:, i]
            nw = _norm(w)
            if nw == 0.0:
                break
            w /= nw
            theta_new = float(np.dot(w, _apply(diag, off, w)))
            residual_new = float(
                np.max(np.abs(_apply(diag, off, w) - theta_new * w))
            )
            if residual_new >= residual or abs(theta_new - sigma) > 1e-6 * scale:
                break
            v, theta, residual = w, theta_new, residual_new

        values[j] = theta
        vectors[:, j] = v

    # one Gram-Schmidt sweep: each vector's residual bounds its leakage
    # onto the others by residual/gap, so removing the leakage tightens
    # both the pairwise orthogonality and the residual itself
    for j in range(1, k):
        for i in range(j):
            vectors[:, j] -= np.dot(vectors[:, i], vectors[:, j]) * vectors[:, i]
        vectors[:, j] /= np.linalg.norm(vectors[:, j])

    order = np.argsort(values, kind="stable")
    return TridiagonalEigenResult(
        values[order], vectors[:, order], tuple(iteration_counts)
    )
