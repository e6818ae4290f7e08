"""Symmetric tridiagonal eigensolver: LAPACK bisection + inverse iteration.

Every discrete Hamiltonian here is a symmetric tridiagonal matrix with
constant off-diagonal,

    T = tridiag(e, d_i, e),  d real array, e real scalar.

The lowest k eigenpairs come from LAPACK's dstebz (Sturm-count
bisection, Barth-Martin-Wilkinson) and dstein (inverse iteration with
reorthogonalization inside clusters), reached through
scipy.linalg.eigh_tridiagonal.  Demmel, Dhillon & Ren (ETNA 3, 1995)
analyse the floating-point behaviour of both.  dstebz stops bisecting
at an absolute width of eps |T|, so each eigenvalue is then replaced by
the Rayleigh quotient of its eigenvector, which is accurate to the
square of the vector's error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal


class EigensolverError(RuntimeError):
    """Raised when LAPACK's bisection or inverse iteration fails."""


def _apply(diag: np.ndarray, off: float, v: np.ndarray) -> np.ndarray:
    out = diag * v
    out[1:] += off * v[:-1]
    out[:-1] += off * v[1:]
    return out


@dataclass(frozen=True)
class TridiagonalEigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j is the j-th eigenvector, unit l2 norm
    iterations: tuple[int, ...]  # empty: LAPACK reports no iteration counts


def lowest_eigenpairs(
    diag: np.ndarray, off: float, k: int
) -> TridiagonalEigenResult:
    """The k smallest eigenpairs of tridiag(off, diag, off), ascending.

    Eigenvectors have unit Euclidean norm.  Raises EigensolverError if
    LAPACK reports a failure.
    """
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    try:
        _, vectors = eigh_tridiagonal(
            diag,
            np.full(n - 1, off),
            select="i",
            select_range=(0, k - 1),
            lapack_driver="stebz",
        )
    except LinAlgError as exc:
        raise EigensolverError(f"LAPACK stebz/stein failed: {exc}") from None
    values = np.array(
        [vectors[:, j] @ _apply(diag, off, vectors[:, j]) for j in range(k)]
    )
    # a doublet degenerate to roundoff may come back in either order
    order = np.argsort(values, kind="stable")
    return TridiagonalEigenResult(values[order], vectors[:, order], ())
