"""Symmetric tridiagonal eigensolver: LAPACK bisection + inverse iteration.

Every discrete Hamiltonian here is a symmetric tridiagonal matrix with
constant off-diagonal,

    T = tridiag(e, d_i, e),  d real array, e real scalar.

The lowest k eigenpairs come from LAPACK's dstebz (Sturm-count
bisection, Barth-Martin-Wilkinson) and dstein (inverse iteration with
reorthogonalization inside clusters), called through `qclab.lapack`
with the k lowest selected by index (range "I").  Demmel,
Dhillon & Ren (ETNA 3, 1995) analyse the floating-point behaviour of
both.  dstebz stops bisecting at an absolute width of eps |T|, so each
eigenvalue is then replaced by the Rayleigh quotient of its
eigenvector, which is accurate to the square of the vector's error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lapack


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

    Eigenvectors have unit Euclidean norm.  Raises ValueError on a
    non-finite entry and EigensolverError if LAPACK reports a failure.
    """
    diag = np.asarray(diag, dtype=float)
    n = diag.shape[0]
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not (np.all(np.isfinite(diag)) and np.isfinite(off)):
        # dstebz reports NaN or inf only as "no eigenvalues found"
        raise ValueError("tridiagonal matrix must not contain infs or NaNs")
    e = np.full(n - 1, off, dtype=float)
    # range "I": eigenvalues il = 1 .. iu = k (vl, vu unused); absolute
    # tolerance 0 (LAPACK's default); "B": grouped by split block, the
    # order dstein takes them in
    m, w, iblock, isplit, info = lapack.dstebz(diag, e, "I", 0.0, 1.0, 1, k, 0.0, "B")
    _check_info("dstebz", info, f"bisection failed (info {info})")
    w = w[:m]
    vectors, info = lapack.dstein(diag, e, w, iblock, isplit)
    _check_info("dstein", info, f"{info} eigenvectors failed to converge")
    ascending = np.argsort(w)  # dstein's columns come in block order
    values = np.array(
        [vectors[:, j] @ _apply(diag, off, vectors[:, j]) for j in ascending]
    )
    # a doublet degenerate to roundoff may come back in either order; the
    # columns are gathered once, in the composed order
    order = np.argsort(values, kind="stable")
    return TridiagonalEigenResult(values[order], vectors[:, ascending[order]], ())


def _check_info(routine: str, info: int, failure: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise EigensolverError(f"LAPACK {routine}: {failure}")
