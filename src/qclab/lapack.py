"""The four LAPACK routines qclab calls, from the OpenBLAS numpy loaded.

dstebz/dstein give the tridiagonal eigenpairs and zgttrf/zgttrs the
Crank-Nicolson solves.  numpy 2.x wheels bundle one OpenBLAS, built with
64-bit integers (ILP64) and every symbol renamed `scipy_<routine>_64_`,
and numpy.linalg's `_umath_linalg` extension links it.  `ctypes.CDLL` on
that extension resolves the routines through its dependencies, so a
process maps one BLAS library, the one `import numpy` already mapped,
and imports no scipy.  Integer arguments are int64, and every character
argument is followed by gfortran's trailing size_t length.

`ctypes.CDLL` functions release the GIL for the length of each call, so
solves on different threads run in parallel.  Each solver that
`tridiagonal_solver` returns owns its factors, arguments and info slot,
and binds each right-hand side once, so a solve is one foreign call with
arguments built beforehand.
"""
import ctypes
import functools
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

_LIBRARY = _umath_linalg.__file__
_lib = ctypes.CDLL(_LIBRARY)


def _routine(name: str, pointers: int, lengths: int):
    symbol = f"scipy_{name}_64_"
    try:
        function = getattr(_lib, symbol)
    except AttributeError:
        raise ImportError(f"LAPACK symbol {symbol} not found in {_LIBRARY}") from None
    function.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
    function.restype = None
    return function


_dstebz = _routine("dstebz", 18, 2)
_dstein = _routine("dstein", 13, 0)
_zgttrf = _routine("zgttrf", 7, 0)
_zgttrs = _routine("zgttrs", 11, 1)


def _block(ctype, *values) -> tuple:
    """A ctypes array of values, then a pointer to each element; each
    pointer holds the array alive."""
    block = (ctype * len(values))(*values)
    size = ctypes.sizeof(ctype)
    return (block, *(ctypes.byref(block, i * size) for i in range(len(values))))


def _pointer(array: np.ndarray) -> ctypes.c_void_p:
    return array.ctypes.data_as(ctypes.c_void_p)  # holds the array alive


def _input(values, dtype, size: int, name: str) -> np.ndarray:
    array = np.ascontiguousarray(values, dtype=dtype)
    if array.shape != (size,):
        raise ValueError(f"{name} must have shape ({size},), got {array.shape}")
    return array


def dstebz(d, e, range_, vl, vu, il, iu, abstol, order):
    """LAPACK dstebz: eigenvalues of the symmetric tridiag(e, d, e) by bisection.

    range_ ("A", "V" or "I"), order ("B" or "E") and the bounds are
    LAPACK's.  Returns (m, w, iblock, isplit, info); w, iblock and isplit
    have length n, and the first m entries of w and iblock are the result.
    """
    d = _input(d, np.float64, np.size(d), "d")
    n = d.size
    e = _input(e, np.float64, n - 1, "e")
    ints, n_, il_, iu_, m_, nsplit_, info_ = _block(ctypes.c_int64, n, il, iu, 0, 0, 0)
    _, vl_, vu_, abstol_ = _block(ctypes.c_double, vl, vu, abstol)
    w = np.zeros(n)
    iblock, isplit = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)
    _dstebz(
        range_.encode(), order.encode(), n_, vl_, vu_, il_, iu_, abstol_,
        *map(_pointer, (d, e)), m_, nsplit_,
        *map(_pointer, (w, iblock, isplit, work, iwork)), info_, 1, 1,
    )
    return ints[3], w, iblock, isplit, ints[5]


def dstein(d, e, w, iblock, isplit):
    """LAPACK dstein: eigenvectors of tridiag(e, d, e) for eigenvalues w
    that dstebz returned with order "B", by inverse iteration.

    Returns (z, info); column j of the (n, m) array z is the unit
    eigenvector of w[j].
    """
    d = _input(d, np.float64, np.size(d), "d")
    n = d.size
    e = _input(e, np.float64, n - 1, "e")
    w = _input(w, np.float64, np.size(w), "w")
    m = w.size
    iblock = _input(iblock, np.int64, n, "iblock")
    isplit = _input(isplit, np.int64, n, "isplit")
    ints, n_, m_, ldz_, info_ = _block(ctypes.c_int64, n, m, max(1, n), 0)
    z = np.empty((n, m), order="F")
    work, iwork = np.empty(5 * n), np.empty(n, dtype=np.int64)
    ifail = np.empty(m, dtype=np.int64)
    _dstein(
        n_, *map(_pointer, (d, e)), m_, *map(_pointer, (w, iblock, isplit, z)),
        ldz_, *map(_pointer, (work, iwork, ifail)), info_,
    )
    return z, ints[3]


def tridiagonal_solver(dl, d, du):
    """Factor tridiag(dl, d, du) once (LAPACK zgttrf, partial pivoting) and
    return solver(b), which binds the complex n-vector b: it returns a
    call with no arguments that overwrites b with the solution of
    tridiag(dl, d, du) x = b (zgttrs).

    b is checked once, when it is bound, and every argument of the call
    is built then, so each solve is one foreign call.  The bound call
    holds b alive.  A solver and its bound calls may be used from any
    thread, by one at a time.  Raises RuntimeError if U is exactly
    singular.
    """
    # copies: zgttrf writes the factors over them
    d = _input(d, np.complex128, np.size(d), "d").copy()
    n = d.size
    dl = _input(dl, np.complex128, n - 1, "dl").copy()
    du = _input(du, np.complex128, n - 1, "du").copy()
    du2 = np.empty(max(n - 2, 0), dtype=np.complex128)
    ipiv = np.empty(n, dtype=np.int64)
    ints, n_, nrhs_, ldb_, info_ = _block(ctypes.c_int64, n, 1, max(1, n), 0)
    factors = tuple(map(_pointer, (dl, d, du, du2, ipiv)))
    _zgttrf(n_, *factors, info_)
    if ints[3] != 0:
        raise RuntimeError(f"tridiagonal factorization failed (zgttrf info {ints[3]})")
    head = (b"N", n_, nrhs_, *factors)

    def solver(b: np.ndarray) -> Callable[[], None]:
        if b.dtype != np.complex128 or b.shape != (n,) or not b.flags.carray:
            raise ValueError(f"b must be a writeable contiguous complex ({n},) array")
        return functools.partial(_zgttrs, *head, _pointer(b), ldb_, info_, 1)

    return solver
