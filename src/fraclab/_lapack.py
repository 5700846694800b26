"""The LAPACK call that numpy.linalg lacks, from numpy's own OpenBLAS.

numpy.linalg has no subset eigensolve.  The OpenBLAS that numpy's wheels
bundle (scipy-openblas64, ILP64) exports the whole of LAPACK under the
prefix `scipy_` and the suffix `64_`.  This module opens numpy.linalg's
`_umath_linalg` extension with ctypes, whose symbol lookup also searches
the OpenBLAS that the extension links, and binds `dsyevr` from it, so a
run loads one BLAS and no scipy.  A numpy whose LAPACK lacks the symbol
fails at import with ImportError naming the routine.

`dsyevr` gives the lowest eigenpairs of a real symmetric block.  It is
called through ctypes, which releases the GIL during the call, with the
arguments that scipy.linalg.eigh(block, overwrite_a=True,
subset_by_index=...) passes it, so on one BLAS thread its results are
bit-identical to scipy's.  It leaves the finiteness check to its caller,
which holds the block it built, and raises NumericalError when the routine
reports failure.  The Gramians need no binding: `control.Gramian` factors
them with numpy.linalg.eigh.
"""

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError

__all__ = ["dsyevr"]

_INT = ctypes.POINTER(ctypes.c_int64)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_CHAR = ctypes.c_char_p
# gfortran passes the length of each character argument by value, after
# the last declared argument.
_LENGTH = ctypes.c_size_t


def _bind(name, *argtypes):
    """numpy's ILP64 LAPACK routine `name` as a ctypes function, which releases the GIL."""
    prototype = ctypes.CFUNCTYPE(None, *argtypes)
    try:
        return prototype((f"scipy_{name}_64_", ctypes.CDLL(_umath_linalg.__file__)))
    except AttributeError:
        raise ImportError(f"numpy's LAPACK does not export {name} (scipy_{name}_64_)") from None


# jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
# isuppz, work, lwork, iwork, liwork, info, and the lengths of jobz, range
# and uplo.
_dsyevr = _bind(
    "dsyevr", _CHAR, _CHAR, _CHAR, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE,
    _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT, _INT, _INT, _LENGTH, _LENGTH, _LENGTH,
)


def _ptr(array):
    return array.ctypes.data_as(_INT if array.dtype == np.int64 else _DOUBLE)


def dsyevr(block, take):
    """Lowest `take` eigenpairs of a symmetric Fortran-order block.

    Passes exactly what scipy.linalg.eigh(block, overwrite_a=True,
    subset_by_index=(0, take - 1)) passes: jobz 'V', range 'I', uplo 'L',
    il = 1, iu = take, vl = vu = abstol = 0 and the workspace sizes of a
    query (a smaller lwork would switch dsytrd to unblocked code), so on
    one BLAS thread values and vectors are bit-identical to it.  Only the lower triangle is
    read and the block is overwritten.  Raises NumericalError when dsyevr
    reports failure or returns fewer pairs.
    """
    size = len(block)
    if block.shape != (size, size) or block.dtype != np.float64 or not block.flags.f_contiguous:
        raise ValueError("expected a square float64 Fortran-order block")
    if not 1 <= take <= size:
        raise ValueError(f"take must lie in [1, {size}], got {take}")
    w = np.empty(size)
    z = np.empty((size, take), order="F")
    isuppz = np.empty(2 * size, dtype=np.int64)
    m, info, zero = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_double(0.0)

    def call(work, iwork, lwork, liwork):
        _dsyevr(
            b"V", b"I", b"L", ctypes.c_int64(size), _ptr(block), ctypes.c_int64(size),
            zero, zero, ctypes.c_int64(1), ctypes.c_int64(take), zero, m, _ptr(w),
            _ptr(z), ctypes.c_int64(size), _ptr(isuppz),
            _ptr(work), ctypes.c_int64(lwork), _ptr(iwork), ctypes.c_int64(liwork), info, 1, 1, 1,
        )

    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, iwork, -1, -1)  # workspace query
    if info.value == 0:
        lwork, liwork = int(work[0]), int(iwork[0])
        call(np.empty(lwork), np.empty(liwork, dtype=np.int64), lwork, liwork)
    if info.value != 0 or m.value < take:
        raise NumericalError(
            "eigensolver failed",
            diagnostics={"info": info.value, "pairs": m.value, "requested": take},
        )
    return w[:take], z
