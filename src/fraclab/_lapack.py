"""The LAPACK call that numpy.linalg lacks, from numpy's own OpenBLAS.

numpy.linalg has no subset eigensolve.  The OpenBLAS that numpy's wheels
bundle (scipy-openblas64, ILP64) exports the whole of LAPACK under the
prefix `scipy_` and the suffix `64_`.  This module opens numpy.linalg's
`_umath_linalg` extension with ctypes, whose symbol lookup also searches
the OpenBLAS that the extension links, and binds `dsyevr` from it, so a
run loads one BLAS and no scipy.  A numpy whose LAPACK lacks the symbol
fails at import with ImportError naming the routine.  The import also
sets that OpenBLAS to one thread per call, whatever the environment says,
so every run writes the same bytes; `spectra` runs its two parity solves
at once, on lanes of its own.

`dsyevr` gives the lowest eigenpairs of a real symmetric block held in one
triangle of a Fortran view, which may be a window of a larger array.  It is
called through ctypes, which releases the GIL during the call, with the
arguments that scipy.linalg.eigh(block, lower=..., overwrite_a=True,
subset_by_index=...) passes it, so on one BLAS thread its results are
bit-identical to scipy's.  It reads and writes only the triangle it is
given.  It leaves the finiteness check to its caller, which knows what the
block was built from, and raises NumericalError when the routine reports
failure.  The Gramians need no binding: `control.Gramian` factors them
with numpy.linalg.eigh.
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


def _bind(name, *argtypes, restype=None, symbol="scipy_{}_64_"):
    """numpy's OpenBLAS function `name` as a ctypes function, which releases the GIL.

    `symbol` spells its exported name: LAPACK routines carry the ILP64
    suffix `_64_`, OpenBLAS's own functions `64_`.
    """
    prototype = ctypes.CFUNCTYPE(restype, *argtypes)
    symbol = symbol.format(name)
    try:
        return prototype((symbol, ctypes.CDLL(_umath_linalg.__file__)))
    except AttributeError:
        raise ImportError(f"numpy's LAPACK does not export {name} ({symbol})") from None


# jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
# isuppz, work, lwork, iwork, liwork, info, and the lengths of jobz, range
# and uplo.
_dsyevr = _bind(
    "dsyevr", _CHAR, _CHAR, _CHAR, _INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE,
    _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT, _INT, _INT, _LENGTH, _LENGTH, _LENGTH,
)


# OpenBLAS read its thread count from the environment when it loaded; this
# replaces it, for every thread of the process.
_bind("openblas_set_num_threads", ctypes.c_int, symbol="scipy_{}64_")(1)


def _ptr(array):
    return array.ctypes.data_as(_INT if array.dtype == np.int64 else _DOUBLE)


def dsyevr(block, take, uplo="L"):
    """Lowest `take` eigenpairs of a symmetric block held in one triangle.

    `block` is a float64 Fortran view of order n: unit row stride and a
    column stride (the leading dimension) of at least n elements, so it may
    be a window of a larger array.  Only its lower (`uplo` 'L') or upper
    ('U') triangle is read and overwritten; no other byte is touched.
    Passes exactly what scipy.linalg.eigh(block, lower=uplo == 'L',
    overwrite_a=True, subset_by_index=(0, take - 1)) passes: jobz 'V',
    range 'I', il = 1, iu = take, vl = vu = abstol = 0 and the workspace
    sizes of a query (a smaller lwork would switch dsytrd to unblocked
    code), so on one BLAS thread values and vectors are bit-identical to
    it.  Raises NumericalError when dsyevr reports failure or returns fewer
    pairs.
    """
    size = len(block)
    if (
        block.shape != (size, size)
        or block.dtype != np.float64
        or block.strides[0] != block.itemsize
        or block.strides[1] < block.itemsize * max(size, 1)
    ):
        raise ValueError("expected a square float64 Fortran-order block")
    if uplo not in ("L", "U"):
        raise ValueError(f"uplo must be 'L' or 'U', got {uplo!r}")
    if not 1 <= take <= size:
        raise ValueError(f"take must lie in [1, {size}], got {take}")
    lda = block.strides[1] // block.itemsize
    w = np.empty(size)
    z = np.empty((size, take), order="F")
    isuppz = np.empty(2 * size, dtype=np.int64)
    m, info, zero = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_double(0.0)

    def call(work, iwork, lwork, liwork):
        _dsyevr(
            b"V", b"I", uplo.encode(), ctypes.c_int64(size), _ptr(block), ctypes.c_int64(lda),
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
