"""The LAPACK calls that numpy.linalg lacks, through scipy's cython_lapack.

numpy.linalg has no subset eigensolve and no positive definite solve.
scipy.linalg.cython_lapack exports each LAPACK routine as a PyCapsule that
holds its C function pointer.  This module loads that one extension file on
its own, from the scipy installation, so a run never imports the rest of
scipy.linalg, whose package import took more than half of the program's
start-up.  A module already registered under the extension's name is
reused, and the one loaded here is registered under it, so a later
`import scipy.linalg` and this module share it.  A scipy without the file
fails at import with ImportError.

Each routine is called through ctypes, which releases the GIL during the
call, with the arguments scipy.linalg passes it, so results are
bit-identical to scipy's:

- `dsyevr`: lowest eigenpairs of a real symmetric block, as
  scipy.linalg.eigh(block, overwrite_a=True, subset_by_index=...);
- `zposv`: Hermitian positive definite solve, as
  scipy.linalg.solve(a, b, assume_a="pos").

A non-finite input to `zposv` raises ValueError, as scipy's check_finite
does; `dsyevr` leaves that check to its caller, which holds the block it
built.  A routine reporting failure raises NumericalError.  The Gramian
eigenvalues need neither: `control.Gramian` takes them from
numpy.linalg.eigvalsh.
"""

import ctypes
import importlib.machinery
import importlib.util
import os
import re
import sys

import numpy as np
import scipy

from .errors import NumericalError

__all__ = ["dsyevr", "zposv"]

_MODULE = "scipy.linalg.cython_lapack"

_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)

# LP64 prototypes as the capsules name them, with the Cython typedefs for
# double and double complex shown as `d` and `z`.  Each is checked against
# its capsule and is the one declaration of the routine's ctypes prototype.
_SIGNATURES = {
    # jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz,
    # isuppz, work, lwork, iwork, liwork, info.
    "dsyevr": (
        "void (char *, char *, char *, int *, d *, int *, d *, d *, int *, int *, d *, "
        "int *, d *, d *, int *, int *, d *, int *, int *, int *, int *)"
    ),
    # uplo, n, nrhs, a, lda, b, ldb, info.
    "zposv": "void (char *, int *, int *, z *, int *, z *, int *, int *)",
}
# ctypes type of each argument.  Complex arrays pass as double pointers to
# their interleaved (re, im) storage.
_ARGUMENT_TYPES = {"char *": ctypes.c_char_p, "int *": _INT, "d *": _DOUBLE, "z *": _DOUBLE}


def _load():
    """The cython_lapack extension module, without importing scipy.linalg."""
    module = sys.modules.get(_MODULE)
    if module is not None:
        return module
    folder = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "cython_lapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"{_MODULE} not found: no cython_lapack extension in {folder}")
    loader = importlib.machinery.ExtensionFileLoader(_MODULE, path)
    spec = importlib.util.spec_from_file_location(_MODULE, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_MODULE] = module
    try:
        loader.exec_module(module)
    except BaseException:
        del sys.modules[_MODULE]
        raise
    return module


_CAPSULES = _load().__pyx_capi__


def _lapack_function(name, signature):
    """A cython_lapack routine as a ctypes function, which releases the GIL.

    The capsule's name is the routine's C prototype; with the Cython
    typedefs for double and double complex shown as `d` and `z` it must
    read `signature`, else ImportError, so that a scipy whose LAPACK takes
    other argument types fails here rather than with wrong memory reads.
    The ctypes prototype is read from the same `signature`.
    """
    capsule = _CAPSULES[name]
    raw = _CAPSULE_NAME(capsule)
    found = re.sub(r"\b__pyx_t_\w+_d\b", "d", raw.decode()).replace("__pyx_t_double_complex", "z")
    if found != signature:
        raise ImportError(f"{_MODULE}.{name} is {found!r}, expected {signature!r}")
    arguments = signature.removeprefix("void (").removesuffix(")").split(", ")
    prototype = ctypes.CFUNCTYPE(None, *(_ARGUMENT_TYPES[argument] for argument in arguments))
    return prototype(_CAPSULE_POINTER(capsule, raw))


_dsyevr, _zposv = (_lapack_function(name, signature) for name, signature in _SIGNATURES.items())


def _ptr(array):
    return array.ctypes.data_as(_INT if array.dtype == np.intc else _DOUBLE)


def _checked_copy(a, shape):
    """A finite Fortran-order complex copy of `a`, as f2py makes for LAPACK."""
    copy = np.array(a, dtype=complex, order="F")
    if copy.shape != shape:
        raise ValueError(f"expected an array of shape {shape}, got {copy.shape}")
    if not np.isfinite(copy).all():
        raise ValueError("array must not contain infs or NaNs")
    return copy


def dsyevr(block, take):
    """Lowest `take` eigenpairs of a symmetric Fortran-order block.

    Passes exactly what scipy.linalg.eigh(block, overwrite_a=True,
    subset_by_index=(0, take - 1)) passes: jobz 'V', range 'I', uplo 'L',
    il = 1, iu = take, vl = vu = abstol = 0 and the workspace sizes of a
    query (a smaller lwork would switch dsytrd to unblocked code), so
    values and vectors are bit-identical to it.  Only the lower triangle is
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
    isuppz = np.empty(2 * size, dtype=np.intc)
    m, info, zero = ctypes.c_int(), ctypes.c_int(), ctypes.c_double(0.0)

    def call(work, iwork, lwork, liwork):
        _dsyevr(
            b"V", b"I", b"L", ctypes.c_int(size), _ptr(block), ctypes.c_int(size),
            zero, zero, ctypes.c_int(1), ctypes.c_int(take), zero, m, _ptr(w),
            _ptr(z), ctypes.c_int(size), _ptr(isuppz),
            _ptr(work), ctypes.c_int(lwork), _ptr(iwork), ctypes.c_int(liwork), info,
        )

    work, iwork = np.empty(1), np.empty(1, dtype=np.intc)
    call(work, iwork, -1, -1)  # workspace query
    if info.value == 0:
        lwork, liwork = int(work[0]), int(iwork[0])
        call(np.empty(lwork), np.empty(liwork, dtype=np.intc), lwork, liwork)
    if info.value != 0 or m.value < take:
        raise NumericalError(
            "eigensolver failed",
            diagnostics={"info": info.value, "pairs": m.value, "requested": take},
        )
    return w[:take], z


def zposv(a, b):
    """Solution x of a x = b for a Hermitian positive definite matrix a.

    Runs zposv with uplo 'U' on Fortran-order copies of a and of the
    vector b, which is what scipy.linalg.solve(a, b, assume_a="pos") does,
    so x is bit-identical to it.  Raises ValueError for mismatched shapes
    or a non-finite entry, and NumericalError when a is not positive
    definite or zposv reports failure.
    """
    n = np.shape(a)[0] if np.ndim(a) == 2 else 0
    if n == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {np.shape(a)}")
    a = _checked_copy(a, (n, n))
    x = _checked_copy(b, (n,))
    if n == 1:  # scipy.linalg.solve divides by a 1 x 1 matrix, and so does this
        if not a[0, 0].real > 0.0:
            raise NumericalError("positive definite solve failed: not positive definite", diagnostics={"info": 1})
        return x / a[0, 0]
    info = ctypes.c_int()
    _zposv(b"U", ctypes.c_int(n), ctypes.c_int(1), _ptr(a), ctypes.c_int(n), _ptr(x), ctypes.c_int(n), info)
    if info.value != 0:
        reason = "not positive definite" if info.value > 0 else "invalid argument"
        raise NumericalError(f"positive definite solve failed: {reason}", diagnostics={"info": info.value})
    return x
