"""The direct LAPACK calls: bit identity with scipy.linalg, guards, binding."""

import _ctypes
import ctypes
import math
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
import scipy.linalg

from fraclab import _lapack
from fraclab.errors import NumericalError


@pytest.mark.usefixtures("one_blas_thread")
class TestBitIdentity:
    def test_zposv_is_solve_pos(self, gramian):
        a = gramian.entries
        rhs = [1.0, 1j] @ np.random.default_rng(len(a)).standard_normal((2, len(a)))
        x = _lapack.zposv(a, rhs)
        assert x.tobytes() == scipy.linalg.solve(a, rhs, assume_a="pos").tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_small_and_random_matrices(self, n, hermitian):
        a = hermitian(n, 1e3, n)
        rhs = np.arange(n) - 1j
        assert _lapack.zposv(a, rhs).tobytes() == scipy.linalg.solve(a, rhs, assume_a="pos").tobytes()

    def test_inputs_are_left_unchanged(self, gramian):
        a = gramian.entries
        before = a.copy()
        rhs = np.ones(len(a), dtype=complex)
        _lapack.zposv(a, rhs)
        assert a.tobytes() == before.tobytes()
        assert np.all(rhs == 1.0)


class TestGuards:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_input_is_refused(self, bad, hermitian):
        a = hermitian(4, 10.0, 0)
        a[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.zposv(a, np.ones(4))
        rhs = np.ones(4, dtype=complex)
        rhs[3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.zposv(hermitian(4, 10.0, 0), rhs)

    @pytest.mark.parametrize(
        "a,b",
        [
            (np.eye(3)[:2], np.ones(2)),
            (np.ones(3), np.ones(3)),
            (np.eye(3), np.ones(2)),
            (np.eye(3), np.ones((3, 1))),
            (np.ones((0, 0)), np.ones(0)),
        ],
    )
    def test_mismatched_shapes_are_refused(self, a, b):
        with pytest.raises(ValueError):
            _lapack.zposv(a, b)

    @pytest.mark.parametrize("diagonal,info", [([2.0, -1.0, 3.0], 2), ([0.0], 1), ([-1.0], 1)])
    def test_indefinite_matrix_is_refused_by_zposv(self, diagonal, info):
        with pytest.raises(NumericalError, match="not positive definite") as caught:
            _lapack.zposv(np.diag(diagonal), np.ones(len(diagonal)))
        assert caught.value.diagnostics == {"info": info}


@pytest.mark.usefixtures("one_blas_thread")
class TestIllConditioned:
    # hum_control's rank guard (smallest Gramian eigenvalue above 1e-12 T,
    # the largest being at most T) gates the HUM solve and the replay
    # measures it, so zposv makes no condition estimate of its own: it
    # stays silent where scipy.linalg.solve warns (from 1e16 up)
    @pytest.mark.parametrize("condition", [1e14, 1e16, 3e16])
    def test_zposv_is_silent_and_bit_identical(self, condition, hermitian):
        a = hermitian(20, condition, 0)
        rhs = np.ones(20, dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            expected = scipy.linalg.solve(a, rhs, assume_a="pos")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = _lapack.zposv(a, rhs)
        assert caught == []
        assert x.tobytes() == expected.tobytes()


class TestBinding:
    INT, DOUBLE = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    # LAPACK's argument types (c: character, i: integer, d: double or
    # complex as interleaved doubles), then one hidden length per character
    DECLARED = {"dsyevr": "cccididdiididdiidiiii", "zposv": "ciididii"}

    @pytest.mark.parametrize("name,arguments", [("dsyevr", 21), ("zposv", 8)])
    def test_bound_prototype_is_ilp64(self, name, arguments):
        by_code = {"c": ctypes.c_char_p, "i": self.INT, "d": self.DOUBLE}
        declared = [by_code[code] for code in self.DECLARED[name]]
        bound = getattr(_lapack, "_" + name)
        assert len(declared) == arguments
        assert bound.argtypes == (*declared, *[ctypes.c_size_t] * self.DECLARED[name].count("c"))
        assert bound.restype is None

    @pytest.mark.parametrize("name", ["dsyevr", "zposv"])
    def test_routine_releases_the_gil(self, name):
        # ctypes releases the GIL around a plain C function but not around a
        # PYFUNCTYPE one; scipy's f2py dsyevr held it, and the two parity
        # solves then ran one after the other on their two workers
        flags = type(getattr(_lapack, "_" + name))._flags_
        assert flags == ctypes.CFUNCTYPE(None)._flags_
        assert not flags & ctypes._FUNCFLAG_PYTHONAPI

    @pytest.mark.parametrize("name", ["dsyevr", "zposv"])
    def test_missing_routine_raises_import_error(self, name, monkeypatch):
        # the ctypes extension links no LAPACK
        monkeypatch.setattr(_lapack, "_umath_linalg", types.SimpleNamespace(__file__=_ctypes.__file__))
        with pytest.raises(ImportError, match=f"does not export {name} "):
            _lapack._bind(name, ctypes.c_char_p)

    def test_numpy_without_the_routines_fails_at_import(self):
        code = (
            "import _ctypes; from numpy.linalg import _umath_linalg; "
            "_umath_linalg.__file__ = _ctypes.__file__; import fraclab._lapack"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ImportError: numpy's LAPACK does not export dsyevr (scipy_dsyevr_64_)"
        )
