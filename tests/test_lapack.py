"""The bindings of dsyevr and of OpenBLAS's thread count: dsyevr's
prototype, the GIL, a numpy that lacks them, and the bytes dsyevr leaves
alone.

Its bit identity with scipy.linalg is checked in test_spectra."""

import _ctypes
import ctypes
import subprocess
import sys
import types

import numpy as np
import pytest

from fraclab import _lapack


class TestBinding:
    INT, DOUBLE = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    # LAPACK's argument types (c: character, i: integer, d: double), then
    # one hidden length per character
    DECLARED = {"dsyevr": "cccididdiididdiidiiii"}

    @pytest.mark.parametrize("name,arguments", [("dsyevr", 21)])
    def test_bound_prototype_is_ilp64(self, name, arguments):
        by_code = {"c": ctypes.c_char_p, "i": self.INT, "d": self.DOUBLE}
        declared = [by_code[code] for code in self.DECLARED[name]]
        bound = getattr(_lapack, "_" + name)
        assert len(declared) == arguments
        assert bound.argtypes == (*declared, *[ctypes.c_size_t] * self.DECLARED[name].count("c"))
        assert bound.restype is None

    @pytest.mark.parametrize("name", ["dsyevr"])
    def test_routine_releases_the_gil(self, name):
        # ctypes releases the GIL around a plain C function but not around a
        # PYFUNCTYPE one; scipy's f2py dsyevr held it, and the two parity
        # solves then ran one after the other on their two workers
        flags = type(getattr(_lapack, "_" + name))._flags_
        assert flags == ctypes.CFUNCTYPE(None)._flags_
        assert not flags & ctypes._FUNCFLAG_PYTHONAPI

    @pytest.mark.parametrize("name", ["dsyevr"])
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


class TestThreadCount:
    def test_missing_function_names_its_symbol(self, monkeypatch):
        monkeypatch.setattr(_lapack, "_umath_linalg", types.SimpleNamespace(__file__=_ctypes.__file__))
        with pytest.raises(ImportError, match=r"does not export openblas_set_num_threads \(scipy_openblas_set_num_threads64_\)"):
            _lapack._bind("openblas_set_num_threads", ctypes.c_int, symbol="scipy_{}64_")


class TestTriangle:
    @pytest.mark.parametrize("uplo", ["L", "U"])
    @pytest.mark.parametrize("order", [1, 2, 65, 200, 1024])
    def test_bytes_outside_the_triangle_are_left_alone(self, order, uplo):
        # a window of a larger buffer (lda = order + 5) whose every byte is
        # random, NaN and infinite patterns included; only the solved
        # triangle may change, and the bytes beside it must not be read
        # either, or the eigenvalues would not match.  Order 1024 runs
        # dsytrd's blocked path.
        rng = np.random.default_rng(order)
        words = rng.integers(0, 2**64, size=(order + 5, order + 9), dtype=np.uint64)
        buf = np.asfortranarray(words).view(np.float64)
        a = rng.standard_normal((order, order))
        a += a.T
        triangle = np.tril_indices(order) if uplo == "L" else np.triu_indices(order)
        block = buf[2 : 2 + order, 7 : 7 + order]
        block[triangle] = a[triangle]
        outside = np.ones(buf.shape, dtype=bool)
        outside[2 : 2 + order, 7 : 7 + order][triangle] = False
        before = buf[outside].tobytes()
        take = min(order, 4)
        lam, vec = _lapack.dsyevr(block, take, uplo)
        assert buf[outside].tobytes() == before
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(a)[:take], rtol=0, atol=1e-12 * order)
        assert np.max(np.abs(a @ vec - vec * lam)) <= 1e-12 * order
