"""The binding of dsyevr: its prototype, the GIL and a numpy that lacks it.

Its bit identity with scipy.linalg is checked in test_spectra."""

import _ctypes
import ctypes
import subprocess
import sys
import types

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
