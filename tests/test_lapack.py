"""The direct LAPACK calls: bit identity with scipy.linalg, guards, loading."""

import ctypes
import math
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
import scipy.linalg

from fraclab import _lapack
from fraclab.errors import NumericalError


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

    @pytest.mark.parametrize("name,signature", _lapack._SIGNATURES.items())
    def test_another_prototype_is_refused(self, name, signature):
        _lapack._lapack_function(name, signature)
        for wrong in (
            signature.replace("int *", "long *", 1),
            signature.replace("z *", "c *", 1) if "z *" in signature else signature.replace("d *", "s *", 1),
            signature.replace(", int *)", ")"),
        ):
            with pytest.raises(ImportError, match=name):
                _lapack._lapack_function(name, wrong)

    @pytest.mark.parametrize("name,arguments", [("dsyevr", 21), ("zposv", 8)])
    def test_bound_prototype_is_read_from_the_signature(self, name, arguments):
        assert set(_lapack._SIGNATURES) == {"dsyevr", "zposv"}
        types_by_name = {
            "char": ctypes.c_char_p,
            "int": ctypes.POINTER(ctypes.c_int),
            "d": ctypes.POINTER(ctypes.c_double),
            "z": ctypes.POINTER(ctypes.c_double),  # interleaved (re, im) storage
        }
        declared = re.findall(r"(\w+) \*", _lapack._SIGNATURES[name])
        bound = getattr(_lapack, "_" + name)
        assert len(bound.argtypes) == len(declared) == arguments
        assert bound.argtypes == tuple(types_by_name[t] for t in declared)
        assert bound.restype is None


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


class TestLoading:
    def test_reuses_the_registered_module(self):
        from scipy.linalg import cython_lapack

        assert sys.modules[_lapack._MODULE] is cython_lapack
        assert _lapack._load() is cython_lapack
        assert _lapack._CAPSULES is cython_lapack.__pyx_capi__

    def test_scipy_linalg_imported_after_shares_the_module(self):
        code = (
            "import sys; from fraclab import _lapack; a, b = [[2.0, 1.0], [1.0, 3.0]], [1.0, 1j]; "
            "assert 'scipy.linalg' not in sys.modules; "
            "import scipy.linalg; from scipy.linalg import cython_lapack; "
            "print(cython_lapack.__pyx_capi__ is _lapack._CAPSULES, "
            "scipy.linalg.solve(a, b, assume_a='pos').tolist() == _lapack.zposv(a, b).tolist())"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True True"

    def test_missing_extension_fails_with_import_error(self, tmp_path, monkeypatch):
        (tmp_path / "linalg").mkdir()
        monkeypatch.setattr(_lapack, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
        monkeypatch.delitem(sys.modules, _lapack._MODULE)
        with pytest.raises(ImportError, match="cython_lapack"):
            _lapack._load()
        assert _lapack._MODULE not in sys.modules
