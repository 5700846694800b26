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

from fraclab import (
    Grid,
    ObservationRegion,
    assemble_operator,
    compute_spectrum,
    schrodinger_gramian,
)
from fraclab import _lapack
from fraclab.errors import NumericalError

# (beta, n, K, T) Gramian cells on both sides of beta = 1/2, the grids and
# mode counts of the benchmark's tables and T around the control time.
CELLS = [
    (0.3, 255, 20, 3.0),
    (0.5, 511, 40, 6.0),
    (0.6, 1024, 20, 1.0),
    (0.75, 1023, 60, 2.0),
    (0.9, 2047, 80, 1.0),
]


@pytest.fixture(scope="module", params=CELLS, ids=lambda c: "beta{}-n{}-K{}-T{}".format(*c))
def gramian(request):
    beta, n, k, horizon = request.param
    spectrum = compute_spectrum(assemble_operator(Grid(n), beta), k)
    return schrodinger_gramian(spectrum, ObservationRegion.boundary_layers(0.2), horizon, k).entries


def hermitian(n, condition, seed):
    """A Hermitian positive definite matrix with the given spectral condition."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * np.geomspace(1.0, 1.0 / condition, n)) @ q.conj().T
    return 0.5 * (a + a.conj().T)


class TestBitIdentity:
    def test_zheevr_is_eigvalsh(self, gramian):
        assert _lapack.zheevr(gramian).tobytes() == scipy.linalg.eigvalsh(gramian).tobytes()

    def test_zposv_is_solve_pos(self, gramian):
        rhs = [1.0, 1j] @ np.random.default_rng(len(gramian)).standard_normal((2, len(gramian)))
        x = _lapack.zposv(gramian, rhs)
        assert x.tobytes() == scipy.linalg.solve(gramian, rhs, assume_a="pos").tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_small_and_random_matrices(self, n):
        a = hermitian(n, 1e3, n)
        rhs = np.arange(n) - 1j
        assert _lapack.zheevr(a).tobytes() == scipy.linalg.eigvalsh(a).tobytes()
        assert _lapack.zposv(a, rhs).tobytes() == scipy.linalg.solve(a, rhs, assume_a="pos").tobytes()

    def test_inputs_are_left_unchanged(self, gramian):
        before = gramian.copy()
        rhs = np.ones(len(gramian), dtype=complex)
        _lapack.zheevr(gramian)
        _lapack.zposv(gramian, rhs)
        assert gramian.tobytes() == before.tobytes()
        assert np.all(rhs == 1.0)


class TestGuards:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_non_finite_input_is_refused(self, bad):
        a = hermitian(4, 10.0, 0)
        a[2, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _lapack.zheevr(a)
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

    @pytest.mark.parametrize("a", [np.ones((3, 2)), np.ones(3), np.ones((0, 0))])
    def test_non_square_matrix_is_refused_by_zheevr(self, a):
        with pytest.raises(ValueError):
            _lapack.zheevr(a)

    @pytest.mark.parametrize("diagonal,info", [([2.0, -1.0, 3.0], 2), ([0.0], 1), ([-1.0], 1)])
    def test_indefinite_matrix_is_refused_by_zposv(self, diagonal, info):
        with pytest.raises(NumericalError, match="not positive definite") as caught:
            _lapack.zposv(np.diag(diagonal), np.ones(len(diagonal)))
        assert caught.value.diagnostics == {"info": info}

    def test_zheevr_failure_raises(self, monkeypatch):
        solve = _lapack._zheevr

        def failing(*args):
            solve(*args)
            if args[17][0] != -1:  # not the workspace query
                args[22][0] = 5

        monkeypatch.setattr(_lapack, "_zheevr", type(_lapack._zheevr)(failing))
        with pytest.raises(NumericalError, match="eigensolve failed") as caught:
            _lapack.zheevr(hermitian(6, 10.0, 1))
        assert caught.value.diagnostics["info"] == 5

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

    @pytest.mark.parametrize("name,arguments", [("dsyevr", 21), ("zheevr", 23), ("zposv", 8)])
    def test_bound_prototype_is_read_from_the_signature(self, name, arguments):
        assert set(_lapack._SIGNATURES) == {"dsyevr", "zheevr", "zposv"}
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
    # the HUM solve is gated by the Gramian's exact spectral condition and
    # measured by the replay, so zposv makes no condition estimate of its
    # own: it stays silent where scipy.linalg.solve warns (from 1e16 up)
    @pytest.mark.parametrize("condition", [1e14, 1e16, 3e16])
    def test_zposv_is_silent_and_bit_identical(self, condition):
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
            "import sys; from fraclab import _lapack; "
            "assert 'scipy.linalg' not in sys.modules; "
            "import scipy.linalg; from scipy.linalg import cython_lapack; "
            "print(cython_lapack.__pyx_capi__ is _lapack._CAPSULES, "
            "scipy.linalg.eigvalsh([[2.0]]).tolist() == _lapack.zheevr([[2.0]]).tolist())"
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
