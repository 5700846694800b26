"""Eigenpair computation, the asymptotic law, gaps, and spectral diagnostics."""

import functools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclab import (
    DiscreteOperator,
    Grid,
    assemble_operator,
    asymptotic_eigenvalue,
    compute_spectrum,
    spectra,
)
from fraclab import _lapack
from fraclab.errors import NumericalError


class TestComputeSpectrum:
    def test_classical_eigenpairs_exact(self):
        # At beta = 1 the matrix is the standard second-difference stencil
        # whose eigenpairs are known in closed form.
        n = 63
        op = assemble_operator(Grid(n), 1.0)
        spectrum = compute_spectrum(op, 12)
        k = np.arange(1, 13)
        lam_exact = (2.0 / op.grid.h**2) * (1.0 - np.cos(k * np.pi / (n + 1)))
        np.testing.assert_allclose(spectrum.eigenvalues, lam_exact, rtol=1e-12)
        i = np.arange(1, n + 1)[:, None]
        phi_exact = np.sin(i * k[None, :] * np.pi / (n + 1))
        np.testing.assert_allclose(spectrum.vectors, phi_exact, atol=1e-9)

    def test_discrete_orthonormality(self, get_spectrum):
        spectrum = get_spectrum(0.5, 256, 12)
        gram = spectrum.h * spectrum.vectors.T @ spectrum.vectors
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-12)

    def test_sign_convention_first_node_nonnegative(self, get_spectrum):
        spectrum = get_spectrum(0.3, 256, 12)
        assert np.all(spectrum.vectors[0, :] > 0.0)

    def test_eigenvalues_sorted_positive(self, get_spectrum):
        spectrum = get_spectrum(0.75, 256, 12)
        assert np.all(spectrum.eigenvalues > 0.0)
        assert np.all(np.diff(spectrum.eigenvalues) > 0.0)

    def test_residuals_small(self, get_spectrum, dense_matrix):
        spectrum = get_spectrum(0.5, 256, 8)
        op = assemble_operator(Grid(256), 0.5)
        # compute_spectrum works with the h-scaled orthonormal vectors; the
        # residual of the returned pairs inherits that accuracy.
        res = dense_matrix(op) @ spectrum.vectors - spectrum.vectors * spectrum.eigenvalues
        assert np.max(np.abs(res)) < 1e-9 * op.norm_bound

    def test_ground_state_half_order_frozen(self, get_spectrum):
        spectrum = get_spectrum(0.5, 2048, 12)
        lam1 = spectrum.eigenvalues[0]
        assert lam1 == pytest.approx(1.1580559738591525, rel=1e-10)
        assert 1.13 < lam1 < 1.18

    def test_mode_ten_tracks_asymptotic_law(self, get_spectrum):
        spectrum = get_spectrum(0.5, 2048, 12)
        lam10 = spectrum.eigenvalues[9]
        assert lam10 == pytest.approx(15.31909632799616, rel=1e-10)
        law = asymptotic_eigenvalue(0.5, 10)
        assert abs(lam10 - law) / law < 0.02

    def test_no_ties_for_simple_spectrum(self, get_spectrum):
        assert get_spectrum(0.5, 256, 12).ties == ()

    def test_modes_validation(self):
        op = assemble_operator(Grid(16), 0.5)
        with pytest.raises(ValueError):
            compute_spectrum(op, 0)
        with pytest.raises(ValueError):
            compute_spectrum(op, 17)
        with pytest.raises(TypeError):
            compute_spectrum(np.eye(4), 2)


def check_against_dense(op, modes, dense, vectors=True):
    """Parity-split eigenpairs against dense eigh of the Toeplitz oracle."""
    spectrum = compute_spectrum(op, modes)
    lam, vec = scipy.linalg.eigh(dense, subset_by_index=(0, modes - 1))
    # Both solvers are backward stable, so eigenvalues agree on the scale of
    # the operator norm; relative to a small lambda_k the dense oracle itself
    # is only good to eps * cond (~6e-12 at beta = 1, n = 256).
    assert np.max(np.abs(spectrum.eigenvalues - lam)) <= 1e-12 * op.norm_bound
    phi = spectrum.vectors
    if vectors:
        unit = phi * math.sqrt(op.grid.h)
        signs = np.sign(np.sum(unit * vec, axis=0))
        assert np.max(np.abs(unit - vec * signs)) < 1e-9
    for j in range(modes):
        mirrored = phi[::-1, j]
        assert np.array_equal(mirrored, phi[:, j]) or np.array_equal(mirrored, -phi[:, j])
        lead = phi[np.flatnonzero(phi[:, j])[0], j]
        assert lead > 0.0
    gram = op.grid.h * phi.T @ phi
    assert np.max(np.abs(gram - np.eye(modes))) < 1e-12


class TestParitySplit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 64, 65, 255, 256])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("span", ["one", "half", "all"])
    def test_matches_dense_eigh(self, n, beta, span, dense_matrix):
        op = assemble_operator(Grid(n), beta)
        modes = {"one": 1, "half": (n + 1) // 2, "all": n}[span]
        check_against_dense(op, modes, dense_matrix(op))

    @settings(max_examples=40, deadline=None, database=None)
    @given(n=st.integers(1, 300), beta=st.floats(0.05, 1.0), data=st.data())
    def test_matches_dense_eigh_property(self, n, beta, data, dense_matrix):
        # Eigenvectors are compared only in the parametrized test: for small
        # beta the upper spectrum clusters and vectors there are ill-posed.
        op = assemble_operator(Grid(n), beta)
        modes = data.draw(st.integers(1, n), label="modes")
        check_against_dense(op, modes, dense_matrix(op), vectors=False)

    @staticmethod
    def _peak_within_one_buffer(n, k, solve):
        # one buffer of both blocks, 1032 x 1087 doubles (9.0 MB) at
        # n = 2047, plus four n x k arrays (two lanes' pairs, the merged
        # vectors and a pipelined spectrum's) and 128 n-vectors of solver
        # workspace and residual transforms; two separate blocks took 16.8 MB
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < spectra._buffer(n).nbytes + 8 * n * (4 * k + 128)

    def test_peak_memory_below_one_dense_matrix(self):
        op = assemble_operator(Grid(2047), 0.5)
        self._peak_within_one_buffer(2047, 11, lambda: compute_spectrum(op, 11))

    def test_table_stream_holds_one_buffer(self):
        # six orders at n = 2047, K = 80, as the benchmark's table solves
        # them, each Spectrum dropped before the next is asked for
        ops = [assemble_operator(Grid(2047), beta) for beta in (0.25, 0.3, 0.4, 0.5, 0.6, 0.75)]

        def table():
            for spectrum in spectra.compute_spectra(iter(ops), 80):
                del spectrum

        self._peak_within_one_buffer(2047, 80, table)

    @staticmethod
    def _dense_block(dense, sign):
        # T11 + s T12 J, bordered for odd n by sqrt(2) times the middle
        # column above the diagonal and the middle diagonal entry
        n = len(dense)
        m = n // 2
        size = spectra._block_size(n, sign)
        block = np.empty((size, size))
        block[:m, :m] = dense[:m, :m] + sign * dense[:m, n - m :][:, ::-1]
        if size > m:
            block[:m, m] = block[m, :m] = math.sqrt(2.0) * dense[:m, m]
            block[m, m] = dense[m, m]
        return block

    @pytest.mark.parametrize("first", [1.0, -1.0], ids=["even-first", "odd-first"])
    @pytest.mark.parametrize("n", [1, 2, 3, 127, 128, 129, 200, 201])
    def test_panel_fill_is_the_triangle_of_the_dense_block(self, n, first, dense_matrix):
        # both blocks written into one buffer, in either order, are the
        # lower and upper triangles of the dense parity blocks; neither fill
        # reaches the other's triangle
        op = assemble_operator(Grid(n), 0.3)
        dense = dense_matrix(op)
        buf = np.full(spectra._buffer(n).shape, math.nan, order="F")
        for sign in (first, -first):
            block, uplo = spectra._parity_block(op.first_row, sign, buf)
            assert uplo == ("L" if sign > 0 else "U")
            assert block.base is buf or block.base is buf.base
        for sign, triangle in ((1.0, np.tril), (-1.0, np.triu)):
            size = spectra._block_size(n, sign)
            offset = 0 if sign > 0 else spectra._PANEL
            block = buf[:size, offset : offset + size]
            want = triangle(self._dense_block(dense, sign))
            assert triangle(block).tobytes() == want.tobytes()


class TestTruncatedParitySolve:
    @staticmethod
    def _record_solves(monkeypatch):
        # (block order, pairs asked for) of every parity-block eigensolve, in
        # the order the solves start; the two blocks of a round may run on
        # two threads and start in either order
        calls, lock = [], threading.Lock()
        solve = spectra._lowest_pairs

        def recording(block, take, uplo):
            with lock:
                calls.append((len(block), take))
            return solve(block, take, uplo)

        monkeypatch.setattr(spectra, "_lowest_pairs", recording)
        return calls

    @staticmethod
    def _skewed_row(n, wide):
        # 10 on the diagonal, -1 beside it, and a negative semidefinite
        # Hankel part T12 J = -sum_r 4 (1 - r^2) u_r u_r^T, u_r = (r^i),
        # carried by the row's tail: it lowers even pairs and raises odd
        # ones.  With r = 0 alone (the corner entry -4) the lowest 30 pairs
        # split 16/14, exactly the first take of 16; five nodes split them
        # 17/13, so the first take alone would return a wrong spectrum.
        row = np.zeros(n)
        row[0], row[1] = 10.0, -1.0
        t = np.arange(n - 1)
        for r in (0.9, -0.9, 0.5, -0.5, 0.0) if wide else (0.0,):
            row[:0:-1] -= 4.0 * (1.0 - r * r) * r**t
        return row

    @pytest.mark.parametrize("wide", [False, True], ids=["corner", "hankel-rank-5"])
    @pytest.mark.parametrize("n", [200, 201])
    def test_block_hiding_a_lower_pair_is_solved_again(self, n, wide, monkeypatch, dense_matrix):
        op = DiscreteOperator(grid=Grid(n), beta=0.5, first_row=self._skewed_row(n, wide))
        k = 30
        first = (k + 1) // 2 + 1
        calls = self._record_solves(monkeypatch)
        spectrum = compute_spectrum(op, k)
        # both blocks truncated, then the even one (all of whose pairs the
        # merge kept) solved again for its full take
        assert sorted(calls[:2]) == sorted([(n - n // 2, first), (n // 2, first)])
        assert calls[2:] == [(n - n // 2, k)]
        lam, vec = scipy.linalg.eigh(dense_matrix(op), subset_by_index=(0, k - 1))
        even = np.count_nonzero(np.sum(vec * vec[::-1], axis=0) > 0.0)
        assert even == (17 if wide else 16)
        assert np.max(np.abs(spectrum.eigenvalues - lam)) <= 1e-9 * op.norm_bound

    @pytest.mark.parametrize("beta", [0.25, 0.9])
    def test_interlaced_blocks_are_solved_once_for_half_the_modes(self, beta, monkeypatch):
        calls = self._record_solves(monkeypatch)
        compute_spectrum(assemble_operator(Grid(2047), beta), 80)
        assert sorted(calls) == sorted([(1024, 41), (1023, 41)])


class TestDirectSolve:
    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("n", [1, 2, 3, 200, 201, 1024, 2047])
    def test_matches_scipy_eigh_bit_for_bit(self, n, dense_matrix):
        # the even block, solved in the lower triangle of the shared buffer,
        # is scipy's lower=True solve of the dense block, and the odd block,
        # solved in an upper triangle, its lower=False solve
        op = assemble_operator(Grid(n), 0.5)
        dense = dense_matrix(op)
        buf = spectra._buffer(n)
        for sign in (1.0, -1.0):
            size = spectra._block_size(n, sign)
            reference = TestParitySplit._dense_block(dense, sign)
            # n = 1 has no odd block; full solves only where they are cheap
            for take in {1, min(size, 41), size if size <= 101 else 1} if size else ():
                lam_ref, vec_ref = scipy.linalg.eigh(reference, lower=sign > 0, subset_by_index=(0, take - 1))
                block, uplo = spectra._parity_block(op.first_row, sign, buf)
                lam, vec = spectra._lowest_pairs(block, take, uplo)
                assert lam.shape == (take,) and vec.shape == (size, take)
                assert lam.tobytes() == lam_ref.tobytes()
                assert vec.tobytes(order="F") == vec_ref.tobytes(order="F")

    def test_two_workers_hold_both_blocks_at_once(self, monkeypatch):
        # each solve of the one round this spectrum takes waits for the other
        # to start; on one thread the barrier would time out
        barrier = threading.Barrier(2, timeout=30)
        solve = spectra._lowest_pairs

        def meeting(block, take, uplo):
            barrier.wait()
            return solve(block, take, uplo)

        monkeypatch.setattr(spectra, "_lowest_pairs", meeting)
        compute_spectrum(assemble_operator(Grid(255), 0.5), 10)

    def test_each_lane_solves_one_block_at_a_time_in_submission_order(self, monkeypatch):
        # the even solves of a stream whose middle operator is re-solved
        # after the next operator's first round was submitted; they are
        # slowed so that a second thread on a parity would start its next
        # block over the one still in the triangle
        ops = TestComputeSpectra._operators()
        events, lock = [], threading.Lock()
        solve = spectra._parity_pairs

        def solving(op, sign, take, buf):
            with lock:
                events.append(("start", sign, ops.index(op), take))
            time.sleep(0.05 if sign > 0 else 0.0)
            result = solve(op, sign, take, buf)
            with lock:
                events.append(("end", sign, ops.index(op), take))
            return result

        monkeypatch.setattr(spectra, "_parity_pairs", solving)
        list(spectra.compute_spectra(iter(ops), TestComputeSpectra.MODES))
        first, full = (TestComputeSpectra.MODES + 1) // 2 + 1, TestComputeSpectra.MODES
        # the third operator is submitted before the second is merged, so
        # its solve runs before the second's re-solve
        want = {
            1.0: [(0, first), (1, first), (2, first), (1, full)],
            -1.0: [(0, first), (1, first), (2, first)],
        }
        for sign, solves in want.items():
            mine = [event for event in events if event[1] == sign]
            assert [event[0] for event in mine] == ["start", "end"] * len(solves)
            assert [event[2:] for event in mine[::2]] == solves

    def test_outputs_do_not_depend_on_the_blas_environment(self, tmp_path):
        # importing fraclab sets numpy's OpenBLAS to one thread whatever the
        # environment says, so every run solves on two parity lanes and
        # writes the same bytes.  At n = 511 a two-thread dsyevr rounds
        # differently from a one-thread one; at n = 255 it does not
        base = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
        code = (
            "import ctypes, fraclab; from numpy.linalg import _umath_linalg; "
            "print(ctypes.CDLL(_umath_linalg.__file__).scipy_openblas_get_num_threads64_())"
        )
        trees = []
        for threads in (None, "1", "4"):
            env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
            assert proc.stdout == "1\n"
            out = tmp_path / f"threads-{threads}"
            args = ["sharpness", "--n", "511", "--no-timestamp", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "fraclab.cli", *args], env=env, capture_output=True, check=True)
            trees.append({path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))})
        assert trees[0] and trees[0] == trees[1] == trees[2]


class TestComputeSpectra:
    N, MODES = 201, 30

    @classmethod
    def _operators(cls, hiding=True):
        # with `hiding`, the middle operator's even block hides a lower pair
        # from its first take and is solved again
        middle = (
            DiscreteOperator(grid=Grid(cls.N), beta=0.5, first_row=TestTruncatedParitySolve._skewed_row(cls.N, True))
            if hiding
            else assemble_operator(Grid(cls.N), 0.5)
        )
        return [assemble_operator(Grid(cls.N), 0.25), middle, assemble_operator(Grid(cls.N), 0.9)]

    def test_matches_one_operator_at_a_time(self, monkeypatch):
        ops = self._operators()
        expected = [compute_spectrum(op, self.MODES) for op in ops]
        calls = TestTruncatedParitySolve._record_solves(monkeypatch)
        got = list(spectra.compute_spectra(iter(ops), self.MODES))
        first = (self.MODES + 1) // 2 + 1
        even, odd = self.N - self.N // 2, self.N // 2
        assert sorted(calls) == sorted([(even, first), (odd, first)] * 3 + [(even, self.MODES)])
        assert len(got) == len(expected)
        for one, other in zip(got, expected):
            assert (one.beta, one.grid) == (other.beta, other.grid)
            assert np.array_equal(one.eigenvalues, other.eigenvalues)
            assert np.array_equal(one.vectors, other.vectors)
            assert one.ties == other.ties

    def test_no_more_blocks_alive_than_workers(self, monkeypatch):
        # each solve waits for another to start, so two blocks are alive at
        # every solve, whichever operators they belong to; a third alive
        # block would show in the count.  Every block is a view of the one
        # buffer the stream keeps for its grid size.
        alive, peak, lock, buffers = [0], [0], threading.Lock(), set()
        build, solve = spectra._parity_block, spectra._lowest_pairs
        barrier = threading.Barrier(2, timeout=30)

        def release():
            with lock:
                alive[0] -= 1

        def counted(row, sign, buf):
            block, uplo = build(row, sign, buf)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
                buffers.add(id(buf))
            weakref.finalize(block, release)
            return block, uplo

        def meeting(block, take, uplo):
            barrier.wait()
            return solve(block, take, uplo)

        monkeypatch.setattr(spectra, "_parity_block", counted)
        monkeypatch.setattr(spectra, "_lowest_pairs", meeting)
        # six solves, so the barrier always meets in pairs
        assert len(list(spectra.compute_spectra(self._operators(hiding=False), self.MODES))) == 3
        assert peak == [2] and alive == [0]
        assert len(buffers) == 1

    def test_next_operator_is_solved_while_the_current_one_merges(self, monkeypatch):
        # the first Spectrum is built only once a solve of the second
        # operator has started; without the overlap the wait times out
        ops = self._operators(hiding=False)[:2]
        started = threading.Event()
        build, solve = spectra.Spectrum, spectra._parity_pairs

        def solving(op, sign, take, buf):
            if op is ops[1]:
                started.set()
            return solve(op, sign, take, buf)

        def waiting(**fields):
            if fields["beta"] == ops[0].beta:
                assert started.wait(timeout=30)
            return build(**fields)

        monkeypatch.setattr(spectra, "_parity_pairs", solving)
        monkeypatch.setattr(spectra, "Spectrum", waiting)
        assert [sp.beta for sp in spectra.compute_spectra(ops, self.MODES)] == [0.25, 0.5]


class TestSolverGuards:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**1022, -math.ldexp(1.5, 1022)])
    def test_non_finite_block_is_refused_as_scipy_did(self, bad):
        # a row entry of 2^1022 or more could sum to an infinite block entry
        row = assemble_operator(Grid(9), 0.5).first_row.copy()
        row[3] = bad
        op = DiscreteOperator(grid=Grid(9), beta=0.5, first_row=row)
        with pytest.raises(ValueError, match=r"row entries must be finite and below 2\^1022 in size"):
            compute_spectrum(op, 3)

    @pytest.mark.parametrize(
        "block,take",
        [
            (np.eye(3), 1),  # C order
            (np.eye(3, dtype=np.float32, order="F"), 1),
            (np.ones((3, 2), order="F"), 1),
            (np.eye(3, order="F"), 0),
            (np.eye(3, order="F"), 4),
            (np.eye(4, order="F")[:3, :3].T, 1),  # a transposed window
            (np.lib.stride_tricks.as_strided(np.eye(3, order="F"), strides=(8, 16)), 1),  # lda 2
        ],
    )
    def test_block_the_solver_cannot_take_is_refused(self, block, take):
        with pytest.raises(ValueError):
            spectra._lowest_pairs(block, take)

    def test_unknown_triangle_is_refused(self):
        with pytest.raises(ValueError, match="uplo"):
            spectra._lowest_pairs(np.eye(3, order="F"), 1, "l")

    def test_fewer_pairs_than_asked_raise(self):
        # dsyevr returns info = 0 and no pairs for a NaN block
        with pytest.raises(NumericalError) as caught:
            spectra._lowest_pairs(np.full((8, 8), math.nan, order="F"), 3)
        assert caught.value.diagnostics == {"info": 0, "pairs": 0, "requested": 3}

    def test_solver_failure_raises(self, monkeypatch):
        solve = _lapack._dsyevr

        def failing(*args):
            solve(*args)
            if args[17][0] != -1:  # not the workspace query
                args[20][0] = 7

        monkeypatch.setattr(_lapack, "_dsyevr", type(_lapack._dsyevr)(failing))
        with pytest.raises(NumericalError, match="eigensolver failed") as caught:
            compute_spectrum(assemble_operator(Grid(64), 0.5), 4)
        assert caught.value.diagnostics["info"] == 7

    def test_nan_residual_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(spectra, "apply", lambda op, vec: np.full_like(vec, math.nan))
        with pytest.raises(NumericalError, match="residual") as caught:
            compute_spectrum(assemble_operator(Grid(64), 0.5), 4)
        assert math.isnan(caught.value.diagnostics["residual"])


@functools.cache
def first_eigenvalues(beta):
    """lambda_1 on the grids h = 1/256, 1/512 and 1/1024 (n = 511, 1023, 2047)."""
    return tuple(
        float(compute_spectrum(assemble_operator(Grid(n), beta), 1).eigenvalues[0]) for n in (511, 1023, 2047)
    )


class TestConvergenceOrder:
    # lambda_1 of the restricted fractional Laplacian at beta = 1/2
    # (Kulczycki, Kwasnicki, Malecki & Stos, Proc. LMS 2010)
    LAMBDA1_HALF = 1.1577738836977

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    def test_first_eigenvalue_converges_at_first_order(self, beta):
        coarse, middle, fine = first_eigenvalues(beta)
        assert 0.9 <= math.log2((coarse - middle) / (middle - fine)) <= 1.1

    def test_first_eigenvalue_converges_to_the_known_constant(self):
        lam = first_eigenvalues(0.5)
        errors = [abs(value - self.LAMBDA1_HALF) for value in lam]
        for coarse, fine in zip(errors, errors[1:]):
            assert 0.9 <= math.log2(coarse / fine) <= 1.1
        # two-grid Richardson removes the O(h) term; the >= 100x gain holds
        # at k = 1 only, since at k = 10 the order is pre-asymptotic and
        # Richardson gains 2-11x
        richardson = 2.0 * lam[2] - lam[1]
        assert 100.0 * abs(richardson - self.LAMBDA1_HALF) <= errors[2]


class TestAsymptoticLaw:
    def test_frozen_values(self):
        assert asymptotic_eigenvalue(0.25, 10) == pytest.approx(
            3.8883048549979824, rel=1e-15
        )
        assert asymptotic_eigenvalue(0.25, 11) == pytest.approx(
            4.085304269230845, rel=1e-15
        )
        assert asymptotic_eigenvalue(0.5, 1) == pytest.approx(
            3.0 * math.pi / 8.0, rel=1e-15
        )
        assert asymptotic_eigenvalue(1.0, 3) == pytest.approx(
            22.206609902451056, rel=1e-15
        )

    def test_vectorized_matches_scalar(self):
        ks = np.arange(1, 9)
        vec = asymptotic_eigenvalue(0.6, ks)
        assert vec.shape == (8,)
        for k in ks:
            assert vec[k - 1] == pytest.approx(asymptotic_eigenvalue(0.6, int(k)))

    def test_classical_limit_is_quadratic(self):
        # at beta = 1 the law reduces to (k pi / 2)^2
        for k in (1, 2, 5):
            assert asymptotic_eigenvalue(1.0, k) == pytest.approx(
                (k * math.pi / 2.0) ** 2, rel=1e-15
            )

    def test_index_validation(self):
        with pytest.raises(ValueError):
            asymptotic_eigenvalue(0.5, 0)


class TestGapSequence:
    def test_asymptotic_half_order_gap_is_constant(self):
        gaps = np.diff(asymptotic_eigenvalue(0.5, np.arange(1, 13)))
        np.testing.assert_allclose(gaps, math.pi / 2.0, atol=1e-12)

    def test_asymptotic_gap_frozen_value(self):
        lam = asymptotic_eigenvalue(0.25, np.array([10, 11]))
        assert lam[1] - lam[0] == pytest.approx(0.19699941423286305, rel=1e-14)
