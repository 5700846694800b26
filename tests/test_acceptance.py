"""End-to-end acceptance battery.

Each test covers one advertised behavior of the laboratory at its stated
tolerance and prints the measured numbers; `pytest -v` shows one pass/fail
line per criterion.
"""

import filecmp
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.integrate

from fraclab import (
    Grid,
    ModalState,
    ObservationRegion,
    WaveModalState,
    assemble_operator,
    asymptotic_eigenvalue,
    compute_spectrum,
    eigen_pohozaev_check,
    gap_sequence,
    hum_control,
    modal_invariants,
    phase_average_matrix,
    region_mass_matrix,
    schrodinger_evolve,
    schrodinger_gramian,
    schrodinger_pohozaev_report,
    sharpness_experiment,
    two_sided_estimate_ratio,
    wave_energy,
    wave_evolve,
    wave_gramian,
)

FRACLAB = [sys.executable, "-m", "fraclab.cli"]


def test_criterion_01_classical_limit(get_spectrum):
    """beta = 1 reproduces the second-difference spectrum exactly and the
    continuum ground state to 1e-5 on a fine grid, within 60 seconds."""
    start = time.monotonic()
    op = assemble_operator(Grid(3), 1.0)
    lam = compute_spectrum(op, 3).eigenvalues
    exact = (2.0 / op.grid.h**2) * (1.0 - np.cos(np.arange(1, 4) * np.pi / 4.0))
    worst_exact = float(np.max(np.abs(lam - exact) / exact))
    assert worst_exact < 1e-10

    lam1 = get_spectrum(1.0, 2047, 2).eigenvalues[0]
    dev = abs(lam1 - np.pi**2 / 4.0) / (np.pi**2 / 4.0)
    assert dev < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"criterion 01: n=3 table rel {worst_exact:.2e}, "
        f"n=2047 ground state rel {dev:.2e}, {elapsed:.1f}s"
    )


def test_criterion_02_asymptotic_eigenvalue_agreement(get_spectrum):
    """Numeric eigenvalues track the closed-form law within 3 percent for
    modes 5..10, with the parity-pair deviation envelope shrinking in k."""
    lines = []
    for beta in (0.3, 0.5, 0.75):
        spectrum = get_spectrum(beta, 2048, 10)
        k = np.arange(5, 11)
        lam = spectrum.eigenvalues[4:10]
        law = asymptotic_eigenvalue(beta, k)
        dev = np.abs(lam - law) / law
        assert np.max(dev) < 0.03
        envelope = [max(dev[0], dev[1]), max(dev[2], dev[3]), max(dev[4], dev[5])]
        assert envelope[0] > envelope[1] > envelope[2]
        lines.append(f"beta={beta:g} max dev {np.max(dev):.2e}")
    lam10 = get_spectrum(0.5, 2048, 10).eigenvalues[9]
    frozen_law = 15.315264186250241
    assert abs(lam10 - frozen_law) / frozen_law < 0.02
    print("criterion 02: " + "; ".join(lines))


def test_criterion_03_gap_dichotomy(get_spectrum):
    """Eigenvalue gaps vanish below the half order and stay uniform at and
    above it, in the closed-form law exactly and in the numerics at n=2048."""
    for beta in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0):
        report = gap_sequence(beta, 20)
        want = "vanishing-gap" if beta < 0.5 else "uniform-gap"
        assert report.verdict == want
        trend = np.diff(report.gaps)
        if beta < 0.5:
            assert np.all(trend < 0.0)
        elif beta > 0.5:
            assert np.all(trend > 0.0)
        else:
            np.testing.assert_allclose(report.gaps, np.pi / 2.0, atol=1e-12)

    verdicts = {}
    for beta in (0.4, 0.5, 0.6):
        report = gap_sequence(get_spectrum(beta, 2048, 10), 10)
        verdicts[beta] = (report.verdict, report.slope)
    assert verdicts[0.4][0] == "vanishing-gap"
    assert verdicts[0.5][0] == "uniform-gap"
    assert verdicts[0.6][0] == "uniform-gap"
    mean_gap = float(np.mean(gap_sequence(get_spectrum(0.5, 2048, 10), 10).gaps))
    assert abs(mean_gap - np.pi / 2.0) / (np.pi / 2.0) < 0.02
    print(
        "criterion 03: numeric slopes "
        + ", ".join(f"{b:g}: {s:+.3f}" for b, (_, s) in sorted(verdicts.items()))
        + f"; mean gap at 0.5 = {mean_gap:.4f}"
    )


def test_criterion_04_conservation_battery(get_spectrum):
    """Free flows conserve mass and both energies to 1e-12 relative drift
    over times up to 10, for 50 random states per order, both equations."""
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for beta in (0.3, 0.5, 1.0):
        spectrum = get_spectrum(beta, 512, 12)
        for _ in range(50):
            a = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            state = ModalState(coefficients=a, spectrum=spectrum)
            before = np.array(modal_invariants(state))
            wave = WaveModalState(
                position=rng.standard_normal(12),
                velocity=rng.standard_normal(12),
                spectrum=spectrum,
            )
            e0 = wave_energy(wave)
            for t in (0.37, 2.0, 10.0):
                after = np.array(modal_invariants(schrodinger_evolve(state, t)))
                worst = max(worst, float(np.max(np.abs(after - before) / before)))
                e1 = wave_energy(wave_evolve(wave, t))
                worst = max(worst, abs(e1 - e0) / e0)
    assert worst < 1e-12
    print(f"criterion 04: worst relative invariant drift {worst:.2e}")


def test_criterion_05_gramian_matches_brute_force(get_spectrum):
    """Closed-form Gramians agree with direct time quadrature of observed
    energies to 1e-6 for both equations, over 20 random states."""
    spectrum = get_spectrum(0.5, 512, 8)
    region = ObservationRegion.boundary_layers(0.2)
    T = 1.0
    K = 8
    lam = spectrum.eigenvalues[:K]
    R = region_mass_matrix(spectrum, region, K)

    nt = 100_001
    t = np.linspace(0.0, T, nt)
    w = np.full(nt, T / (nt - 1))
    w[0] *= 0.5
    w[-1] *= 0.5

    g_s = schrodinger_gramian(spectrum, region, T, K)
    phases = np.exp(1j * np.outer(t, lam))
    brute_s = R * ((phases.conj() * w[:, None]).T @ phases)
    scale_s = float(np.max(np.abs(g_s.entries)))

    g_w = wave_gramian(spectrum, region, T, K)
    psi = np.hstack([-np.sin(np.outer(t, lam)), np.cos(np.outer(t, lam))])
    brute_w = np.tile(R, (2, 2)) * ((psi * w[:, None]).T @ psi)
    scale_w = float(np.max(np.abs(g_w.entries)))

    rng = np.random.default_rng(20260823)
    worst_s = float(np.max(np.abs(g_s.entries - brute_s))) / scale_s
    worst_w = float(np.max(np.abs(g_w.entries - brute_w))) / scale_w
    for _ in range(20):
        a = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        qf = float(np.real(a.conj() @ g_s.entries @ a))
        qf_brute = float(np.real(a.conj() @ brute_s @ a))
        worst_s = max(worst_s, abs(qf - qf_brute) / abs(qf_brute))
        z = np.concatenate([lam * rng.standard_normal(K), rng.standard_normal(K)])
        qw = float(z @ g_w.entries @ z)
        qw_brute = float(z @ brute_w @ z)
        worst_w = max(worst_w, abs(qw - qw_brute) / abs(qw_brute))
    assert worst_s < 1e-6
    assert worst_w < 1e-6
    assert np.linalg.eigvalsh(phase_average_matrix(lam, T))[0] > -1e-12
    assert np.linalg.eigvalsh(g_w.entries)[0] > -1e-10 * scale_w
    print(f"criterion 05: worst rel error schrodinger {worst_s:.2e}, wave {worst_w:.2e}")


def test_criterion_06_observability_sharpness(get_spectrum):
    """Observability constants collapse with the mode span below the half
    order and settle above it, resolved within 300 seconds."""
    start = time.monotonic()
    region = ObservationRegion.boundary_layers(0.2)
    spectra = {b: get_spectrum(b, 1024, 40) for b in (0.25, 0.5, 0.75)}
    table = sharpness_experiment(spectra.items(), (5, 10, 20, 30, 40), region, 4.0)
    elapsed = time.monotonic() - start

    betas = sorted(spectra)
    by_beta = dict(zip(betas, table.constants))
    assert table.verdicts == ("vanishing", "uniform", "uniform")
    # below the dichotomy point the constants collapse by many decades
    assert by_beta[0.25][-1] < 1e-6 * by_beta[0.25][0]
    # at and above it they stay an order-one fraction of the small-K value
    assert by_beta[0.5][-1] > 0.5 * by_beta[0.5][0]
    assert by_beta[0.75][-1] > 0.5 * by_beta[0.75][0]
    assert elapsed < 300.0
    print(
        "criterion 06: decay ratios "
        + ", ".join(f"{b:g}: {r:.2e}" for b, r in zip(betas, table.decay_ratios))
        + f"; {elapsed:.1f}s"
    )


def test_criterion_07_hum_control_end_to_end(get_spectrum):
    """The synthesized control steers the datum to zero within 1e-8 of its
    norm, satisfies the duality identity to 1e-8, and survives replay by an
    independent adaptive ODE integrator."""
    spectrum = get_spectrum(0.6, 1024, 20)
    region = ObservationRegion.boundary_layers(0.2)
    rng = np.random.default_rng(7)
    a0 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    a0 /= np.linalg.norm(a0)
    state = ModalState(coefficients=a0, spectrum=spectrum)

    result = hum_control(state, region, 1.0)
    assert result.final_state_norm <= 1e-8
    assert result.identity_residual <= 1e-8

    lam = spectrum.eigenvalues[:20]
    idx = region.node_indices(spectrum.grid)
    phi = spectrum.vectors[idx, :20]
    c = result.hum_coefficients
    h = spectrum.h

    def rhs(t, y):
        a = y[:20] + 1j * y[20:]
        control = (np.exp(1j * lam * t) * c) @ phi.T
        f = h * (phi.T @ control)
        da = 1j * lam * a - 1j * f
        return np.concatenate([da.real, da.imag])

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, 1.0),
        np.concatenate([a0.real, a0.imag]),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    replay_final = float(np.linalg.norm(sol.y[:20, -1] + 1j * sol.y[20:, -1]))
    assert replay_final <= 1e-8
    print(
        f"criterion 07: final {result.final_state_norm:.2e}, "
        f"identity {result.identity_residual:.2e}, "
        f"independent replay {replay_final:.2e} (nfev {sol.nfev})"
    )


def test_criterion_08_eigenfunction_boundary_identity(get_spectrum):
    """Squared boundary coefficients of eigenfunctions match
    2 beta lambda / Gamma(1+beta)^2: to 1e-3 in the classical limit and to
    10 percent, improving under refinement, in the fractional range."""
    classical = eigen_pohozaev_check(get_spectrum(1.0, 1024, 2), 1)
    assert classical.residual < 1e-3
    assert abs(classical.rhs - np.pi**2 / 2.0) / (np.pi**2 / 2.0) < 1e-3

    lines = [f"beta=1 k=1 res {classical.residual:.1e}"]
    for beta in (0.5, 0.75):
        for mode in (1, 2):
            residuals = [
                eigen_pohozaev_check(get_spectrum(beta, n, 2), mode).residual
                for n in (512, 1024, 2048)
            ]
            assert all(r < 0.10 for r in residuals)
            assert residuals[0] > residuals[1] > residuals[2]
            lines.append(
                f"beta={beta:g} k={mode} res "
                + "->".join(f"{r:.3f}" for r in residuals)
            )
    print("criterion 08: " + "; ".join(lines))


def test_criterion_09_trajectory_boundary_identity(get_spectrum):
    """The space-time boundary identity balances along free trajectories:
    exactly for one mode, and to 10 percent with refinement for mode pairs
    with and without a dilation cross term."""
    # single mode: static boundary density, no cross term, exact T scaling
    spectrum = get_spectrum(0.5, 1024, 3)
    single = ModalState(
        coefficients=np.array([(1.0 + 1.0j) / np.sqrt(2.0), 0.0, 0.0]),
        spectrum=spectrum,
    )
    report = schrodinger_pohozaev_report(single, 1.0)
    scale = max(abs(report.lhs), abs(report.rhs))
    assert abs(report.cross_term) <= 1e-10 * scale
    static = eigen_pohozaev_check(spectrum, 1)
    gamma = math.gamma(1.5)
    assert report.lhs == pytest.approx(gamma**2 * static.lhs, rel=1e-10)

    results = {}
    for label, coeffs in (
        ("modes 1+2", np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)),
        ("modes 1+3", np.array([1.0, 0.0, 1.0j]) / np.sqrt(2.0)),
    ):
        residuals = []
        for n in (512, 1024, 2048):
            state = ModalState(
                coefficients=coeffs, spectrum=get_spectrum(0.5, n, 3)
            )
            rep = schrodinger_pohozaev_report(state, 1.0)
            residuals.append(rep.residual)
            results[(label, n)] = rep
        assert all(r < 0.10 for r in residuals)
        assert residuals[0] > residuals[1] > residuals[2]

    # opposite parity pairs the dilation term against an odd integrand
    pair_12 = results[("modes 1+2", 2048)]
    assert abs(pair_12.cross_term) < 1e-12 * max(abs(pair_12.lhs), abs(pair_12.rhs))
    # same parity keeps a stable, order-one cross contribution
    pair_13 = results[("modes 1+3", 2048)]
    assert pair_13.cross_term == pytest.approx(-1.41525, abs=1e-2)
    print(
        f"criterion 09: single-mode cross {report.cross_term:.1e}; "
        f"1+2 residuals at n=2048 {pair_12.residual:.4f}; "
        f"1+3 cross {pair_13.cross_term:.5f}, residual {pair_13.residual:.4f}"
    )


def test_criterion_10_two_sided_boundary_observability(get_spectrum):
    """Boundary-trace energy of random data stays inside a fixed two-sided
    band of the datum energy, with single modes near their analytic ratios."""
    T = 4.0
    gamma2 = math.gamma(1.5) ** 2
    lines = []
    for n, single_tol in ((1024, 0.06), (2048, 0.03)):
        spectrum = get_spectrum(0.5, n, 5)
        lam = spectrum.eigenvalues[:5]
        analytic = 2.0 * 0.5 * T * lam / (gamma2 * (1.0 + lam))
        for k in range(5):
            c = np.zeros(5)
            c[k] = 1.0
            state = ModalState(coefficients=c, spectrum=spectrum)
            report = schrodinger_pohozaev_report(state, T)
            ratio = two_sided_estimate_ratio(state, report.trace_integral)
            assert abs(ratio / analytic[k] - 1.0) < single_tol

        lo, hi = 0.1 * analytic.min(), 10.0 * analytic.max()
        rng = np.random.default_rng(100)
        ratios = []
        for _ in range(20):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            state = ModalState(coefficients=a, spectrum=spectrum)
            report = schrodinger_pohozaev_report(state, T)
            ratios.append(two_sided_estimate_ratio(state, report.trace_integral))
        assert lo < min(ratios) and max(ratios) < hi
        lines.append(
            f"n={n} ratios [{min(ratios):.3f}, {max(ratios):.3f}] in "
            f"[{lo:.3f}, {hi:.3f}]"
        )
    print("criterion 10: " + "; ".join(lines))


def test_criterion_11_cli_reproducibility(tmp_path):
    """Identical seeded command lines produce byte-identical output trees,
    and the manifest verification accepts them."""
    args = FRACLAB + [
        "evolve", "--beta", "0.5", "--n", "128", "--modes", "8", "--T", "2",
        "--seed", "11", "--no-timestamp",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        proc = subprocess.run(
            args + ["--out", str(out)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []

    verify = subprocess.run(
        FRACLAB + ["evolve", "--verify", "--out", str(a)],
        capture_output=True,
        text=True,
    )
    assert verify.returncode == 0
    manifest = json.loads((a / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == set(names) - {"manifest.json"}
    print(
        f"criterion 11: {len(names)} files byte-identical across runs; "
        "manifest verification clean"
    )
