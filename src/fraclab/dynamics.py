"""Spectral propagation of fractional Schrodinger and wave dynamics.

All evolution happens on eigenbasis coefficients, so the free flows are exact
(phase rotations); time discretization enters only through the forcing
integral of the controlled Schrodinger equation, whose interaction-picture
quadrature the kernel `_forced_increment` sums under weights its caller
passes (the HUM replay passes composite Gauss-Legendre ones).  The kernel
projects node samples onto the modes by one real matrix product on
interleaved (re, im) columns.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import FraclabError
from .spectra import Spectrum

__all__ = [
    "ModalState",
    "WaveModalState",
    "schrodinger_evolve",
    "wave_evolve",
    "wave_energy",
    "modal_invariants",
]


def _coefficients(values, spectrum):
    """`values` as a complex vector: nonempty, 1-D, within the mode span, finite."""
    a = np.asarray(values, dtype=complex)
    if a.ndim != 1 or len(a) < 1:
        raise ValueError("coefficients must form a nonempty vector")
    if len(a) > spectrum.modes:
        raise ValueError(f"state has {len(a)} modes but spectrum holds {spectrum.modes}")
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError("coefficients must be finite")
    return a


@dataclass(frozen=True)
class ModalState:
    """Coefficients of a Schrodinger state in the truncated eigenbasis phi_k."""

    coefficients: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _coefficients(self.coefficients, self.spectrum))

    @property
    def modes(self):
        return len(self.coefficients)

    @property
    def eigenvalues(self):
        return self.spectrum.eigenvalues[: self.modes]


@dataclass(frozen=True)
class WaveModalState:
    """Position and velocity coefficients of a wave state (phi basis)."""

    position: np.ndarray
    velocity: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        a = _coefficients(self.position, self.spectrum)
        b = _coefficients(self.velocity, self.spectrum)
        if a.shape != b.shape:
            raise ValueError("position and velocity must be equal-length vectors")
        object.__setattr__(self, "position", a)
        object.__setattr__(self, "velocity", b)

    @property
    def modes(self):
        return len(self.position)

    @property
    def eigenvalues(self):
        return self.spectrum.eigenvalues[: self.modes]


def modal_invariants(state):
    """The three conserved sums (sum |a|^2, sum lambda |a|^2, sum lambda^2 |a|^2)."""
    p = np.abs(state.coefficients) ** 2
    lam = state.eigenvalues
    return float(p.sum()), float((lam * p).sum()), float((lam**2 * p).sum())


def schrodinger_evolve(state, duration):
    """Advance the free Schrodinger flow: a_k <- a_k exp(i lambda_k t).  Exact."""
    a = state.coefficients * np.exp(1j * state.eigenvalues * float(duration))
    return replace(state, coefficients=a)


def _forced_increment(lam, h, phi_region, blocks, *, rule):
    """Quadrature of f_k(t) e^(-i lambda_k t) over sample blocks.

    `blocks` holds (times, samples) pairs, already sampled (the HUM replay
    passes one block per call); f_k(t_j) = h * sum_{i in region}
    samples[j,i] phi_k(x_i).  `rule` maps a block's times to its quadrature
    weights, and the block sums add up.  The projection runs as one
    real matrix product on the interleaved (re, im) columns of samples.T,
    which costs no copy when samples.T is already a C-ordered complex array
    (as the HUM replay's blocks are); the weights, h included, are one
    matrix product.
    """
    total = 0.0
    for times, samples in blocks:
        columns = np.ascontiguousarray(samples.T, dtype=complex)  # (m, n_t)
        f = (phi_region.T @ columns.view(float)).view(complex)  # (K, n_t)
        f *= np.exp(-1j * np.multiply.outer(lam, times))
        total = total + f @ (h * rule(times))
    return total


def wave_evolve(state, duration):
    """Advance the wave flow by closed-form rotation at frequencies lambda_k."""
    if not isinstance(state, WaveModalState):
        raise TypeError("wave_evolve expects a WaveModalState")
    lam = state.eigenvalues
    if np.any(lam <= 0.0):
        raise FraclabError("wave evolution requires strictly positive eigenvalues")
    t = float(duration)
    c, s = np.cos(lam * t), np.sin(lam * t)
    a = state.position * c + state.velocity * (s / lam)
    b = -state.position * lam * s + state.velocity * c
    return replace(state, position=a, velocity=b)


def wave_energy(state):
    """Conserved energy sum(lambda^2 |a|^2 + |b|^2) of a wave state."""
    lam = state.eigenvalues
    return float(np.sum(lam**2 * np.abs(state.position) ** 2 + np.abs(state.velocity) ** 2))
