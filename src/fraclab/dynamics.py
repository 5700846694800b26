"""Spectral propagation of fractional Schrodinger and wave dynamics.

All evolution happens on eigenbasis coefficients, so the free flows are exact
(phase rotations); time discretization enters only through the forcing
quadrature of the controlled Schrodinger equation, handled by an exponential
integrator with composite Simpson (or trapezoidal) interaction-picture
quadrature; the HUM replay passes Gauss-Legendre weights of its own.  The
kernel projects node samples onto the modes by one real matrix product on
interleaved (re, im) columns.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import FraclabError
from .regions import ObservationRegion
from .spectra import Spectrum

__all__ = [
    "ModalState",
    "WaveModalState",
    "SourceSignal",
    "schrodinger_evolve",
    "schrodinger_forced_evolve",
    "wave_evolve",
    "wave_energy",
    "modal_invariants",
]


@dataclass(frozen=True)
class ModalState:
    """Coefficients of a Schrodinger state in the truncated eigenbasis phi_k."""

    coefficients: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=complex)
        if a.ndim != 1 or len(a) < 1:
            raise ValueError("coefficients must form a nonempty vector")
        if len(a) > self.spectrum.modes:
            raise ValueError(
                f"state has {len(a)} modes but spectrum holds {self.spectrum.modes}"
            )
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", a)

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
        a = np.asarray(self.position, dtype=complex)
        b = np.asarray(self.velocity, dtype=complex)
        if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
            raise ValueError("position and velocity must be equal-length vectors")
        if len(a) > self.spectrum.modes:
            raise ValueError(
                f"state has {len(a)} modes but spectrum holds {self.spectrum.modes}"
            )
        if not (np.all(np.isfinite(a.view(float))) and np.all(np.isfinite(b.view(float)))):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "position", a)
        object.__setattr__(self, "velocity", b)

    @property
    def modes(self):
        return len(self.position)

    @property
    def eigenvalues(self):
        return self.spectrum.eigenvalues[: self.modes]


@dataclass(frozen=True)
class SourceSignal:
    """Time samples of a source/control on the observation nodes.

    `values[j, i]` is the source at time j*dt on the i-th region node; the
    samples span [0, (len-1)*dt].
    """

    values: np.ndarray
    dt: float

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("source needs at least two time samples of node values")
        if not float(self.dt) > 0.0:
            raise ValueError(f"sample step must be positive, got {self.dt}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def duration(self):
        return self.dt * (self.values.shape[0] - 1)


def modal_invariants(state):
    """The three conserved sums (sum |a|^2, sum lambda |a|^2, sum lambda^2 |a|^2)."""
    p = np.abs(state.coefficients) ** 2
    lam = state.eigenvalues
    return float(p.sum()), float((lam * p).sum()), float((lam**2 * p).sum())


def schrodinger_evolve(state, duration):
    """Advance the free Schrodinger flow: a_k <- a_k exp(i lambda_k t).  Exact."""
    a = state.coefficients * np.exp(1j * state.eigenvalues * float(duration))
    return replace(state, coefficients=a)


def _simpson_or_trapezoid(times):
    """Composite Simpson weights (dt/3) * (1, 4, 2, ..., 2, 4, 1) over an even
    interval count, else trapezoid, on uniform `times`."""
    intervals = len(times) - 1
    if intervals < 2 or intervals % 2:
        # the mean step: a first difference of late samples would carry a
        # rounding error of eps * t / dt into every weight of the block
        w = np.full(intervals + 1, (times[-1] - times[0]) / intervals)
        w[[0, -1]] *= 0.5
        return w
    w = np.ones(intervals + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return ((times[-1] - times[0]) / (3.0 * intervals)) * w


def _forced_increment(lam, h, phi_region, blocks, *, rule=_simpson_or_trapezoid):
    """Quadrature of f_k(t) e^(-i lambda_k t) over sample blocks.

    `blocks` yields (times, samples) pairs; f_k(t_j) = h * sum_{i in region}
    samples[j,i] phi_k(x_i).  `rule` maps a block's times to its quadrature
    weights, and the block sums add up.  The default takes composite
    Simpson (O(dt^4)) on uniform blocks with an even number of intervals
    and the trapezoidal rule (O(dt^2)) on the others; blocks sharing their
    endpoints compose exactly under either.  The projection runs as one
    real matrix product on the interleaved (re, im) columns of samples.T,
    which costs no copy when samples.T is already a C-ordered complex array
    (as the HUM replay's blocks are); the weights, h included, are one
    matrix product.
    """
    total = 0.0
    for times, samples in blocks:
        columns = np.ascontiguousarray(samples.T, dtype=complex)  # (m, n_t)
        f = (phi_region.T @ columns.view(float)).view(complex)  # (K, n_t)
        del samples, columns  # the block may be freed before the next is sampled
        f *= np.exp(-1j * np.multiply.outer(lam, times))
        total = total + f @ (h * rule(times))
    return total


def schrodinger_forced_evolve(state, source, region):
    """Solve i u_t + A u = source on the region over the source's time span.

    Modal form a_k' = i lambda_k a_k - i f_k(t) with f_k the L2 projection
    of the source restricted to the region nodes.  The interaction-picture
    integral is evaluated on the sample grid by composite Simpson when the
    sample count allows it (odd count, even intervals) and the trapezoidal
    rule otherwise; with a vanishing source this reduces exactly to the free
    flow.
    """
    if not isinstance(source, SourceSignal):
        raise TypeError("source must be a SourceSignal")
    if not isinstance(region, ObservationRegion):
        raise TypeError("region must be an ObservationRegion")
    idx = region.node_indices(state.spectrum.grid)
    if source.values.shape[1] != len(idx):
        raise ValueError(
            f"source carries {source.values.shape[1]} node columns, region has {len(idx)} nodes"
        )
    T = source.duration
    lam = state.eigenvalues
    phi_region = state.spectrum.vectors[idx, : state.modes]
    times = source.dt * np.arange(source.values.shape[0])
    integral = _forced_increment(lam, state.spectrum.h, phi_region, [(times, source.values)])
    a = np.exp(1j * lam * T) * (state.coefficients - 1j * integral)
    return replace(state, coefficients=a)


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
