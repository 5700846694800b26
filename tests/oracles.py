"""Test-side references for the forcing quadrature: composite Simpson weights
and a forced Schrodinger evolution built on the library's replay kernel."""

import numpy as np

from fraclab.dynamics import _forced_increment


def simpson_or_trapezoid(times):
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


def forced_evolve(state, values, dt, region):
    """Coefficients at T = (len(values) - 1) * dt of i u_t + A u = source.

    `values[j, i]` is the source at time j * dt on the i-th region node.  In
    modal form a_k' = i lambda_k a_k - i f_k(t), f_k the L2 projection of the
    source on the region; the interaction-picture integral runs through
    `_forced_increment` under `simpson_or_trapezoid`, so a vanishing source
    gives exactly the free flow.
    """
    idx = region.node_indices(state.spectrum.grid)
    lam = state.eigenvalues
    phi_region = state.spectrum.vectors[idx, : state.modes]
    times = dt * np.arange(len(values))
    integral = _forced_increment(
        lam, state.spectrum.h, phi_region, [(times, values)], rule=simpson_or_trapezoid
    )
    return np.exp(1j * lam * times[-1]) * (state.coefficients - 1j * integral)
