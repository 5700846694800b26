"""Observation regions: unions of subintervals of (-1, 1) resolved to grid nodes."""

import math
from dataclasses import dataclass

import numpy as np

from .operator import Grid

__all__ = ["ObservationRegion"]


@dataclass(frozen=True)
class ObservationRegion:
    """Union of disjoint intervals inside [-1, 1].

    On a grid, each interval is snapped outward to the nearest grid points
    (so a requested region never loses nodes to rounding) and the node set is
    every interior node inside the snapped span.  The default shape used
    throughout is a two-sided boundary layer of width epsilon.
    """

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        if not ivs:
            raise ValueError("region needs at least one interval")
        for a, b in ivs:
            if not (-1.0 <= a < b <= 1.0):
                raise ValueError(f"interval ({a}, {b}) must satisfy -1 <= left < right <= 1")
        ordered = sorted(ivs)
        for (a1, b1), (a2, b2) in zip(ordered, ordered[1:]):
            if a2 < b1:
                raise ValueError(f"intervals ({a1}, {b1}) and ({a2}, {b2}) overlap")
        object.__setattr__(self, "intervals", tuple(ordered))

    @classmethod
    def boundary_layers(cls, epsilon):
        """Two-sided layer (-1, -1+eps) union (1-eps, 1)."""
        eps = float(epsilon)
        if not 0.0 < eps < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
        return cls(intervals=((-1.0, -1.0 + eps), (1.0 - eps, 1.0)))

    def _spans(self, grid):
        # Grid points are x_i = -1 + i h for i = 0..n+1 (endpoints included).
        # Each sorted interval snaps outward to an index pair: left to the
        # largest grid point <= a, right to the smallest grid point >= b, with
        # a small tolerance for exact hits.  Pairs that touch or overlap merge.
        if not isinstance(grid, Grid):
            raise TypeError("region snapping expects a Grid")
        spans = []
        for a, b in self.intervals:
            lo = max(math.floor((a + 1.0) / grid.h + 1e-9), 0)
            hi = min(math.ceil((b + 1.0) / grid.h - 1e-9), grid.n_interior + 1)
            if spans and lo <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], hi)
            else:
                spans.append([lo, hi])
        return spans

    def node_indices(self, grid):
        """Sorted 0-based indices of interior grid nodes covered by the region."""
        idx = [np.arange(max(lo, 1) - 1, min(hi, grid.n_interior)) for lo, hi in self._spans(grid)]
        idx = np.concatenate(idx)
        if not len(idx):
            raise ValueError("region contains no grid nodes at this resolution")
        return idx

    def snapped(self, grid):
        """The region actually used on `grid`: endpoints moved outward to grid points."""
        spans, h = self._spans(grid), grid.h
        return ObservationRegion(tuple((-1.0 + lo * h, -1.0 + hi * h) for lo, hi in spans))
