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

    @staticmethod
    def _snap(grid, a, b):
        # Grid points are x_i = -1 + i h for i = 0..n+1 (endpoints included).
        # Snapping outward: left to the largest grid point <= a, right to the
        # smallest grid point >= b, with a small tolerance for exact hits.
        h = grid.h
        lo = math.floor((a + 1.0) / h + 1e-9)
        hi = math.ceil((b + 1.0) / h - 1e-9)
        return max(lo, 0), min(hi, grid.n_interior + 1)

    def node_indices(self, grid):
        """Sorted 0-based indices of interior grid nodes covered by the region."""
        if not isinstance(grid, Grid):
            raise TypeError("node_indices expects a Grid")
        idx = []
        for a, b in self.intervals:
            lo, hi = self._snap(grid, a, b)
            lo, hi = max(lo, 1), min(hi, grid.n_interior)
            if lo <= hi:
                idx.append(np.arange(lo - 1, hi))
        if not idx:
            raise ValueError("region contains no grid nodes at this resolution")
        return np.unique(np.concatenate(idx))

    def snapped(self, grid):
        """The region actually used on `grid`: endpoints moved outward to grid points."""
        spans = []
        for a, b in self.intervals:
            lo, hi = self._snap(grid, a, b)
            spans.append([-1.0 + lo * grid.h, -1.0 + hi * grid.h])
        spans.sort()
        merged = [spans[0]]
        for left, right in spans[1:]:
            if left <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], right)
            else:
                merged.append([left, right])
        return ObservationRegion(intervals=tuple((l, r) for l, r in merged))
