"""Observation regions: validation, snapping to grids, node selection."""

import numpy as np
import pytest

from fraclab import Grid, ObservationRegion


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ObservationRegion(intervals=())

    @pytest.mark.parametrize(
        "bad",
        [
            ((0.5, 0.5),),
            ((0.7, 0.2),),
            ((-1.5, 0.0),),
            ((0.0, 1.2),),
        ],
    )
    def test_degenerate_or_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            ObservationRegion(intervals=bad)

    def test_strict_overlap_rejected(self):
        with pytest.raises(ValueError):
            ObservationRegion(intervals=((-0.5, 0.2), (0.0, 0.5)))

    def test_touching_intervals_allowed(self):
        region = ObservationRegion(intervals=((-0.5, 0.0), (0.0, 0.5)))
        assert region.intervals == ((-0.5, 0.0), (0.0, 0.5))

    def test_intervals_sorted_on_construction(self):
        region = ObservationRegion(intervals=((0.3, 0.8), (-0.9, -0.2)))
        assert region.intervals == ((-0.9, -0.2), (0.3, 0.8))


class TestConstructors:
    def test_boundary_layers(self):
        region = ObservationRegion.boundary_layers(0.25)
        assert region.intervals == ((-1.0, -0.75), (0.75, 1.0))

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_boundary_layers_epsilon_validation(self, eps):
        with pytest.raises(ValueError):
            ObservationRegion.boundary_layers(eps)

    def test_full(self):
        # the closed endpoints are admitted and integer pairs become floats
        assert ObservationRegion([(-1, 1)]).intervals == ((-1.0, 1.0),)


class TestNodeSelection:
    def test_half_interval_on_coarse_grid(self):
        # n = 9 gives h = 0.2 and interior nodes -0.8, -0.6, ..., 0.8.
        # (0.5, 1) snaps outward to (0.4, 1.0), covering x = 0.4, 0.6, 0.8.
        grid = Grid(9)
        region = ObservationRegion(intervals=((0.5, 1.0),))
        np.testing.assert_array_equal(region.node_indices(grid), [6, 7, 8])
        np.testing.assert_allclose(
            region.snapped(grid).intervals, [(0.4, 1.0)], atol=1e-12
        )

    def test_exact_grid_hits_do_not_expand(self):
        grid = Grid(9)
        region = ObservationRegion(intervals=((-0.6, 0.2),))
        np.testing.assert_allclose(
            region.snapped(grid).intervals, [(-0.6, 0.2)], atol=1e-12
        )
        np.testing.assert_array_equal(region.node_indices(grid), [1, 2, 3, 4, 5])

    def test_full_region_covers_all_interior_nodes(self):
        grid = Grid(17)
        idx = ObservationRegion(((-1.0, 1.0),)).node_indices(grid)
        np.testing.assert_array_equal(idx, np.arange(17))

    def test_boundary_layer_nodes_symmetric(self):
        grid = Grid(31)
        region = ObservationRegion.boundary_layers(0.2)
        idx = region.node_indices(grid)
        assert set(idx) == set(30 - idx)
        # snapping moves each endpoint outward from the interval by < h, so
        # the snapped layer contains the requested one
        (l1, r1), (l2, r2) = region.snapped(grid).intervals
        assert l1 == -1.0 and r2 == 1.0
        assert -0.8 <= r1 < -0.8 + grid.h
        assert 0.8 - grid.h < l2 <= 0.8
        x = grid.nodes
        assert np.all((x[idx] <= r1 + 1e-12) | (x[idx] >= l2 - 1e-12))

    def test_union_concatenates_without_duplicates(self):
        grid = Grid(19)
        region = ObservationRegion(intervals=((-0.5, -0.2), (0.2, 0.5)))
        idx = region.node_indices(grid)
        assert len(idx) == len(set(idx.tolist()))
        assert np.all(np.diff(idx) > 0)

    def test_thin_region_still_captures_nodes(self):
        # outward snapping guarantees even a sub-cell interval reaches the
        # flanking nodes, so node selection never comes back empty
        grid = Grid(9)
        region = ObservationRegion(intervals=((0.41, 0.59),))
        np.testing.assert_array_equal(region.node_indices(grid), [6, 7])
        tiny = ObservationRegion(intervals=((0.97, 0.99),))
        assert len(tiny.node_indices(grid)) >= 1

    def test_grid_type_checked(self):
        with pytest.raises(TypeError):
            ObservationRegion(((-1.0, 1.0),)).node_indices(31)

    def test_snapped_merges_runs_that_meet(self):
        grid = Grid(9)
        region = ObservationRegion(intervals=((-0.55, -0.25), (-0.15, 0.15)))
        snapped = region.snapped(grid)
        # left snaps to (-0.6, -0.2), right to (-0.2, 0.2): they now touch
        np.testing.assert_allclose(snapped.intervals, [(-0.6, 0.2)], atol=1e-12)


class TestSnappingProperties:
    @staticmethod
    def random_region(rng, grid):
        # 1-4 disjoint intervals; endpoints drawn off grid points, on them,
        # or shared by two touching intervals
        count = int(rng.integers(1, 5))
        points = rng.uniform(-1.0, 1.0, size=2 * count)
        on_grid = rng.random(2 * count) < 0.3
        points[on_grid] = -1.0 + grid.h * rng.integers(0, grid.n_interior + 2, size=on_grid.sum())
        points = np.sort(points)
        for i in range(1, count):
            if rng.random() < 0.2:
                points[2 * i] = points[2 * i - 1]
        pairs = [(a, b) for a, b in zip(points[::2], points[1::2]) if a < b]
        return ObservationRegion(tuple(pairs)) if pairs else None

    def test_nodes_are_the_interior_nodes_of_the_snapped_region(self):
        rng = np.random.default_rng(15)
        checked = 0
        while checked < 400:
            grid = Grid(int(rng.integers(1, 1025)))
            if checked % 4 == 0:
                region = ObservationRegion.boundary_layers(rng.uniform(0.01, 0.99))
            else:
                region = self.random_region(rng, grid)
                if region is None:
                    continue
            snapped = region.snapped(grid).intervals
            h, x = grid.h, grid.nodes
            # snapped endpoints are grid points
            ends = (np.array(snapped) + 1.0) / h
            np.testing.assert_allclose(ends, np.round(ends), rtol=0.0, atol=1e-9)
            inside = np.zeros(grid.n_interior, dtype=bool)
            for left, right in snapped:
                inside |= (x >= left - 1e-6 * h) & (x <= right + 1e-6 * h)
            np.testing.assert_array_equal(region.node_indices(grid), np.flatnonzero(inside))
            # snapping is outward, up to its tolerance for exact grid hits
            tol = 1e-9 * h + 4e-16
            for a, b in region.intervals:
                assert any(left <= a + tol and b - tol <= right for left, right in snapped)
            checked += 1
