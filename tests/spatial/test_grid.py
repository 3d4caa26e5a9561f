"""Tests for the uniform grid, including the PPJ-B snake-coverage invariant."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.spatial.geometry import Rect
from repro.spatial.grid import UniformGrid


@pytest.fixture
def grid_5x4() -> UniformGrid:
    return UniformGrid(Rect(0, 0, 5, 4), 1.0)


class TestConstruction:
    def test_dimensions(self, grid_5x4):
        assert grid_5x4.ncols == 5
        assert grid_5x4.nrows == 4

    def test_non_divisible_extent_rounds_up(self):
        grid = UniformGrid(Rect(0, 0, 1, 1), 0.3)
        assert grid.ncols == 4
        assert grid.nrows == 4

    def test_degenerate_bounds_one_cell(self):
        grid = UniformGrid(Rect(2, 2, 2, 2), 0.5)
        assert grid.ncols == 1 and grid.nrows == 1

    def test_zero_cell_size_raises(self):
        with pytest.raises(ValueError):
            UniformGrid(Rect(0, 0, 1, 1), 0.0)


class TestAddressing:
    def test_cell_of_interior(self, grid_5x4):
        assert grid_5x4.cell_of(2.5, 1.5) == (2, 1)

    def test_cell_of_origin(self, grid_5x4):
        assert grid_5x4.cell_of(0.0, 0.0) == (0, 0)

    def test_upper_border_clamped(self, grid_5x4):
        assert grid_5x4.cell_of(5.0, 4.0) == (4, 3)

    def test_outside_clamped(self, grid_5x4):
        assert grid_5x4.cell_of(-1.0, 10.0) == (0, 3)

    def test_cell_id_row_wise_bottom_up(self, grid_5x4):
        # Figure 2: ids assigned row-wise from bottom to top.
        assert grid_5x4.cell_id((0, 0)) == 0
        assert grid_5x4.cell_id((4, 0)) == 4
        assert grid_5x4.cell_id((0, 1)) == 5
        assert grid_5x4.cell_id((4, 3)) == 19

    @given(st.integers(0, 19))
    def test_cell_id_roundtrip(self, cid):
        grid = UniformGrid(Rect(0, 0, 5, 4), 1.0)
        assert grid.cell_id(grid.cell_coord(cid)) == cid

    def test_cell_rect_contains_cell_points(self, grid_5x4):
        rect = grid_5x4.cell_rect((2, 1))
        assert rect == Rect(2.0, 1.0, 3.0, 2.0)

    @given(
        st.floats(0, 5, allow_nan=False, exclude_max=True),
        st.floats(0, 4, allow_nan=False, exclude_max=True),
    )
    def test_point_inside_its_cell_rect(self, x, y):
        grid = UniformGrid(Rect(0, 0, 5, 4), 1.0)
        assert grid.cell_rect(grid.cell_of(x, y)).contains_point(x, y)


class TestVectorizedAddressing:
    """``cells_of`` must put every point where ``cell_of`` does."""

    @staticmethod
    def _agree(grid, xs, ys):
        cols, rows = grid.cells_of(
            np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
        )
        assert cols.dtype == rows.dtype == np.int64
        expected = [grid.cell_of(x, y) for x, y in zip(xs, ys)]
        assert list(zip(cols.tolist(), rows.tolist())) == expected

    def test_cell_edges_and_clamped_border(self, grid_5x4):
        edges = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        points = list(itertools.product(edges, edges[:5]))
        points += [(5.0, 4.0), (4.999999999999999, 3.9999999999999996)]
        points += [(-1.0, 10.0), (7.5, -3.0)]
        xs, ys = zip(*points)
        self._agree(grid_5x4, xs, ys)

    def test_inexact_cell_size_edges(self):
        # 0.1 is not exact in binary: k * 0.1 lands either side of an edge.
        grid = UniformGrid(Rect(0.0, 0.0, 1.0, 0.7), 0.1)
        xs = [k * 0.1 for k in range(11)] + [0.30000000000000004, 0.7, 1.0]
        ys = [min(0.7, k * 0.07) for k in range(11)] + [0.7, 0.7, 0.7]
        self._agree(grid, xs, ys)

    def test_offset_bounds(self):
        grid = UniformGrid(Rect(-0.37, 12.5, 0.91, 13.0), 0.004)
        rng = random.Random(3)
        xs = [rng.uniform(-0.37, 0.91) for _ in range(500)] + [-0.37, 0.91]
        ys = [rng.uniform(12.5, 13.0) for _ in range(500)] + [12.5, 13.0]
        self._agree(grid, xs, ys)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1, 6, allow_nan=False), st.floats(-1, 5, allow_nan=False)
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_random_points(self, points):
        xs, ys = zip(*points)
        self._agree(UniformGrid(Rect(0, 0, 5, 4), 0.7), xs, ys)


class TestNeighbourhoods:
    def test_interior_has_8_neighbours(self, grid_5x4):
        assert len(list(grid_5x4.neighbours((2, 1)))) == 8

    def test_corner_has_3_neighbours(self, grid_5x4):
        assert len(list(grid_5x4.neighbours((0, 0)))) == 3

    def test_relevant_cells_includes_self(self, grid_5x4):
        cells = grid_5x4.relevant_cells((2, 1))
        assert (2, 1) in cells
        assert len(cells) == 9

    def test_lower_id_neighbours_all_lower(self, grid_5x4):
        cell = (2, 2)
        cid = grid_5x4.cell_id(cell)
        for other in grid_5x4.lower_id_neighbours(cell):
            assert grid_5x4.cell_id(other) < cid

    def test_neighbour_symmetry(self, grid_5x4):
        for cell in itertools.product(range(5), range(4)):
            for other in grid_5x4.neighbours(cell):
                assert cell in list(grid_5x4.neighbours(other))


def _covered_pairs(grid: UniformGrid):
    """All unordered cell pairs examined by a traversal scheme."""
    pairs = set()
    for col in range(grid.ncols):
        for row in range(grid.nrows):
            cell = (col, row)
            yield_key = lambda a, b: (a, b) if a <= b else (b, a)
            pairs.add(yield_key(cell, cell))
            for other in grid.snake_partners(cell):
                pairs.add(yield_key(cell, other))
    return pairs


def _expected_pairs(grid: UniformGrid):
    """Every cell with itself plus every adjacent unordered pair."""
    pairs = set()
    for col in range(grid.ncols):
        for row in range(grid.nrows):
            cell = (col, row)
            pairs.add((cell, cell))
            for other in grid.neighbours(cell):
                pairs.add((cell, other) if cell <= other else (other, cell))
    return pairs


class TestSnakeTraversal:
    @pytest.mark.parametrize("ncols,nrows", [(1, 1), (1, 5), (5, 1), (4, 4), (5, 4), (7, 3)])
    def test_snake_covers_every_adjacent_pair_exactly_once(self, ncols, nrows):
        grid = UniformGrid(Rect(0, 0, ncols, nrows), 1.0)
        # Exactly once: collect with multiplicity.
        seen = []
        for col in range(ncols):
            for row in range(nrows):
                cell = (col, row)
                seen.append((cell, cell))
                for other in grid.snake_partners(cell):
                    seen.append((cell, other) if cell <= other else (other, cell))
        assert len(seen) == len(set(seen)), "a cell pair was scheduled twice"
        assert set(seen) == _expected_pairs(grid)

    def test_bottom_row_is_paper_odd(self):
        grid = UniformGrid(Rect(0, 0, 5, 4), 1.0)
        # Paper-odd rows reach up; the bottom row must therefore include
        # upper neighbours among its partners.
        partners = set(grid.snake_partners((2, 0)))
        assert (2, 1) in partners
        # Paper-even rows only reach left.
        partners_even = set(grid.snake_partners((2, 1)))
        assert partners_even == {(1, 1)}

    def test_odd_row_excludes_right_neighbour(self):
        grid = UniformGrid(Rect(0, 0, 5, 4), 1.0)
        assert (3, 0) not in set(grid.snake_partners((2, 0)))
