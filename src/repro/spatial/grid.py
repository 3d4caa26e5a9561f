"""Dynamic uniform grid used by PPJ-C, PPJ-B and the S-PPJ-* family.

The grid is constructed at query time with square cells whose extent in
each dimension equals the spatial threshold ``eps_loc`` (Section 4.1.1 of
the paper).  Consequently, any two objects within ``eps_loc`` of each other
fall either in the same cell or in two cells that are 8-neighbours; join
algorithms never have to look further than one cell away.

Cells are identified both by their integer ``(col, row)`` coordinates and
by a scalar id assigned row-wise from bottom to top (Figure 2 of the
paper):  ``cell_id = row * ncols + col``.  The grid itself is purely a
geometric object — storage of objects per cell lives in the index classes
built on top of it (:mod:`repro.stindex.stgrid`).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from .geometry import Rect

__all__ = ["UniformGrid", "CellCoord"]

#: A cell address: ``(col, row)`` with the origin at the bottom-left cell.
CellCoord = Tuple[int, int]

#: Offsets of the 8 neighbours of a cell, in (dcol, drow) form.
_NEIGHBOUR_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
)

#: Offsets of the 4 neighbours whose row-wise id is lower than the cell's
#: own id: left, lower-left, lower, lower-right.  PPJ-C joins each cell
#: with itself plus these cells only, so every adjacent cell pair is
#: examined exactly once (Section 4.1.1).
_LOWER_ID_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
)

#: Offsets used by PPJ-B for cells on *odd* rows (1-based row ids, so the
#: bottom row is odd): every neighbour except the one directly right.
_SNAKE_ODD_OFFSETS: Tuple[Tuple[int, int], ...] = (
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
)

#: Offsets used by PPJ-B for cells on *even* rows: only the left cell.
_SNAKE_EVEN_OFFSETS: Tuple[Tuple[int, int], ...] = ((-1, 0),)


class UniformGrid:
    """A uniform grid with square cells of side ``cell_size`` over ``bounds``.

    Points exactly on the upper/right boundary are clamped into the last
    column/row so every point of the dataset maps to a valid cell.
    """

    def __init__(self, bounds: Rect, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.bounds = bounds
        self.cell_size = float(cell_size)
        self.ncols = max(1, math.ceil(bounds.width / cell_size))
        self.nrows = max(1, math.ceil(bounds.height / cell_size))

    # -- addressing -----------------------------------------------------------

    def cell_of(self, x: float, y: float) -> CellCoord:
        """The ``(col, row)`` cell containing point ``(x, y)``.

        Points outside ``bounds`` are clamped to the border cells; this
        keeps the grid total even if a caller passes a slightly stale
        bounding box.
        """
        col = int((x - self.bounds.min_x) // self.cell_size)
        row = int((y - self.bounds.min_y) // self.cell_size)
        if col < 0:
            col = 0
        elif col >= self.ncols:
            col = self.ncols - 1
        if row < 0:
            row = 0
        elif row >= self.nrows:
            row = self.nrows - 1
        return (col, row)

    def cells_of(self, xs, ys) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`cell_of`: int64 ``(cols, rows)`` arrays.

        The same float floor division and the same clamping, so every
        point lands in exactly the cell :meth:`cell_of` gives it —
        points on a cell edge go to the upper cell, points on the
        upper/right border to the last column/row.
        """
        cols = np.floor_divide(np.asarray(xs) - self.bounds.min_x, self.cell_size)
        rows = np.floor_divide(np.asarray(ys) - self.bounds.min_y, self.cell_size)
        return (
            np.clip(cols, 0, self.ncols - 1).astype(np.int64),
            np.clip(rows, 0, self.nrows - 1).astype(np.int64),
        )

    def cell_id(self, cell: CellCoord) -> int:
        """Row-wise scalar id of ``cell`` (bottom row first, Figure 2)."""
        col, row = cell
        return row * self.ncols + col

    def cell_coord(self, cell_id: int) -> CellCoord:
        """Inverse of :meth:`cell_id`."""
        return (cell_id % self.ncols, cell_id // self.ncols)

    def cell_rect(self, cell: CellCoord) -> Rect:
        """The spatial extent of ``cell``."""
        col, row = cell
        x0 = self.bounds.min_x + col * self.cell_size
        y0 = self.bounds.min_y + row * self.cell_size
        return Rect(x0, y0, x0 + self.cell_size, y0 + self.cell_size)

    def in_range(self, cell: CellCoord) -> bool:
        """True if ``cell`` is a valid address for this grid."""
        col, row = cell
        return 0 <= col < self.ncols and 0 <= row < self.nrows

    # -- neighbourhoods ---------------------------------------------------------

    def _offsets(
        self, cell: CellCoord, offsets: Tuple[Tuple[int, int], ...]
    ) -> Iterator[CellCoord]:
        col, row = cell
        for dc, dr in offsets:
            c, r = col + dc, row + dr
            if 0 <= c < self.ncols and 0 <= r < self.nrows:
                yield (c, r)

    def neighbours(self, cell: CellCoord) -> Iterator[CellCoord]:
        """All in-range 8-neighbours of ``cell`` (excluding itself)."""
        return self._offsets(cell, _NEIGHBOUR_OFFSETS)

    def relevant_cells(self, cell: CellCoord) -> List[CellCoord]:
        """``cell`` plus its in-range 8-neighbours.

        This is ``G.getRelevantCells`` from Algorithm 2: the only cells
        that can contain objects within ``eps_loc`` of objects in ``cell``.
        """
        out = [cell]
        out.extend(self.neighbours(cell))
        return out

    def lower_id_neighbours(self, cell: CellCoord) -> Iterator[CellCoord]:
        """In-range neighbours with a lower row-wise id (PPJ-C pairing)."""
        return self._offsets(cell, _LOWER_ID_OFFSETS)

    def snake_partners(self, cell: CellCoord) -> Iterator[CellCoord]:
        """Neighbour cells PPJ-B joins ``cell`` with (excluding itself).

        Rows carry 1-based ids in the paper, so the bottom row (``row == 0``
        here) is *odd*.  Odd-row cells join with every neighbour except the
        cell directly to their right; even-row cells join only with the
        cell directly to their left (Section 4.1.2, Figure 2b).  Together
        with a self-join in every cell this covers each adjacent cell pair
        exactly once.
        """
        _, row = cell
        if row % 2 == 0:  # paper-odd row
            return self._offsets(cell, _SNAKE_ODD_OFFSETS)
        return self._offsets(cell, _SNAKE_EVEN_OFFSETS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniformGrid({self.ncols}x{self.nrows} cells of "
            f"{self.cell_size} over {self.bounds})"
        )
