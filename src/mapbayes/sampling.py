"""Regional box sampling: tiling, index-based pools, and quantile draws.

A study region is tiled into equal square boxes, held as one `BoxTable`
of columns; each box gets a change-to-exclusion index and the boxes are
pooled by index thresholds (every pool keeps boxes at or above its
threshold, so the pools nest, and each is a sub-table). A stratified draw
then takes one box per near-equal-size quantile bin of the
percent-urban-change ordering, deterministically per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .raster import BinaryGrid, check_aligned, check_count, check_nonnegative
from .tableio import ColumnTable

#: Pool label -> minimum change-to-exclusion index for membership.
POOL_THRESHOLDS: Mapping[str, float] = {"A": 0.0, "B": 0.5, "C": 1.0}

DEFAULT_QUANTILES = 30


@dataclass(frozen=True, eq=False)
class BoxTable(ColumnTable):
    """The boxes of a tiled region as read-only columns, one row per box.

    `row0` and `col0` are a box's first row and column, the two `pct_`
    columns its shares of change and of exclusionary cells, and `index` the
    change-to-exclusion index of those shares (`change_exclusion_index`,
    which refuses a share that is negative or not finite).
    """

    _name = "box table"
    _dtypes = {"box_id": np.int64, "row0": np.int64, "col0": np.int64,
               "pct_urban_change": np.float64, "pct_exclusionary": np.float64}

    box_id: NDArray[np.int64]
    row0: NDArray[np.int64]
    col0: NDArray[np.int64]
    pct_urban_change: NDArray[np.float64]
    pct_exclusionary: NDArray[np.float64]
    index: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        self._set("index", change_exclusion_index(self.pct_urban_change, self.pct_exclusionary))


def change_exclusion_index(pct_urban_change: ArrayLike, pct_exclusionary: ArrayLike) -> NDArray[np.float64]:
    """Ratio of percent urban change to percent exclusionary land, per box.

    Takes two shares or two arrays of them, and returns an array of their
    broadcast shape. Degenerate denominators: +inf where there is change but
    no exclusionary land; 0.0 where the box has neither.

    Raises:
        ValueError: A share that `check_nonnegative` refuses (negative, NaN,
            infinite, a bool or not a number), the first one by name.
    """
    change = _shares("pct_urban_change", pct_urban_change)
    excl = _shares("pct_exclusionary", pct_exclusionary)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(excl > 0.0, change / excl, np.where(change > 0.0, np.inf, 0.0))


def _shares(name: str, values: ArrayLike) -> NDArray[np.float64]:
    """`values` as floats when each is a share that `check_nonnegative` takes; else the first refusal."""
    col = np.asarray(values)
    if col.dtype.kind not in "iuf" or not ((col >= 0) & (col < np.inf)).all():
        for x in col.ravel().tolist():
            check_nonnegative(name, x)
    return col.astype(np.float64, copy=False)


def tile_region(urban_change: BinaryGrid, exclusion: BinaryGrid, box_cells: int) -> BoxTable:
    """Tile the region into square boxes of `box_cells` cells each.

    Args:
        urban_change: Binary grid of observed urban change (1 = change).
        exclusion: Binary grid of exclusionary land (1 = exclusionary),
            on the same cells.
        box_cells: Cells per box; must be a perfect square. Partial boxes at
            the right/bottom edges are dropped.

    Returns:
        The boxes in row-major order with sequential ids from 0, each with
        its percent urban change, percent exclusionary and change-to-exclusion
        index, all over the box's full cell count.

    Raises:
        ValueError: The grids do not line up (see `check_aligned`),
            box_cells not a perfect square, or box side longer than either
            region dimension.
    """
    check_aligned(urban_change, "change", exclusion, "exclusion")
    side = math.isqrt(check_count("box_cells", box_cells, 1))
    if side * side != box_cells:
        raise ValueError(f"box_cells must be a perfect square, got {box_cells}")
    rows, cols = urban_change.shape
    if side > rows or side > cols:
        raise ValueError(f"box side {side} exceeds region shape {rows}x{cols}")

    n_r, n_c = rows // side, cols // side

    def pct(grid: BinaryGrid) -> NDArray[np.float64]:
        # The whole boxes, one (side x side) block each, counted at once.
        ones = grid.values[: n_r * side, : n_c * side] == 1
        return ones.reshape(n_r, side, n_c, side).sum(axis=(1, 3)).ravel() / box_cells

    box_id = np.arange(n_r * n_c)
    return BoxTable(box_id, box_id // n_c * side, box_id % n_c * side, pct(urban_change), pct(exclusion))


def classify_pools(boxes: BoxTable) -> dict[str, BoxTable]:
    """Assign boxes to the nested pools by index threshold (inclusive).

    Pool A keeps every box (index >= 0), B keeps index >= 1/2, C keeps
    index >= 1, so C is a subset of B is a subset of A. Each pool is a
    sub-table in the table's order.
    """
    return {label: boxes[boxes.index >= threshold] for label, threshold in POOL_THRESHOLDS.items()}


def quantile_bin_sizes(pool_size: int, n_quantiles: int) -> list[int]:
    """Contiguous bin sizes: near-equal, differing by at most one, larger first."""
    if check_count("pool_size", pool_size) < check_count("n_quantiles", n_quantiles, 1):
        raise ValueError(f"pool of {pool_size} boxes cannot fill {n_quantiles} quantile bins")
    base, extra = divmod(pool_size, n_quantiles)
    return [base + 1] * extra + [base] * (n_quantiles - extra)


def draw_quantile_sample(
    pool: BoxTable,
    n_quantiles: int = DEFAULT_QUANTILES,
    seed: int = 0,
    label: str = "",
) -> BoxTable:
    """Draw one box per quantile bin of the percent-urban-change ordering.

    The pool is sorted ascending by pct_urban_change (ties by box_id) and
    split into `n_quantiles` contiguous bins whose sizes differ by at most
    one (larger bins first). One box is drawn uniformly from each bin with
    a private generator derived from (seed, label), so distinct pools use
    distinct substreams and every draw is reproducible.

    Returns:
        The drawn boxes as a sub-table in bin order (ascending percent urban
        change).
    """
    sizes = quantile_bin_sizes(len(pool), n_quantiles)
    ordered = np.lexsort((pool.box_id, pool.pct_urban_change))
    rng = np.random.default_rng(np.random.SeedSequence([check_count("seed", seed), *label.encode("utf-8")]))
    picks = []
    start = 0
    for size in sizes:
        picks.append(start + int(rng.integers(size)))
        start += size
    return pool[ordered[picks]]
