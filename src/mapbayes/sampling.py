"""Regional box sampling: tiling, index-based pools, and quantile draws.

A study region is tiled into equal square boxes; each box gets a
change-to-exclusion index and the boxes are pooled by index thresholds
(every pool keeps boxes at or above its threshold, so the pools nest).
A stratified draw then takes one box per near-equal-size quantile bin of
the percent-urban-change ordering, deterministically per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .raster import BinaryGrid, check_aligned, check_count, check_nonnegative

#: Pool label -> minimum change-to-exclusion index for membership.
POOL_THRESHOLDS: Mapping[str, float] = {"A": 0.0, "B": 0.5, "C": 1.0}

DEFAULT_QUANTILES = 30


@dataclass(frozen=True)
class SampleBox:
    """One square tile of the region with its composition summary."""

    box_id: int
    row0: int
    col0: int
    side: int
    pct_urban_change: float
    pct_exclusionary: float
    index: float

    @property
    def row_range(self) -> tuple[int, int]:
        return self.row0, self.row0 + self.side

    @property
    def col_range(self) -> tuple[int, int]:
        return self.col0, self.col0 + self.side


def change_exclusion_index(pct_urban_change: float, pct_exclusionary: float) -> float:
    """Ratio of percent urban change to percent exclusionary land.

    Degenerate denominators: +inf when there is change but no exclusionary
    land; 0.0 when the box has neither.
    """
    check_nonnegative("pct_urban_change", pct_urban_change)
    check_nonnegative("pct_exclusionary", pct_exclusionary)
    if pct_exclusionary == 0.0:
        return math.inf if pct_urban_change > 0.0 else 0.0
    return pct_urban_change / pct_exclusionary


def tile_region(urban_change: BinaryGrid, exclusion: BinaryGrid, box_cells: int) -> list[SampleBox]:
    """Tile the region into square boxes of `box_cells` cells each.

    Args:
        urban_change: Binary grid of observed urban change (1 = change).
        exclusion: Binary grid of exclusionary land (1 = exclusionary),
            on the same cells.
        box_cells: Cells per box; must be a perfect square. Partial boxes at
            the right/bottom edges are dropped.

    Returns:
        Boxes in row-major order with sequential ids and per-box percent
        urban change, percent exclusionary, and the change-to-exclusion
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

    def pct(grid: BinaryGrid) -> list[float]:
        # The whole boxes, one (side x side) block each, counted at once.
        ones = grid.values[: n_r * side, : n_c * side] == 1
        return (ones.reshape(n_r, side, n_c, side).sum(axis=(1, 3)) / box_cells).ravel().tolist()

    return [
        SampleBox(i, i // n_c * side, i % n_c * side, side, change, excl, change_exclusion_index(change, excl))
        for i, (change, excl) in enumerate(zip(pct(urban_change), pct(exclusion)))
    ]


def classify_pools(boxes: Sequence[SampleBox]) -> dict[str, list[SampleBox]]:
    """Assign boxes to the nested pools by index threshold (inclusive).

    Pool A keeps every box (index >= 0), B keeps index >= 1/2, C keeps
    index >= 1, so C is a subset of B is a subset of A.
    """
    pools: dict[str, list[SampleBox]] = {}
    for label, threshold in POOL_THRESHOLDS.items():
        pools[label] = [b for b in boxes if b.index >= threshold]
    return pools


def quantile_bin_sizes(pool_size: int, n_quantiles: int) -> list[int]:
    """Contiguous bin sizes: near-equal, differing by at most one, larger first."""
    if check_count("pool_size", pool_size) < check_count("n_quantiles", n_quantiles, 1):
        raise ValueError(f"pool of {pool_size} boxes cannot fill {n_quantiles} quantile bins")
    base, extra = divmod(pool_size, n_quantiles)
    return [base + 1] * extra + [base] * (n_quantiles - extra)


def draw_quantile_sample(
    pool: Sequence[SampleBox],
    n_quantiles: int = DEFAULT_QUANTILES,
    seed: int = 0,
    label: str = "",
) -> list[SampleBox]:
    """Draw one box per quantile bin of the percent-urban-change ordering.

    The pool is sorted ascending by pct_urban_change (ties by box_id) and
    split into `n_quantiles` contiguous bins whose sizes differ by at most
    one (larger bins first). One box is drawn uniformly from each bin with
    a private generator derived from (seed, label), so distinct pools use
    distinct substreams and every draw is reproducible.

    Returns:
        The drawn boxes in bin order (ascending percent urban change).
    """
    sizes = quantile_bin_sizes(len(pool), n_quantiles)
    ordered = sorted(pool, key=lambda b: (b.pct_urban_change, b.box_id))
    rng = np.random.default_rng(np.random.SeedSequence([check_count("seed", seed), *label.encode("utf-8")]))
    drawn: list[SampleBox] = []
    start = 0
    for size in sizes:
        pick = start + int(rng.integers(size))
        drawn.append(ordered[pick])
        start += size
    return drawn
