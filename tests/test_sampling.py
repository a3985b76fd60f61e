"""Tests for region tiling, index pools, and stratified quantile draws.

The box table is pinned to the per-box code it replaced: `reference_sample`
keeps that code, one object per box, and `sample`'s CSV must equal the rows
it gives over generated regions.
"""

import contextlib
import csv
import io
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapbayes import (
    POOL_THRESHOLDS,
    BinaryGrid,
    BoxTable,
    change_exclusion_index,
    classify_pools,
    draw_quantile_sample,
    quantile_bin_sizes,
    tile_region,
    write_grid,
)
from mapbayes.cli import main
from mapbayes.raster import format_floats

# 4x6 region, four-cell boxes: six boxes with hand-counted compositions.
CHANGE = np.array(
    [
        [1, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 0],
    ],
    dtype=np.int8,
)
EXCL = np.array(
    [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 1],
        [1, 0, 1, 1, 0, 1],
    ],
    dtype=np.int8,
)


def synthetic_table(pct_change, pct_excl):
    """Boxes 0 to n-1, all at the origin, with the given shares."""
    n = len(pct_change)
    return BoxTable(np.arange(n), np.zeros(n), np.zeros(n), pct_change, pct_excl)


class TestChangeExclusionIndex:
    def test_plain_ratio(self):
        assert change_exclusion_index(0.25, 0.5) == 0.5
        assert change_exclusion_index(0.5, 0.25) == 2.0

    def test_change_without_exclusion_is_infinite(self):
        assert math.isinf(change_exclusion_index(0.1, 0.0))

    def test_empty_box_is_zero(self):
        assert change_exclusion_index(0.0, 0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            change_exclusion_index(-0.1, 0.5)

    def test_whole_columns_at_once(self):
        index = change_exclusion_index(np.array([0.25, 0.5, 0.1, 0.0]), np.array([0.5, 0.25, 0.0, 0.0]))
        assert index.tolist() == [0.5, 2.0, math.inf, 0.0]

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_the_first_refused_entry_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"^pct_exclusionary must be non-negative and finite, got {bad}$"):
            change_exclusion_index(np.array([0.1, 0.2, 0.3]), np.array([0.5, bad, -1.0]))

    def test_a_ratio_past_the_largest_float_is_inf_without_a_warning(self):
        # The suite turns warnings into errors: an overflow warning here fails the test.
        assert change_exclusion_index(1.0, 1e-309).tolist() == math.inf
        assert change_exclusion_index(np.array([2.0, 0.5]), np.array([5e-324, 0.25])).tolist() == [math.inf, 2.0]

    def test_a_bool_column_is_refused(self):
        with pytest.raises(ValueError, match=r"^pct_urban_change must be non-negative and finite, got True$"):
            change_exclusion_index(np.array([True, False]), np.array([0.5, 0.5]))


class TestBoxTable:
    def test_columns_are_read_only_copies(self):
        shares = np.array([0.25, 0.5])
        table = synthetic_table(shares, np.array([0.5, 0.0]))
        assert table.pct_urban_change is not shares and shares.flags.writeable
        assert not table.index.flags.writeable and table.index.tolist() == [0.5, math.inf]
        assert (table.box_id.dtype, table.pct_exclusionary.dtype) == (np.int64, np.float64)

    def test_a_mask_or_positions_select_a_sub_table(self):
        table = synthetic_table([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
        assert len(table) == 4
        assert table[table.index >= 1.0].box_id.tolist() == [2, 3]
        picked = table[np.array([3, 0])]
        assert picked.box_id.tolist() == [3, 0]
        assert picked.index.tolist() == [table.index[3], table.index[0]]

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="of one length"):
            BoxTable([0, 1], [0, 0], [0, 0], [0.1, 0.2], [0.3])

    def test_a_refused_share_is_named(self):
        with pytest.raises(ValueError, match="^pct_urban_change must be non-negative and finite, got -0.1$"):
            synthetic_table([0.2, -0.1], [0.5, 0.5])


class TestTileRegion:
    def test_hand_counted_fixture(self):
        boxes = tile_region(BinaryGrid(CHANGE), BinaryGrid(EXCL), box_cells=4)
        assert boxes.box_id.tolist() == [0, 1, 2, 3, 4, 5]
        assert list(zip(boxes.row0.tolist(), boxes.col0.tolist())) == [
            (0, 0), (0, 2), (0, 4), (2, 0), (2, 2), (2, 4),
        ]
        assert boxes.pct_urban_change.tolist() == [0.5, 0.0, 0.25, 0.25, 0.0, 0.75]
        assert boxes.pct_exclusionary.tolist() == [0.25, 0.0, 0.0, 0.5, 1.0, 0.75]
        assert boxes.index.tolist() == [2.0, 0.0, math.inf, 0.5, 0.0, 1.0]

    def test_ranges_cover_the_box(self):
        boxes = tile_region(BinaryGrid(CHANGE), BinaryGrid(EXCL), box_cells=4)
        r0, c0 = boxes.row0[5], boxes.col0[5]
        assert (r0, c0) == (2, 4)
        assert CHANGE[r0 : r0 + 2, c0 : c0 + 2].sum() / 4 == boxes.pct_urban_change[5]
        assert EXCL[r0 : r0 + 2, c0 : c0 + 2].sum() / 4 == boxes.pct_exclusionary[5]

    def test_partial_edge_boxes_are_dropped(self):
        change = np.zeros((5, 7), dtype=np.int8)
        change[4, 0] = 1  # lies in the clipped bottom row
        change[0, 6] = 1  # lies in the clipped right column
        excl = np.zeros((5, 7), dtype=np.int8)
        boxes = tile_region(BinaryGrid(change), BinaryGrid(excl), box_cells=4)
        assert len(boxes) == 6
        assert boxes.pct_urban_change.tolist() == [0.0] * 6

    def test_matches_slicing_oracle_on_random_region(self):
        rng = np.random.default_rng(41)
        change = (rng.uniform(size=(30, 30)) < 0.3).astype(np.int8)
        excl = (rng.uniform(size=(30, 30)) < 0.2).astype(np.int8)
        boxes = tile_region(BinaryGrid(change), BinaryGrid(excl), box_cells=25)
        assert len(boxes) == 36
        for r0, c0, pct_change, pct_excl in zip(
            boxes.row0, boxes.col0, boxes.pct_urban_change, boxes.pct_exclusionary
        ):
            assert pct_change == change[r0 : r0 + 5, c0 : c0 + 5].sum() / 25
            assert pct_excl == excl[r0 : r0 + 5, c0 : c0 + 5].sum() / 25

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            tile_region(
                BinaryGrid(np.zeros((4, 4), dtype=np.int8)),
                BinaryGrid(np.zeros((4, 6), dtype=np.int8)),
                box_cells=4,
            )

    def test_misaligned_exclusion_is_named(self):
        grid = np.zeros((4, 4), dtype=np.int8)
        with pytest.raises(ValueError, match=r"^change origin_x 0.0 != exclusion origin_x 120.0: "):
            tile_region(BinaryGrid(grid), BinaryGrid(grid, origin_x=120.0), box_cells=4)

    def test_box_cells_must_be_square(self):
        g = BinaryGrid(np.zeros((10, 10), dtype=np.int8))
        with pytest.raises(ValueError, match="perfect square"):
            tile_region(g, g, box_cells=8)

    def test_box_larger_than_region(self):
        g = BinaryGrid(np.zeros((3, 10), dtype=np.int8))
        with pytest.raises(ValueError, match="exceeds"):
            tile_region(g, g, box_cells=16)


class TestClassifyPools:
    def test_hand_fixture_membership(self):
        boxes = tile_region(BinaryGrid(CHANGE), BinaryGrid(EXCL), box_cells=4)
        pools = classify_pools(boxes)
        assert pools["A"].box_id.tolist() == [0, 1, 2, 3, 4, 5]
        assert pools["B"].box_id.tolist() == [0, 2, 3, 5]
        assert pools["C"].box_id.tolist() == [0, 2, 5]

    def test_thresholds_are_inclusive(self):
        # Index exactly at a pool's threshold stays in the pool.
        pools = classify_pools(synthetic_table([0.25, 0.25], [0.5, 0.25]))
        assert pools["B"].box_id.tolist() == [0, 1]
        assert pools["C"].box_id.tolist() == [1]

    def test_pools_nest_on_random_regions(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            change = (rng.uniform(size=(20, 20)) < rng.uniform(0.1, 0.5)).astype(np.int8)
            excl = (rng.uniform(size=(20, 20)) < rng.uniform(0.1, 0.5)).astype(np.int8)
            pools = classify_pools(tile_region(BinaryGrid(change), BinaryGrid(excl), 16))
            ids = {label: set(pool.box_id.tolist()) for label, pool in pools.items()}
            assert ids["C"] <= ids["B"] <= ids["A"]

    def test_pool_labels_match_thresholds(self):
        assert set(POOL_THRESHOLDS) == {"A", "B", "C"}
        assert POOL_THRESHOLDS["A"] < POOL_THRESHOLDS["B"] < POOL_THRESHOLDS["C"]


class TestQuantileBinSizes:
    def test_reference_cases(self):
        assert quantile_bin_sizes(61, 30) == [3] + [2] * 29
        assert quantile_bin_sizes(60, 30) == [2] * 30
        assert quantile_bin_sizes(30, 30) == [1] * 30
        assert quantile_bin_sizes(7, 3) == [3, 2, 2]

    def test_sizes_partition_the_pool(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n_q = int(rng.integers(1, 40))
            pool = int(rng.integers(n_q, 500))
            sizes = quantile_bin_sizes(pool, n_q)
            assert len(sizes) == n_q
            assert sum(sizes) == pool
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)

    def test_pool_smaller_than_bins_rejected(self):
        with pytest.raises(ValueError, match="cannot fill"):
            quantile_bin_sizes(29, 30)


class TestDrawQuantileSample:
    def make_pool(self, n):
        return synthetic_table([i / 100.0 for i in range(n)], [0.5] * n)

    def test_draw_is_deterministic_per_seed_and_label(self):
        pool = self.make_pool(61)
        a = draw_quantile_sample(pool, 30, seed=9, label="B")
        b = draw_quantile_sample(pool, 30, seed=9, label="B")
        assert a.box_id.tolist() == b.box_id.tolist()

    def test_different_labels_use_different_substreams(self):
        pool = self.make_pool(200)
        a = draw_quantile_sample(pool, 30, seed=9, label="A")
        b = draw_quantile_sample(pool, 30, seed=9, label="B")
        assert a.box_id.tolist() != b.box_id.tolist()

    def test_different_seeds_differ(self):
        pool = self.make_pool(200)
        a = draw_quantile_sample(pool, 30, seed=1, label="A")
        b = draw_quantile_sample(pool, 30, seed=2, label="A")
        assert a.box_id.tolist() != b.box_id.tolist()

    def test_one_box_per_quantile_bin(self):
        pool = self.make_pool(61)
        drawn = draw_quantile_sample(pool, 30, seed=9, label="B")
        assert len(drawn) == 30
        ordered = [box_id for _, box_id in sorted(zip(pool.pct_urban_change.tolist(), pool.box_id.tolist()))]
        start = 0
        for size, box_id in zip(quantile_bin_sizes(61, 30), drawn.box_id.tolist()):
            assert box_id in ordered[start : start + size]
            start += size

    def test_draw_order_follows_change_ordering(self):
        pool = self.make_pool(90)
        drawn = draw_quantile_sample(pool, 30, seed=3, label="C")
        pcts = drawn.pct_urban_change.tolist()
        assert pcts == sorted(pcts)

    def test_pool_equal_to_bins_returns_everything(self):
        pool = self.make_pool(30)
        drawn = draw_quantile_sample(pool, 30, seed=0, label="A")
        assert drawn.box_id.tolist() == list(range(30))

    def test_shuffled_pool_gives_same_draw(self):
        # Drawing sorts internally, so presentation order must not matter.
        pool = self.make_pool(61)
        shuffled = pool[np.random.default_rng(55).permutation(len(pool))]
        a = draw_quantile_sample(pool, 30, seed=9, label="B")
        b = draw_quantile_sample(shuffled, 30, seed=9, label="B")
        assert a.box_id.tolist() == b.box_id.tolist()

    def test_ties_order_by_box_id(self):
        pool = synthetic_table([0.3] * 6, [0.5] * 6)[np.array([3, 5, 0, 4, 1, 2])]
        drawn = draw_quantile_sample(pool, 6, seed=0, label="A")
        assert drawn.box_id.tolist() == [0, 1, 2, 3, 4, 5]

    def test_invalid_arguments(self):
        pool = self.make_pool(10)
        with pytest.raises(ValueError, match="n_quantiles"):
            draw_quantile_sample(pool, 0)
        with pytest.raises(ValueError, match="seed"):
            draw_quantile_sample(pool, 5, seed=-1)


# ---------------------------------------------------------------------------
# The CLI's sample.csv against the per-box code the box table replaced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceBox:
    """One box as the per-box code held it."""

    box_id: int
    row0: int
    col0: int
    pct_urban_change: float
    pct_exclusionary: float
    index: float


def reference_index(pct_change, pct_excl):
    if pct_excl == 0.0:
        return math.inf if pct_change > 0.0 else 0.0
    return pct_change / pct_excl


def reference_sample(change, excl, side, n_quantiles, seed):
    """sample.csv's text as the per-box code wrote it: one object per box,
    list pools, a sort per pool and set membership per box."""
    n_r, n_c = change.shape[0] // side, change.shape[1] // side
    boxes = []
    for i in range(n_r * n_c):
        r0, c0 = i // n_c * side, i % n_c * side
        pct_change = int((change[r0 : r0 + side, c0 : c0 + side] == 1).sum()) / (side * side)
        pct_excl = int((excl[r0 : r0 + side, c0 : c0 + side] == 1).sum()) / (side * side)
        boxes.append(ReferenceBox(i, r0, c0, pct_change, pct_excl, reference_index(pct_change, pct_excl)))
    pools = {label: [b for b in boxes if b.index >= t] for label, t in POOL_THRESHOLDS.items()}
    selected = {}
    for label, pool in sorted(pools.items()):
        if len(pool) < n_quantiles:
            continue
        ordered = sorted(pool, key=lambda b: (b.pct_urban_change, b.box_id))
        rng = np.random.default_rng(np.random.SeedSequence([seed, *label.encode("utf-8")]))
        drawn, start = [], 0
        for size in quantile_bin_sizes(len(pool), n_quantiles):
            drawn.append(ordered[start + int(rng.integers(size))])
            start += size
        selected[label] = {b.box_id for b in drawn}
    members = {label: {b.box_id for b in pool} for label, pool in sorted(pools.items())}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("box_id", "row0", "col0", "pct_urban", "pct_excl", "index", "pools", "selected_for"))
    for b in boxes:
        in_pools = "".join(lbl for lbl in members if b.box_id in members[lbl])
        chosen = "".join(lbl for lbl in sorted(selected) if b.box_id in selected[lbl])
        stats = format_floats((b.pct_urban_change, b.pct_exclusionary, b.index))
        writer.writerow((b.box_id, b.row0, b.col0, *stats, in_pools, chosen))
    return out.getvalue()


@st.composite
def regions(draw):
    """A change and an exclusion layer whose whole boxes number 1 to 24, with
    clipped edge rows and columns, few distinct shares (so ties in the change
    share), now and then no exclusion at all (so infinite indexes), and a
    quantile count that can exceed a pool."""
    side = draw(st.integers(1, 3))
    n_r, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    shape = (n_r * side + draw(st.integers(0, side - 1)), n_c * side + draw(st.integers(0, side - 1)))
    cells = arrays(np.int8, shape, elements=st.sampled_from([0, 0, 1]))
    change = draw(cells)
    excl = draw(cells) if draw(st.booleans()) else np.zeros(shape, dtype=np.int8)
    n_quantiles = draw(st.integers(1, n_r * n_c + 2))
    return change, excl, side, n_quantiles, draw(st.integers(0, 5))


@settings(max_examples=150, deadline=None)
@given(regions())
def test_sample_csv_matches_the_per_box_reference(region):
    change, excl, side, n_quantiles, seed = region
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in ("change.asc", "excl.asc")]
        write_grid(BinaryGrid(change), paths[0])
        write_grid(BinaryGrid(excl), paths[1])
        argv = ["sample", "--change", paths[0], "--exclusion", paths[1], "--box-cells", str(side * side),
                "--n-quantiles", str(n_quantiles), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
    assert out.getvalue() == reference_sample(change, excl, side, n_quantiles, seed)
