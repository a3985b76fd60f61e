"""Tests for region tiling, index pools, and stratified quantile draws."""

import math

import numpy as np
import pytest

from mapbayes import (
    POOL_THRESHOLDS,
    BinaryGrid,
    SampleBox,
    change_exclusion_index,
    classify_pools,
    draw_quantile_sample,
    quantile_bin_sizes,
    tile_region,
)

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


def synthetic_box(box_id, pct_change, pct_excl):
    return SampleBox(
        box_id=box_id,
        row0=0,
        col0=0,
        side=2,
        pct_urban_change=pct_change,
        pct_exclusionary=pct_excl,
        index=change_exclusion_index(pct_change, pct_excl),
    )


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


class TestTileRegion:
    def test_hand_counted_fixture(self):
        boxes = tile_region(BinaryGrid(CHANGE), BinaryGrid(EXCL), box_cells=4)
        assert [b.box_id for b in boxes] == [0, 1, 2, 3, 4, 5]
        assert [(b.row0, b.col0) for b in boxes] == [
            (0, 0), (0, 2), (0, 4), (2, 0), (2, 2), (2, 4),
        ]
        assert [b.pct_urban_change for b in boxes] == [0.5, 0.0, 0.25, 0.25, 0.0, 0.75]
        assert [b.pct_exclusionary for b in boxes] == [0.25, 0.0, 0.0, 0.5, 1.0, 0.75]
        assert boxes[0].index == 2.0
        assert boxes[1].index == 0.0
        assert math.isinf(boxes[2].index)
        assert boxes[3].index == 0.5
        assert boxes[4].index == 0.0
        assert boxes[5].index == 1.0

    def test_ranges_cover_the_box(self):
        boxes = tile_region(BinaryGrid(CHANGE), BinaryGrid(EXCL), box_cells=4)
        b = boxes[5]
        assert b.row_range == (2, 4)
        assert b.col_range == (4, 6)

    def test_partial_edge_boxes_are_dropped(self):
        change = np.zeros((5, 7), dtype=np.int8)
        change[4, 0] = 1  # lies in the clipped bottom row
        change[0, 6] = 1  # lies in the clipped right column
        excl = np.zeros((5, 7), dtype=np.int8)
        boxes = tile_region(BinaryGrid(change), BinaryGrid(excl), box_cells=4)
        assert len(boxes) == 6
        assert all(b.pct_urban_change == 0.0 for b in boxes)

    def test_matches_slicing_oracle_on_random_region(self):
        rng = np.random.default_rng(41)
        change = (rng.uniform(size=(30, 30)) < 0.3).astype(np.int8)
        excl = (rng.uniform(size=(30, 30)) < 0.2).astype(np.int8)
        boxes = tile_region(BinaryGrid(change), BinaryGrid(excl), box_cells=25)
        assert len(boxes) == 36
        for b in boxes:
            r0, r1 = b.row_range
            c0, c1 = b.col_range
            assert b.pct_urban_change == change[r0:r1, c0:c1].sum() / 25
            assert b.pct_exclusionary == excl[r0:r1, c0:c1].sum() / 25

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
        assert [b.box_id for b in pools["A"]] == [0, 1, 2, 3, 4, 5]
        assert [b.box_id for b in pools["B"]] == [0, 2, 3, 5]
        assert [b.box_id for b in pools["C"]] == [0, 2, 5]

    def test_thresholds_are_inclusive(self):
        # Index exactly at a pool's threshold stays in the pool.
        boxes = [synthetic_box(0, 0.25, 0.5), synthetic_box(1, 0.25, 0.25)]
        pools = classify_pools(boxes)
        assert [b.box_id for b in pools["B"]] == [0, 1]
        assert [b.box_id for b in pools["C"]] == [1]

    def test_pools_nest_on_random_regions(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            change = (rng.uniform(size=(20, 20)) < rng.uniform(0.1, 0.5)).astype(np.int8)
            excl = (rng.uniform(size=(20, 20)) < rng.uniform(0.1, 0.5)).astype(np.int8)
            pools = classify_pools(tile_region(BinaryGrid(change), BinaryGrid(excl), 16))
            ids = {label: {b.box_id for b in pool} for label, pool in pools.items()}
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
        return [synthetic_box(i, i / 100.0, 0.5) for i in range(n)]

    def test_draw_is_deterministic_per_seed_and_label(self):
        pool = self.make_pool(61)
        a = draw_quantile_sample(pool, 30, seed=9, label="B")
        b = draw_quantile_sample(pool, 30, seed=9, label="B")
        assert [x.box_id for x in a] == [x.box_id for x in b]

    def test_different_labels_use_different_substreams(self):
        pool = self.make_pool(200)
        a = draw_quantile_sample(pool, 30, seed=9, label="A")
        b = draw_quantile_sample(pool, 30, seed=9, label="B")
        assert [x.box_id for x in a] != [x.box_id for x in b]

    def test_different_seeds_differ(self):
        pool = self.make_pool(200)
        a = draw_quantile_sample(pool, 30, seed=1, label="A")
        b = draw_quantile_sample(pool, 30, seed=2, label="A")
        assert [x.box_id for x in a] != [x.box_id for x in b]

    def test_one_box_per_quantile_bin(self):
        pool = self.make_pool(61)
        drawn = draw_quantile_sample(pool, 30, seed=9, label="B")
        assert len(drawn) == 30
        ordered = sorted(pool, key=lambda b: (b.pct_urban_change, b.box_id))
        start = 0
        for size, box in zip(quantile_bin_sizes(61, 30), drawn):
            bin_ids = {b.box_id for b in ordered[start : start + size]}
            assert box.box_id in bin_ids
            start += size

    def test_draw_order_follows_change_ordering(self):
        pool = self.make_pool(90)
        drawn = draw_quantile_sample(pool, 30, seed=3, label="C")
        pcts = [b.pct_urban_change for b in drawn]
        assert pcts == sorted(pcts)

    def test_pool_equal_to_bins_returns_everything(self):
        pool = self.make_pool(30)
        drawn = draw_quantile_sample(pool, 30, seed=0, label="A")
        assert [b.box_id for b in drawn] == list(range(30))

    def test_shuffled_pool_gives_same_draw(self):
        # Drawing sorts internally, so presentation order must not matter.
        pool = self.make_pool(61)
        rng = np.random.default_rng(55)
        shuffled = list(pool)
        rng.shuffle(shuffled)
        a = draw_quantile_sample(pool, 30, seed=9, label="B")
        b = draw_quantile_sample(shuffled, 30, seed=9, label="B")
        assert [x.box_id for x in a] == [x.box_id for x in b]

    def test_ties_order_by_box_id(self):
        pool = [synthetic_box(i, 0.3, 0.5) for i in range(6)]
        drawn = draw_quantile_sample(pool, 6, seed=0, label="A")
        assert [b.box_id for b in drawn] == [0, 1, 2, 3, 4, 5]

    def test_invalid_arguments(self):
        pool = self.make_pool(10)
        with pytest.raises(ValueError, match="n_quantiles"):
            draw_quantile_sample(pool, 0)
        with pytest.raises(ValueError, match="seed"):
            draw_quantile_sample(pool, 5, seed=-1)
