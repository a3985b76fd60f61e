"""Tests for the synthetic raster pairs and planted-offset run tables."""

import numpy as np
import pytest

from mapbayes import (
    EXCLUDED,
    RunRecord,
    SynthConfig,
    build_confusion,
    generate_pair,
    generate_run_table,
    threshold_scores,
)
from mapbayes.synth import _rng


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="rows must be a positive integer, got 0"):
            SynthConfig(rows=0)
        with pytest.raises(ValueError, match="seed"):
            SynthConfig(seed=-1)
        with pytest.raises(ValueError, match="exceed 1"):
            SynthConfig(change_fraction=0.7, exclusion_fraction=0.4)
        with pytest.raises(ValueError, match="score_noise"):
            SynthConfig(score_noise=-0.1)
        with pytest.raises(ValueError, match="planted_offset"):
            SynthConfig(planted_offset=1.5)

    @pytest.mark.parametrize("field", ["change_fraction", "exclusion_fraction", "score_noise"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_a_negative_or_non_finite_knob_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative and finite, got {value}$"):
            SynthConfig(**{field: value})


class TestGeneratePair:
    def test_exact_cell_budgets(self):
        cfg = SynthConfig(rows=20, cols=30, seed=3, change_fraction=0.15, exclusion_fraction=0.2)
        obs, scores = generate_pair(cfg)
        n = 20 * 30
        assert obs.shape == (20, 30)
        assert obs.n_excluded == int(0.2 * n)
        assert obs.n_ones == int(0.15 * n)
        assert obs.n_zeros == n - obs.n_excluded - obs.n_ones

    def test_deterministic_per_seed(self):
        cfg = SynthConfig(seed=11)
        a_obs, a_scores = generate_pair(cfg)
        b_obs, b_scores = generate_pair(cfg)
        assert np.array_equal(a_obs.values, b_obs.values)
        assert np.array_equal(a_scores.values, b_scores.values)

    def test_different_seeds_differ(self):
        a_obs, _ = generate_pair(SynthConfig(seed=1))
        b_obs, _ = generate_pair(SynthConfig(seed=2))
        assert not np.array_equal(a_obs.values, b_obs.values)

    def test_scores_follow_classes_and_masks_align(self):
        cfg = SynthConfig(seed=5)
        obs, scores = generate_pair(cfg)
        assert np.array_equal(scores.excluded, obs.values == EXCLUDED)
        assert (scores.values[scores.excluded] == 0.0).all()
        live = ~scores.excluded
        assert scores.values[live].min() >= 0.0
        assert scores.values[live].max() <= 1.0

    def test_zero_noise_scores_reproduce_observation_exactly(self):
        cfg = SynthConfig(seed=7, score_noise=0.0)
        obs, scores = generate_pair(cfg)
        sim = threshold_scores(scores, quantity=obs.n_ones)
        assert np.array_equal(sim.values, obs.values)
        m = build_confusion(sim, obs)
        assert m.fp == 0 and m.fn == 0

    def test_noisy_scores_still_classify_well(self):
        cfg = SynthConfig(seed=9, score_noise=0.2)
        obs, scores = generate_pair(cfg)
        sim = threshold_scores(scores, quantity=obs.n_ones)
        m = build_confusion(sim, obs)
        # With sigma = 0.2 the classes sit 5 sigma apart; agreement is high.
        assert (m.tp + m.tn) / m.grand_total > 0.9


class TestGenerateRunTable:
    def test_table_dimensions_and_groups(self):
        cfg = SynthConfig(seed=1)
        runs = generate_run_table(cfg, n_boxes=30, cycles=tuple(range(1, 13)))
        assert len(runs) == 360
        by_group = {g: {r.box_id for r in runs if r.group == g} for g in "ABC"}
        assert sorted(by_group["A"]) == list(range(10))
        assert sorted(by_group["B"]) == list(range(10, 20))
        assert sorted(by_group["C"]) == list(range(20, 30))
        assert {r.cycle for r in runs} == set(range(1, 13))

    def test_predictive_values_are_complementary(self):
        runs = generate_run_table(SynthConfig(seed=2, planted_offset=0.25))
        for r in runs:
            assert r.ppv + r.npv == pytest.approx(1.0, abs=1e-12)

    def test_zero_noise_plants_offset_exactly(self):
        runs = generate_run_table(SynthConfig(seed=0, score_noise=0.0, planted_offset=0.25))
        for r in runs:
            assert r.ppv - r.npv == pytest.approx(0.25, abs=1e-12)

    def test_mean_difference_tracks_planted_offset(self):
        # The per-box offsets are balanced 1:2 so the table-wide mean lands
        # on the planted value up to the cycle noise.
        for planted in (0.0, 0.25, 0.5):
            runs = generate_run_table(SynthConfig(seed=4, planted_offset=planted))
            diffs = [r.ppv - r.npv for r in runs]
            assert np.mean(diffs) == pytest.approx(planted, abs=0.03)

    def test_difference_stays_clamped(self):
        runs = generate_run_table(SynthConfig(seed=6, planted_offset=1.0, score_noise=0.0))
        for r in runs:
            assert abs(r.ppv - r.npv) <= 0.98 + 1e-12

    def test_deterministic_per_seed(self):
        a = generate_run_table(SynthConfig(seed=13, planted_offset=0.5))
        b = generate_run_table(SynthConfig(seed=13, planted_offset=0.5))
        assert a == b

    @pytest.mark.parametrize(
        "cfg, n_boxes, cycles",
        [
            (SynthConfig(seed=0), 30, tuple(range(1, 13))),
            (SynthConfig(seed=3, planted_offset=0.5), 1, (4,)),
            (SynthConfig(seed=5, score_noise=0.9, planted_offset=1.0), 2, (9, 2, 9, 5)),
            (SynthConfig(seed=7, score_noise=0.0, planted_offset=0.25), 7, (3, 1, 3, 2)),
        ],
    )
    def test_columns_give_the_records_of_the_per_run_loop(self, cfg, n_boxes, cycles):
        # The values are drawn as whole columns; the per-run loop they replace is the reference.
        got = generate_run_table(cfg, n_boxes=n_boxes, cycles=cycles)
        expected = per_run_loop(cfg, n_boxes, cycles)
        assert got == expected
        fields = ("box_id", "group", "cycle", "ppv", "npv")
        assert [[type(getattr(r, f)) for f in fields] for r in got] == [[int, str, int, float, float]] * len(got)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_boxes"):
            generate_run_table(SynthConfig(), n_boxes=0)
        with pytest.raises(ValueError, match="cycle"):
            generate_run_table(SynthConfig(), cycles=())


def per_run_loop(cfg, n_boxes, cycles):
    """`generate_run_table` as one scalar draw per run: the reference for its column form."""
    rng = _rng(cfg, "runs")
    spread = min(0.5, cfg.score_noise * 5.0 / 3.0)
    jitter = cfg.score_noise / 3.0
    ordered_cycles = sorted(set(int(c) for c in cycles))
    group_bounds = np.linspace(0, n_boxes, 4).astype(int)
    records = []
    for i in range(n_boxes):
        box_offset = -2.0 * spread if i % 3 == 0 else spread
        group = "ABC"[int(np.searchsorted(group_bounds[1:3], i, side="right"))]
        for rank, cycle in enumerate(ordered_cycles, start=1):
            eps = rng.normal(0.0, jitter * rank**-0.5) if jitter > 0 else 0.0
            diff = float(np.clip(cfg.planted_offset + box_offset + eps, -0.98, 0.98))
            records.append(RunRecord(box_id=i, group=group, cycle=cycle, ppv=0.5 + diff / 2.0, npv=0.5 - diff / 2.0))
    return records
