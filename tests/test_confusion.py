"""Tests for confusion tallies and agreement rates.

The reference counter is an independent per-cell Python loop so the
vectorized tally is checked against first principles.
"""

import math
import re

import numpy as np
import pytest

from mapbayes import (
    AgreementRates,
    BinaryGrid,
    ConfusionMatrix,
    agreement_rates,
    build_confusion,
    perfect_agreement_gap,
)


def brute_force_counts(sim, obs):
    """Per-cell reference tally: skip any cell excluded on either side."""
    tp = fp = fn = tn = 0
    for s_row, o_row in zip(sim.tolist(), obs.tolist()):
        for s, o in zip(s_row, o_row):
            if s < 0 or o < 0:
                continue
            if s == 1 and o == 1:
                tp += 1
            elif s == 1 and o == 0:
                fp += 1
            elif s == 0 and o == 1:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def random_pair(rng, max_side=30):
    r = int(rng.integers(1, max_side + 1))
    c = int(rng.integers(1, max_side + 1))
    choices = np.array([-1, 0, 1], dtype=np.int8)
    sim = rng.choice(choices, size=(r, c), p=[0.2, 0.5, 0.3])
    obs = rng.choice(choices, size=(r, c), p=[0.15, 0.55, 0.3])
    return sim, obs


class TestConfusionMatrix:
    def test_marginals_and_total(self):
        m = ConfusionMatrix(tp=8, fp=1, fn=2, tn=9)
        assert m.predicted_positives == 9
        assert m.predicted_negatives == 11
        assert m.observed_positives == 10
        assert m.observed_negatives == 10
        assert m.grand_total == 20

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConfusionMatrix(tp=-1, fp=0, fn=0, tn=0)


class TestBuildConfusion:
    def test_hand_case(self):
        sim = BinaryGrid(np.array([[1, 1, 0], [0, -1, 1]], dtype=np.int8))
        obs = BinaryGrid(np.array([[1, 0, 1], [0, 1, -1]], dtype=np.int8))
        m = build_confusion(sim, obs)
        assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 200:
            sim, obs = random_pair(rng)
            expected = brute_force_counts(sim, obs)
            if sum(expected) == 0:
                continue  # the library treats a fully excluded overlap as an error
            m = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
            assert (m.tp, m.fp, m.fn, m.tn) == expected
            checked += 1

    def test_matches_brute_force_on_uniform_random_grids(self):
        # Uniform draws over {-1, 0, 1}, so small grids are often fully excluded.
        rng = np.random.default_rng(211)
        for _ in range(100):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            sim = rng.integers(-1, 2, size=shape).astype(np.int8)
            obs = rng.integers(-1, 2, size=shape).astype(np.int8)
            expected = brute_force_counts(sim, obs)
            if sum(expected) == 0:
                with pytest.raises(ValueError, match="no jointly non-excluded"):
                    build_confusion(BinaryGrid(sim), BinaryGrid(obs))
                continue
            m = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
            assert (m.tp, m.fp, m.fn, m.tn) == expected

    def test_counts_cover_live_cells_exactly(self):
        rng = np.random.default_rng(223)
        sim = rng.integers(-1, 2, size=(25, 25)).astype(np.int8)
        obs = rng.integers(-1, 2, size=(25, 25)).astype(np.int8)
        m = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
        assert m.grand_total == int(np.count_nonzero((sim >= 0) & (obs >= 0)))

    def test_exclusion_on_either_side_removes_cell(self):
        sim = BinaryGrid(np.array([[1, -1], [1, 1]], dtype=np.int8))
        obs = BinaryGrid(np.array([[-1, 1], [1, 1]], dtype=np.int8))
        m = build_confusion(sim, obs)
        assert m.grand_total == 2
        assert m.tp == 2

    def test_transposed_grids_give_same_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            sim, obs = random_pair(rng)
            if sum(brute_force_counts(sim, obs)) == 0:
                continue
            a = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
            b = build_confusion(BinaryGrid(sim.T.copy()), BinaryGrid(obs.T.copy()))
            assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_swapping_prediction_and_observation_transposes_matrix(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            sim, obs = random_pair(rng)
            if sum(brute_force_counts(sim, obs)) == 0:
                continue
            a = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
            b = build_confusion(BinaryGrid(obs), BinaryGrid(sim))
            assert (a.tp, a.tn) == (b.tp, b.tn)
            assert (a.fp, a.fn) == (b.fn, b.fp)

    def test_relabeling_classes_swaps_diagonals(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            sim, obs = random_pair(rng)
            if sum(brute_force_counts(sim, obs)) == 0:
                continue
            a = build_confusion(BinaryGrid(sim), BinaryGrid(obs))

            def flip(g):
                out = g.copy()
                out[g == 0] = 1
                out[g == 1] = 0
                return out

            b = build_confusion(BinaryGrid(flip(sim)), BinaryGrid(flip(obs)))
            assert (a.tp, a.fp, a.fn, a.tn) == (b.tn, b.fn, b.fp, b.tp)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            build_confusion(
                BinaryGrid(np.zeros((2, 2), dtype=np.int8)),
                BinaryGrid(np.zeros((2, 3), dtype=np.int8)),
            )

    def test_misaligned_pair_is_named(self):
        grid = np.zeros((2, 2), dtype=np.int8)
        with pytest.raises(ValueError, match=r"^prediction cell_size 90.0 != observation cell_size 30.0: "):
            build_confusion(BinaryGrid(grid, cell_size=90.0), BinaryGrid(grid))
        with pytest.raises(ValueError, match=r"^prediction origin_y 0.0 != observation origin_y 60.0: "):
            build_confusion(BinaryGrid(grid), BinaryGrid(grid, origin_y=60.0))

    def test_no_live_overlap_is_an_error(self):
        sim = BinaryGrid(np.array([[1, -1]], dtype=np.int8))
        obs = BinaryGrid(np.array([[-1, 1]], dtype=np.int8))
        with pytest.raises(ValueError, match="no jointly non-excluded"):
            build_confusion(sim, obs)


class TestAgreementRates:
    def test_hand_case(self):
        r = agreement_rates(ConfusionMatrix(tp=8, fp=1, fn=2, tn=9))
        assert r.sensitivity == 0.8
        assert r.tn_rate == 0.9
        assert r.prevalence_observed == 0.5
        assert r.pcm == 0.85

    def test_tn_rate_alias_under_standard_naming(self):
        r = agreement_rates(ConfusionMatrix(tp=8, fp=1, fn=2, tn=9))
        assert r.specificity_std == r.tn_rate

    def test_undefined_rates_are_none_not_zero(self):
        # No observed negatives: tn_rate is undefined.
        r = agreement_rates(ConfusionMatrix(tp=5, fp=0, fn=5, tn=0))
        assert r.tn_rate is None
        assert r.sensitivity == 0.5
        # No observed positives: sensitivity is undefined.
        r2 = agreement_rates(ConfusionMatrix(tp=0, fp=2, fn=0, tn=8))
        assert r2.sensitivity is None
        assert r2.tn_rate == 0.8

    def test_empty_matrix_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            agreement_rates(ConfusionMatrix(tp=0, fp=0, fn=0, tn=0))

    def test_rates_bounded_on_random_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fp + fn + tn == 0:
                continue
            r = agreement_rates(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            for rate in (r.sensitivity, r.tn_rate):
                assert rate is None or 0.0 <= rate <= 1.0
            assert 0.0 <= r.prevalence_observed <= 1.0
            assert 0.0 <= r.pcm <= 1.0

    @pytest.mark.parametrize("field", ["sensitivity", "tn_rate", "prevalence_observed", "pcm"])
    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan, math.inf])
    def test_a_rate_outside_the_unit_interval_is_refused(self, field, value):
        given = {"sensitivity": 0.8, "tn_rate": 0.9, "prevalence_observed": 0.5, "pcm": 0.85, field: value}
        with pytest.raises(ValueError, match=re.escape(f"{field} must be in [0, 1], got {value}")):
            AgreementRates(**given)

    def test_the_interval_ends_and_undefined_rates_are_kept(self):
        r = AgreementRates(sensitivity=None, tn_rate=1.0, prevalence_observed=0.0, pcm=1.0)
        assert (r.sensitivity, r.tn_rate, r.prevalence_observed, r.pcm) == (None, 1.0, 0.0, 1.0)


class TestPerfectAgreementGap:
    def test_gap_value(self):
        r = AgreementRates(sensitivity=0.8, tn_rate=0.9, prevalence_observed=0.5, pcm=0.85)
        assert perfect_agreement_gap(r) == pytest.approx(0.1)

    def test_gap_is_none_when_a_rate_is_undefined(self):
        r = AgreementRates(sensitivity=None, tn_rate=0.9, prevalence_observed=0.5, pcm=0.85)
        assert perfect_agreement_gap(r) is None
