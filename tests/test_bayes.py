"""Tests for likelihood ratios, diagnostic odds, and predictive values
under both reporting conventions, and for the `standard` chain against the
counts of generated tallies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapbayes import (
    AgreementRates,
    ConfusionMatrix,
    Convention,
    LikelihoodRatios,
    agreement_rates,
    diagnostic_odds_ratio,
    likelihood_ratios,
    predictive_values,
    prevalence_sweep,
)


def rates(sens, tn_rate, prevalence=0.5, pcm=0.5):
    return AgreementRates(
        sensitivity=sens, tn_rate=tn_rate, prevalence_observed=prevalence, pcm=pcm
    )


class TestConvention:
    def test_parse_is_case_insensitive(self):
        assert Convention.parse("PAPER") is Convention.PAPER
        assert Convention.parse("standard") is Convention.STANDARD

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown convention"):
            Convention.parse("bayes")


class TestLikelihoodRatios:
    def test_standard_fixture(self):
        lr = likelihood_ratios(rates(0.8, 0.9), Convention.STANDARD)
        assert lr.lr_pos == pytest.approx(8.0, abs=1e-12)
        assert lr.lr_neg == pytest.approx(0.2 / 0.9, abs=1e-12)

    def test_paper_fixture(self):
        lr = likelihood_ratios(rates(0.8, 0.9), Convention.PAPER)
        assert lr.lr_pos == pytest.approx(0.8 / 0.9, abs=1e-12)
        assert lr.lr_neg == pytest.approx(2.0, abs=1e-12)

    def test_default_convention_is_paper(self):
        assert likelihood_ratios(rates(0.8, 0.9)).convention is Convention.PAPER

    def test_conventions_coincide_at_half_half(self):
        a = likelihood_ratios(rates(0.5, 0.5), Convention.PAPER)
        b = likelihood_ratios(rates(0.5, 0.5), Convention.STANDARD)
        assert (a.lr_pos, a.lr_neg) == (b.lr_pos, b.lr_neg) == (1.0, 1.0)

    def test_zero_denominator_gives_infinity(self):
        # Standard positive ratio blows up when the false-positive rate is 0.
        lr = likelihood_ratios(rates(1.0, 1.0), Convention.STANDARD)
        assert math.isinf(lr.lr_pos)
        assert lr.lr_neg == 0.0
        # Paper positive ratio blows up when the true-negative rate is 0.
        lr2 = likelihood_ratios(rates(1.0, 0.0), Convention.PAPER)
        assert math.isinf(lr2.lr_pos)

    def test_requires_both_rates(self):
        with pytest.raises(ValueError, match="both be defined"):
            likelihood_ratios(rates(None, 0.9))
        with pytest.raises(ValueError, match="both be defined"):
            likelihood_ratios(rates(0.8, None))


class TestDiagnosticOddsRatio:
    def test_standard_fixture_is_36(self):
        lr = likelihood_ratios(rates(0.8, 0.9), Convention.STANDARD)
        assert diagnostic_odds_ratio(lr) == pytest.approx(36.0, abs=1e-12)

    def test_random_classifier_is_exactly_one(self):
        for conv in (Convention.PAPER, Convention.STANDARD):
            lr = likelihood_ratios(rates(0.5, 0.5), conv)
            assert diagnostic_odds_ratio(lr) == 1.0

    def test_perfect_classifier_standard_is_positive_infinity(self):
        lr = likelihood_ratios(rates(1.0, 1.0), Convention.STANDARD)
        dor = diagnostic_odds_ratio(lr)
        assert math.isinf(dor) and dor > 0

    def test_both_ratios_infinite_is_flagged_nan(self):
        lr = LikelihoodRatios(math.inf, math.inf, Convention.STANDARD)
        assert math.isnan(diagnostic_odds_ratio(lr))

    def test_zero_negative_ratio_gives_infinity(self):
        lr = LikelihoodRatios(2.0, 0.0, Convention.STANDARD)
        assert math.isinf(diagnostic_odds_ratio(lr))


class TestPredictiveValues:
    def test_paper_ppv_at_half_prevalence_equals_sensitivity_exactly(self):
        # The `paper` convention's update at prevalence 1/2 collapses to
        # the sensitivity itself; this holds to the last bit for these
        # inputs.
        for s in [i / 20 for i in range(1, 20)]:
            pv = predictive_values(rates(s, 0.42), 0.5, Convention.PAPER)
            assert pv.ppv == s

    def test_standard_fixture(self):
        pv = predictive_values(rates(0.8, 0.9), 0.5, Convention.STANDARD)
        assert pv.ppv == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert pv.npv == pytest.approx(0.9 / 1.1, abs=1e-12)

    def test_paper_fixture(self):
        pv = predictive_values(rates(0.8, 0.9), 0.5, Convention.PAPER)
        assert pv.ppv == pytest.approx(0.8, abs=1e-12)
        # npv = t(1-p) / (t(1-p) + s p) = 0.45 / (0.45 + 0.40)
        assert pv.npv == pytest.approx(0.45 / 0.85, abs=1e-12)

    def test_conventions_agree_when_rates_are_half(self):
        for p in np.linspace(0.0, 1.0, 21):
            a = predictive_values(rates(0.5, 0.5), float(p), Convention.PAPER)
            b = predictive_values(rates(0.5, 0.5), float(p), Convention.STANDARD)
            assert a.ppv == b.ppv
            assert a.npv == b.npv

    def test_extreme_prevalences(self):
        pv0 = predictive_values(rates(0.8, 0.9), 0.0, Convention.STANDARD)
        assert pv0.ppv == 0.0
        assert pv0.npv == 1.0
        pv1 = predictive_values(rates(0.8, 0.9), 1.0, Convention.STANDARD)
        assert pv1.ppv == 1.0
        assert pv1.npv == 0.0

    def test_zero_over_zero_is_none(self):
        # Perfect sensitivity at zero prevalence: no predicted positives at
        # all under the `paper` convention, so PPV is undefined, not 0.
        pv = predictive_values(rates(1.0, 0.9), 0.0, Convention.PAPER)
        assert pv.ppv is None
        # Standard NPV at prevalence 1 with perfect sensitivity: no negative
        # mass on either branch.
        pv2 = predictive_values(rates(1.0, 0.0), 1.0, Convention.STANDARD)
        assert pv2.npv is None

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            s, t, p = rng.uniform(size=3)
            for conv in (Convention.PAPER, Convention.STANDARD):
                pv = predictive_values(rates(float(s), float(t)), float(p), conv)
                for v in (pv.ppv, pv.npv):
                    assert v is None or 0.0 <= v <= 1.0

    def test_standard_ppv_monotone_in_prevalence(self):
        rng = np.random.default_rng(23)
        grid = np.linspace(0.0, 1.0, 51)
        for _ in range(50):
            s = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.05, 0.95))
            sweep = prevalence_sweep(rates(s, t), grid, Convention.STANDARD)
            ppvs = [pv.ppv for pv in sweep]
            npvs = [pv.npv for pv in sweep]
            assert all(a <= b + 1e-12 for a, b in zip(ppvs, ppvs[1:]))
            assert all(a >= b - 1e-12 for a, b in zip(npvs, npvs[1:]))

    def test_prevalence_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="prevalence"):
            predictive_values(rates(0.8, 0.9), 1.5)
        with pytest.raises(ValueError, match="prevalence"):
            predictive_values(rates(0.8, 0.9), -0.1)


class TestPrevalenceSweep:
    def test_preserves_order_and_length(self):
        ps = [0.9, 0.1, 0.5]
        sweep = prevalence_sweep(rates(0.8, 0.9), ps)
        assert [pv.prevalence for pv in sweep] == ps

    def test_every_entry_records_convention(self):
        sweep = prevalence_sweep(rates(0.8, 0.9), [0.2, 0.4], Convention.STANDARD)
        assert all(pv.convention is Convention.STANDARD for pv in sweep)


class TestStandardAgainstCounts:
    """Under `standard`, the chain from a tally's rates gives back the tally's own ratios."""

    counts = st.integers(0, 10**6)

    @staticmethod
    def standard(tp, fp, fn, tn):
        """The tally's rates, or None when one of them is undefined (no observed positives or negatives)."""
        if tp + fn == 0 or tn + fp == 0:
            return None
        return agreement_rates(ConfusionMatrix(tp, fp, fn, tn))

    # Fails on tallies where fp or fn is small next to the total: the rates
    # hold t = tn/(tn+fp) and p = (tp+fn)/total rounded, so 1 - t and 1 - p
    # carry a relative error of about 1e-16 times total/count. The tally
    # (1, 1, 1, 324058) gives a PPV off by 4.3e-12, and the derandomized search
    # finds such a tally on every run. Remove the mark once the chain holds.
    @pytest.mark.xfail(strict=True, reason="1 - t and 1 - p lose precision when fp or fn is small next to the total")
    @settings(max_examples=1000, deadline=None)
    @given(counts, counts, counts, counts)
    def test_predictive_values_at_the_observed_prevalence_are_the_count_ratios(self, tp, fp, fn, tn):
        rates = self.standard(tp, fp, fn, tn)
        if rates is None:
            return
        pv = predictive_values(rates, rates.prevalence_observed, Convention.STANDARD)
        for got, num, den in ((pv.ppv, tp, tp + fp), (pv.npv, tn, tn + fn)):
            if den == 0:
                assert got is None
            else:
                assert math.isclose(got, num / den, rel_tol=1e-12, abs_tol=0.0)

    @settings(max_examples=1000, deadline=None)
    @given(counts, st.integers(1, 10**6), st.integers(1, 10**6), counts)
    def test_diagnostic_odds_ratio_is_the_cross_product_ratio(self, tp, fp, fn, tn):
        rates = self.standard(tp, fp, fn, tn)
        dor = diagnostic_odds_ratio(likelihood_ratios(rates, Convention.STANDARD))
        assert math.isclose(dor, tp * tn / (fp * fn), rel_tol=1e-9, abs_tol=0.0)


class TestConventionLimits:
    """Where the two conventions' formulas meet, over generated rates and prevalences."""

    unit = st.floats(0.0, 1.0)
    conventions = st.sampled_from(Convention)

    @settings(max_examples=1000, deadline=None)
    @given(unit, unit, unit, conventions)
    def test_predictive_values_stay_in_the_unit_interval(self, s, t, p, convention):
        pv = predictive_values(rates(s, t), p, convention)
        for v in (pv.ppv, pv.npv):
            assert v is None or 0.0 <= v <= 1.0

    @settings(max_examples=1000, deadline=None)
    @given(unit, unit)
    def test_the_conventions_give_one_ppv_where_sensitivity_equals_tn_rate(self, s, p):
        # Both updates weigh s p against (1 - s)(1 - p) when t = s.
        paper, standard = (predictive_values(rates(s, s), p, c) for c in (Convention.PAPER, Convention.STANDARD))
        assert paper.ppv == standard.ppv

    @settings(max_examples=1000, deadline=None)
    @given(unit, unit)
    def test_the_conventions_give_one_npv_where_sensitivity_is_one_half(self, t, p):
        # Paper weighs t (1 - p) against s p, standard against (1 - s) p: the same at s = 1/2.
        paper, standard = (predictive_values(rates(0.5, t), p, c) for c in (Convention.PAPER, Convention.STANDARD))
        assert paper.npv == standard.npv

    @settings(max_examples=1000, deadline=None)
    @given(st.floats(0.0, 1.0, allow_subnormal=False), unit)
    def test_paper_ppv_at_prevalence_one_half_is_the_sensitivity(self, s, t):
        # s/2 / (s/2 + (1 - s)/2) = s, and the rounded 1 - s adds back to 1.
        # A subnormal s is the test below.
        assert predictive_values(rates(s, t), 0.5, Convention.PAPER).ppv == s

    # Fails: s * 0.5 is not exact for a subnormal s with an odd last bit
    # (5e-324 halves to 0, so its PPV is 0). No tally gives such a rate
    # (tp/(tp+fn) >= 1e-19 for int64 counts), but a library caller may.
    # Remove the mark once it holds.
    @pytest.mark.xfail(strict=True, reason="s * p rounds for a subnormal sensitivity")
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2.2250738585072014e-308, exclude_max=True), unit)
    def test_paper_ppv_at_prevalence_one_half_is_a_subnormal_sensitivity(self, s, t):
        assert predictive_values(rates(s, t), 0.5, Convention.PAPER).ppv == s
