"""Tests for the parabolic-kernel density estimator and crossing search.

Reference values are either closed-form (kernel constants, mirror-image
symmetry) or recomputed here with an independent implementation (direct
numpy evaluation plus scipy root refinement).
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import brentq

from mapbayes import kde
from mapbayes.kde import balance_point

from mapbayes import (
    Crossing,
    KdeModel,
    density_intersection,
    epanechnikov,
    find_crossings,
    fit_kde,
    silverman_bandwidth,
)

SQRT5 = math.sqrt(5.0)


def reference_density(samples, h):
    """Independent KDE evaluation: plain numpy, no shared code paths."""
    s = np.asarray(samples, dtype=float)

    def f(x):
        z = (x - s) / h
        k = np.where(np.abs(z) <= SQRT5, 0.75 / SQRT5 * (1.0 - z * z / 5.0), 0.0)
        return float(np.sum(k) / (len(s) * h))

    return f


class TestKernel:
    def test_peak_value(self):
        assert epanechnikov(0.0) == pytest.approx(3.0 / (4.0 * SQRT5), abs=1e-15)
        assert epanechnikov(0.0) == pytest.approx(0.335410, abs=1e-6)

    def test_vanishes_at_and_beyond_support_edge(self):
        assert epanechnikov(SQRT5) == 0.0
        assert epanechnikov(-SQRT5) == 0.0
        assert epanechnikov(3.0) == 0.0
        assert epanechnikov(-10.0) == 0.0

    def test_symmetry(self):
        zs = np.linspace(0.0, SQRT5, 100)
        assert np.array_equal(epanechnikov(zs), epanechnikov(-zs))

    def test_integrates_to_one(self):
        z = np.linspace(-SQRT5, SQRT5, 200001)
        assert np.trapezoid(epanechnikov(z), z) == pytest.approx(1.0, abs=1e-6)

    def test_unit_variance(self):
        # This parameterization is scaled so the kernel has variance 1.
        z = np.linspace(-SQRT5, SQRT5, 200001)
        assert np.trapezoid(z * z * epanechnikov(z), z) == pytest.approx(1.0, abs=1e-6)

    def test_scalar_in_scalar_out(self):
        assert isinstance(epanechnikov(0.5), float)
        out = epanechnikov(np.array([0.0, 1.0]))
        assert out.shape == (2,)


class TestSilvermanBandwidth:
    def test_reference_value(self):
        # 0.9 * min(sd, IQR/1.34) * n^(-1/5) for [0.1, 0.2, 0.3, 0.4, 0.5]:
        # sd = 0.1581139, IQR/1.34 = 0.2/1.34 = 0.1492537 (the smaller).
        h = silverman_bandwidth([0.1, 0.2, 0.3, 0.4, 0.5])
        assert h == pytest.approx(0.0973584622850636, abs=1e-15)

    def test_falls_back_to_sd_when_iqr_is_zero(self):
        x = np.array([0.2] * 10 + [0.8])
        h = silverman_bandwidth(x)
        assert h == pytest.approx(0.9 * np.std(x, ddof=1) * len(x) ** (-0.2), abs=1e-15)

    def test_matches_formula_on_random_samples(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = rng.uniform(size=int(rng.integers(2, 200)))
            sd = np.std(x, ddof=1)
            iqr = np.subtract(*np.percentile(x, [75, 25]))
            expected = 0.9 * min(sd, iqr / 1.34) * len(x) ** (-0.2)
            assert silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            silverman_bandwidth([0.5])

    def test_identical_samples_are_degenerate(self):
        with pytest.raises(ValueError, match="identical"):
            silverman_bandwidth([0.3, 0.3, 0.3])


class TestKdeModel:
    def test_two_point_fixture(self):
        # Samples {0, 1} with h = 1/sqrt(5): the far sample sits exactly at
        # the support edge, so f(0) = K(0) * sqrt(5) / 2 = 3/8.
        model = fit_kde(np.array([0.0, 1.0]), bandwidth=1.0 / SQRT5)
        assert model.evaluate(0.0) == pytest.approx(0.375, abs=1e-12)
        assert model.evaluate(1.0) == pytest.approx(0.375, abs=1e-12)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            samples = rng.uniform(size=int(rng.integers(2, 80)))
            model = fit_kde(samples)
            ref = reference_density(samples, model.bandwidth)
            for x in rng.uniform(-0.2, 1.2, size=20):
                assert model.evaluate(float(x)) == pytest.approx(ref(float(x)), abs=1e-12)

    def test_array_evaluation_spans_several_blocks(self):
        rng = np.random.default_rng(16)
        samples = rng.normal(0.5, 0.2, size=20_000)
        xs = np.linspace(-0.2, 1.2, 512)
        assert kde._BLOCK // samples.size < xs.size  # more than one block
        model = fit_kde(samples)
        ref = reference_density(samples, model.bandwidth)
        expected = np.array([ref(float(x)) for x in xs])
        np.testing.assert_allclose(model.evaluate(xs), expected, rtol=0, atol=1e-12)

    def test_read_only_inputs_are_accepted(self):
        # The model freezes its sample array; evaluation must cope, and with
        # a read-only query array as well.
        model = KdeModel(samples=np.array([0.2, 0.5, 0.8]), bandwidth=0.2)
        assert not model.samples.flags.writeable
        x = np.array([0.4])
        x.setflags(write=False)
        out = model.evaluate(x)
        assert out.shape == (1,)
        assert out[0] > 0.0

    def test_array_evaluation_keeps_the_input_shape(self):
        model = fit_kde([0.2, 0.4, 0.5, 0.9])
        for x in (np.full((2, 3), 0.4), np.linspace(0.0, 1.0, 24).reshape(2, 3, 4), np.empty((0, 2))):
            out = model.evaluate(x)
            assert isinstance(out, np.ndarray)
            assert out.shape == x.shape
            expected = [model.evaluate(float(v)) for v in x.ravel()]
            np.testing.assert_array_equal(out.ravel(), expected)

    def test_zero_dimensional_input_gives_a_float(self):
        model = fit_kde([0.2, 0.4, 0.5, 0.9])
        out = model.evaluate(np.array(0.4))
        assert type(out) is float
        assert out == model.evaluate(0.4) == model.evaluate(np.float64(0.4))

    def test_on_grid_is_the_read_only_density_on_the_fixed_grid(self):
        model = fit_kde([0.2, 0.4, 0.5, 0.9])
        np.testing.assert_array_equal(kde.GRID, np.linspace(0.0, 1.0, 512))
        assert not kde.GRID.flags.writeable
        np.testing.assert_array_equal(model.on_grid, model.evaluate(kde.GRID))
        assert not model.on_grid.flags.writeable
        assert model.on_grid is model.on_grid

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            samples = rng.normal(0.5, 0.15, size=int(rng.integers(5, 100)))
            model = fit_kde(samples)
            lo, hi = model.support
            xs = np.linspace(lo, hi, 20001)
            assert np.trapezoid(model.evaluate(xs), xs) == pytest.approx(1.0, abs=1e-6)

    def test_density_is_zero_outside_support(self):
        model = fit_kde([0.4, 0.6], bandwidth=0.05)
        lo, hi = model.support
        assert model.evaluate(lo - 1e-9) == 0.0
        assert model.evaluate(hi + 1e-9) == 0.0
        assert model.evaluate(0.5) > 0.0

    def test_density_is_non_negative(self):
        rng = np.random.default_rng(14)
        model = fit_kde(rng.uniform(size=50))
        assert (model.evaluate(np.linspace(-1, 2, 500)) >= 0.0).all()

    def test_default_bandwidth_is_silverman(self):
        rng = np.random.default_rng(15)
        samples = rng.uniform(size=40)
        assert fit_kde(samples).bandwidth == silverman_bandwidth(samples)

    def test_call_is_evaluate(self):
        model = fit_kde([0.2, 0.8])
        assert model(0.5) == model.evaluate(0.5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="zero samples"):
            KdeModel(samples=np.array([]), bandwidth=0.1)
        with pytest.raises(ValueError, match="finite"):
            KdeModel(samples=np.array([0.1, np.nan]), bandwidth=0.1)
        with pytest.raises(ValueError, match="bandwidth"):
            KdeModel(samples=np.array([0.1, 0.2]), bandwidth=0.0)


class TestCrossings:
    def test_mirror_image_samples_cross_at_half(self):
        # If the negative samples are exactly 1 - positive samples, both fits
        # share a bandwidth and the densities are mirror images: the balanced
        # crossing is 0.5 by symmetry.
        rng = np.random.default_rng(7)
        for _ in range(5):
            pos = rng.normal(0.35, 0.1, size=500)
            neg = 1.0 - pos
            x = density_intersection(fit_kde(pos), fit_kde(neg))
            assert x == pytest.approx(0.5, abs=1e-6)

    def test_matches_independent_root_finder(self):
        # Deterministic quantile-spaced draws from two unequal-width normals;
        # the reference finds the same crossing with scipy's brentq on an
        # independently evaluated density difference.
        n = 2000
        z = np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
        pos = 0.35 + 0.08 * z
        neg = 0.65 + 0.12 * z
        f_pos, f_neg = fit_kde(pos), fit_kde(neg)

        rp = reference_density(pos, f_pos.bandwidth)
        rn = reference_density(neg, f_neg.bandwidth)
        diff = lambda t: rp(t) - rn(t)  # noqa: E731
        xs = np.linspace(0.0, 1.0, 4001)
        vals = np.array([diff(t) for t in xs])
        best_x, best_d = None, -1.0
        for i in range(len(xs) - 1):
            if (vals[i] < 0.0) != (vals[i + 1] < 0.0):
                r = brentq(diff, xs[i], xs[i + 1], xtol=1e-12)
                d = 0.5 * (rp(r) + rn(r))
                if d > best_d:
                    best_x, best_d = r, d
        assert best_x is not None
        assert density_intersection(f_pos, f_neg) == pytest.approx(best_x, abs=5e-6)

    def test_crossings_are_sorted_and_deduplicated(self):
        # A two-lobe density against a broad one yields several crossings.
        pos = np.concatenate([np.full(30, 0.2), np.full(30, 0.8)])
        neg = np.linspace(0.05, 0.95, 60)
        crossings = find_crossings(fit_kde(pos, 0.08), fit_kde(neg, 0.2))
        xs = [c.x for c in crossings]
        assert len(xs) >= 2
        assert xs == sorted(xs)
        assert all(b - a > 1e-5 for a, b in zip(xs, xs[1:]))

    def test_intersection_picks_largest_joint_density(self):
        pos = np.concatenate([np.full(30, 0.2), np.full(30, 0.8)])
        neg = np.linspace(0.05, 0.95, 60)
        f_pos, f_neg = fit_kde(pos, 0.08), fit_kde(neg, 0.2)
        crossings = find_crossings(f_pos, f_neg)
        chosen = density_intersection(f_pos, f_neg)
        assert chosen in [c.x for c in crossings]
        best = max(c.density for c in crossings)
        got = next(c.density for c in crossings if c.x == chosen)
        assert got == best
        assert chosen == balance_point(crossings).x

    def test_balance_point_ties_go_to_smaller_x(self):
        crossings = [Crossing(0.2, 1.0), Crossing(0.5, 3.0), Crossing(0.7, 3.0)]
        assert balance_point(crossings) == Crossing(0.5, 3.0)

    def test_identical_densities_are_degenerate(self):
        samples = np.array([0.2, 0.5, 0.8])
        with pytest.raises(ValueError, match="identical"):
            find_crossings(fit_kde(samples, 0.1), fit_kde(samples, 0.1))

    def test_no_crossing_in_interval_is_an_error(self):
        # A tall density over the whole of [0, 1] against a nearly flat,
        # much lower one: the first stays above the second everywhere.
        f_pos = fit_kde(np.full(20, 0.5), bandwidth=0.3)
        f_neg = fit_kde([0.5], bandwidth=10.0)
        assert np.all(f_pos.on_grid > f_neg.on_grid)
        with pytest.raises(ValueError, match=r"^densities do not cross in \[0\.0, 1\.0\]$"):
            find_crossings(f_pos, f_neg)

    def test_empty_stretches_are_not_crossings(self):
        # Two tight, well-separated densities: most of [0, 1] lies outside
        # both supports. Those stretches agree trivially (both zero) and
        # must not be reported as meeting points.
        rng = np.random.default_rng(4)
        f_pos = fit_kde(rng.uniform(0.30, 0.34, 200), bandwidth=0.01)
        f_neg = fit_kde(rng.uniform(0.66, 0.70, 200), bandwidth=0.01)
        with pytest.raises(ValueError, match="do not cross"):
            find_crossings(f_pos, f_neg)

    def test_all_reported_crossings_have_positive_density(self):
        # Mirror-image samples whose supports barely overlap: the genuine
        # balance point at 0.5 survives, empty-tail artifacts do not.
        rng = np.random.default_rng(11)
        pos = rng.uniform(0.25, 0.45, 40)
        f_pos, f_neg = fit_kde(pos), fit_kde(1.0 - pos)
        crossings = find_crossings(f_pos, f_neg)
        assert crossings
        assert all(c.density > 0.0 for c in crossings)
        assert any(abs(c.x - 0.5) < 1e-5 for c in crossings)

    def test_crossing_density_is_common_value(self):
        rng = np.random.default_rng(19)
        pos = rng.normal(0.3, 0.1, 300)
        neg = rng.normal(0.7, 0.1, 300)
        f_pos, f_neg = fit_kde(pos), fit_kde(neg)
        for c in find_crossings(f_pos, f_neg):
            assert f_pos.evaluate(c.x) == pytest.approx(f_neg.evaluate(c.x), abs=1e-3)
            assert c.density == pytest.approx(
                0.5 * (f_pos.evaluate(c.x) + f_neg.evaluate(c.x)), abs=1e-12
            )
