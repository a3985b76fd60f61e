"""Tests for convergence factors, normal fits, dominance selection,
probability curves, and timelines."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from mapbayes import (
    DEFAULT_ALPHA_GRID,
    GROUP_ALL,
    GROUP_FINAL,
    ConvergenceForm,
    FitResult,
    RunRecord,
    RunTable,
    asymmetric_family,
    convergence_factor,
    dominance_table,
    factor_timeline,
    factor_values,
    fit_by_form,
    fit_normal_ml,
    pp_curve,
    split_robustness,
)


def run(box_id=0, group="A", cycle=1, ppv=0.6, npv=0.4):
    return RunRecord(box_id=box_id, group=group, cycle=cycle, ppv=ppv, npv=npv)


def assert_columns(table, records):
    """Every column of `table` equals the records' values exactly, in order and type."""
    for name in ("box_id", "group", "cycle", "ppv", "npv"):
        got = getattr(table, name).tolist()
        expected = [getattr(r, name) for r in records]
        assert got == expected, name
        assert [type(v) for v in got] == [type(v) for v in expected], name


class TestConvergenceForm:
    def test_labels(self):
        assert ConvergenceForm("triangular").label == "triangular"
        assert ConvergenceForm("adjusted_normal").label == "adjusted_normal"
        assert ConvergenceForm("asymmetric_normal", 0.25).label == "asymmetric_a0.25"
        assert ConvergenceForm("asymmetric_normal", 0.0).label == "asymmetric_a0"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown form"):
            ConvergenceForm("gaussian")
        with pytest.raises(ValueError, match="alpha"):
            ConvergenceForm("asymmetric_normal", 1.5)
        with pytest.raises(ValueError, match="takes no offset"):
            ConvergenceForm("triangular", 0.25)

    def test_family_covers_grid_in_order(self):
        fam = asymmetric_family()
        assert [f.alpha for f in fam] == list(DEFAULT_ALPHA_GRID)
        assert all(f.kind == "asymmetric_normal" for f in fam)


class TestConvergenceFactor:
    def test_reference_values(self):
        tri = ConvergenceForm("triangular")
        adj = ConvergenceForm("adjusted_normal")
        asym = ConvergenceForm("asymmetric_normal", 0.5)
        assert convergence_factor(0.9, 0.4, tri) == pytest.approx(0.5, abs=1e-15)
        assert convergence_factor(0.9, 0.4, adj) == pytest.approx(math.exp(-0.5), abs=1e-15)
        # The shifted form peaks exactly at its offset.
        assert convergence_factor(0.9, 0.4, asym) == 1.0
        assert convergence_factor(0.4, 0.9, tri) == pytest.approx(0.5, abs=1e-15)

    def test_peak_at_equality_for_symmetric_forms(self):
        for kind in ("triangular", "adjusted_normal"):
            assert convergence_factor(0.7, 0.7, ConvergenceForm(kind)) == 1.0

    def test_all_forms_bounded_on_random_inputs(self):
        rng = np.random.default_rng(61)
        forms = [
            ConvergenceForm("triangular"),
            ConvergenceForm("adjusted_normal"),
            ConvergenceForm("asymmetric_normal", 0.3),
        ]
        for _ in range(1000):
            ppv, npv = rng.uniform(size=2)
            for form in forms:
                v = convergence_factor(float(ppv), float(npv), form)
                assert 0.0 <= v <= 1.0

    def test_adjusted_equals_asymmetric_at_zero_offset(self):
        rng = np.random.default_rng(67)
        adj = ConvergenceForm("adjusted_normal")
        asym0 = ConvergenceForm("asymmetric_normal", 0.0)
        for _ in range(1000):
            ppv, npv = (float(v) for v in rng.uniform(size=2))
            assert convergence_factor(ppv, npv, adj) == convergence_factor(ppv, npv, asym0)

    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ValueError, match="predictive values"):
            convergence_factor(1.2, 0.5, ConvergenceForm("triangular"))

    def test_factor_values_matches_scalar_evaluation(self):
        rng = np.random.default_rng(71)
        runs = [
            run(box_id=i, ppv=float(rng.uniform()), npv=float(rng.uniform()))
            for i in range(50)
        ]
        form = ConvergenceForm("asymmetric_normal", 0.25)
        vec = factor_values(runs, form)
        assert vec.shape == (50,)
        for r, v in zip(runs, vec):
            assert v == convergence_factor(r.ppv, r.npv, form)


class TestRunRecord:
    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="outside"):
            run(ppv=1.5)
        with pytest.raises(ValueError, match="outside"):
            run(npv=-0.1)


class TestRunTable:
    def table(self):
        return RunTable([3, 1, 2], ["A", "B", "A"], [1, 2, 2], [0.5, 0.75, 1.0], [0.25, 0.5, 0.0])

    def test_columns_have_their_dtypes_and_are_read_only(self):
        t = self.table()
        assert [t.box_id.dtype, t.cycle.dtype, t.ppv.dtype, t.npv.dtype, t.group.dtype] == [
            np.int64, np.int64, np.float64, np.float64, object
        ]
        for col in (t.box_id, t.group, t.cycle, t.ppv, t.npv, t.diff):
            assert not col.flags.writeable
        assert len(t) == 3

    def test_group_labels_are_kept_exactly(self):
        # A fixed-width unicode column would drop the trailing NUL.
        labels = ["A\x00", "A", "\u00c4 b"]
        t = RunTable([0, 1, 2], labels, [1, 1, 1], [0.5] * 3, [0.5] * 3)
        assert t.group.tolist() == labels
        assert t[t.group == "A"].box_id.tolist() == [1]

    def test_columns_are_copies(self):
        ppv = np.array([0.5, 0.25])
        t = RunTable([0, 1], ["A", "A"], [1, 1], ppv, [0.5, 0.5])
        ppv[0] = 0.75
        assert t.ppv.tolist() == [0.5, 0.25]
        assert ppv.flags.writeable

    def test_diff_is_ppv_minus_npv(self):
        t = self.table()
        assert t.diff.tolist() == [0.5 - 0.25, 0.75 - 0.5, 1.0 - 0.0]

    def test_of_returns_a_table_unchanged_and_gathers_records(self):
        t = self.table()
        assert RunTable.of(t) is t
        records = [run(box_id=3, cycle=1, ppv=0.5, npv=0.25), run(box_id=1, group="B", cycle=2)]
        assert_columns(RunTable.of(records), records)
        assert len(RunTable.of([])) == 0

    def test_mask_selects_in_run_order(self):
        t = self.table()
        sub = t[t.cycle == 2]
        assert sub.box_id.tolist() == [1, 2]
        assert sub.group.tolist() == ["B", "A"]
        assert sub.diff.tolist() == [0.75 - 0.5, 1.0 - 0.0]

    @pytest.mark.parametrize("ppv, npv", [(0.5, 1.5), (-0.0001, 0.5), (float("nan"), 0.5), (0.5, float("inf"))])
    def test_validation_names_the_first_bad_run_as_a_record_does(self, ppv, npv):
        with pytest.raises(ValueError) as from_record:
            RunRecord(box_id=7, group="A", cycle=4, ppv=ppv, npv=npv)
        with pytest.raises(ValueError) as from_table:
            RunTable([1, 7, 8], ["A"] * 3, [1, 4, 4], [0.5, ppv, ppv], [0.5, npv, npv])
        assert str(from_table.value) == str(from_record.value)
        assert "np." not in str(from_table.value)

    def test_validation_text(self):
        with pytest.raises(ValueError) as exc:
            RunTable([1], ["A"], [1], [0.5], [1.5])
        assert str(exc.value) == "run 1@1: predictive values outside [0, 1] (ppv=0.5, npv=1.5)"

    @pytest.mark.parametrize(
        "columns",
        [
            ([1, 2], ["A"], [1, 1], [0.5, 0.5], [0.5, 0.5]),
            ([[1]], [["A"]], [[1]], [[0.5]], [[0.5]]),
            (1, "A", 1, 0.5, 0.5),
        ],
        ids=["lengths", "2-d", "scalars"],
    )
    def test_columns_must_be_1d_and_of_one_length(self, columns):
        with pytest.raises(ValueError, match="1-D and of one length"):
            RunTable(*columns)

    def test_integer_beyond_int64_is_named(self):
        with pytest.raises(ValueError, match="column 'box_id'"):
            RunTable([10**20], ["A"], [1], [0.5], [0.5])

    def test_rows_are_selected_not_iterated(self):
        with pytest.raises(TypeError):
            iter(self.table())

    def test_factor_values_alike_for_table_and_records(self):
        rng = np.random.default_rng(73)
        records = [run(box_id=i, ppv=float(rng.uniform()), npv=float(rng.uniform())) for i in range(30)]
        form = ConvergenceForm("asymmetric_normal", 0.5)
        assert np.array_equal(factor_values(RunTable.of(records), form), factor_values(records, form))


class TestSplitRobustness:
    def make_runs(self):
        return [run(box_id=i, cycle=c) for i in range(3) for c in (1, 2, 3)]

    def test_default_cutoff_is_last_cycle(self):
        runs = self.make_runs()
        groups = split_robustness(runs)
        assert set(groups) == {GROUP_ALL, GROUP_FINAL}
        assert len(groups[GROUP_ALL]) == 9
        assert_columns(groups[GROUP_FINAL], [r for r in runs if r.cycle == 3])

    def test_explicit_cutoff_is_inclusive(self):
        runs = self.make_runs()
        groups = split_robustness(runs, final_cycle=2)
        assert_columns(groups[GROUP_FINAL], [r for r in runs if r.cycle >= 2])

    def test_all_group_keeps_input_order(self):
        runs = self.make_runs()
        groups = split_robustness(runs)
        assert_columns(groups[GROUP_ALL], runs)

    def test_errors(self):
        with pytest.raises(ValueError, match="no runs"):
            split_robustness([])
        with pytest.raises(ValueError, match="at or past"):
            split_robustness(self.make_runs(), final_cycle=10)


class TestFitNormalMl:
    def test_reference_fixture(self):
        mu, sigma = fit_normal_ml([0.4, 0.5, 0.6])
        assert mu == pytest.approx(0.5, abs=1e-15)
        # Maximum-likelihood scale divides by N, not N-1.
        assert sigma == pytest.approx(math.sqrt(0.02 / 3.0), abs=1e-15)

    def test_matches_moment_formulas(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            x = rng.uniform(size=int(rng.integers(2, 60)))
            mu, sigma = fit_normal_ml(x)
            assert mu == pytest.approx(float(np.mean(x)), rel=1e-12)
            assert sigma == pytest.approx(float(np.std(x, ddof=0)), rel=1e-12)

    def test_beats_grid_search(self):
        # The closed form must sit within one grid step of an exhaustive
        # log-likelihood maximizer.
        rng = np.random.default_rng(79)
        x = rng.uniform(size=30)
        mu_hat, sigma_hat = fit_normal_ml(x)
        span = float(np.max(x) - np.min(x))
        mus = np.linspace(float(np.min(x)), float(np.max(x)), 100)
        sigmas = np.linspace(1e-4, span, 100)
        sq = np.array([np.sum((x - m) ** 2) for m in mus])
        loglik = -len(x) * np.log(sigmas)[None, :] - sq[:, None] / (2.0 * sigmas[None, :] ** 2)
        i, j = np.unravel_index(np.argmax(loglik), loglik.shape)
        assert abs(mu_hat - mus[i]) <= mus[1] - mus[0]
        assert abs(sigma_hat - sigmas[j]) <= sigmas[1] - sigmas[0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="zero values"):
            fit_normal_ml([])


class TestFitByForm:
    def test_one_fit_per_group_and_form(self):
        rng = np.random.default_rng(83)
        runs = [
            run(box_id=i, cycle=c, ppv=float(rng.uniform()), npv=float(rng.uniform()))
            for i in range(10)
            for c in (1, 2)
        ]
        groups = split_robustness(runs)
        forms = asymmetric_family((0.0, 0.5))
        fits = fit_by_form(groups, forms)
        assert len(fits) == 4
        assert {(f.group, f.form.label) for f in fits} == {
            (g, f.label) for g in groups for f in forms
        }

    def test_identical_factor_values_are_degenerate(self):
        runs = [run(box_id=i, ppv=0.6, npv=0.4) for i in range(5)]
        with pytest.raises(ValueError, match="degenerate fit"):
            fit_by_form({"only": runs, "also": runs}, [ConvergenceForm("triangular")])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_by_form({"a": []}, [ConvergenceForm("triangular")])

    def test_fits_keep_the_values_they_summarize(self):
        rng = np.random.default_rng(89)
        pv = rng.uniform(size=(16, 2)).tolist()
        runs = [run(box_id=k // 2, cycle=k % 2 + 1, ppv=pv[k][0], npv=pv[k][1]) for k in range(16)]
        groups = split_robustness(runs)
        for fit in fit_by_form(groups, asymmetric_family((0.0, 0.5))):
            assert np.array_equal(fit.values, factor_values(groups[fit.group], fit.form))
            assert (fit.mu, fit.sigma) == fit_normal_ml(fit.values)
        # The values take no part in equality.
        assert FitResult(TRI, "g", 0.5, 0.1, values=np.ones(3)) == FitResult(TRI, "g", 0.5, 0.1)

    def test_fit_result_requires_positive_scale(self):
        with pytest.raises(ValueError, match="degenerate"):
            FitResult(form=ConvergenceForm("triangular"), group="g", mu=0.5, sigma=0.0)


def make_fits(spec):
    """spec: {(label-form, group): (mu, sigma)} -> list of FitResult."""
    out = []
    for (form, group), (mu, sigma) in spec.items():
        out.append(FitResult(form=form, group=group, mu=mu, sigma=sigma))
    return out


TRI = ConvergenceForm("triangular")
ADJ = ConvergenceForm("adjusted_normal")
ASYM25 = ConvergenceForm("asymmetric_normal", 0.25)


class TestDominanceTable:
    def uniform_fixture(self):
        # ASYM25 is closest to the 0.5 balance point, tightest, and most
        # stable across groups - a uniform dominator by construction.
        return make_fits(
            {
                (ASYM25, GROUP_ALL): (0.495, 0.05),
                (ASYM25, GROUP_FINAL): (0.505, 0.05),
                (TRI, GROUP_ALL): (0.40, 0.10),
                (TRI, GROUP_FINAL): (0.44, 0.12),
                (ADJ, GROUP_ALL): (0.55, 0.08),
                (ADJ, GROUP_FINAL): (0.46, 0.09),
            }
        )

    def test_uniform_dominator_wins_all_three_criteria(self):
        table = dominance_table(self.uniform_fixture())
        assert table.selected == "asymmetric_a0.25"
        assert table.uniform_dominator is True
        assert table.selected_form.alpha == 0.25
        # Location criterion per group.
        assert table.location[("asymmetric_a0.25", GROUP_ALL)] == pytest.approx(0.005)
        assert table.location[("asymmetric_a0.25", GROUP_FINAL)] == pytest.approx(0.005)
        for rival in ("triangular", "adjusted_normal"):
            for g in (GROUP_ALL, GROUP_FINAL):
                assert (
                    table.location[("asymmetric_a0.25", g)] < table.location[(rival, g)]
                )
                assert table.scale[("asymmetric_a0.25", g)] < table.scale[(rival, g)]
            assert table.robustness["asymmetric_a0.25"] < table.robustness[rival]

    def test_reference_score_values(self):
        table = dominance_table(self.uniform_fixture())
        # (0.5 - mu)/sigma per group: 0.1 and -0.1 for the winner.
        assert table.scores[("asymmetric_a0.25", GROUP_ALL, GROUP_FINAL)] == pytest.approx(0.2)
        assert table.scores[("triangular", GROUP_ALL, GROUP_FINAL)] == pytest.approx(0.5)
        assert table.robustness["adjusted_normal"] == pytest.approx(
            abs((0.5 - 0.55) / 0.08 - (0.5 - 0.46) / 0.09)
        )

    def test_scores_are_antisymmetric(self):
        table = dominance_table(self.uniform_fixture())
        for form in table.forms:
            s_ab = table.scores[(form.label, GROUP_ALL, GROUP_FINAL)]
            s_ba = table.scores[(form.label, GROUP_FINAL, GROUP_ALL)]
            assert s_ab == pytest.approx(-s_ba, abs=1e-15)

    def test_split_criteria_fall_back_to_location_ranking(self):
        # TRI wins location, ADJ wins scale and robustness: no uniform
        # dominator, so the mean-location ranking decides.
        fits = make_fits(
            {
                (TRI, GROUP_ALL): (0.48, 0.10),
                (TRI, GROUP_FINAL): (0.52, 0.10),
                (ADJ, GROUP_ALL): (0.45, 0.05),
                (ADJ, GROUP_FINAL): (0.45, 0.05),
            }
        )
        table = dominance_table(fits)
        assert table.uniform_dominator is False
        assert table.ranking == ("triangular", "adjusted_normal")
        assert table.selected == "triangular"

    def test_mean_location_ties_break_by_label(self):
        fits = make_fits(
            {
                (ADJ, GROUP_ALL): (0.47, 0.05),
                (ADJ, GROUP_FINAL): (0.53, 0.05),
                (TRI, GROUP_ALL): (0.53, 0.04),
                (TRI, GROUP_FINAL): (0.47, 0.04),
            }
        )
        table = dominance_table(fits)
        assert table.uniform_dominator is False
        assert table.selected == "adjusted_normal"

    def test_form_lookup(self):
        table = dominance_table(self.uniform_fixture())
        assert table.form_by_label("triangular") is TRI
        with pytest.raises(KeyError):
            table.form_by_label("nonesuch")

    def test_needs_two_groups(self):
        fits = make_fits({(TRI, GROUP_ALL): (0.5, 0.1), (ADJ, GROUP_ALL): (0.4, 0.1)})
        with pytest.raises(ValueError, match="two robustness groups"):
            dominance_table(fits)

    def test_duplicate_fit_rejected(self):
        fits = self.uniform_fixture()
        fits.append(FitResult(form=TRI, group=GROUP_ALL, mu=0.3, sigma=0.2))
        with pytest.raises(ValueError, match="duplicate"):
            dominance_table(fits)

    def test_missing_combination_rejected(self):
        fits = self.uniform_fixture()[:-1]
        with pytest.raises(ValueError, match="missing fit"):
            dominance_table(fits)


class TestPPCurve:
    def quantile_z(self, n):
        return np.array([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])

    def test_fitted_values_match_reference_cdf(self):
        rng = np.random.default_rng(89)
        values = rng.uniform(size=40)
        curve = pp_curve(values, 0.5, 0.2)
        x = np.sort(values)
        for i in range(40):
            assert curve.p[i] == pytest.approx((i + 0.5) / 40, abs=1e-15)
            expected = NormalDist(0.5, 0.2).cdf(float(x[i]))
            assert curve.fitted[i] == pytest.approx(expected, abs=1e-9)

    def test_tight_symmetric_sample_crosses_at_half(self):
        # Empirical values hug 0.5 far tighter than the fitted width, so the
        # curve crosses the diagonal at 0.5 and the signed area cancels.
        values = 0.5 + 0.01 * self.quantile_z(100)
        curve = pp_curve(values, 0.5, 0.1)
        assert curve.prevalence_estimate == pytest.approx(0.5, abs=1e-9)
        assert curve.net_gain == pytest.approx(0.0, abs=1e-12)

    def test_fitted_distribution_above_sample_gives_positive_gain(self):
        # All values sit far above the fitted mean: the fitted CDF is ~1
        # everywhere, the curve never returns to the diagonal.
        values = np.linspace(0.8, 0.99, 20)
        curve = pp_curve(values, 0.2, 0.1)
        assert curve.net_gain > 0.0
        assert curve.crossings == ()
        assert curve.prevalence_estimate is None

    def test_sample_above_fit_gives_negative_gain(self):
        values = np.linspace(0.01, 0.2, 20)
        curve = pp_curve(values, 0.8, 0.1)
        assert curve.net_gain < 0.0

    def test_crossing_nearest_half_is_the_estimate(self):
        # Choose target fitted probabilities that weave around the diagonal
        # (still increasing), then back out the sample values that produce
        # them; the deviation sign alternates five times.
        targets = [0.05, 0.09, 0.11, 0.15, 0.20, 0.24, 0.33, 0.40, 0.42, 0.45,
                   0.56, 0.60, 0.61, 0.65, 0.70, 0.73, 0.80, 0.85, 0.90, 0.95]
        mu, sigma = 0.5, 0.1
        values = [mu + sigma * NormalDist().inv_cdf(t) for t in targets]
        curve = pp_curve(values, mu, sigma)
        assert len(curve.crossings) == 5
        best = min(curve.crossings, key=lambda c: (abs(c - 0.5), c))
        assert curve.prevalence_estimate == best
        # Hand interpolation of the crossing flanked by p = 0.475 (deviation
        # -0.025) and p = 0.525 (deviation +0.035).
        assert curve.prevalence_estimate == pytest.approx(0.475 + 0.05 * 0.025 / 0.06, abs=1e-6)

    def test_few_points_still_compute(self):
        curve = pp_curve([0.1, 0.3, 0.5, 0.7, 0.9], 0.5, 0.2)
        assert curve.n == 5
        assert curve.p.shape == (5,)

    def test_errors(self):
        with pytest.raises(ValueError, match="zero values"):
            pp_curve([], 0.5, 0.1)
        with pytest.raises(ValueError, match="scale"):
            pp_curve([0.1, 0.9], 0.5, 0.0)


class TestFactorTimeline:
    def make_runs(self):
        return [
            run(box_id=0, cycle=2, ppv=0.8, npv=0.4),
            run(box_id=0, cycle=1, ppv=0.9, npv=0.3),
            run(box_id=1, cycle=1, ppv=0.7, npv=0.5),
        ]

    def test_means_per_cycle_ascending(self):
        tri = ConvergenceForm("triangular")
        timeline = factor_timeline(self.make_runs(), [tri])
        assert [c for c, _ in timeline] == [1, 2]
        # Cycle 1 has diffs 0.6 and 0.2, cycle 2 has 0.4.
        assert timeline[0][1]["triangular"] == pytest.approx((0.4 + 0.8) / 2)
        assert timeline[1][1]["triangular"] == pytest.approx(0.6)

    def test_multiple_forms_reported_per_cycle(self):
        forms = [ConvergenceForm("triangular"), ConvergenceForm("adjusted_normal")]
        timeline = factor_timeline(self.make_runs(), forms)
        for _, means in timeline:
            assert set(means) == {"triangular", "adjusted_normal"}
