"""Tests for convergence factors, normal fits, dominance selection,
probability curves, and timelines."""

import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapbayes import (
    DEFAULT_ALPHA_GRID,
    GROUP_ALL,
    GROUP_FINAL,
    ConvergenceForm,
    FitGrid,
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
from mapbayes.convergence import check_final_cycle


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

    @pytest.mark.parametrize(
        "grid, first, second, label",
        [((0, 0.5, 0), 0.0, 0.0, "asymmetric_a0"), ((0.1, 0.1000001), 0.1, 0.1000001, "asymmetric_a0.1")],
    )
    def test_offsets_that_share_a_label_are_refused(self, grid, first, second, label):
        message = f"offsets {first!r} and {second!r} share the label {label}"
        with pytest.raises(ValueError, match=re.escape(message)):
            asymmetric_family(grid)

    @pytest.mark.parametrize("grid", [(), [], iter(())])
    def test_an_empty_grid_is_refused(self, grid):
        with pytest.raises(ValueError, match="^alpha grid is empty$"):
            asymmetric_family(grid)


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
        with pytest.raises(ValueError, match=re.escape("ppv must be in [0, 1], got 1.2")):
            convergence_factor(1.2, 0.5, ConvergenceForm("triangular"))

    def test_factor_values_matches_scalar_evaluation(self):
        rng = np.random.default_rng(71)
        runs = [
            run(box_id=i, ppv=float(rng.uniform()), npv=float(rng.uniform()))
            for i in range(50)
        ]
        form = ConvergenceForm("asymmetric_normal", 0.25)
        vec = factor_values(RunTable.of(runs), form)
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

    @pytest.mark.parametrize(
        "labels, bad",
        [([0, 1], "row 0 holds 0"), (["A", 1], "row 1 holds 1"), (["A", "B", None], "row 2 holds None"),
         (["A", b"B"], "row 1 holds b'B'")],
        ids=["ints", "mixed", "none", "bytes"],
    )
    def test_a_label_that_is_not_a_str_is_named_by_its_row(self, labels, bad):
        # The analyses sort the labels and search them for path separators.
        n = len(labels)
        with pytest.raises(ValueError) as exc:
            RunTable(list(range(n)), labels, [1] * n, [0.5] * n, [0.5] * n)
        assert str(exc.value) == f"run table column 'group': {bad}, not a str label"

    def test_integer_beyond_int64_is_named(self):
        with pytest.raises(ValueError, match="column 'box_id'"):
            RunTable([10**20], ["A"], [1], [0.5], [0.5])

    def test_rows_are_selected_not_iterated(self):
        with pytest.raises(TypeError):
            iter(self.table())

    def test_factor_values_of_a_table_match_its_records(self):
        rng = np.random.default_rng(73)
        records = [run(box_id=i, ppv=float(rng.uniform()), npv=float(rng.uniform())) for i in range(30)]
        form = ConvergenceForm("asymmetric_normal", 0.5)
        expected = [convergence_factor(r.ppv, r.npv, form) for r in records]
        assert np.array_equal(factor_values(RunTable.of(records), form), expected)


class TestSplitRobustness:
    def make_runs(self):
        return [run(box_id=i, cycle=c) for i in range(3) for c in (1, 2, 3)]

    def test_default_cutoff_is_last_cycle(self):
        runs = self.make_runs()
        groups = split_robustness(RunTable.of(runs))
        assert set(groups) == {GROUP_ALL, GROUP_FINAL}
        assert len(groups[GROUP_ALL]) == 9
        assert_columns(groups[GROUP_FINAL], [r for r in runs if r.cycle == 3])

    def test_explicit_cutoff_is_inclusive(self):
        runs = self.make_runs()
        groups = split_robustness(RunTable.of(runs), final_cycle=2)
        assert_columns(groups[GROUP_FINAL], [r for r in runs if r.cycle >= 2])

    def test_all_group_keeps_input_order(self):
        runs = self.make_runs()
        groups = split_robustness(RunTable.of(runs))
        assert_columns(groups[GROUP_ALL], runs)

    def test_errors(self):
        with pytest.raises(ValueError, match="no runs"):
            split_robustness(RunTable.of([]))
        with pytest.raises(ValueError, match="at or past"):
            split_robustness(RunTable.of(self.make_runs()), final_cycle=10)


class TestCheckFinalCycle:
    @pytest.mark.parametrize("final_cycle", [None, 2, 3, 4])
    def test_none_or_a_cycle_past_the_first_is_taken(self, final_cycle):
        assert check_final_cycle(final_cycle, np.array([4, 1, 2, 3, 1])) == final_cycle
        assert check_final_cycle(None, []) is None

    @pytest.mark.parametrize("final_cycle", [-5, 0, 1, 5, 99])
    def test_a_cycle_at_or_below_the_first_or_past_the_last_is_refused(self, final_cycle):
        message = f"final_cycle must be above the first cycle and at most the last (cycles 1 to 4), got {final_cycle}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_final_cycle(final_cycle, [2, 1, 4, 3])

    def test_any_final_cycle_is_refused_for_one_cycle_or_none(self):
        with pytest.raises(ValueError, match=re.escape("(cycles 3 to 3), got 3")):
            check_final_cycle(3, [3, 3])
        with pytest.raises(ValueError, match=re.escape("(no cycles), got 1")):
            check_final_cycle(1, [])


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
        groups = split_robustness(RunTable.of(runs))
        forms = asymmetric_family((0.0, 0.5))
        grid = fit_by_form(groups, forms)
        assert (grid.forms, grid.groups) == (tuple(forms), tuple(groups))
        assert grid.mu.shape == grid.sigma.shape == (2, 2)
        for f, form in enumerate(forms):
            for g, group in enumerate(groups):
                assert (grid.mu[f, g], grid.sigma[f, g]) == fit_normal_ml(factor_values(groups[group], form))

    def test_identical_factor_values_are_degenerate(self):
        runs = RunTable.of([run(box_id=i, ppv=0.6, npv=0.4) for i in range(5)])
        with pytest.raises(ValueError, match="degenerate fit"):
            fit_by_form({"only": runs, "also": runs}, [ConvergenceForm("triangular")])

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_by_form({"a": RunTable.of([])}, [ConvergenceForm("triangular")])

    def test_fits_keep_the_values_they_summarize(self):
        rng = np.random.default_rng(89)
        pv = rng.uniform(size=(16, 2)).tolist()
        runs = [run(box_id=k // 2, cycle=k % 2 + 1, ppv=pv[k][0], npv=pv[k][1]) for k in range(16)]
        groups = split_robustness(RunTable.of(runs))
        grid = fit_by_form(groups, asymmetric_family((0.0, 0.5)))
        for f, form in enumerate(grid.forms):
            for g, group in enumerate(grid.groups):
                values = grid.values[f][g]
                assert np.array_equal(values, factor_values(groups[group], form))
                assert (grid.mu[f, g], grid.sigma[f, g]) == fit_normal_ml(values)

    def test_fit_result_requires_positive_scale(self):
        for scale in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match=f"degenerate fit for triangular in h: scale {scale}"):
                make_grid({(TRI, "g"): (0.5, 0.1), (TRI, "h"): (0.5, scale)})


def make_grid(spec):
    """spec: {(form, group): (mu, sigma)}, every pair given -> FitGrid, forms and groups in first-seen order."""
    forms = tuple(dict.fromkeys(form for form, _ in spec))
    groups = tuple(dict.fromkeys(group for _, group in spec))
    cells = np.array([[spec[(f, g)] for g in groups] for f in forms]).reshape(len(forms), len(groups), 2)
    return FitGrid(forms, groups, cells[..., 0], cells[..., 1])


def per_label_dominance(fits):
    """The per-label dominance rule, one (form, group, mu, sigma) fit at a time: the reference for `dominance_table`."""
    by_key = {}
    forms, groups = [], []
    for form, group, mu, sigma in fits:
        by_key[(form.label, group)] = (mu, sigma)
        if form.label not in [x.label for x in forms]:
            forms.append(form)
        if group not in groups:
            groups.append(group)

    def zscore(label, group):
        mu, sigma = by_key[(label, group)]
        return (0.5 - mu) / sigma

    scores, location, scale, robustness = {}, {}, {}, {}
    for form in forms:
        lbl = form.label
        for g in groups:
            mu, sigma = by_key[(lbl, g)]
            location[(lbl, g)] = abs(0.5 - mu)
            scale[(lbl, g)] = sigma
        pair_mags = []
        for m in groups:
            for k in groups:
                if m == k:
                    continue
                s = zscore(lbl, m) - zscore(lbl, k)
                scores[(lbl, m, k)] = s
                pair_mags.append(abs(s))
        robustness[lbl] = max(pair_mags)

    labels = [f.label for f in forms]

    def dominates_all(lbl):
        for other in labels:
            if other == lbl:
                continue
            loc_ok = all(location[(lbl, g)] <= location[(other, g)] for g in groups)
            scl_ok = all(scale[(lbl, g)] <= scale[(other, g)] for g in groups)
            rob_ok = robustness[lbl] <= robustness[other]
            if not (loc_ok and scl_ok and rob_ok):
                return False
        return True

    dominators = [lbl for lbl in labels if dominates_all(lbl)]

    def mean_location(lbl):
        return sum(location[(lbl, g)] for g in groups) / len(groups)

    ranking = tuple(sorted(labels, key=lambda lbl: (mean_location(lbl), lbl)))
    if len(dominators) == 1:
        selected, uniform = dominators[0], True
    else:
        selected, uniform = ranking[0], False
    return {
        "scores": scores, "location": location, "robustness": robustness,
        "ranking": ranking, "selected": selected, "uniform_dominator": uniform,
    }


TRI = ConvergenceForm("triangular")
ADJ = ConvergenceForm("adjusted_normal")
ASYM25 = ConvergenceForm("asymmetric_normal", 0.25)
SIX_FORMS = (TRI, ADJ, ASYM25, *asymmetric_family((0.0, 0.5, 1.0)))
FOUR_GROUPS = (GROUP_ALL, GROUP_FINAL, "early", "late")


@st.composite
def fit_grids(draw):
    """Grids of 1-6 forms in any order and 2-4 groups, mu and sigma from small sets so that ties occur."""
    forms = draw(st.permutations(SIX_FORMS))[: draw(st.integers(1, 6))]
    groups = FOUR_GROUPS[: draw(st.integers(2, 4))]
    cells = st.tuples(st.sampled_from((0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.75)), st.sampled_from((0.05, 0.1, 0.25)))
    return make_grid({(f, g): draw(cells) for f in forms for g in groups})


class TestDominanceTable:
    def uniform_fixture(self):
        # ASYM25 is closest to the 0.5 balance point, tightest, and most
        # stable across groups - a uniform dominator by construction.
        return make_grid(
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
        grid = self.uniform_fixture()
        table = dominance_table(grid)
        assert table.selected == 0
        assert table.selected_form is ASYM25
        assert table.uniform_dominator is True
        # Location criterion per group.
        assert table.location[0] == pytest.approx([0.005, 0.005])
        for rival in (1, 2):
            assert (table.location[0] < table.location[rival]).all()
            assert (grid.sigma[0] < grid.sigma[rival]).all()
            assert table.robustness[0] < table.robustness[rival]

    def test_reference_score_values(self):
        table = dominance_table(self.uniform_fixture())
        # (0.5 - mu)/sigma per group: 0.1 and -0.1 for the winner.
        assert table.scores[0, 0, 1] == pytest.approx(0.2)
        assert table.scores[1, 0, 1] == pytest.approx(0.5)
        assert table.robustness[2] == pytest.approx(abs((0.5 - 0.55) / 0.08 - (0.5 - 0.46) / 0.09))

    def test_scores_are_antisymmetric(self):
        table = dominance_table(self.uniform_fixture())
        assert table.scores.shape == (3, 2, 2)
        assert np.array_equal(table.scores, -table.scores.transpose(0, 2, 1))

    def test_split_criteria_fall_back_to_location_ranking(self):
        # TRI wins location, ADJ wins scale and robustness: no uniform
        # dominator, so the mean-location ranking decides.
        grid = make_grid(
            {
                (TRI, GROUP_ALL): (0.48, 0.10),
                (TRI, GROUP_FINAL): (0.52, 0.10),
                (ADJ, GROUP_ALL): (0.45, 0.05),
                (ADJ, GROUP_FINAL): (0.45, 0.05),
            }
        )
        table = dominance_table(grid)
        assert table.uniform_dominator is False
        assert table.ranking == ("triangular", "adjusted_normal")
        assert table.selected_form is TRI

    def test_mean_location_ties_break_by_label(self):
        grid = make_grid(
            {
                (TRI, GROUP_ALL): (0.53, 0.04),
                (TRI, GROUP_FINAL): (0.47, 0.04),
                (ADJ, GROUP_ALL): (0.47, 0.05),
                (ADJ, GROUP_FINAL): (0.53, 0.05),
            }
        )
        table = dominance_table(grid)
        assert table.uniform_dominator is False
        assert table.selected_form is ADJ

    def test_needs_two_groups(self):
        grid = make_grid({(TRI, GROUP_ALL): (0.5, 0.1), (ADJ, GROUP_ALL): (0.4, 0.1)})
        with pytest.raises(ValueError, match="two robustness groups"):
            dominance_table(grid)

    def test_needs_a_form(self):
        grid = FitGrid((), (GROUP_ALL, GROUP_FINAL), np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(ValueError, match="at least one form"):
            dominance_table(grid)

    @settings(max_examples=1000, deadline=None)
    @given(fit_grids())
    def test_matches_the_per_label_rule(self, grid):
        fits = [
            (form, group, grid.mu[f, g].item(), grid.sigma[f, g].item())
            for g, group in enumerate(grid.groups)
            for f, form in enumerate(grid.forms)
        ]
        ref = per_label_dominance(fits)
        table = dominance_table(grid)
        assert table.selected_form.label == ref["selected"]
        assert table.uniform_dominator is ref["uniform_dominator"]
        assert table.ranking == ref["ranking"]
        for f, form in enumerate(grid.forms):
            assert table.robustness[f] == ref["robustness"][form.label]
            for m, group_m in enumerate(grid.groups):
                assert table.location[f, m] == ref["location"][(form.label, group_m)]
                for k, group_k in enumerate(grid.groups):
                    if m != k:
                        assert table.scores[f, m, k] == ref["scores"][(form.label, group_m, group_k)]


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
        with pytest.raises(ValueError, match="sigma must be positive and finite, got 0.0"):
            pp_curve([0.1, 0.9], 0.5, 0.0)


class TestFactorTimeline:
    def make_runs(self):
        return RunTable.of([
            run(box_id=0, cycle=2, ppv=0.8, npv=0.4),
            run(box_id=0, cycle=1, ppv=0.9, npv=0.3),
            run(box_id=1, cycle=1, ppv=0.7, npv=0.5),
        ])

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
