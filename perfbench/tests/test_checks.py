"""Self-tests of the output checks and the percentile rule."""

import csv
import json

import numpy as np
import pytest

import checks
import run


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 11)]) is None
    assert run.tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 1001)]) == (99.0, 990.0)
    # Ties at the percentile value are not beyond it.
    assert run.tail_percentile([1.0] * 15 + [2.0] * 9) is None


def test_matches_print_allows_only_rounding_to_six_digits():
    assert checks.matches_print(f"{1 / 3:.6g}", 1 / 3)
    assert checks.matches_print("0", 1e-17)
    assert not checks.matches_print("0.333334", 1 / 3)
    assert checks.matches_print("inf", float("inf"))
    assert not checks.matches_print("1e+06", float("inf"))


def test_reference_rules_agree_with_the_library():
    from mapbayes import AgreementRates, Convention, ScoreGrid, predictive_values, threshold_scores

    rng = np.random.default_rng(5)
    scores = np.round(rng.random((40, 30)), 2)  # many ties
    excluded = rng.random((40, 30)) < 0.2
    grid = ScoreGrid(np.where(excluded, 0.0, scores), excluded)
    assert np.array_equal(checks.top_n(scores, excluded, 300), threshold_scores(grid, quantity=300).values)

    tp, fp, fn, tn = 40, 13, 9, 210
    s, t, p = tp / (tp + fn), tn / (tn + fp), (tp + fn) / (tp + fp + fn + tn)
    pv = predictive_values(AgreementRates(s, t, p, 0.0), p, Convention.PAPER)
    assert checks.paper_ppv_npv(tp, fp, fn, tn) == (pv.ppv, pv.npv)


def _tiny_report(tmp_path):
    import workloads
    from mapbayes.cli import main

    inputs = tmp_path / "in"
    inputs.mkdir()
    prepared = workloads.setup_paper_report(3, inputs)
    out = tmp_path / "out"
    assert main(prepared.argv(out)) == 0
    return prepared, out


def _rewrite_csv(path, edit):
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_report_checker_accepts_the_real_output_and_rejects_tampering(tmp_path):
    prepared, out = _tiny_report(tmp_path)
    assert prepared.check(out) == []

    def bump_tally(rows):
        rows[7]["tp"] = str(int(rows[7]["tp"]) + 1)

    _rewrite_csv(out / "confusion.csv", bump_tally)
    fails = prepared.check(out)
    assert len(fails) == 1 and "tally" in fails[0]

    def bump_density(rows):
        rows[200]["f_pos"] = f"{float(rows[200]['f_pos']) * 1.0001:.6g}"

    _rewrite_csv(out / "kde_all.csv", bump_density)
    assert any("f_pos" in f for f in prepared.check(out))


def test_scope_check_names_errors_and_missed_offsets(tmp_path):
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"scopes": {
        "all": {"selected_alpha": 0.5},
        "A": {"selected_alpha": 0.25},
        "B": {"kde_error": "densities do not cross", "selected_alpha": 0.5},
    }}))
    fails = checks.check_scopes(summary, ("all", "A", "B", "C"), planted=0.5)
    assert fails == [
        "scope A: selected_alpha 0.25 != planted 0.5",
        "scope B: kde_error: densities do not cross",
        "scope C missing",
    ]
    assert checks.scope_errors(summary) == (1, 0)


def test_sample_checker_rejects_broken_nesting_and_draws(tmp_path):
    from mapbayes.cli import main
    from mapbayes.raster import BinaryGrid, write_grid

    rng = np.random.default_rng(2)
    side = 200
    frac = (np.arange(side) + 0.5) / side
    excl = rng.random((side, side)) < (0.02 + 0.35 * frac)[:, None]
    change = (rng.random((side, side)) < (0.01 + 0.25 * frac ** 1.5)[None, :]) & ~excl
    write_grid(BinaryGrid(change.astype(np.int8)), tmp_path / "c.asc")
    write_grid(BinaryGrid(excl.astype(np.int8)), tmp_path / "e.asc")
    out = tmp_path / "out"
    assert main(["sample", "--change", str(tmp_path / "c.asc"), "--exclusion", str(tmp_path / "e.asc"),
                 "--box-cells", "100", "--n-quantiles", "10", "--out", str(out)]) == 0
    path = out / "sample.csv"
    assert checks.check_sample(path, change, excl, 10, 10) == []

    def drop_b(rows):
        row = next(r for r in rows if r["pools"] == "ABC")
        row["pools"] = "AC"

    _rewrite_csv(path, drop_b)
    assert any("do not nest" in f for f in checks.check_sample(path, change, excl, 10, 10))

    def drop_draw(rows):
        row = next(r for r in rows if "A" in r["selected_for"])
        row["selected_for"] = row["selected_for"].replace("A", "")

    _rewrite_csv(path, drop_draw)
    assert any("draws" in f for f in checks.check_sample(path, change, excl, 10, 10))


def test_generation_is_deterministic(tmp_path):
    import workloads

    digests = []
    for k in range(2):
        d = tmp_path / str(k)
        d.mkdir()
        workloads.setup_converge_runs(4, d)
        digests.append(checks.tree_digest(d))
    assert digests[0] == digests[1]
