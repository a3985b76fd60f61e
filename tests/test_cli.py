"""End-to-end tests for the command-line interface."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from mapbayes import BinaryGrid, Grid, SynthConfig, classify_pools, generate_run_table, tile_region, write_grid
from mapbayes.cli import main
from mapbayes.report import write_runs_csv

from conftest import write_input_files


def expect_failure(argv):
    """Run main() expecting the CLI's error exit code."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def read_csv_text(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture
def raster_pair(tmp_path):
    """One binary prediction/observation pair on disk; returns path strings."""
    row = write_input_files(tmp_path, box_id=0, cycle=1, kind="binary", seed=5)
    return str(tmp_path / row["sim"]), str(tmp_path / row["obs"])


@pytest.fixture
def score_pair(tmp_path):
    row = write_input_files(tmp_path, box_id=1, cycle=1, kind="score", seed=6)
    return str(tmp_path / row["sim"]), str(tmp_path / row["obs"])


class TestAssess:
    def test_stdout_key_value_lines(self, raster_pair, capsys):
        sim, obs = raster_pair
        assert main(["assess", "--sim", sim, "--obs", obs]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert set(fields) == {
            "tp", "fp", "fn", "tn", "sens", "tn_rate", "prevalence", "pcm",
            "convention", "ppv", "npv", "lr_pos", "lr_neg", "dor",
        }
        assert fields["convention"] == "paper"
        total = sum(int(fields[k]) for k in ("tp", "fp", "fn", "tn"))
        assert total > 0
        assert 0.0 <= float(fields["pcm"]) <= 1.0

    def test_score_input_with_pinned_quantity(self, score_pair, capsys):
        score, obs = score_pair
        rc = main(["assess", "--score", score, "--obs", obs, "--threshold", "quantity:obs"])
        assert rc == 0
        fields = dict(line.split(" ", 1) for line in capsys.readouterr().out.strip().splitlines())
        assert fields["fp"] == fields["fn"]

    def test_out_writes_csv(self, raster_pair, tmp_path, capsys):
        sim, obs = raster_pair
        out_dir = tmp_path / "res"
        assert main(["assess", "--sim", sim, "--obs", obs, "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("assess.csv")
        rows = read_csv_text((out_dir / "assess.csv").read_text())
        assert rows[0][:4] == ["tp", "fp", "fn", "tn"]
        assert len(rows) == 2

    def test_sim_and_score_together_rejected(self, raster_pair, capsys):
        sim, obs = raster_pair
        expect_failure(["assess", "--sim", sim, "--score", sim, "--obs", obs])
        assert "exactly one" in capsys.readouterr().err

    def test_non_finite_header_is_a_usage_error(self, raster_pair, tmp_path, capsys):
        sim, obs = raster_pair
        text = Path(sim).read_text().split("\n")
        text[0] = "ncols inf"
        bad = tmp_path / "bad.asc"
        bad.write_text("\n".join(text))
        expect_failure(["assess", "--sim", str(bad), "--obs", obs])
        assert capsys.readouterr().err == "error: line 1: ncols must be a positive integer, got 'inf'\n"

    def test_overstated_ncols_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.asc"
        bad.write_text(
            "ncols 1000000000000\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value -9999\n1 0 1\n"
        )
        expect_failure(["assess", "--sim", str(bad), "--obs", str(bad)])
        assert capsys.readouterr().err == "error: line 7: expected 1000000000000 values, found 3\n"

    def test_neither_prediction_rejected(self, raster_pair):
        _, obs = raster_pair
        expect_failure(["assess", "--obs", obs])

    def test_missing_file_is_an_error_exit(self, tmp_path):
        ghost = str(tmp_path / "ghost.asc")
        expect_failure(["assess", "--sim", ghost, "--obs", ghost])


class TestSweep:
    def test_given_rates_paper(self, capsys):
        rc = main(["sweep", "--sens", "0.8", "--tn-rate", "0.9", "--prevalences", "0.5"])
        assert rc == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert rows[0] == ["prevalence", "ppv", "npv", "convention"]
        assert rows[1] == ["0.5", "0.8", "0.529412", "paper"]

    def test_given_rates_standard(self, capsys):
        rc = main([
            "sweep", "--sens", "0.8", "--tn-rate", "0.9",
            "--prevalences", "0.5", "--convention", "standard",
        ])
        assert rc == 0
        assert read_csv_text(capsys.readouterr().out)[1] == ["0.5", "0.888889", "0.818182", "standard"]

    def test_default_grid_has_101_points(self, capsys):
        assert main(["sweep", "--sens", "0.7", "--tn-rate", "0.7"]) == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert len(rows) == 102
        assert rows[1][0] == "0"
        assert rows[-1][0] == "1"

    def test_config_supplies_convention_and_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text("convention = standard\n")
        base = ["sweep", "--sens", "0.8", "--tn-rate", "0.9", "--prevalences", "0.5"]
        main(base + ["--config", str(cfg)])
        assert read_csv_text(capsys.readouterr().out)[1][3] == "standard"
        main(base + ["--config", str(cfg), "--convention", "paper"])
        assert read_csv_text(capsys.readouterr().out)[1][3] == "paper"

    def test_rates_from_rasters(self, raster_pair, capsys):
        sim, obs = raster_pair
        rc = main(["sweep", "--sim", sim, "--obs", obs, "--prevalences", "0.2,0.8"])
        assert rc == 0
        rows = read_csv_text(capsys.readouterr().out)
        assert [r[0] for r in rows[1:]] == ["0.2", "0.8"]

    def test_no_rates_no_rasters(self):
        expect_failure(["sweep", "--prevalences", "0.5"])


class TestKde:
    @pytest.fixture
    def mirror_samples(self, tmp_path):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0.25, 0.45, size=40)
        path = tmp_path / "samples.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label", "value"])
            for v in pos:
                writer.writerow(["pos", repr(float(v))])
                writer.writerow(["neg", repr(float(1.0 - v))])
        return str(path)

    def test_mirror_samples_cross_at_half(self, mirror_samples, capsys):
        rc = main(["kde", "--samples", mirror_samples])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,f_pos,f_neg"
        assert len(lines) >= 512 + 3  # header + grid + crossing + >=1 crossing_at
        crossing = next(l for l in lines if l.startswith("crossing "))
        assert float(crossing.split()[1]) == pytest.approx(0.5, abs=1e-5)
        detail = [l for l in lines if l.startswith("crossing_at ")]
        assert detail
        parts = detail[0].split()
        assert parts[2] == "density"
        assert float(parts[3]) > 0.0

    def test_out_writes_grid_csv(self, mirror_samples, tmp_path, capsys):
        out_dir = tmp_path / "kde_out"
        rc = main(["kde", "--samples", mirror_samples, "--out", str(out_dir)])
        assert rc == 0
        rows = read_csv_text((out_dir / "kde.csv").read_text())
        assert rows[0] == ["x", "f_pos", "f_neg"]
        assert len(rows) == 513
        assert capsys.readouterr().out.splitlines()[0].endswith("kde.csv")

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("label,value\nmaybe,0.5\n")
        expect_failure(["kde", "--samples", str(path)])


class TestConverge:
    @pytest.fixture
    def runs_csv(self, tmp_path):
        runs = generate_run_table(SynthConfig(seed=3, planted_offset=0.25))
        path = tmp_path / "runs.csv"
        write_runs_csv(path, runs)
        return str(path)

    def test_selection_lines_and_outputs(self, runs_csv, tmp_path, capsys):
        out_dir = tmp_path / "conv"
        assert main(["converge", "--runs", runs_csv, "--out", str(out_dir)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.split()[0] for l in lines] == ["A", "B", "C", "all"]
        assert all(l.split()[1] == "selected_alpha" for l in lines)
        assert lines[-1] == "all selected_alpha 0.25"
        names = {p.name for p in out_dir.iterdir()}
        assert {"runs.csv", "timeline.csv", "fits.csv", "dominance.csv", "summary.json"} <= names
        assert {"kde_all.csv", "ppcurve_all.csv", "kde_A.csv", "ppcurve_C.csv"} <= names
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scopes"]["all"]["selected_alpha"] == 0.25

    def test_final_cycle_flag(self, runs_csv, tmp_path):
        out_dir = tmp_path / "conv2"
        rc = main(["converge", "--runs", runs_csv, "--out", str(out_dir), "--final-cycle", "9"])
        assert rc == 0

    def test_requires_out(self, runs_csv):
        expect_failure(["converge", "--runs", runs_csv])

    def test_empty_runs_file(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("box_id,group,cycle,ppv,npv\n")
        expect_failure(["converge", "--runs", str(path), "--out", str(tmp_path / "x")])


class TestSample:
    # 4x6 region tiled into six 2x2 boxes. Per box: change fraction
    # [0.5, 0, 0.25, 0.25, 0, 0.75], exclusion fraction
    # [0.25, 0, 0, 0.5, 1.0, 0.75], so the change/exclusion index is
    # [2, 0, inf, 0.5, 0, 1].
    CHANGE = [
        [1, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1, 0],
    ]
    EXCL = [
        [0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 0, 1],
        [1, 0, 1, 1, 1, 1],
    ]

    @pytest.fixture
    def region(self, tmp_path):
        change = tmp_path / "change.asc"
        excl = tmp_path / "excl.asc"
        write_grid(Grid(np.array(self.CHANGE, dtype=float)), change)
        write_grid(Grid(np.array(self.EXCL, dtype=float)), excl)
        return str(change), str(excl)

    def run_sample(self, region, capsys, n_quantiles="2"):
        change, excl = region
        rc = main([
            "sample", "--change", change, "--exclusion", excl,
            "--box-cells", "4", "--n-quantiles", n_quantiles,
        ])
        assert rc == 0
        return read_csv_text(capsys.readouterr().out)

    def test_box_statistics_and_pools(self, region, capsys):
        rows = self.run_sample(region, capsys)
        assert rows[0] == [
            "box_id", "row0", "col0", "pct_urban", "pct_excl", "index", "pools", "selected_for",
        ]
        body = rows[1:]
        assert [r[0] for r in body] == ["0", "1", "2", "3", "4", "5"]
        assert [r[3] for r in body] == ["0.5", "0", "0.25", "0.25", "0", "0.75"]
        assert [r[4] for r in body] == ["0.25", "0", "0", "0.5", "1", "0.75"]
        assert [r[5] for r in body] == ["2", "0", "inf", "0.5", "0", "1"]
        assert [r[6] for r in body] == ["ABC", "A", "ABC", "AB", "A", "ABC"]

    def test_selection_is_within_pools_and_sized(self, region, capsys):
        body = self.run_sample(region, capsys)[1:]
        for r in body:
            assert set(r[7]) <= set(r[6])
        for label in "ABC":
            assert sum(label in r[7] for r in body) == 2

    def test_pool_equal_to_quantiles_takes_every_box(self, region, capsys):
        body = self.run_sample(region, capsys, n_quantiles="3")[1:]
        c_selected = [r[0] for r in body if "C" in r[7]]
        assert c_selected == ["0", "2", "5"]

    def test_deterministic(self, region, capsys):
        first = self.run_sample(region, capsys)
        second = self.run_sample(region, capsys)
        assert first == second


    def test_pools_column_matches_classify_pools(self, tmp_path, capsys):
        # 20x20 boxes of 4x4 cells; change rises west to east and exclusion
        # north to south, so every pool holds boxes the others lack.
        rng = np.random.default_rng(4)
        rows, cols = np.mgrid[0:80, 0:80] / 80.0
        change = BinaryGrid((rng.random((80, 80)) < 0.05 + 0.5 * cols).astype(np.int8))
        excl = BinaryGrid((rng.random((80, 80)) < 0.05 + 0.5 * rows).astype(np.int8))
        write_grid(change, tmp_path / "change.asc")
        write_grid(excl, tmp_path / "excl.asc")
        rc = main([
            "sample", "--change", str(tmp_path / "change.asc"), "--exclusion", str(tmp_path / "excl.asc"),
            "--box-cells", "16", "--n-quantiles", "5",
        ])
        assert rc == 0
        body = read_csv_text(capsys.readouterr().out)[1:]

        pools = classify_pools(tile_region(change, excl, 16))
        expected = {label: {b.box_id for b in pool} for label, pool in pools.items()}
        assert len(body) == len(expected["A"]) == 400
        assert 0 < len(expected["C"]) < len(expected["B"]) < 400
        for label in "ABC":
            assert {int(r[0]) for r in body if label in r[6]} == expected[label]


class TestSynth:
    def test_writes_rasters_and_run_table(self, tmp_path, capsys):
        out_dir = tmp_path / "synth"
        rc = main([
            "synth", "--out", str(out_dir), "--rows", "20", "--cols", "30",
            "--boxes", "6", "--cycles", "3", "--seed", "2",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(out_dir)
        rows = read_csv_text((out_dir / "runs.csv").read_text())
        assert rows[0] == ["box_id", "group", "cycle", "ppv", "npv"]
        assert len(rows) == 1 + 6 * 3
        from mapbayes import load_grid

        assert load_grid(out_dir / "obs.asc").values.shape == (20, 30)
        assert load_grid(out_dir / "scores.asc").values.shape == (20, 30)

    def test_requires_out(self):
        expect_failure(["synth"])


class TestReport:
    def test_runs_job_from_config(self, job_tree, capsys):
        config_path, out_dir = job_tree
        with pytest.warns(UserWarning):
            assert main(["report", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.strip() == str(out_dir)
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "manifest.json").exists()

    def test_flag_overrides_redirect_output(self, job_tree, tmp_path, capsys):
        config_path, _ = job_tree
        other = tmp_path / "elsewhere"
        with pytest.warns(UserWarning):
            rc = main([
                "report", "--config", str(config_path),
                "--out", str(other), "--convention", "standard",
            ])
        assert rc == 0
        capsys.readouterr()
        summary = json.loads((other / "summary.json").read_text())
        assert summary["convention"] == "standard"

    def test_requires_config(self):
        expect_failure(["report"])

    def test_failed_inputs_reported_on_stderr(self, job_tree, capsys):
        config_path, _ = job_tree
        data_dir = config_path.parent / "data"
        bad = data_dir / "bad.asc"
        write_grid(Grid(np.array([[1.0, 0.5], [0.0, 1.0]])), bad)
        manifest = data_dir / "inputs.csv"
        manifest.write_text(manifest.read_text() + f"binary,{bad.name},{bad.name},,9,B,1\n")
        with pytest.warns(UserWarning):
            assert main(["report", "--config", str(config_path)]) == 0
        assert "failed_inputs 1" in capsys.readouterr().err


class TestParserBasics:
    def test_no_subcommand_is_usage_error(self):
        expect_failure([])

    def test_unknown_subcommand(self):
        expect_failure(["frobnicate"])

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "assess" in capsys.readouterr().out


#: Arguments that get each subcommand past argparse's required-argument
#: check; the files are never opened when parsing fails.
REQUIRED_ARGS = {
    "assess": ["--obs", "obs.asc"],
    "sweep": [],
    "kde": ["--samples", "samples.csv"],
    "converge": ["--runs", "runs.csv"],
    "sample": ["--change", "change.asc", "--exclusion", "excl.asc"],
    "synth": [],
}


class TestSharedSettings:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command in ("assess", "sweep")
            for flag, value in (("--seed", "1"), ("--alpha-grid", "0.5"), ("--bandwidth", "0.1"))
        ]
        + [("kde", "--seed", "1"), ("kde", "--alpha-grid", "0.5"), ("kde", "--convention", "paper")]
        + [("kde", "--grid-points", "16")]
        + [("converge", "--seed", "1"), ("converge", "--threshold", "value:0.5")]
        + [
            (command, flag, value)
            for command in ("sample", "synth")
            for flag, value in (("--alpha-grid", "0.5"), ("--bandwidth", "0.1"), ("--convention", "paper"))
        ],
    )
    def test_unread_flag_is_a_usage_error(self, command, flag, value, capsys):
        expect_failure([command, *REQUIRED_ARGS[command], flag, value])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key",
        [("assess", "seed"), ("sweep", "bandwidth"), ("kde", "convention"), ("converge", "threshold"),
         ("sample", "alpha_grid"), ("synth", "bandwidth")],
    )
    def test_unread_config_key_is_an_error(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{key} = 1\n")
        expect_failure([command, *REQUIRED_ARGS[command], "--config", str(cfg)])
        err = capsys.readouterr().err
        assert f"not read by {command}" in err
        assert repr(key) in err

    def test_config_supplies_seed_to_synth(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("seed = 4\n")
        base = ["synth", "--rows", "8", "--cols", "8", "--boxes", "2", "--cycles", "2"]
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--seed", "4", "--out", str(tmp_path / "b")]) == 0
        assert main(base + ["--seed", "5", "--out", str(tmp_path / "c")]) == 0
        runs = [(tmp_path / d / "runs.csv").read_text() for d in "abc"]
        assert runs[0] == runs[1] != runs[2]
