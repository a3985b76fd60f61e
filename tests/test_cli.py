"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapbayes
from mapbayes import (
    BinaryGrid,
    Grid,
    RunRecord,
    SynthConfig,
    classify_pools,
    draw_quantile_sample,
    generate_run_table,
    tile_region,
    write_grid,
)
from mapbayes import cli, report
from mapbayes.cli import main
from mapbayes.raster import format_float
from mapbayes.report import read_runs_csv, write_runs_csv

from conftest import JOB_LAYOUT, build_job_tree, mirrored_samples, write_input_files


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
        assert capsys.readouterr().err == f"error: {bad}: line 1: ncols must be a positive integer, got 'inf'\n"

    def test_overstated_ncols_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.asc"
        bad.write_text(
            "ncols 1000000000000\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value -9999\n1 0 1\n"
        )
        expect_failure(["assess", "--sim", str(bad), "--obs", str(bad)])
        assert capsys.readouterr().err == f"error: {bad}: line 7: expected 1000000000000 values, found 3\n"

    def test_misaligned_pair_is_a_usage_error(self, tmp_path, capsys):
        # Same values, different georeferencing: not a perfect match, an error.
        values = np.eye(20)
        write_grid(Grid(values, cell_size=30.0), tmp_path / "obs.asc")
        write_grid(Grid(values, cell_size=90.0, origin_x=5000.0), tmp_path / "sim.asc")
        expect_failure(["assess", "--sim", str(tmp_path / "sim.asc"), "--obs", str(tmp_path / "obs.asc")])
        assert capsys.readouterr().err == (
            "error: prediction cell_size 90.0 != observation cell_size 30.0: the rasters do not line up\n"
        )

    def test_unparsable_value_threshold_is_a_usage_error(self, score_pair, capsys):
        score, obs = score_pair
        expect_failure(["assess", "--score", score, "--obs", obs, "--threshold", "value:abc"])
        assert capsys.readouterr().err == "error: --threshold: value must be in [0, 1], got 'abc'\n"

    def test_threshold_with_a_classified_prediction_is_a_usage_error(self, raster_pair, capsys):
        # A --sim raster is never thresholded, so the flag would do nothing.
        sim, obs = raster_pair
        expect_failure(["assess", "--sim", sim, "--obs", obs, "--threshold", "value:0.9"])
        assert capsys.readouterr().err == "error: --threshold: there is no --score raster to threshold\n"

    def test_score_without_threshold_cuts_at_one_half(self, score_pair, capsys):
        score, obs = score_pair
        assert main(["assess", "--score", score, "--obs", obs]) == 0
        default = capsys.readouterr().out
        assert main(["assess", "--score", score, "--obs", obs, "--threshold", "value:0.5"]) == 0
        assert capsys.readouterr().out == default
        assert main(["assess", "--score", score, "--obs", obs, "--threshold", "value:0.9"]) == 0
        assert capsys.readouterr().out != default

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

    @pytest.mark.parametrize("rate", [["--sens", "0.8"], ["--tn-rate", "0.7"]])
    def test_one_rate_alone_is_a_usage_error(self, raster_pair, rate, capsys):
        sim, obs = raster_pair
        expect_failure(["sweep", *rate])
        message = "error: --sens and --tn-rate go together, without a raster pair; got"
        assert capsys.readouterr().err == f"{message} {rate[0]}\n"
        expect_failure(["sweep", *rate, "--sim", sim, "--obs", obs])
        assert capsys.readouterr().err == f"{message} {rate[0]} --sim --obs\n"

    def test_rates_with_a_raster_pair_is_a_usage_error(self, score_pair, capsys):
        score, obs = score_pair
        expect_failure(["sweep", "--sens", "0.8", "--tn-rate", "0.7", "--obs", obs, "--score", score])
        assert capsys.readouterr().err == (
            "error: --sens and --tn-rate go together, without a raster pair; got --sens --tn-rate --score --obs\n"
        )


    @pytest.mark.parametrize(
        "rates, message",
        [
            (["--sens", "1.5", "--tn-rate", "0.7"], "sensitivity must be in [0, 1], got 1.5"),
            (["--sens", "nan", "--tn-rate", "0.7"], "sensitivity must be in [0, 1], got nan"),
            (["--sens", "0.8", "--tn-rate", "-0.1"], "tn_rate must be in [0, 1], got -0.1"),
            (["--sens", "0.8", "--tn-rate", "inf"], "tn_rate must be in [0, 1], got inf"),
        ],
    )
    def test_a_rate_outside_the_unit_interval_is_a_usage_error(self, tmp_path, capsys, rates, message):
        out_dir = tmp_path / "sout"
        expect_failure(["sweep", *rates, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {message}\n", "")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.1,x", "could not convert string to float: 'x'"),
            ("0.1,1.5", "prevalence must be in [0, 1], got 1.5"),
            ("nan", "prevalence must be in [0, 1], got nan"),
        ],
    )
    def test_a_bad_prevalence_names_the_flag(self, tmp_path, capsys, text, message):
        out_dir = tmp_path / "sout"
        expect_failure(["sweep", "--sens", "0.8", "--tn-rate", "0.7", "--prevalences", text, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: --prevalences: {message}\n", "")
        assert not out_dir.exists()

    def test_rates_with_a_threshold_is_a_usage_error(self, capsys):
        expect_failure(["sweep", "--sens", "0.8", "--tn-rate", "0.7", "--threshold", "quantity:obs"])
        assert capsys.readouterr().err == "error: --threshold: there is no --score raster to threshold\n"


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

    def test_tied_outer_crossings_print_the_smaller(self, tmp_path, capsys):
        pos, neg = mirrored_samples()
        path = tmp_path / "samples.csv"
        rows = [f"pos,{v!r}" for v in pos.tolist()] + [f"neg,{v!r}" for v in neg.tolist()]
        path.write_text("label,value\n" + "\n".join(rows) + "\n")
        assert main(["kde", "--samples", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        crossing = next(l.split()[1] for l in lines if l.startswith("crossing "))
        detail = [l.split() for l in lines if l.startswith("crossing_at ")]
        top = max(float(d[3]) for d in detail)
        tied = [d[1] for d in detail if float(d[3]) == top]
        assert len(tied) == 2
        assert crossing == tied[0]
        assert float(crossing) < 0.5

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

    def test_missing_label_names_the_file_and_label(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text("label,value\npos,0.4\npos,0.5\npos,0.6\n")
        expect_failure(["kde", "--samples", str(path)])
        err = capsys.readouterr().err
        assert err == f"error: {path}: label 'neg': need at least 2 samples to pick a bandwidth, got 0\n"

    def test_percent_samples_are_refused_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        rows = [f"pos,{v}" for v in range(40, 52)] + [f"neg,{v}" for v in range(50, 63)]
        path.write_text("label,value\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "kout"
        expect_failure(["kde", "--samples", str(path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: line 2, column 'value': value must be in [0, 1], got 40.0\n"
        assert captured.out == ""
        assert not (out_dir / "kde.csv").exists()

    def test_a_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_bytes(b"label,value\npos,0.4\npos,0.5\nneg,0.\xff\nneg,0.6\n")
        out_dir = tmp_path / "kout"
        expect_failure(["kde", "--samples", str(path), "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert (captured.err, captured.out) == (f"error: {path}: line 4: byte 0xff is not UTF-8\n", "")
        assert not out_dir.exists()

    def test_a_subnormal_bandwidth_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text("label,value\npos,0\npos,1\nneg,0\nneg,1\n")
        out_dir = tmp_path / "kout"
        expect_failure(["kde", "--samples", str(path), "--out", str(out_dir), "--bandwidth", "5e-310"])
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --bandwidth: bandwidth must be at least the smallest normal float")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_no_crossing_writes_no_kde_csv(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text("label,value\npos,0.2\npos,0.3\nneg,0.2\nneg,0.3\n")
        out_dir = tmp_path / "kout"
        expect_failure(["kde", "--samples", str(path), "--out", str(out_dir)])
        assert capsys.readouterr().err == (
            "error: densities are identical across the search interval; no isolated crossing\n"
        )
        assert not (out_dir / "kde.csv").exists()

    def test_missing_value_column_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "samples.csv"
        path.write_text("label,score\npos,0.5\nneg,0.4\n")
        expect_failure(["kde", "--samples", str(path)])
        err = capsys.readouterr().err
        assert str(path) in err and "missing columns ['value']" in err


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
        assert {"timeline.csv", "fits.csv", "dominance.csv", "summary.json"} <= names
        assert {"kde_all.csv", "ppcurve_all.csv", "kde_A.csv", "ppcurve_C.csv"} <= names
        assert "runs.csv" not in names  # the command's own input, not written back
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scopes"]["all"]["selected_alpha"] == 0.25
        assert set(summary) == {"scopes"}

    def test_final_cycle_flag(self, runs_csv, tmp_path):
        out_dir = tmp_path / "conv2"
        rc = main(["converge", "--runs", runs_csv, "--out", str(out_dir), "--final-cycle", "9"])
        assert rc == 0

    @pytest.mark.parametrize("final_cycle", ["-5", "0", "1", "5", "99"])
    def test_a_final_cycle_outside_the_run_table_is_a_usage_error(self, tmp_path, capsys, final_cycle):
        # At or below the first cycle the robustness groups would compare the runs
        # with themselves; past the last, no scope would have a converged tail.
        synth_dir, out_dir = tmp_path / "synth", tmp_path / "conv"
        assert main(["synth", "--out", str(synth_dir), "--rows", "8", "--cols", "8", "--cycles", "4"]) == 0
        capsys.readouterr()
        runs = str(synth_dir / "runs.csv")
        expect_failure(["converge", "--runs", runs, "--out", str(out_dir), "--final-cycle", final_cycle])
        assert capsys.readouterr().err == (
            "error: final_cycle must be above the first cycle and at most the last (cycles 1 to 4), "
            f"got {final_cycle}\n"
        )
        assert not out_dir.exists()
        assert main(["converge", "--runs", runs, "--out", str(out_dir), "--final-cycle", "4"]) == 0

    def test_requires_out(self, runs_csv):
        expect_failure(["converge", "--runs", runs_csv])

    @pytest.mark.parametrize("bandwidth", ["0", "-0.1", "inf", "nan"])
    def test_bad_bandwidth_is_a_usage_error(self, runs_csv, tmp_path, bandwidth, capsys):
        out_dir = tmp_path / "conv"
        expect_failure(["converge", "--runs", runs_csv, "--out", str(out_dir), "--bandwidth", bandwidth])
        err = capsys.readouterr().err
        assert err == f"error: --bandwidth: bandwidth must be positive and finite, got {float(bandwidth)}\n"
        assert not out_dir.exists()

    def test_a_subnormal_bandwidth_is_a_usage_error(self, runs_csv, tmp_path, capsys):
        # Below the smallest normal float the peak density K(0) / h is no longer safely finite.
        out_dir = tmp_path / "conv"
        expect_failure(["converge", "--runs", runs_csv, "--out", str(out_dir), "--bandwidth", "5e-310"])
        err = capsys.readouterr().err
        assert err.startswith("error: --bandwidth: bandwidth must be at least the smallest normal float")
        assert err.endswith("got 5e-310\n")
        assert not out_dir.exists()

    def test_empty_runs_file(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("box_id,group,cycle,ppv,npv\n")
        expect_failure(["converge", "--runs", str(path), "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("box_id,group,cycle,ppv\n1,A,1,0.5\n", "missing columns ['npv']"),
            ("box_id,group,cycle,ppv,npv\n1,A,1,0.5,0.5\n2,A,1,0.5\n", "line 3 has 4 fields, the header has 5"),
            ("box_id,group,cycle,ppv,npv\nx,A,1,0.5,0.5\n", "line 2, column 'box_id': invalid literal for int()"),
            (
                "box_id,group,cycle,ppv,npv\n1,A,1,0.5,0.5\n1,A,-9223372036854775809,0.5,0.5\n",
                "line 3, column 'cycle': id must fit in a 64-bit integer, got '-9223372036854775809'",
            ),
        ],
        ids=["missing-column", "short-row", "bad-box-id", "cycle-beyond-int64"],
    )
    def test_malformed_runs_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        expect_failure(["converge", "--runs", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and message in err

    def test_refused_run_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_text("box_id,group,cycle,ppv,npv\n2,A,1,0.5,0.5\n\n1,A,1,0.5,1.5\n")
        expect_failure(["converge", "--runs", str(path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 4, column 'npv': value must be in [0, 1], got 1.5\n"
        assert not (tmp_path / "x").exists()

    def test_a_byte_that_is_not_utf8_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "runs.csv"
        path.write_bytes(b"box_id,group,cycle,ppv,npv\n1,A,1,0.5,0.5\n2,\xffA,1,0.5,0.5\n")
        out_dir = tmp_path / "x"
        expect_failure(["converge", "--runs", str(path), "--out", str(out_dir)])
        assert capsys.readouterr().err == f"error: {path}: line 3: byte 0xff is not UTF-8\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0,0.5,0", "offsets 0.0 and 0.0 share the label asymmetric_a0"),
            ("0.1,0.1000001", "offsets 0.1 and 0.1000001 share the label asymmetric_a0.1"),
        ],
    )
    def test_offsets_that_share_a_label_are_a_usage_error(self, runs_csv, tmp_path, capsys, grid, message):
        out_dir = tmp_path / "x"
        expect_failure(["converge", "--runs", runs_csv, "--out", str(out_dir), "--alpha-grid", grid])
        assert capsys.readouterr().err == f"error: --alpha-grid: {message}\n"
        assert not out_dir.exists()

    def test_a_group_named_all_is_a_usage_error(self, tmp_path, capsys):
        # It would replace the scope of all runs in every output keyed by scope.
        path = tmp_path / "runs.csv"
        rows = [f"{i},{'all' if i % 2 else 'B'},1,0.{i % 9},0.5" for i in range(80)]
        path.write_text("box_id,group,cycle,ppv,npv\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "x"
        expect_failure(["converge", "--runs", str(path), "--out", str(out_dir)])
        assert capsys.readouterr().err == (
            f"error: {path}: line 3, column 'group': group label 'all' is reserved for the scope of all runs\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("label", ["a/b", "a\x00b"])
    def test_a_group_label_that_cannot_name_a_file_is_a_usage_error(self, tmp_path, capsys, label):
        # Its scope files would be kde_a/b.csv and the like, after the other scopes' files were written.
        path = tmp_path / "runs.csv"
        rows = [f"{i},{label if i % 2 else 'B'},1,0.{i % 9},0.5" for i in range(80)]
        path.write_text("box_id,group,cycle,ppv,npv\n" + "\n".join(rows) + "\n")
        out_dir = tmp_path / "x"
        expect_failure(["converge", "--runs", str(path), "--out", str(out_dir)])
        assert capsys.readouterr().err == (
            f"error: {path}: line 3, column 'group': group label {label!r} cannot be part of a file name: "
            "it holds a path separator or NUL\n"
        )
        assert not out_dir.exists()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.builds(
                RunRecord,
                box_id=st.integers(-(10**12), 10**12),
                group=st.text(alphabet="ABC x,\"'", max_size=4).filter(lambda g: g == g.strip()),
                cycle=st.integers(-1000, 1000),
                ppv=st.floats(0.0, 1.0),
                npv=st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_written_runs_read_back(self, tmp_path_factory, runs):
        path = tmp_path_factory.mktemp("runs") / "runs.csv"
        write_runs_csv(path, runs)
        table = read_runs_csv(path)
        assert table.box_id.tolist() == [r.box_id for r in runs]
        assert table.group.tolist() == [r.group for r in runs]
        assert table.cycle.tolist() == [r.cycle for r in runs]
        assert table.ppv.tolist() == [float(format_float(r.ppv)) for r in runs]
        assert table.npv.tolist() == [float(format_float(r.npv)) for r in runs]


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

    def test_the_seed_is_passed_on_only_when_given(self, region, capsys, monkeypatch):
        seeds = []

        def recording(pool, n_quantiles, **kwargs):
            seeds.append(kwargs.get("seed", "unset"))
            return draw_quantile_sample(pool, n_quantiles, **kwargs)

        monkeypatch.setattr(cli, "draw_quantile_sample", recording)
        default = self.run_sample(region, capsys)
        assert set(seeds) == {"unset"}
        seeds.clear()
        change, excl = region
        argv = ["sample", "--change", change, "--exclusion", excl, "--box-cells", "4", "--n-quantiles", "2"]
        assert main(argv + ["--seed", "0"]) == 0
        assert set(seeds) == {0}
        assert read_csv_text(capsys.readouterr().out) == default

    def test_misaligned_exclusion_is_a_usage_error(self, region, tmp_path, capsys):
        change, _ = region
        shifted = tmp_path / "shifted.asc"
        write_grid(Grid(np.array(self.EXCL, dtype=float), origin_y=30.0), shifted)
        expect_failure(["sample", "--change", change, "--exclusion", str(shifted), "--box-cells", "4"])
        assert capsys.readouterr().err == (
            "error: change origin_y 0.0 != exclusion origin_y 30.0: the rasters do not line up\n"
        )

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

    def test_negative_seed_is_a_usage_error(self, region, capsys):
        change, excl = region
        # 10 quantiles exceed every pool, so no draw would reach the seed.
        argv = ["sample", "--change", change, "--exclusion", excl, "--box-cells", "4", "--n-quantiles", "10"]
        expect_failure(argv + ["--seed", "-1"])
        assert capsys.readouterr().err == "error: --seed: seed must be a non-negative integer, got -1\n"

    def test_deterministic(self, region, capsys):
        first = self.run_sample(region, capsys)
        second = self.run_sample(region, capsys)
        assert first == second

    @pytest.mark.parametrize(
        "n_quantiles, notice",
        [("3", ""), ("4", "skipped_pool C 3\n"), ("10", "skipped_pool A 6\nskipped_pool B 4\nskipped_pool C 3\n")],
    )
    def test_a_pool_smaller_than_the_quantiles_is_named_on_stderr(self, region, capsys, n_quantiles, notice):
        # Pools A, B and C hold 6, 4 and 3 boxes; a skipped pool has no draw in selected_for.
        change, excl = region
        argv = ["sample", "--change", change, "--exclusion", excl, "--box-cells", "4", "--n-quantiles", n_quantiles]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == notice
        drawn = {label for row in read_csv_text(captured.out)[1:] for label in row[7]}
        assert drawn == set("ABC") - {line.split()[1] for line in notice.splitlines()}


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
        expected = {label: set(pool.box_id.tolist()) for label, pool in pools.items()}
        assert len(body) == len(expected["A"]) == 400
        assert 0 < len(expected["C"]) < len(expected["B"]) < 400
        for label in "ABC":
            assert {int(r[0]) for r in body if label in r[6]} == expected[label]


def tree_bytes(directory):
    """Every entry of `directory`, by name, with its bytes (None for a directory)."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


class TestOutputTree:
    """`converge` and `report` write their tree beside `--out` and rename it into place."""

    @pytest.fixture
    def runs_files(self, tmp_path):
        """runs.csv files of groups A to C, and of its A and B rows alone."""
        runs = read_runs_csv(write_runs_csv(tmp_path / "abc.csv", generate_run_table(SynthConfig(seed=3))))
        assert sorted(set(runs.group.tolist())) == ["A", "B", "C"]
        return str(tmp_path / "abc.csv"), str(write_runs_csv(tmp_path / "ab.csv", runs[runs.group != "C"]))

    def converge(self, runs_csv, out_dir, *flags):
        return main(["converge", "--runs", runs_csv, "--out", str(out_dir), *flags])

    def test_a_rerun_on_fewer_groups_gives_the_tree_of_a_fresh_run(self, runs_files, tmp_path, capsys):
        abc, ab = runs_files
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        assert self.converge(abc, reused) == 0
        assert {"kde_C.csv", "ppcurve_C.csv"} <= set(tree_bytes(reused))
        assert self.converge(ab, reused) == 0
        assert self.converge(ab, fresh) == 0
        assert tree_bytes(reused) == tree_bytes(fresh)
        assert "kde_C.csv" not in tree_bytes(fresh)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab.csv", "abc.csv", "fresh", "reused"]

    def test_the_manifest_hashes_every_other_file(self, runs_files, tmp_path, capsys):
        assert self.converge(runs_files[0], tmp_path / "out", "--final-cycle", "9") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir() if p.name != "manifest.json"}
        assert manifest["outputs"] == {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        assert manifest["failures"] == []
        assert manifest["settings"] == {
            "alpha_grid": ["0", "0.25", "0.5", "0.75", "1"], "bandwidth": "", "final_cycle": 9,
        }

    @pytest.mark.parametrize("command", ["converge", "report"])
    def test_a_file_the_manifest_does_not_list_is_refused_before_anything_is_written(
        self, runs_files, tmp_path, capsys, monkeypatch, command
    ):
        config, _ = build_job_tree(tmp_path / "job")
        out_dir = tmp_path / "out"
        argv = {
            "converge": ["converge", "--runs", runs_files[0]],
            "report": ["report", "--config", str(config)],
        }[command] + ["--out", str(out_dir)]
        assert main(argv) == 0
        (out_dir / "notes.txt").write_text("mine\n")
        before = tree_bytes(out_dir)
        for module in (report, cli):
            monkeypatch.setattr(module, "analyze_scopes", lambda *args, **kwargs: pytest.fail("the command ran"))
        capsys.readouterr()
        expect_failure(argv)
        assert capsys.readouterr().err == f"error: {out_dir} holds notes.txt, which no manifest.json there lists\n"
        assert tree_bytes(out_dir) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab.csv", "abc.csv", "job", "out"]

    def test_an_empty_directory_is_taken(self, runs_files, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        assert self.converge(runs_files[0], tmp_path / "out") == 0
        assert {"manifest.json", "summary.json"} <= set(tree_bytes(tmp_path / "out"))

    @pytest.mark.parametrize(
        "entries, refused",
        [
            ({"summary.json": "{}\n"}, "summary.json"),  # no manifest.json
            ({"manifest.json": '{"outputs": '}, "manifest.json"),  # one that does not parse
            ({"manifest.json": '{"outputs": ["kde_A.csv"]}', "kde_A.csv": None}, "kde_A.csv"),  # a directory
        ],
    )
    def test_a_directory_that_no_manifest_lists_is_refused(self, runs_files, tmp_path, capsys, entries, refused):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name, text in entries.items():
            (out_dir / name).mkdir() if text is None else (out_dir / name).write_text(text)
        before = tree_bytes(out_dir)
        expect_failure(["converge", "--runs", runs_files[0], "--out", str(out_dir)])
        assert capsys.readouterr().err == f"error: {out_dir} holds {refused}, which no manifest.json there lists\n"
        assert tree_bytes(out_dir) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab.csv", "abc.csv", "out"]

    def test_a_failed_rerun_leaves_the_tree_as_it_was(self, runs_files, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert self.converge(runs_files[0], out_dir) == 0
        before = tree_bytes(out_dir)
        capsys.readouterr()
        expect_failure(["converge", "--runs", runs_files[1], "--out", str(out_dir), "--final-cycle", "1"])
        assert capsys.readouterr().err.startswith("error: final_cycle must be above the first cycle")
        assert tree_bytes(out_dir) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab.csv", "abc.csv", "out"]

    def test_a_link_to_a_tree_is_followed(self, runs_files, tmp_path, capsys):
        target, link = tmp_path / "target", tmp_path / "link"
        assert self.converge(runs_files[0], target) == 0
        link.symlink_to(target, target_is_directory=True)
        assert self.converge(runs_files[1], link) == 0
        assert self.converge(runs_files[1], tmp_path / "fresh") == 0
        assert link.is_symlink() and tree_bytes(target) == tree_bytes(tmp_path / "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ab.csv", "abc.csv", "fresh", "link", "target"]

    def test_a_missing_parent_is_made(self, runs_files, tmp_path, capsys):
        out_dir = tmp_path / "a" / "b" / "out"
        assert self.converge(runs_files[0], out_dir) == 0
        assert "summary.json" in tree_bytes(out_dir)
        assert [p.name for p in out_dir.parent.iterdir()] == ["out"]
        assert oct(out_dir.stat().st_mode & 0o777) == oct(out_dir.parent.stat().st_mode & 0o777)


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

    def test_default_tree_is_pinned_by_digest(self, tmp_path, capsys):
        # The digests of the tree before the rasters were written from integer digits.
        assert main(["synth", "--out", str(tmp_path / "d")]) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "d").iterdir()}
        assert digests == {
            "obs.asc": "3df0687f15e59361c54d192620056ab52470dd6943efae18cd7cc0c937c360f8",
            "runs.csv": "cc501aebbdace84a2540a9f72a951fa14efb006ea41dd2682f712c51730b83f2",
            "scores.asc": "74433a39338a231c9847c25d04a53bd157b6c315b6ba5d257cd953718e67f924",
        }

    def test_requires_out(self):
        expect_failure(["synth"])

    @pytest.mark.parametrize(
        "flag, value", [("--change-fraction", "nan"), ("--exclusion-fraction", "inf"), ("--score-noise", "nan")]
    )
    def test_a_non_finite_knob_is_a_usage_error(self, tmp_path, capsys, flag, value):
        # A NaN noise would draw scores.asc as if it were 0 and runs.csv at the widest spread.
        out_dir = tmp_path / "synth"
        expect_failure(["synth", "--out", str(out_dir), flag, value])
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be non-negative and finite, got {value}\n"
        assert not out_dir.exists()

    def test_a_flag_left_out_takes_the_library_default(self, tmp_path, capsys, monkeypatch):
        calls = []

        def recording(fn):
            def wrapper(*args, **kwargs):
                calls.append((fn.__name__, args[1:], kwargs))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "SynthConfig", recording(SynthConfig))
        monkeypatch.setattr(cli, "generate_run_table", recording(generate_run_table))
        assert main(["synth", "--out", str(tmp_path / "a")]) == 0
        assert calls == [("SynthConfig", (), {}), ("generate_run_table", (), {})]
        default = generate_run_table(SynthConfig())
        assert (tmp_path / "a" / "runs.csv").read_bytes() == write_runs_csv(tmp_path / "lib.csv", default).read_bytes()

        calls.clear()
        argv = ["synth", "--out", str(tmp_path / "b"), "--rows", "8", "--planted-offset", "0.25", "--boxes", "3",
                "--cycles", "4", "--seed", "2"]
        assert main(argv) == 0
        assert calls == [
            ("SynthConfig", (), {"rows": 8, "planted_offset": 0.25, "seed": 2}),
            ("generate_run_table", (), {"n_boxes": 3, "cycles": (1, 2, 3, 4)}),
        ]
        runs = read_runs_csv(tmp_path / "b" / "runs.csv")
        assert runs.cycle.tolist() == [1, 2, 3, 4] * 3

    def test_a_byte_that_is_not_utf8_in_the_config_names_the_file_and_line(self, tmp_path, capsys):
        config_path = tmp_path / "synth.cfg"
        config_path.write_bytes(b"rows = 20\nseed = \xff\n")
        out_dir = tmp_path / "synth"
        expect_failure(["synth", "--config", str(config_path), "--out", str(out_dir)])
        assert capsys.readouterr().err == f"error: {config_path}: line 2: byte 0xff is not UTF-8\n"
        assert not out_dir.exists()


class TestReport:
    def test_runs_job_from_config(self, job_tree, capsys):
        config_path, out_dir = job_tree
        assert main(["report", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.strip() == str(out_dir)
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("final_cycle", ["0", "1", "3"])
    def test_a_final_cycle_outside_the_inputs_cycles_stops_before_any_pair(
        self, job_tree, capsys, monkeypatch, final_cycle
    ):
        config_path, out_dir = job_tree  # cycles 1 and 2
        monkeypatch.setattr(report, "assess_pair", lambda *args: pytest.fail("a pair was assessed"))
        expect_failure(["report", "--config", str(config_path), "--final-cycle", final_cycle])
        assert capsys.readouterr().err == (
            "error: final_cycle must be above the first cycle and at most the last (cycles 1 to 2), "
            f"got {final_cycle}\n"
        )
        assert not out_dir.exists()

    def test_flag_overrides_redirect_output(self, job_tree, tmp_path, capsys):
        config_path, _ = job_tree
        other = tmp_path / "elsewhere"
        rc = main(["report", "--config", str(config_path), "--out", str(other), "--convention", "standard"])
        assert rc == 0
        capsys.readouterr()
        summary = json.loads((other / "summary.json").read_text())
        assert summary["convention"] == "standard"

    def test_two_group_report_is_silent_and_records_its_caveats(self, job_tree):
        # A caveat on reading the results is a summary field, never a line on stderr.
        config_path, out_dir = job_tree
        env = {**os.environ, "PYTHONPATH": str(Path(mapbayes.__file__).parents[1])}
        argv = [sys.executable, "-m", "mapbayes.cli", "report", "--config", str(config_path)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stderr) == (0, "")
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["dor_by_group"]) == {"A", "B"}
        assert summary["dor_caveat"] is True
        # Six runs per group are fewer than MIN_PP_POINTS; the twelve of "all" are not.
        assert {scope: entry["pp_coarse"] for scope, entry in summary["scopes"].items()} == {
            "all": False, "A": True, "B": True
        }

    def test_requires_config(self):
        expect_failure(["report"])

    def test_infinite_bandwidth_in_config_is_a_usage_error(self, job_tree, capsys):
        config_path, out_dir = job_tree
        config_path.write_text(config_path.read_text() + "bandwidth = inf\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == (
            f"error: {config_path}: bandwidth: bandwidth must be positive and finite, got inf\n"
        )
        assert not out_dir.exists()

    def test_a_subnormal_bandwidth_in_config_is_a_usage_error(self, job_tree, capsys):
        config_path, out_dir = job_tree
        config_path.write_text(config_path.read_text() + "bandwidth = 5e-310\n")
        expect_failure(["report", "--config", str(config_path)])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_path}: bandwidth: bandwidth must be at least the smallest normal float")
        assert not out_dir.exists()

    @pytest.mark.parametrize("column", ["box_id", "cycle"])
    def test_an_id_beyond_int64_is_refused_before_any_work(self, job_tree, capsys, column):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        header, first, *rest = manifest.read_text().splitlines()
        fields = dict(zip(header.split(","), first.split(",")))
        fields[column] = "100000000000000000000"
        manifest.write_text("\n".join([header, first, *rest, ",".join(fields.values())]) + "\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 14, column {column!r}: "
            "id must fit in a 64-bit integer, got '100000000000000000000'\n"
        )
        assert not out_dir.exists()

    def test_relative_config_paths_resolve_against_the_config_file(self, job_tree, tmp_path, monkeypatch, capsys):
        config_path, out_dir = job_tree
        job_dir = tmp_path / "job"
        job_dir.mkdir()
        text = config_path.read_text().replace(f"inputs = {tmp_path}", "inputs = ..")
        (job_dir / "job.cfg").write_text(text.replace(f"out = {out_dir}", "out = results"))
        monkeypatch.chdir(tmp_path)
        assert main(["report", "--config", "job/job.cfg"]) == 0
        assert capsys.readouterr().out == "job/results\n"
        assert (job_dir / "results" / "manifest.json").exists()
        assert not (tmp_path / "results").exists()

    def test_short_manifest_row_is_a_usage_error(self, job_tree, capsys):
        config_path, _ = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        manifest.write_text(manifest.read_text() + "binary,sim.asc,obs.asc\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == f"error: {manifest}: line 14 has 3 fields, the header has 7\n"

    def test_an_empty_sim_path_is_a_usage_error_that_names_the_line(self, job_tree, capsys):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        lines = manifest.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:1] + [""] + lines[2].split(",")[2:])
        manifest.write_text("\n".join(lines) + "\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == f"error: {manifest}: line 3, column 'sim': a raster path must not be empty\n"
        assert not out_dir.exists()

    def test_threshold_without_a_score_input_is_a_usage_error(self, job_tree, capsys):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(line for line in lines if not line.startswith("score,")) + "\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == (
            f"error: {config_path}: threshold: the inputs list no score raster to threshold\n"
        )
        assert not out_dir.exists()

    def test_a_config_key_set_twice_is_a_usage_error(self, job_tree, capsys):
        config_path, out_dir = job_tree
        config_path.write_text(config_path.read_text() + "seed = 2\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == f"error: {config_path}: key 'seed' is set twice, on lines 6 and 7\n"
        assert not out_dir.exists()

    def test_a_group_named_all_is_a_usage_error(self, job_tree, capsys):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        lines = manifest.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:5] + ["all"] + lines[1].split(",")[6:])
        manifest.write_text("\n".join(lines) + "\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 2, column 'group': group label 'all' is reserved for the scope of all runs\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("label", ["a/b", "a\x00b"])
    def test_a_group_label_that_cannot_name_a_file_is_a_usage_error(self, job_tree, capsys, label):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        lines = manifest.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:5] + [label] + lines[1].split(",")[6:])
        manifest.write_text("\n".join(lines) + "\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == (
            f"error: {manifest}: line 2, column 'group': group label {label!r} cannot be part of a file name: "
            "it holds a path separator or NUL\n"
        )
        assert not out_dir.exists()

    def test_a_byte_that_is_not_utf8_in_the_inputs_names_the_file_and_line(self, job_tree, capsys):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        lines = manifest.read_bytes().splitlines()
        fields = lines[2].split(b",")
        lines[2] = b",".join(fields[:5] + [b"\xe9"] + fields[6:])
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == f"error: {manifest}: line 3: byte 0xe9 is not UTF-8\n"
        assert not out_dir.exists()

    def test_offsets_that_share_a_label_in_config_are_a_usage_error(self, job_tree, capsys):
        config_path, out_dir = job_tree
        config_path.write_text(config_path.read_text() + "alpha_grid = 0, 0.5, 0\n")
        expect_failure(["report", "--config", str(config_path)])
        assert capsys.readouterr().err == (
            f"error: {config_path}: alpha_grid: offsets 0.0 and 0.0 share the label asymmetric_a0\n"
        )
        assert not out_dir.exists()

    def test_failed_inputs_reported_on_stderr(self, job_tree, capsys):
        config_path, _ = job_tree
        data_dir = config_path.parent / "data"
        bad = data_dir / "bad.asc"
        write_grid(Grid(np.array([[1.0, 0.5], [0.0, 1.0]])), bad)
        manifest = data_dir / "inputs.csv"
        manifest.write_text(manifest.read_text() + f"binary,{bad.name},{bad.name},,9,B,1\n")
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
    "report": [],
}


class TestSharedSettings:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (command, flag, value)
            for command in ("assess", "sweep")
            for flag, value in (("--seed", "1"), ("--alpha-grid", "0.5"), ("--bandwidth", "0.1"))
        ]
        + [("assess", "--box-id", "7"), ("assess", "--group", "Z"), ("assess", "--cycle", "9")]
        + [("kde", "--seed", "1"), ("kde", "--alpha-grid", "0.5"), ("kde", "--convention", "paper")]
        + [("kde", "--grid-points", "16")]
        + [("converge", "--seed", "1"), ("converge", "--threshold", "value:0.5"), ("converge", "--convention", "paper")]
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
         ("converge", "convention"), ("sample", "alpha_grid"), ("synth", "bandwidth")],
    )
    def test_unread_config_key_is_an_error(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{key} = 1\n")
        expect_failure([command, *REQUIRED_ARGS[command], "--config", str(cfg)])
        err = capsys.readouterr().err
        assert f"not read by {command}" in err
        assert repr(key) in err

    def test_relative_out_resolves_against_the_config_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "job").mkdir()
        (tmp_path / "job" / "job.cfg").write_text("out = results\n")
        monkeypatch.chdir(tmp_path)
        base = ["sweep", "--sens", "0.8", "--tn-rate", "0.9", "--prevalences", "0.5", "--config", "job/job.cfg"]
        assert main(base) == 0
        assert main(base + ["--out", "flagged"]) == 0
        assert capsys.readouterr().out.splitlines() == ["job/results/sweep.csv", "flagged/sweep.csv"]
        assert (tmp_path / "job" / "results" / "sweep.csv").exists()
        assert (tmp_path / "flagged" / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("synth", "seed = abc", "seed: invalid literal for int() with base 10: 'abc'"),
            ("kde", "bandwidth = 0", "bandwidth: bandwidth must be positive and finite, got 0.0"),
            ("sweep", "convention = bayes", "convention: unknown convention 'bayes'"),
        ],
    )
    def test_bad_config_value_names_the_file_and_key(self, command, line, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        expect_failure([command, *REQUIRED_ARGS[command], "--config", str(cfg)])
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")

    def test_config_supplies_seed_to_synth(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("seed = 4\n")
        base = ["synth", "--rows", "8", "--cols", "8", "--boxes", "2", "--cycles", "2"]
        assert main(base + ["--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--seed", "4", "--out", str(tmp_path / "b")]) == 0
        assert main(base + ["--seed", "5", "--out", str(tmp_path / "c")]) == 0
        runs = [(tmp_path / d / "runs.csv").read_text() for d in "abc"]
        assert runs[0] == runs[1] != runs[2]


#: Per setting but the two paths, which parse any text: a text that parses
#: to a value other than the default, one that its parser refuses, and the
#: parser's message.
SETTING_VALUES = {
    "threshold": ("quantity:obs", "bogus", "cannot parse threshold policy 'bogus'"),
    "convention": ("standard", "bayes", "unknown convention 'bayes'; expected 'paper' or 'standard'"),
    "alpha_grid": ("0,0.5", "0.5,2", "alpha must be in [0, 1], got 2.0"),
    "bandwidth": ("0.05", "0", "bandwidth must be positive and finite, got 0.0"),
    "seed": ("3", "-1", "seed must be a non-negative integer, got -1"),
    "final_cycle": ("2", "x", "invalid literal for int() with base 10: 'x'"),
}
READ_PAIRS = [(command, key) for command, keys in cli.READS.items() for key in keys]
UNREAD_PAIRS = [(command, key) for command, keys in cli.READS.items() for key in cli.SETTINGS if key not in keys]


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """Each subcommand's arguments besides its settings, over small inputs built once."""
    root = tmp_path_factory.mktemp("inputs")
    # A third cycle, so that a final_cycle of 2 lies inside the manifest's cycles and is not the default.
    layout = JOB_LAYOUT + [(box, group, 3, kind) for box, group, cycle, kind in JOB_LAYOUT if cycle == 2]
    config_path, _ = build_job_tree(root, layout)
    manifest = str(root / "data" / "inputs.csv")
    score, obs = (str(root / "data" / name) for name in ("score_b1_c1.asc", "obs_b1_c1.asc"))
    samples = root / "samples.csv"
    pos = np.random.default_rng(11).uniform(0.25, 0.45, size=40)
    samples.write_text("label,value\n" + "".join(f"pos,{v!r}\nneg,{1.0 - v!r}\n" for v in pos.tolist()))
    runs = root / "runs.csv"
    write_runs_csv(runs, generate_run_table(SynthConfig(seed=3, planted_offset=0.25)))
    rng = np.random.default_rng(4)
    for name in ("change", "excl"):
        write_grid(Grid((rng.random((20, 20)) < 0.3).astype(float)), root / f"{name}.asc")
    return {
        "assess": ["--score", score, "--obs", obs],
        "sweep": ["--score", score, "--obs", obs, "--prevalences", "0.2,0.5"],
        "kde": ["--samples", str(samples)],
        "converge": ["--runs", str(runs)],
        "sample": ["--change", str(root / "change.asc"), "--exclusion", str(root / "excl.asc"),
                   "--box-cells", "4", "--n-quantiles", "3"],
        "synth": ["--rows", "8", "--cols", "8", "--boxes", "2", "--cycles", "2"],
        "report": ["--inputs", manifest],
    }


class TestSettingsTable:
    """Each setting a subcommand reads is a flag and a config key with one parser."""

    @staticmethod
    def run(argv, out_dir, capsys):
        """(stdout, {file name: bytes} of `out_dir`) of a successful run from a clean `out_dir`."""
        shutil.rmtree(out_dir, ignore_errors=True)
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
        return capsys.readouterr().out, files

    @pytest.mark.parametrize("command, key", READ_PAIRS, ids=[f"{c}-{k}" for c, k in READ_PAIRS])
    def test_the_flag_and_the_config_key_give_the_same_result(self, command, key, command_inputs, tmp_path, capsys):
        flag, cfg, out_dir = "--" + key.replace("_", "-"), tmp_path / "job.cfg", tmp_path / "out"
        base = command_inputs[command]
        if key == "inputs":
            value, base = base[1], base[2:]
        elif key == "out":
            value = str(out_dir)
        else:
            value = SETTING_VALUES[key][0]
        if key != "out":
            base = base + ["--out", str(out_dir)]
        cfg.write_text(f"{key} = {value}\n")
        by_flag = self.run([command, *base, flag, value], out_dir, capsys)
        assert self.run([command, *base, "--config", str(cfg)], out_dir, capsys) == by_flag
        if key not in ("inputs", "out"):
            # A setting accepted and then left unread would give the default result.
            assert self.run([command, *base], out_dir, capsys) != by_flag

    @pytest.mark.parametrize(
        "command, key",
        [(c, k) for c, k in READ_PAIRS if k in SETTING_VALUES],
        ids=[f"{c}-{k}" for c, k in READ_PAIRS if k in SETTING_VALUES],
    )
    def test_a_bad_value_names_the_flag_or_the_config_key(self, command, key, command_inputs, tmp_path, capsys):
        flag, cfg, out_dir = "--" + key.replace("_", "-"), tmp_path / "job.cfg", tmp_path / "out"
        base, (_, bad, message) = [*command_inputs[command], "--out", str(out_dir)], SETTING_VALUES[key]
        cfg.write_text(f"{key} = {bad}\n")
        expect_failure([command, *base, flag, bad])
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"
        expect_failure([command, *base, "--config", str(cfg)])
        assert capsys.readouterr().err == f"error: {cfg}: {key}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, key", UNREAD_PAIRS, ids=[f"{c}-{k}" for c, k in UNREAD_PAIRS])
    def test_a_setting_the_subcommand_does_not_read_is_refused(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"{key} = 1\n")
        expect_failure([command, *REQUIRED_ARGS[command], "--config", str(cfg)])
        assert capsys.readouterr().err == f"error: {cfg}: config keys not read by {command}: [{key!r}]\n"
        expect_failure([command, *REQUIRED_ARGS[command], "--" + key.replace("_", "-"), "1"])
        assert "unrecognized arguments: --" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["assess", "--sim", "SIM", "--obs", "OBS"], ["sweep", "--sens", "0.8", "--tn-rate", "0.7"]],
        ids=["assess-sim", "sweep-rates"],
    )
    def test_a_threshold_with_no_score_raster_is_refused_from_either_source(self, argv, raster_pair, tmp_path, capsys):
        sim, obs = raster_pair
        argv = [{"SIM": sim, "OBS": obs}.get(a, a) for a in argv]
        cfg = tmp_path / "t.cfg"
        cfg.write_text("threshold = quantity:obs\n")
        expect_failure([*argv, "--config", str(cfg)])
        assert capsys.readouterr().err == f"error: {cfg}: threshold: there is no --score raster to threshold\n"
        expect_failure([*argv, "--threshold", "quantity:obs"])
        assert capsys.readouterr().err == "error: --threshold: there is no --score raster to threshold\n"

    def test_a_report_threshold_flag_with_no_score_input_names_the_flag(self, job_tree, capsys):
        config_path, out_dir = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(line for line in lines if not line.startswith("score,")) + "\n")
        config_path.write_text(f"inputs = {manifest}\nout = {out_dir}\n")
        expect_failure(["report", "--config", str(config_path), "--threshold", "value:0.3"])
        assert capsys.readouterr().err == "error: --threshold: the inputs list no score raster to threshold\n"
        assert not out_dir.exists()

    def test_report_reaches_load_job_through_the_cli_module(self, job_tree, monkeypatch, capsys):
        # perfbench times the job set-up by wrapping mapbayes.cli.load_job; a
        # call that bypassed the module attribute would leave that span empty.
        config_path, _ = job_tree
        calls = []
        load_job = cli.load_job
        monkeypatch.setattr(cli, "load_job", lambda *args: calls.append(args) or load_job(*args))
        assert main(["report", "--config", str(config_path)]) == 0
        assert [config for config, _ in calls] == [config_path]
