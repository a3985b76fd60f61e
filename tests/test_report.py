"""Tests for job configuration, orchestration, and the written output tree."""

import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mapbayes import Grid, RunRecord, SynthConfig, generate_pair, load_grid, threshold_scores, write_grid
from mapbayes import report
from mapbayes.bayes import Convention
from mapbayes.report import (
    AssessmentJob,
    JobInput,
    ThresholdPolicy,
    analyze_scopes,
    assess_pair,
    format_float,
    group_summaries,
    load_job,
    parse_alpha_grid,
    parse_config,
    read_inputs_manifest,
    run_job,
    write_json,
)

from conftest import JOB_LAYOUT, build_job_tree

EXPECTED_FILES = {
    "confusion.csv",
    "bayes.csv",
    "runs.csv",
    "timeline.csv",
    "fits.csv",
    "dominance.csv",
    "kde_all.csv",
    "kde_A.csv",
    "kde_B.csv",
    "ppcurve_all.csv",
    "ppcurve_A.csv",
    "ppcurve_B.csv",
    "summary.json",
    "manifest.json",
}


def quiet_run_job(job):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_job(job)


class TestFormatFloat:
    def test_six_significant_digits(self):
        assert format_float(0.1234567) == "0.123457"
        assert format_float(1234567.0) == "1.23457e+06"
        assert format_float(1.0) == "1"

    def test_none_is_empty(self):
        assert format_float(None) == ""


class TestThresholdPolicy:
    def test_parse_value(self):
        p = ThresholdPolicy.parse("value:0.4")
        assert (p.kind, p.value) == ("value", 0.4)
        assert p.describe() == "value:0.4"

    def test_parse_quantity(self):
        p = ThresholdPolicy.parse("quantity:120")
        assert (p.kind, p.value) == ("quantity", 120)
        assert p.describe() == "quantity:120"

    def test_parse_quantity_obs(self):
        p = ThresholdPolicy.parse("quantity:obs")
        assert p.kind == "quantity_obs"
        assert p.describe() == "quantity:obs"

    def test_validation(self):
        with pytest.raises(ValueError, match="cannot parse"):
            ThresholdPolicy.parse("median")
        with pytest.raises(ValueError, match="cut in"):
            ThresholdPolicy("value", 1.5)
        with pytest.raises(ValueError, match="non-negative"):
            ThresholdPolicy("quantity", -3)
        with pytest.raises(ValueError, match="unknown threshold"):
            ThresholdPolicy("area", 1)


class TestParseConfig:
    def test_comments_blanks_and_case(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a job\n\nOut = results  # trailing note\nseed=3\n")
        assert parse_config(p) == {"out": "results", "seed": "3"}

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("out results\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(p)


class TestParseAlphaGrid:
    def test_values(self):
        assert parse_alpha_grid("0, 0.25,0.5") == (0.0, 0.25, 0.5)
        assert parse_alpha_grid("  ") == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="alpha grid"):
            parse_alpha_grid("0.5, 2.0")


class TestLoadJob:
    def test_reads_everything(self, job_tree):
        config_path, out_dir = job_tree
        job = load_job(config_path)
        assert len(job.inputs) == 12
        assert job.out_dir == out_dir
        assert job.threshold.kind == "quantity_obs"
        assert job.convention.value == "paper"
        assert job.alpha_grid == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_overrides_win(self, job_tree):
        config_path, _ = job_tree
        job = load_job(config_path, overrides={"convention": "standard", "alpha_grid": "0,0.5"})
        assert job.convention.value == "standard"
        assert job.alpha_grid == (0.0, 0.5)

    def test_unknown_key_rejected(self, job_tree):
        config_path, _ = job_tree
        config_path.write_text(config_path.read_text() + "bogus = 1\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_job(config_path)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("out = somewhere\n")
        with pytest.raises(ValueError, match="must set 'inputs'"):
            load_job(p)

    def test_relative_inputs_resolve_against_config(self, job_tree):
        config_path, _ = job_tree
        text = config_path.read_text()
        lines = [
            "inputs = data/inputs.csv" if line.startswith("inputs") else line
            for line in text.splitlines()
        ]
        config_path.write_text("\n".join(lines) + "\n")
        job = load_job(config_path)
        assert len(job.inputs) == 12

    def test_missing_raster_file_rejected_up_front(self, job_tree):
        config_path, _ = job_tree
        manifest = config_path.parent / "data" / "inputs.csv"
        manifest.write_text(
            "kind,sim,obs,exclusion,box_id,group,cycle\n"
            "binary,missing.asc,also_missing.asc,,0,A,1\n"
        )
        with pytest.raises(ValueError, match="missing files"):
            load_job(config_path)


class TestReadInputsManifest:
    def test_missing_column(self, tmp_path):
        p = tmp_path / "inputs.csv"
        p.write_text("kind,sim,obs\n")
        with pytest.raises(ValueError, match="columns"):
            read_inputs_manifest(p)

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "inputs.csv"
        p.write_text("kind,sim,obs,exclusion,box_id,group,cycle\n")
        with pytest.raises(ValueError, match="no inputs"):
            read_inputs_manifest(p)

    def test_blank_exclusion_is_none(self, job_tree):
        config_path, _ = job_tree
        inputs = read_inputs_manifest(config_path.parent / "data" / "inputs.csv")
        assert all(inp.exclusion is None for inp in inputs)

    def test_bad_kind_rejected(self, tmp_path):
        p = tmp_path / "inputs.csv"
        p.write_text(
            "kind,sim,obs,exclusion,box_id,group,cycle\nraster,a.asc,b.asc,,0,A,1\n"
        )
        with pytest.raises(ValueError, match="binary.*score"):
            read_inputs_manifest(p)


class TestAssessPair:
    def test_binary_and_thresholded_scores_agree(self, job_tree):
        # Box 0 is stored classified, boxes 1-2 as scores; re-assessing the
        # score inputs with the pinned-quantity rule must give a full
        # confusion matrix consistent with its own observation.
        config_path, _ = job_tree
        job = load_job(config_path)
        policy = ThresholdPolicy("quantity_obs")
        for inp in job.inputs:
            a = assess_pair(inp, policy, job.convention)
            assert a.tp + a.fp + a.fn + a.tn > 0
            assert a.prevalence == pytest.approx((a.tp + a.fn) / (a.tp + a.fp + a.fn + a.tn))
            # Pinning the predicted count to the observed count forces the
            # two error types to balance.
            assert a.fp == a.fn

    def test_exclusion_grid_shrinks_the_tally(self, tmp_path, job_tree):
        config_path, _ = job_tree
        job = load_job(config_path)
        inp = job.inputs[0]
        base = assess_pair(inp, job.threshold, job.convention)

        obs_grid = np.zeros((24, 24))
        excl_path = tmp_path / "excl.asc"
        mask = np.zeros((24, 24))
        mask[:12, :] = 1.0
        write_grid(Grid(mask), excl_path)
        trimmed = assess_pair(
            JobInput(
                kind=inp.kind,
                sim=inp.sim,
                obs=inp.obs,
                exclusion=excl_path,
                box_id=inp.box_id,
                group=inp.group,
                cycle=inp.cycle,
            ),
            job.threshold,
            job.convention,
        )
        assert trimmed.tp + trimmed.fp + trimmed.fn + trimmed.tn < (
            base.tp + base.fp + base.fn + base.tn
        )
        del obs_grid


class TestGroupSummaries:
    def make_records(self):
        return [
            RunRecord(box_id=0, group="A", cycle=1, ppv=0.8, npv=0.4),
            RunRecord(box_id=1, group="A", cycle=1, ppv=0.6, npv=0.6),
            RunRecord(box_id=0, group="A", cycle=2, ppv=0.5, npv=0.7),
            RunRecord(box_id=2, group="B", cycle=1, ppv=0.5, npv=0.5),
        ]

    def test_per_cycle_means_and_signs(self):
        out = group_summaries(self.make_records())
        a = out["A"]
        assert a["n_runs"] == 3
        assert a["cycles"][1]["mean_ppv"] == pytest.approx(0.7)
        assert a["cycles"][1]["mean_npv"] == pytest.approx(0.5)
        assert a["cycles"][1]["dominance_sign"] == 1
        assert a["cycles"][2]["dominance_sign"] == -1
        assert a["final_cycle"] == 2
        assert a["final_mean_ppv"] == pytest.approx(0.5)
        assert a["mean_abs_difference"] == pytest.approx((0.4 + 0.0 + 0.2) / 3)
        assert out["B"]["cycles"][1]["dominance_sign"] == 0
        assert "C" not in out

    def test_unknown_group_rejected(self):
        recs = [RunRecord(box_id=0, group="Z", cycle=1, ppv=0.5, npv=0.5)]
        with pytest.raises(ValueError, match="unknown group"):
            group_summaries(recs)


class TestRunJob:
    def test_writes_expected_tree(self, job_tree):
        config_path, out_dir = job_tree
        manifest = quiet_run_job(load_job(config_path))
        assert set(manifest["outputs"]) == EXPECTED_FILES - {"manifest.json"}
        on_disk = {p.name for p in out_dir.iterdir()}
        assert on_disk == EXPECTED_FILES
        assert manifest["failures"] == []

    def test_manifest_hashes_are_correct(self, job_tree):
        config_path, out_dir = job_tree
        manifest = quiet_run_job(load_job(config_path))
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_summary_contents(self, job_tree):
        config_path, out_dir = job_tree
        quiet_run_job(load_job(config_path))
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_inputs"] == 12
        assert summary["n_assessed"] == 12
        assert summary["n_failed"] == 0
        assert set(summary["scopes"]) == {"all", "A", "B"}
        assert set(summary["groups"]) == {"A", "B"}
        assert summary["threshold"] == "quantity:obs"
        for scope, entry in summary["scopes"].items():
            assert "selected_alpha" in entry
            assert "kde_prevalence" in entry or "kde_error" in entry

    def test_runs_csv_has_one_row_per_assessed_input(self, job_tree):
        config_path, out_dir = job_tree
        quiet_run_job(load_job(config_path))
        lines = (out_dir / "runs.csv").read_text().splitlines()
        assert lines[0] == "box_id,group,cycle,ppv,npv"
        assert len(lines) == 13

    def test_reruns_are_byte_identical(self, job_tree, tmp_path):
        config_path, out_dir = job_tree
        quiet_run_job(load_job(config_path))
        second_out = tmp_path / "second"
        quiet_run_job(load_job(config_path, overrides={"out": str(second_out)}))
        for p in sorted(out_dir.iterdir()):
            assert (second_out / p.name).read_bytes() == p.read_bytes(), p.name

    def test_failing_input_is_isolated(self, job_tree):
        config_path, out_dir = job_tree
        data_dir = config_path.parent / "data"
        # A classified raster with an in-range but non-binary value cannot
        # be interpreted; that input must fail without sinking the job.
        bad = data_dir / "bad.asc"
        write_grid(Grid(np.array([[1.0, 0.5], [0.0, 1.0]])), bad)
        manifest_path = data_dir / "inputs.csv"
        manifest_path.write_text(
            manifest_path.read_text() + f"binary,{bad.name},{bad.name},,9,B,1\n"
        )
        manifest = quiet_run_job(load_job(config_path))
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["box_id"] == "9"
        assert "unexpected value" in manifest["failures"][0]["error"]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_assessed"] == 12
        assert summary["n_failed"] == 1

    def test_cross_group_odds_warning_is_raised(self, job_tree):
        config_path, _ = job_tree
        with pytest.warns(UserWarning, match="comparable across groups"):
            run_job(load_job(config_path))

    def test_single_group_raises_no_odds_warning(self, tmp_path):
        config_path, out_dir = build_job_tree(tmp_path, layout=[row for row in JOB_LAYOUT if row[1] == "A"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_job(load_job(config_path))
        dor = json.loads((out_dir / "summary.json").read_text())["dor_by_group"]
        assert list(dor) == ["A"]
        assert math.isfinite(dor["A"])

    def test_dor_by_group_present(self, job_tree):
        config_path, out_dir = job_tree
        quiet_run_job(load_job(config_path))
        summary = json.loads((out_dir / "summary.json").read_text())
        assert set(summary["dor_by_group"]) == {"A", "B"}


def write_shared_map_inputs(root, order):
    """Inputs whose box shares one observed and one exclusion map over its
    cycles, as in the paper's protocol; `order` lists (box_id, cycle) in
    manifest order. Cycle 3 is classified, the others are scores."""
    inputs = []
    for box_id, cycle in order:
        obs, scores = generate_pair(SynthConfig(rows=24, cols=24, seed=box_id, score_noise=0.1 * cycle))
        obs_path, excl_path = root / f"obs_b{box_id}.asc", root / f"excl_b{box_id}.asc"
        write_grid(obs, obs_path)
        mask = np.zeros(obs.shape)
        mask[: 2 + box_id] = 1.0
        write_grid(Grid(mask), excl_path)
        kind = "binary" if cycle == 3 else "score"
        sim_path = root / f"sim_b{box_id}_c{cycle}.asc"
        write_grid(threshold_scores(scores, quantity=obs.n_ones) if kind == "binary" else scores, sim_path)
        inputs.append(JobInput(kind, sim_path, obs_path, excl_path, box_id, "AB"[box_id], cycle))
    return inputs


def shared_map_job(inputs, out_dir):
    return AssessmentJob(inputs=tuple(inputs), out_dir=out_dir, threshold=ThresholdPolicy("quantity_obs"))


class TestSharedObservedMaps:
    BOX_MAJOR = [(b, c) for b in (0, 1) for c in (1, 2, 3)]

    def test_each_shared_map_is_parsed_once_per_run(self, tmp_path, monkeypatch):
        inputs = write_shared_map_inputs(tmp_path, self.BOX_MAJOR)
        parsed = []

        def counting_load_grid(path):
            parsed.append(Path(path).name)
            return load_grid(path)

        monkeypatch.setattr(report, "load_grid", counting_load_grid)
        manifest = quiet_run_job(shared_map_job(inputs, tmp_path / "out"))
        assert manifest["failures"] == []
        # 2 boxes x (observed + exclusion) + 6 predictions, not 6 x 3.
        assert len(parsed) == 2 * 2 + 6
        assert len(set(parsed)) == len(parsed)

    def test_interleaved_boxes_match_assessing_each_input_alone(self, tmp_path):
        # Box order A, B, A: box 0's maps come back after box 1's run.
        inputs = write_shared_map_inputs(tmp_path, [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (0, 3)])
        quiet_run_job(shared_map_job(inputs, tmp_path / "out"))
        alone = []
        for i, inp in enumerate(inputs):
            quiet_run_job(shared_map_job([inp], tmp_path / f"alone_{i}"))
            header, row = (tmp_path / f"alone_{i}" / "confusion.csv").read_text().splitlines()
            alone.append(row)
        assert (tmp_path / "out" / "confusion.csv").read_text().splitlines() == [header] + alone

    def test_broken_shared_map_fails_each_input_of_its_run(self, tmp_path):
        inputs = write_shared_map_inputs(tmp_path, self.BOX_MAJOR)
        broken = tmp_path / "obs_b1.asc"
        lines = broken.read_text().split("\n")
        lines[8] = "x" + lines[8]
        broken.write_text("\n".join(lines))
        errors = []
        for inp in inputs[3:]:
            with pytest.raises(ValueError) as err:
                assess_pair(inp, ThresholdPolicy("quantity_obs"), Convention.PAPER)
            errors.append(str(err.value))
        assert errors[0].startswith("line 9: non-numeric value 'x")

        manifest = quiet_run_job(shared_map_job(inputs, tmp_path / "out"))
        assert manifest["failures"] == [
            {"sim": str(inp.sim), "box_id": "1", "cycle": str(inp.cycle), "error": error}
            for inp, error in zip(inputs[3:], errors)
        ]
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_assessed"] == 3


class TestAnalyzeScopes:
    def test_standalone_on_run_records(self, tmp_path):
        from mapbayes import SynthConfig, generate_run_table

        runs = generate_run_table(SynthConfig(seed=3, planted_offset=0.25))
        files, summaries = analyze_scopes(runs, tmp_path)
        names = {f.name for f in files}
        assert "timeline.csv" in names
        assert "fits.csv" in names
        assert "dominance.csv" in names
        assert {"all", "A", "B", "C"} <= set(summaries)
        assert summaries["all"]["selected_alpha"] == 0.25

    def test_each_density_is_evaluated_on_the_grid_once(self, tmp_path, monkeypatch):
        from mapbayes import SynthConfig, generate_run_table
        from mapbayes.kde import KdeModel

        array_calls = []
        evaluate = KdeModel.evaluate

        def counting_evaluate(model, x):
            if np.ndim(x) > 0:
                array_calls.append(id(model))
            return evaluate(model, x)

        monkeypatch.setattr(KdeModel, "evaluate", counting_evaluate)
        runs = generate_run_table(SynthConfig(seed=3, planted_offset=0.5))
        _, summaries = analyze_scopes(runs, tmp_path)
        scopes = {"all", "A", "B", "C"}
        assert scopes <= set(summaries)
        assert all("kde_prevalence" in summaries[s] for s in scopes)
        # Two densities (PPV and NPV) per scope, one array evaluation each.
        assert len(array_calls) == 2 * len(summaries)
        assert len(set(array_calls)) == len(array_calls)

    def test_degenerate_scope_records_errors(self, tmp_path):
        runs = [
            RunRecord(box_id=i, group="A", cycle=c, ppv=0.6, npv=0.4)
            for i in range(4)
            for c in (1, 2)
        ]
        files, summaries = analyze_scopes(runs, tmp_path)
        entry = summaries["all"]
        # Identical predictive values everywhere: no density spread, no
        # usable likelihood fit - both failures are reported, not raised.
        assert "kde_error" in entry
        assert "convergence_error" in entry
        assert "selected_alpha" not in entry


class TestWriteJson:
    def test_rounds_floats_and_flags_non_finite(self, tmp_path):
        p = tmp_path / "x.json"
        write_json(p, {"a": 0.12345678, "b": math.inf, "c": math.nan, "d": [1.9999999]})
        data = json.loads(p.read_text())
        assert data["a"] == 0.123457
        assert data["b"] == "inf"
        assert data["c"] == "nan"
        assert data["d"] == [2.0]

    def test_output_is_stable(self, tmp_path):
        payload = {"z": 1, "a": [0.1, 0.2], "m": {"k": True}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(p1, payload)
        write_json(p2, dict(reversed(list(payload.items()))))
        assert p1.read_bytes() == p2.read_bytes()


class TestJobValidation:
    def test_empty_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="no inputs"):
            AssessmentJob(inputs=(), out_dir=tmp_path)

    def test_bad_bandwidth_and_seed(self, job_tree):
        config_path, _ = job_tree
        job = load_job(config_path)
        with pytest.raises(ValueError, match="bandwidth"):
            AssessmentJob(inputs=job.inputs, out_dir=job.out_dir, bandwidth=-0.5)
        with pytest.raises(ValueError, match="seed"):
            AssessmentJob(inputs=job.inputs, out_dir=job.out_dir, seed=-1)
        with pytest.raises(ValueError, match="alpha grid"):
            AssessmentJob(inputs=job.inputs, out_dir=job.out_dir, alpha_grid=())
