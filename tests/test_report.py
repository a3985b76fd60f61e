"""Tests for job configuration, orchestration, and the written output tree."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapbayes import (
    EXCLUDED,
    BinaryGrid,
    Grid,
    RunRecord,
    RunTable,
    SynthConfig,
    agreement_rates,
    build_confusion,
    diagnostic_odds_ratio,
    generate_pair,
    generate_run_table,
    likelihood_ratios,
    load_grid,
    predictive_values,
    threshold_scores,
    write_grid,
)
from mapbayes import cli, raster, report, tableio
from mapbayes.raster import GridFormatError, format_floats
from mapbayes.bayes import Convention
from mapbayes.cli import load_job, parse_alpha_grid, parse_config
from mapbayes.convergence import DEFAULT_ALPHA_GRID
from mapbayes.report import (
    DEFAULT_THRESHOLD,
    AssessmentJob,
    JobInput,
    ThresholdPolicy,
    analyze_scopes,
    assess_pair,
    format_float,
    group_summaries,
    load_observed,
    read_inputs_manifest,
    run_job,
)
from mapbayes.tableio import write_json

from conftest import JOB_LAYOUT, build_job_tree, reference_read_csv

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


class TestFormatFloat:
    def test_six_significant_digits(self):
        assert format_float(0.1234567) == "0.123457"
        assert format_float(1234567.0) == "1.23457e+06"
        assert format_float(1.0) == "1"

    def test_none_is_empty(self):
        assert format_float(None) == ""

    def test_a_column_at_once(self):
        assert format_floats(np.array([0.1234567, 1.0, -0.0]).tolist() + [None]) == ["0.123457", "1", "-0", ""]

    def test_six_digit_rule_is_spelled_in_one_function(self):
        # A second spelling would let two writers' float text drift apart.
        assert functions_spelling(".6g") == {("raster.py", "format_floats")}


def tree_bytes(directory):
    """Every file of `directory`, by name, with its bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def functions_spelling(pattern):
    """(file, innermost function) of each line of src/mapbayes/*.py that matches `pattern`."""
    places = set()
    for path in sorted(Path(report.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        funcs = [n for n in ast.walk(ast.parse(text)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if re.search(pattern, line):
                around = [f for f in funcs if f.lineno <= lineno <= f.end_lineno]
                inner = min(around, key=lambda f: f.end_lineno - f.lineno).name if around else None
                places.add((path.name, inner))
    return places


class TestOneReaderOneWriter:
    def test_csv_files_are_read_in_one_function(self):
        # A second reader would drift from the first one's errors and rules.
        assert functions_spelling(r"csv\.(reader|DictReader)\(") == {("tableio.py", "read_csv")}

    def test_csv_files_are_written_in_two_functions(self):
        # write_csv writes every file; _emit_csv writes the CLI's tables to stdout.
        writers = {("tableio.py", "write_csv"), ("cli.py", "_emit_csv")}
        assert functions_spelling(r"csv\.(writer|DictWriter)\(") == writers


class TestOneSettingsTable:
    @pytest.mark.parametrize("pattern", [r"\bThresholdPolicy\.parse\b", r"\bConvention\.parse\b"])
    def test_a_setting_parser_is_named_only_in_the_settings_table(self, pattern):
        # A second call would parse one setting's flag and config key two ways.
        assert functions_spelling(pattern) == {("cli.py", None)}
        text = Path(cli.__file__).read_text(encoding="utf-8")
        (table,) = [n for n in ast.parse(text).body if isinstance(n, ast.AnnAssign) and n.target.id == "SETTINGS"]
        lines = [i for i, line in enumerate(text.splitlines(), start=1) if re.search(pattern, line)]
        assert lines and all(table.lineno <= i <= table.end_lineno for i in lines)


class TestOneRuleOneFunction:
    @pytest.mark.parametrize(
        "message, place",
        [
            ("seed must be non-negative", ()),
            ("must be a non-empty 2-D array", ("raster.py", "_keep_values")),
            ("cell_size must be positive and finite", ()),
            ("quantity must be a non-negative integer", ()),
            ("value threshold needs a cut in [0, 1]", ()),
            ("samples must be finite", ("kde.py", "_finite")),
            ("alpha must be in [0, 1]", ()),
            ("is reserved for the scope of all runs", ("report.py", "group_label")),
            ("value must be in [0, 1]", ()),
            ("must fit in a 64-bit integer", ("tableio.py", "int64_id")),
            ("share the label", ("convergence.py", "asymmetric_family")),
            ("must be a rate in [0, 1]", ()),
            ("is not UTF-8", ("tableio.py", "read_utf8")),
            ("alpha grid is empty", ("convergence.py", "asymmetric_family")),
            ("must be in [0, 1]", ("raster.py", "check_unit")),
            ("must be positive and finite", ("raster.py", "check_positive")),
            ("must be a non-negative integer", ("raster.py", "check_count")),
            ("must be a positive integer", ("raster.py", "check_count")),
            ("must be non-negative and finite", ("raster.py", "check_nonnegative")),
            ("percentages must be non-negative", ()),
            ("final_cycle must be above the first cycle", ("convergence.py", "check_final_cycle")),
            ("unknown group label", ()),
            ("1-D and of one length", ("tableio.py", "__post_init__")),
        ],
    )
    def test_each_input_rule_is_written_once(self, message, place):
        # A rule written twice drifts: one copy gains a check the other lacks.
        # A place of () marks a field's own copy of a rule that its domain's
        # rule in raster.py now spells: that copy must not come back.
        assert functions_spelling(re.escape(message)) == ({place} if place else set())


    def test_records_become_a_table_only_where_runs_csv_is_written(self):
        # Every analysis takes a RunTable; a second conversion would let records back in.
        assert functions_spelling(r"RunTable\.of\(") == {("report.py", "write_runs_csv")}


class TestNoWarnings:
    def test_the_library_issues_no_warnings(self):
        # A caveat on a result is a summary field: the output tree keeps it, a warning is lost.
        assert functions_spelling(r"warnings\.") == set()

    def test_the_library_logs_nothing(self):
        # Every record of a run is in its output tree or on stdout and stderr; a log line only repeats one.
        assert functions_spelling(r"\blogging\b|\blog\.") == set()


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

    @pytest.mark.parametrize("count", [2.5, 2.0, math.inf, True, None])
    def test_quantity_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="quantity must be a non-negative integer"):
            ThresholdPolicy("quantity", count)

    @pytest.mark.parametrize("text", ["quantity:2.5", "quantity:inf", "quantity:", "quantity:-1"])
    def test_parsed_quantity_must_be_a_count(self, text):
        with pytest.raises(ValueError, match="quantity must be a non-negative integer, got"):
            ThresholdPolicy.parse(text)

    @pytest.mark.parametrize("text, arg", [("value:abc", "'abc'"), ("value:", "''"), ("value:1.5", "1.5")])
    def test_parsed_value_must_be_a_cut(self, text, arg):
        with pytest.raises(ValueError, match=re.escape(f"value must be in [0, 1], got {arg}")):
            ThresholdPolicy.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError, match="cannot parse"):
            ThresholdPolicy.parse("median")
        with pytest.raises(ValueError, match=re.escape("value must be in [0, 1], got 1.5")):
            ThresholdPolicy("value", 1.5)
        with pytest.raises(ValueError, match="non-negative"):
            ThresholdPolicy("quantity", -3)
        with pytest.raises(ValueError, match="unknown threshold"):
            ThresholdPolicy("area", 1)


def set_config_line(config_path, line):
    """Write `line` into a config file in place of the line that sets the same key, if any."""
    key = line.partition("=")[0].strip()
    kept = [old for old in config_path.read_text().splitlines() if old.partition("=")[0].strip() != key]
    config_path.write_text("\n".join(kept + [line]) + "\n")


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

    def test_a_key_set_twice_is_refused(self, tmp_path):
        # Keeping either line would silently drop the other one's setting.
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nout = results\n\nSeed = 2\n")
        with pytest.raises(ValueError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}: key 'seed' is set twice, on lines 1 and 4"

    def test_a_malformed_line_is_named_as_read_csv_names_one(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nout results\n")
        with pytest.raises(ValueError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}: line 2: expected 'key = value', got 'out results'"

    @pytest.mark.parametrize("mark", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"], ids=repr)
    def test_only_a_newline_ends_a_line(self, tmp_path, mark):
        # str.splitlines also breaks at these, which made this one line two.
        p = tmp_path / "c.cfg"
        p.write_bytes(f"seed = 1{mark}seed = 2".encode("utf-8"))
        assert parse_config(p) == {"seed": f"1{mark}seed = 2"}
        p.write_bytes(f"seed = 1{mark}2\nout\n".encode("utf-8"))
        with pytest.raises(ValueError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}: line 2: expected 'key = value', got 'out'"


class TestParseAlphaGrid:
    def test_values(self):
        assert parse_alpha_grid("0, 0.25,0.5") == (0.0, 0.25, 0.5)
        # read_settings skips a blank value before any parser runs; here it is no offset.
        with pytest.raises(ValueError, match="could not convert string to float"):
            parse_alpha_grid("  ")

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("alpha must be in [0, 1], got 2.0")):
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
        job = load_job(config_path, flags={"convention": "standard", "alpha_grid": "0,0.5"})
        assert job.convention.value == "standard"
        assert job.alpha_grid == (0.0, 0.5)

    def test_unknown_key_rejected(self, job_tree):
        config_path, _ = job_tree
        config_path.write_text(config_path.read_text() + "bogus = 1\n")
        with pytest.raises(ValueError, match=r"config keys not read by report: \['bogus'\]"):
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

    def test_relative_out_resolves_against_config_and_flag_against_cwd(self, job_tree, tmp_path, monkeypatch):
        config_path, _ = job_tree
        config_path.write_text(config_path.read_text().replace(f"out = {tmp_path / 'out'}", "out = results"))
        monkeypatch.chdir(tmp_path / "data")
        assert load_job(config_path).out_dir == tmp_path / "results"
        assert load_job(config_path, flags={"out": "flagged"}).out_dir == Path("flagged")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seed = abc", "seed: invalid literal for int() with base 10: 'abc'"),
            ("bandwidth = wide", "bandwidth: could not convert string to float: 'wide'"),
            ("convention = bayes", "convention: unknown convention 'bayes'"),
            ("threshold = top:3", "threshold: cannot parse threshold policy 'top:3'"),
        ],
        ids=["int", "float", "text", "threshold"],
    )
    def test_bad_value_names_the_file_and_key(self, job_tree, line, message):
        config_path, _ = job_tree
        set_config_line(config_path, line)
        with pytest.raises(ValueError) as exc:
            load_job(config_path)
        assert str(exc.value).startswith(f"{config_path}: {message}")

    def test_empty_value_leaves_the_setting_unset(self, job_tree):
        config_path, _ = job_tree
        for line in ("alpha_grid =", "bandwidth =", "seed ="):
            set_config_line(config_path, line)
        job = load_job(config_path)
        assert (job.alpha_grid, job.bandwidth, job.seed) == (DEFAULT_ALPHA_GRID, None, 0)

    def test_config_is_parsed_by_the_settings_reader_alone(self):
        # A second reader of config files would drift from its key check, parsers and path rule.
        assert functions_spelling(r"(?<!def )\bparse_config\(") == {("cli.py", "read_settings")}

    def test_alpha_grid_out_of_range_is_refused_before_any_work(self, job_tree):
        # Not by run_job, after confusion.csv, bayes.csv and runs.csv are written.
        config_path, out_dir = job_tree
        job = load_job(config_path)
        with pytest.raises(ValueError, match=re.escape("alpha must be in [0, 1], got 2.0")):
            AssessmentJob(job.inputs, job.out_dir, alpha_grid=(0.5, 2.0))
        assert not out_dir.exists()

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

    def test_short_row_names_the_line(self, tmp_path):
        p = tmp_path / "inputs.csv"
        p.write_text("kind,sim,obs,exclusion,box_id,group,cycle\nbinary,a.asc,b.asc,,0,A,1\nbinary,a.asc\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3 has 2 fields, the header has 7")):
            read_inputs_manifest(p)

    def test_bad_kind_names_the_file_and_line(self, tmp_path):
        p = tmp_path / "inputs.csv"
        header = "kind,sim,obs,exclusion,box_id,group,cycle\n"
        p.write_text(header + "binary,a.asc,b.asc,,0,A,1\n\nraster,a.asc,b.asc,,0,A,2\n")
        with pytest.raises(ValueError) as exc:
            read_inputs_manifest(p)
        assert str(exc.value) == f"{p}: line 4, column 'kind': input kind must be 'binary' or 'score', got 'raster'"

    @pytest.mark.parametrize(
        "row, column", [("binary,,b.asc,,0,A,2", "sim"), ("score,a.asc, ,,0,A,2", "obs")], ids=["sim", "obs"]
    )
    def test_an_empty_raster_path_names_the_line_and_column(self, tmp_path, row, column):
        # Resolved against the manifest's directory, an empty path would name the directory itself.
        p = tmp_path / "inputs.csv"
        p.write_text("kind,sim,obs,exclusion,box_id,group,cycle\nbinary,a.asc,b.asc,,0,A,1\n" + row + "\n")
        with pytest.raises(ValueError) as exc:
            read_inputs_manifest(p)
        assert str(exc.value) == f"{p}: line 3, column {column!r}: a raster path must not be empty"

    def test_bad_kind_rejected(self, tmp_path):
        p = tmp_path / "inputs.csv"
        p.write_text(
            "kind,sim,obs,exclusion,box_id,group,cycle\nraster,a.asc,b.asc,,0,A,1\n"
        )
        with pytest.raises(ValueError, match="binary.*score"):
            read_inputs_manifest(p)


class TestColumnParsers:
    @pytest.mark.parametrize("text, value", [("0", 0.0), ("-0.0", -0.0), ("1", 1.0), ("1e-300", 1e-300)])
    def test_unit_value_takes_a_number_in_the_unit_interval(self, text, value):
        assert report.unit_value(text) == value

    @pytest.mark.parametrize("text", ["1.5", "-1e-300", "nan", "inf", "40"])
    def test_unit_value_refuses_a_number_outside_it(self, text):
        with pytest.raises(ValueError, match=re.escape(f"value must be in [0, 1], got {float(text)!r}")):
            report.unit_value(text)

    @pytest.mark.parametrize("text", ["0", "-9223372036854775808", "9223372036854775807"])
    def test_int64_id_takes_an_int64(self, text):
        assert report.int64_id(text) == int(text)
        assert np.array([report.int64_id(text)]).dtype == np.int64

    @pytest.mark.parametrize("text", ["9223372036854775808", "-9223372036854775809", "100000000000000000000"])
    def test_int64_id_refuses_an_integer_beyond_it(self, text):
        with pytest.raises(ValueError, match=re.escape(f"id must fit in a 64-bit integer, got {text!r}")):
            report.int64_id(text)


def at_most_half(text):
    value = float(text)
    if value > 0.5:
        raise ValueError(f"ppv above 0.5: {value}")
    return value


class TestReadCsv:
    COLUMNS = {"box_id": int, "group": str, "ppv": float}
    #: Columns whose ppv parser refuses a value that `float` takes.
    REFUSING = {"box_id": int, "group": str, "ppv": at_most_half}

    def test_blank_lines_extra_columns_and_any_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("\nnote, ppv ,group,box_id\n\nx, 0.5 , A ,3\n  \n,1,B,4\n\n")
        assert tableio.read_csv(p, self.COLUMNS) == ([3, 4], ["A", "B"], [0.5, 1.0])

    def test_a_column_not_read_may_be_named_twice(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("note,box_id,note,group,ppv\nx,3,y,A,0.5\n")
        assert tableio.read_csv(p, self.COLUMNS) == ([3], ["A"], [0.5])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("box_id,group\n1,A\n", "missing columns ['ppv']"),
            ("box_id,group,ppv,note,ppv\n1,A,0.5,x,0.25\n", "the header names column 'ppv' more than once"),
            ("ppv,box_id, ppv ,group\n0.5,1,0.25,A\n", "the header names column 'ppv' more than once"),
            ("box_id,group,ppv\n1,A,0.5\n2,B\n", "line 3 has 2 fields, the header has 3"),
            ("box_id,group,ppv\n1,A,0.5,9\n", "line 2 has 4 fields, the header has 3"),
            ("box_id,group,ppv\n1,A,0.5\n\nx,B,0.5\n", "line 4, column 'box_id': invalid literal for int()"),
            ("box_id,group,ppv\n1,A,\n", "line 2, column 'ppv': could not convert"),
            ("box_id,group,ppv\n", "lists no inputs"),
            ("", "lists no inputs"),
        ],
    )
    def test_errors_name_the_path_and_place(self, tmp_path, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(p)) + ".*" + re.escape(message)):
            list(tableio.read_csv(p, self.COLUMNS))

    # `lead` good rows come before the rows under test: 4096 of them fill
    # several of the text reader's 8 KB chunks before the fault is reached.
    @pytest.mark.parametrize("lead", [1, 2, 3, 4096])
    def test_a_refused_row_names_its_line(self, tmp_path, lead):
        p = tmp_path / "t.csv"
        p.write_text("box_id,group,ppv\n" + "0,A,0.5\n" * lead + '1,A,0.5\n2,"B\nC",0.25\n\n3,A,0.75\n4,A,0.5\n')
        with pytest.raises(ValueError) as exc:
            tableio.read_csv(p, self.REFUSING)
        assert str(exc.value) == f"{p}: line {6 + lead}, column 'ppv': ppv above 0.5: 0.75"
        p.write_text("box_id,group,ppv\n1,A,0.5\n3,A,0.25\n")
        assert tableio.read_csv(p, self.REFUSING) == ([1, 3], ["A", "A"], [0.5, 0.25])

    @pytest.mark.parametrize("lead", [1, 2, 4096])
    @pytest.mark.parametrize(
        "rows, line, message",
        [
            (["1,A,0.75", "x,A,0.5", "1,A"], 2, ", column 'ppv': ppv above 0.5: 0.75"),
            (["1,A,0.5", "x,A,0.75", "1,A"], 3, ", column 'box_id'"),
            (["1,A,0.5", "2,A,0.5", "1,A"], 4, " has 2 fields, the header has 3"),
        ],
        ids=["refused-row", "bad-value", "short-row"],
    )
    def test_the_first_error_in_the_file_is_named(self, tmp_path, lead, rows, line, message):
        p = tmp_path / "t.csv"
        p.write_text("box_id,group,ppv\n" + "0,A,0.5\n" * lead + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line {line + lead}{message}")):
            tableio.read_csv(p, self.REFUSING)

    def test_a_file_with_a_fault_is_parsed_once(self, tmp_path, monkeypatch):
        readers = []

        def counting_reader(*args, **kwargs):
            readers.append(args)
            return real_reader(*args, **kwargs)

        real_reader = csv.reader
        monkeypatch.setattr(tableio.csv, "reader", counting_reader)
        p = tmp_path / "t.csv"
        p.write_text("box_id,group,ppv\n1,A,0.5\n2,A,0.75\n3,A,0.25\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3, column 'ppv'")):
            tableio.read_csv(p, self.REFUSING)
        assert len(readers) == 1

    def test_a_byte_that_is_not_utf8_is_named_before_an_earlier_refused_value(self, tmp_path):
        # The bad byte lies past the text reader's first 8 KB chunk, and row 2 holds a refused npv.
        rows = [f"{i},A,{1 + i % 12},0.25,0.75" for i in range(2100)]
        rows[0] = "0,A,1,0.25,1.5"
        rows[1999] = "1999,\udcff,1,0.25,0.75"  # line 2001
        data = ("box_id,group,cycle,ppv,npv\n" + "\n".join(rows) + "\n").encode("utf-8", "surrogateescape")
        assert data.index(b"\xff") > 8192 and len(data) > 32 * 1024
        p = tmp_path / "runs.csv"
        p.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            report.read_runs_csv(p)
        assert str(exc.value) == f"{p}: line 2001: byte 0xff is not UTF-8"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_reader_matches_the_row_by_row_reference(self, data):
        raw = data.draw(csv_files())
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_bytes(raw)
            assert csv_outcome(tableio.read_csv, p, self.REFUSING) == csv_outcome(reference_read_csv, p, self.REFUSING)


def csv_outcome(read, path, columns):
    """The columns `read` returns, or the message of the error it raises."""
    try:
        return read(path, columns)
    except (ValueError, csv.Error) as exc:
        return f"{type(exc).__name__}: {exc}"


#: Whole fields for each column of `TestReadCsv.REFUSING`: values its parser
#: takes, padded and quoted ones, and a quoted newline that puts one row on two
#: lines; any field may also come from another column, where it may be refused.
CSV_FIELDS = {
    "box_id": ["1", "-3", " 2 ", '" 4 "'],
    "group": ["A", " B ", '"B\nC"', '"q,r"', ""],
    "ppv": ["0.25", "0.5", " 0 ", '"0.125"'],
    "note": ["", "x", '"y\nz"'],
}
CSV_BLANKS = st.sampled_from(["", "  ", ",", " , "])


@st.composite
def csv_files(draw):
    """The bytes of a CSV file: its columns in any order, now and then with one
    missing, blank lines, refused values, rows short or long by a field, and
    now and then a byte that is not UTF-8."""
    header = draw(st.permutations(list(CSV_FIELDS)))[: draw(st.sampled_from([4] * 7 + [3]))]
    any_field = st.sampled_from(sorted({f for fields in CSV_FIELDS.values() for f in fields} | {"0.75", "x"}))
    lines = draw(st.lists(CSV_BLANKS, max_size=2)) + [", ".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank", "blank", "refused", "refused", "short", "long"]))
        if kind == "blank":
            lines.append(draw(CSV_BLANKS))
            continue
        fields = [draw(st.sampled_from(CSV_FIELDS[name])) for name in header]
        if kind == "refused":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(any_field)
        elif kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append(draw(any_field))
        lines.append(",".join(fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    raw = (end.join(lines) + draw(st.sampled_from(["", end]))).encode("utf-8")
    if draw(st.sampled_from([False] * 5 + [True])):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


class TestColumnRows:
    def test_blocks_give_the_rows_of_whole_columns(self, monkeypatch):
        monkeypatch.setattr(tableio, "_BLOCK_ROWS", 2)
        ints = np.array([3, -1, 7, 0, 5])
        labels = np.array(["A", "B\x00", "C", "A", "B"], dtype=object)
        floats = np.array([0.1234567, 1.0, -0.0, 1e-300, 0.5])
        rows = list(tableio.column_rows(ints, labels, floats))
        assert rows == list(zip(ints.tolist(), labels.tolist(), format_floats(floats.tolist())))
        assert list(tableio.column_rows(np.array([]))) == []


def assess_input(inp, threshold, convention):
    """`assess_pair` on a manifest row, its observed map loaded for it alone."""
    return assess_pair(inp.kind, inp.sim, load_observed(inp.obs, inp.exclusion), threshold, convention)


class TestAssessPair:
    def test_binary_and_thresholded_scores_agree(self, job_tree):
        # Box 0 is stored classified, boxes 1-2 as scores; re-assessing the
        # score inputs with the pinned-quantity rule must give a full
        # confusion matrix consistent with its own observation.
        config_path, _ = job_tree
        job = load_job(config_path)
        policy = ThresholdPolicy("quantity_obs")
        for inp in job.inputs:
            a = assess_input(inp, policy, job.convention)
            m = a.matrix
            assert m.grand_total > 0
            assert a.rates.prevalence_observed == pytest.approx(m.observed_positives / m.grand_total)
            # Pinning the predicted count to the observed count forces the
            # two error types to balance.
            assert m.fp == m.fn

    def test_exclusion_grid_shrinks_the_tally(self, tmp_path, job_tree):
        config_path, _ = job_tree
        job = load_job(config_path)
        inp = job.inputs[0]
        base = assess_input(inp, job.threshold, job.convention)

        excl_path = tmp_path / "excl.asc"
        mask = np.zeros((24, 24))
        mask[:12, :] = 1.0
        write_grid(Grid(mask), excl_path)
        observed = load_observed(inp.obs, excl_path)
        trimmed = assess_pair(inp.kind, inp.sim, observed, job.threshold, job.convention)
        assert trimmed.matrix.grand_total < base.matrix.grand_total

    def test_an_unknown_kind_is_refused_before_the_prediction_is_read(self, tmp_path):
        observed = (None, BinaryGrid(np.array([[0, 1]])))
        with pytest.raises(ValueError, match="input kind must be 'binary' or 'score', got 'scores'"):
            assess_pair("scores", tmp_path / "missing.asc", observed, DEFAULT_THRESHOLD, Convention.PAPER)


#: The `assess` subcommand's output fields, in order.
ASSESS_HEADER = (
    "tp", "fp", "fn", "tn", "sens", "tn_rate", "prevalence", "pcm", "convention",
    "ppv", "npv", "lr_pos", "lr_neg", "dor",
)


def reference_rows(box_id, cycle, sim, obs, convention):
    """The confusion.csv, bayes.csv and `assess` rows of a pair, built field by
    field, as they were when `PairAssessment` held one scalar per field."""
    matrix = build_confusion(sim, obs)
    rates = agreement_rates(matrix)
    pv = lr = dor = None
    if rates.sensitivity is not None and rates.tn_rate is not None:
        pv = predictive_values(rates, rates.prevalence_observed, convention)
        lr = likelihood_ratios(rates, convention)
        dor = diagnostic_odds_ratio(lr)
    tp, fp, fn, tn = matrix.tp, matrix.fp, matrix.fn, matrix.tn
    sensitivity, tn_rate, prevalence, pcm = rates.sensitivity, rates.tn_rate, rates.prevalence_observed, rates.pcm
    ppv = pv.ppv if pv else None
    npv = pv.npv if pv else None
    lr_pos = lr.lr_pos if lr else None
    lr_neg = lr.lr_neg if lr else None
    confusion = (box_id, cycle, tp, fp, fn, tn) + tuple(format_floats((sensitivity, tn_rate, prevalence, pcm)))
    bayes = (box_id, cycle, convention.value) + tuple(format_floats((prevalence, ppv, npv, lr_pos, lr_neg, dor)))
    rates_text = format_floats((sensitivity, tn_rate, prevalence, pcm))
    ratios_text = format_floats((ppv, npv, lr_pos, lr_neg, dor))
    assess = (tp, fp, fn, tn, *rates_text, convention.value, *ratios_text)
    return confusion, bayes, assess


@st.composite
def code_pair(draw):
    """(prediction, observation) codes in {EXCLUDED, 0, 1} with a cell live in both."""
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    codes = st.sampled_from([EXCLUDED, 0, 1])
    sim = draw(arrays(np.int8, shape, elements=codes))
    obs = draw(arrays(np.int8, shape, elements=codes))
    live = np.flatnonzero((sim != EXCLUDED) & (obs != EXCLUDED))
    if not live.size:
        idx = draw(st.integers(0, sim.size - 1))
        sim.flat[idx] = draw(st.sampled_from([0, 1]))
        obs.flat[idx] = draw(st.sampled_from([0, 1]))
    return sim.tolist(), obs.tolist()


def read_rows(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


@settings(max_examples=25, deadline=None)
@given(st.lists(code_pair(), min_size=1, max_size=3), st.sampled_from(list(Convention)))
# Sensitivity undefined: the observation holds no change.
@example([([[1, 0], [0, EXCLUDED]], [[0, 0], [0, 0]])], Convention.PAPER)
# A 0/0 PPV: nothing predicted, so s = 0 and t = 1 under the standard convention.
@example([([[0, 0], [0, 0]], [[1, 0], [0, EXCLUDED]])], Convention.STANDARD)
# A 0/0 NPV: every cell predicted wrong, so s = t = 0 under the paper convention.
@example([([[0, 1]], [[1, 0]])], Convention.PAPER)
def test_rows_match_the_field_by_field_reference(pairs, convention):
    # confusion.csv, bayes.csv and `assess` build their rows from the result
    # objects; each row must be == to the one the old scalar copies gave.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        inputs, expected = [], []
        for box_id, (sim_codes, obs_codes) in enumerate(pairs):
            sim, obs = BinaryGrid(np.array(sim_codes)), BinaryGrid(np.array(obs_codes))
            sim_path, obs_path = root / f"sim_{box_id}.asc", root / f"obs_{box_id}.asc"
            write_grid(sim, sim_path)
            write_grid(obs, obs_path)
            inputs.append(JobInput("binary", sim_path, obs_path, None, box_id, "A", 1))
            expected.append(reference_rows(box_id, 1, sim, obs, convention))

            argv = ["assess", "--sim", str(sim_path), "--obs", str(obs_path), "--convention", convention.value]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            assess = expected[-1][2]
            assert out.getvalue().splitlines() == [f"{k} {v}" for k, v in zip(ASSESS_HEADER, assess)]

        job = AssessmentJob(inputs=tuple(inputs), out_dir=root / "out", convention=convention)
        assert run_job(job)["failures"] == []
        confusion = [[str(v) for v in row] for row, _, _ in expected]
        bayes = [[str(v) for v in row] for _, row, _ in expected]
        assert read_rows(root / "out" / "confusion.csv") == confusion
        assert read_rows(root / "out" / "bayes.csv") == bayes


class TestGroupSummaries:
    def make_runs(self):
        return RunTable([0, 1, 0, 2], ["A", "A", "A", "B"], [1, 1, 2, 1], [0.8, 0.6, 0.5, 0.5], [0.4, 0.6, 0.7, 0.5])

    def test_per_cycle_means_and_signs(self):
        out = group_summaries(self.make_runs())
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

    def test_any_group_label_is_summarised(self):
        out = group_summaries(RunTable([0], ["Z"], [1], [0.5], [0.25]))
        assert list(out) == ["Z"]
        assert out["Z"]["n_runs"] == 1
        assert out["Z"]["cycles"][1]["dominance_sign"] == 1
        with pytest.raises(ValueError, match="'all' is reserved for the scope of all runs"):
            group_summaries(RunTable([0], ["all"], [1], [0.5], [0.5]))

    def test_a_job_summarises_the_groups_it_analyses(self, tmp_path):
        layout = [(box, "Z" if group == "A" else group, cycle, kind) for box, group, cycle, kind in JOB_LAYOUT]
        config_path, out_dir = build_job_tree(tmp_path, layout)
        run_job(load_job(config_path))
        summary = json.loads((out_dir / "summary.json").read_text())
        assert "groups_error" not in summary
        assert set(summary["groups"]) == {"B", "Z"}
        assert set(summary["scopes"]) == {"all", "B", "Z"}

    def test_an_input_built_in_code_is_held_to_the_group_label_rule(self, tmp_path):
        # Refused as the manifest reader refuses it, before a job exists to assess it.
        with pytest.raises(ValueError, match="'all' is reserved for the scope of all runs"):
            JobInput("binary", tmp_path / "sim.asc", tmp_path / "obs.asc", None, 0, "all", 1)


class TestRunJob:
    def test_writes_expected_tree(self, job_tree):
        config_path, out_dir = job_tree
        manifest = run_job(load_job(config_path))
        assert set(manifest["outputs"]) == EXPECTED_FILES - {"manifest.json"}
        on_disk = {p.name for p in out_dir.iterdir()}
        assert on_disk == EXPECTED_FILES
        assert manifest["failures"] == []

    def test_a_final_cycle_that_no_scored_run_reaches_is_recorded(self, job_tree):
        # The manifest holds cycle 2, but every cycle-2 prediction fails to load.
        config_path, out_dir = job_tree
        for path in config_path.parent.glob("data/*_c2.asc"):
            if not path.name.startswith("obs"):
                path.write_text("garbage\n")
        manifest = run_job(load_job(config_path, {"final_cycle": "2"}))
        assert len(manifest["failures"]) == 6
        summary = json.loads((out_dir / "summary.json").read_text())
        message = "final_cycle must be above the first cycle and at most the last (cycles 1 to 1), got 2"
        assert (summary["scopes_error"], summary["scopes"]) == (message, {})
        written = {p.name for p in out_dir.iterdir()}
        assert written == {"confusion.csv", "bayes.csv", "runs.csv", "summary.json", "manifest.json"}

    def test_trees_cut_at_different_final_cycles_differ_in_their_settings(self, tmp_path):
        layout = JOB_LAYOUT + [(box, group, 3, kind) for box, group, cycle, kind in JOB_LAYOUT if cycle == 2]
        config_path, _ = build_job_tree(tmp_path, layout)
        cut = {c: run_job(load_job(config_path, {"final_cycle": c})) for c in (None, "2", "3")}
        assert [cut[c]["settings"]["final_cycle"] for c in cut] == [None, 2, 3]
        assert cut["2"]["settings"] == {**cut["3"]["settings"], "final_cycle": 2}
        assert cut["2"]["outputs"]["dominance.csv"] != cut["3"]["outputs"]["dominance.csv"]

    def test_manifest_hashes_are_correct(self, job_tree):
        config_path, out_dir = job_tree
        manifest = run_job(load_job(config_path))
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            assert actual == digest, name

    def test_summary_contents(self, job_tree):
        config_path, out_dir = job_tree
        run_job(load_job(config_path))
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
        run_job(load_job(config_path))
        lines = (out_dir / "runs.csv").read_text().splitlines()
        assert lines[0] == "box_id,group,cycle,ppv,npv"
        assert len(lines) == 13

    def test_reruns_are_byte_identical(self, job_tree, tmp_path):
        config_path, out_dir = job_tree
        run_job(load_job(config_path))
        second_out = tmp_path / "second"
        run_job(load_job(config_path, flags={"out": str(second_out)}))
        for p in sorted(out_dir.iterdir()):
            assert (second_out / p.name).read_bytes() == p.read_bytes(), p.name

    def test_a_rerun_without_a_group_gives_the_tree_of_a_fresh_run(self, job_tree, tmp_path):
        config_path, out_dir = job_tree
        run_job(load_job(config_path))
        assert {"kde_B.csv", "ppcurve_B.csv"} <= {p.name for p in out_dir.iterdir()}
        inputs = config_path.parent / "data" / "inputs.csv"
        header, *rows = inputs.read_text().splitlines(keepends=True)
        inputs.write_text("".join([header, *(row for row in rows if row.split(",")[5] != "B")]))
        run_job(load_job(config_path))
        fresh = run_job(load_job(config_path, flags={"out": str(tmp_path / "fresh")}))
        assert set(fresh["outputs"]) == EXPECTED_FILES - {"manifest.json", "kde_B.csv", "ppcurve_B.csv"}
        assert tree_bytes(out_dir) == tree_bytes(tmp_path / "fresh")

    def test_the_order_of_the_inputs_changes_only_the_order_of_the_per_pair_rows(self, job_tree, tmp_path):
        config_path, out_dir = job_tree
        run_job(load_job(config_path))
        inputs = config_path.parent / "data" / "inputs.csv"
        header, *rows = inputs.read_text().splitlines(keepends=True)
        order = np.random.default_rng(0).permutation(len(rows))
        assert list(order) != sorted(order)
        inputs.write_text("".join([header, *(rows[i] for i in order)]))
        shuffled = tmp_path / "shuffled"
        run_job(load_job(config_path, flags={"out": str(shuffled)}))
        first, second = tree_bytes(out_dir), tree_bytes(shuffled)
        per_pair = {"confusion.csv", "bayes.csv", "runs.csv"}
        for name in per_pair:
            head_a, *body_a = first[name].splitlines()
            head_b, *body_b = second[name].splitlines()
            assert head_a == head_b and body_a != body_b and sorted(body_a) == sorted(body_b), name
        manifests = [json.loads(tree.pop("manifest.json")) for tree in (first, second)]
        changed = {k for k in manifests[0]["outputs"] if manifests[0]["outputs"][k] != manifests[1]["outputs"][k]}
        assert changed == per_pair
        for m in manifests:
            for name in per_pair:
                del m["outputs"][name]
        assert manifests[0] == manifests[1]
        assert {k: v for k, v in first.items() if k not in per_pair} == {
            k: v for k, v in second.items() if k not in per_pair
        }

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
        manifest = run_job(load_job(config_path))
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0]["box_id"] == "9"
        assert "unexpected value" in manifest["failures"][0]["error"]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_assessed"] == 12
        assert summary["n_failed"] == 1

    def test_misaligned_input_is_a_failure_row(self, job_tree):
        config_path, out_dir = job_tree
        data_dir = config_path.parent / "data"
        # A score raster one cell east of its observed map.
        good = load_grid(data_dir / "score_b1_c1.asc")
        shifted = data_dir / "shifted.asc"
        write_grid(Grid(good.values, good.cell_size, good.origin_x + good.cell_size, good.origin_y), shifted)
        manifest_path = data_dir / "inputs.csv"
        manifest_path.write_text(manifest_path.read_text() + f"score,{shifted.name},obs_b1_c1.asc,,9,A,3\n")
        manifest = run_job(load_job(config_path))
        assert manifest["failures"] == [
            {
                "sim": str(shifted),
                "box_id": "9",
                "cycle": "3",
                "error": "prediction origin_x 30.0 != observation origin_x 0.0: the rasters do not line up",
                "error_type": "ValueError",
            }
        ]
        assert json.loads((out_dir / "summary.json").read_text())["n_assessed"] == 12

    def test_cross_group_odds_carry_the_caveat(self, job_tree):
        config_path, out_dir = job_tree
        run_job(load_job(config_path))
        summary = json.loads((out_dir / "summary.json").read_text())
        assert all(math.isfinite(summary["dor_by_group"][g]) for g in "AB")
        assert summary["dor_caveat"] is True

    def test_single_group_odds_carry_no_caveat(self, tmp_path):
        config_path, out_dir = build_job_tree(tmp_path, layout=[row for row in JOB_LAYOUT if row[1] == "A"])
        run_job(load_job(config_path))
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary["dor_by_group"]) == ["A"]
        assert math.isfinite(summary["dor_by_group"]["A"])
        assert summary["dor_caveat"] is False

    def test_dor_by_group_present(self, job_tree):
        config_path, out_dir = job_tree
        run_job(load_job(config_path))
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
        read_raster = raster._read_raster

        def counting_read_raster(path):
            parsed.append(Path(path).name)
            return read_raster(path)

        # load_grid, load_binary and load_scores each read through it.
        monkeypatch.setattr(raster, "_read_raster", counting_read_raster)
        manifest = run_job(shared_map_job(inputs, tmp_path / "out"))
        assert manifest["failures"] == []
        # 2 boxes x (observed + exclusion) + 6 predictions, not 6 x 3.
        assert len(parsed) == 2 * 2 + 6
        assert len(set(parsed)) == len(parsed)

    def test_interleaved_boxes_match_assessing_each_input_alone(self, tmp_path):
        # Box order A, B, A: box 0's maps come back after box 1's run.
        inputs = write_shared_map_inputs(tmp_path, [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (0, 3)])
        run_job(shared_map_job(inputs, tmp_path / "out"))
        alone = []
        for i, inp in enumerate(inputs):
            run_job(shared_map_job([inp], tmp_path / f"alone_{i}"))
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
            with pytest.raises(GridFormatError) as err:
                assess_input(inp, ThresholdPolicy("quantity_obs"), Convention.PAPER)
            errors.append(str(err.value))
        assert errors[0].startswith(f"{broken}: line 9: non-numeric value 'x")

        manifest = run_job(shared_map_job(inputs, tmp_path / "out"))
        assert manifest["failures"] == [
            {
                "sim": str(inp.sim), "box_id": "1", "cycle": str(inp.cycle),
                "error": error, "error_type": "GridFormatError",
            }
            for inp, error in zip(inputs[3:], errors)
        ]
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["n_assessed"] == 3


class TestAnalyzeScopes:
    def test_standalone_on_run_records(self, tmp_path):
        from mapbayes import SynthConfig, generate_run_table

        runs = RunTable.of(generate_run_table(SynthConfig(seed=3, planted_offset=0.25)))
        summaries = analyze_scopes(runs, tmp_path)
        names = {f.name for f in tmp_path.iterdir()}
        assert "timeline.csv" in names
        assert "fits.csv" in names
        assert "dominance.csv" in names
        assert {"all", "A", "B", "C"} <= set(summaries)
        assert summaries["all"]["selected_alpha"] == 0.25

    def test_a_group_named_all_is_refused_before_anything_is_written(self, tmp_path):
        runs = RunTable.of([RunRecord(i, "all" if i % 2 else "B", 1, 0.1 * (i % 9), 0.5) for i in range(80)])
        with pytest.raises(ValueError, match="group label 'all' is reserved for the scope of all runs"):
            analyze_scopes(runs, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_alpha_grid_is_refused_before_anything_is_written(self, tmp_path):
        # It would write a timeline.csv of cycles alone and fail every scope's comparison.
        runs = RunTable.of(generate_run_table(SynthConfig(seed=3)))
        with pytest.raises(ValueError, match="^alpha grid is empty$"):
            analyze_scopes(runs, tmp_path, alpha_grid=())
        assert list(tmp_path.iterdir()) == []

    def test_each_density_is_evaluated_on_the_grid_once(self, tmp_path, monkeypatch):
        from mapbayes import SynthConfig, generate_run_table
        from mapbayes.kde import GRID, KdeModel

        grid_calls = []
        evaluate = KdeModel.evaluate

        def counting_evaluate(model, x):
            if x is GRID:
                grid_calls.append(model)  # kept alive, so no later model can reuse its id
            return evaluate(model, x)

        monkeypatch.setattr(KdeModel, "evaluate", counting_evaluate)
        runs = RunTable.of(generate_run_table(SynthConfig(seed=3, planted_offset=0.5)))
        summaries = analyze_scopes(runs, tmp_path)
        scopes = {"all", "A", "B", "C"}
        assert scopes <= set(summaries)
        assert all("kde_prevalence" in summaries[s] for s in scopes)
        # Two densities (PPV and NPV) per scope, one evaluation at the grid each.
        assert len(grid_calls) == 2 * len(summaries)
        assert len(set(map(id, grid_calls))) == len(grid_calls)

    def test_the_p_p_curve_reuses_the_fitted_factor_values(self, tmp_path, monkeypatch):
        from mapbayes import SynthConfig, generate_run_table

        fitted, plotted = [], []
        fit_by_form, pp_curve = report.fit_by_form, report.pp_curve

        def spy_fit(groups, forms):
            grid = fit_by_form(groups, forms)
            fitted.extend(v for row in grid.values for v in row)
            return grid

        def spy_pp(values, mu, sigma):
            plotted.append(values)
            return pp_curve(values, mu, sigma)

        monkeypatch.setattr(report, "fit_by_form", spy_fit)
        monkeypatch.setattr(report, "pp_curve", spy_pp)
        analyze_scopes(RunTable.of(generate_run_table(SynthConfig(seed=3, planted_offset=0.25))), tmp_path)
        assert len(plotted) == 4
        assert all(any(v is f for f in fitted) for v in plotted)

    def test_degenerate_scope_records_errors(self, tmp_path):
        runs = RunTable.of([
            RunRecord(box_id=i, group="A", cycle=c, ppv=0.6, npv=0.4)
            for i in range(4)
            for c in (1, 2)
        ])
        summaries = analyze_scopes(runs, tmp_path)
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
