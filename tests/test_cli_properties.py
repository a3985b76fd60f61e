"""Metamorphic property tests over the CLI, run in process through `cli.main`.

Two relations hold `converge` to account over small generated run tables:
the order of the rows of runs.csv changes nothing it writes or prints, and
renaming the groups without changing their order only renames the
per-scope files. Both pass through `RunTable.group_by`, which splits the
scopes and the cycles. Two more hold `assess` to account over small
generated raster pairs: a border of nodata cells around every raster of
the pair changes no field it prints, and a score raster cut at a value
prints what the binary raster of that cut prints. A fifth swaps 0 and 1 in
both rasters of a pair and holds what `assess` prints to the relations
that each convention's formulas imply.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapbayes import (
    EXCLUDED,
    BinaryGrid,
    Grid,
    RunTable,
    SynthConfig,
    generate_pair,
    generate_run_table,
    load_grid,
    threshold_scores,
    to_scores,
    write_grid,
)
from mapbayes.cli import main
from mapbayes.report import write_runs_csv

#: The files that hold one scope each, by prefix.
SCOPE_FILES = ("kde_", "ppcurve_")


@st.composite
def run_tables(draw):
    """A small planted run table: 3 to 9 boxes in groups A, B and C, over 2 to 4 cycles."""
    cfg = SynthConfig(
        seed=draw(st.integers(0, 2**16)),
        planted_offset=draw(st.sampled_from([0.0, 0.25, 0.5])),
        score_noise=draw(st.sampled_from([0.1, 0.3])),
    )
    cycles = tuple(range(1, draw(st.integers(2, 4)) + 1))
    return RunTable.of(generate_run_table(cfg, n_boxes=draw(st.integers(3, 9)), cycles=cycles))


def converge(runs_csv, out):
    """What `converge` prints, and the files it writes by name."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["converge", "--runs", str(runs_csv), "--out", str(out)]) == 0
    return stdout.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=20, deadline=None)
@given(run_tables(), st.randoms(use_true_random=False))
def test_shuffling_the_rows_of_runs_csv_changes_nothing(runs, rng):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        header, *rows = write_runs_csv(tmp / "runs.csv", runs).read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(rows)
        (tmp / "shuffled.csv").write_text(header + "".join(rows), encoding="utf-8")
        assert converge(tmp / "shuffled.csv", tmp / "b") == converge(tmp / "runs.csv", tmp / "a")


@settings(max_examples=20, deadline=None)
@given(
    run_tables(),
    st.lists(st.text("abcXYZ019_-", min_size=1, max_size=4).filter(lambda s: s != "all"), min_size=3, max_size=3,
             unique=True),
)
def test_renaming_the_groups_in_order_renames_only_the_scope_files(runs, labels):
    new = dict(zip("ABC", sorted(labels)))
    renamed = RunTable(runs.box_id, [new[g] for g in runs.group.tolist()], runs.cycle, runs.ppv, runs.npv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stdout, files = converge(write_runs_csv(tmp / "runs.csv", runs), tmp / "a")
        new_stdout, new_files = converge(write_runs_csv(tmp / "renamed.csv", renamed), tmp / "b")

    def rename(name):
        for prefix in SCOPE_FILES:
            if name.startswith(prefix) and name != f"{prefix}all.csv":
                return prefix + new[name[len(prefix) : -len(".csv")]] + ".csv"
        return name

    assert {rename(name) for name in files} == set(new_files)
    for name, text in files.items():
        if name.startswith(SCOPE_FILES) or name == "timeline.csv":
            assert new_files[rename(name)] == text, name
    scopes = json.loads(files["summary.json"])["scopes"]
    assert json.loads(new_files["summary.json"])["scopes"] == {new.get(s, s): v for s, v in scopes.items()}
    selected, new_selected = (dict(line.split(" ", 1) for line in out.splitlines()) for out in (stdout, new_stdout))
    assert {new.get(s, s): rest for s, rest in selected.items()} == new_selected


#: The width, in cells, of the nodata border.
BORDER = 3


def assess(argv):
    """The exit code of `assess`, and what it prints to stdout and to stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(["assess", *argv])
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def bordered(grid):
    """`grid` as a value grid inside a border of nodata cells; the origin moves so that the old cells stay put."""
    g = grid.as_grid()
    shift = BORDER * g.cell_size
    values = np.pad(g.values, BORDER, constant_values=g.nodata)
    return Grid(values, g.cell_size, g.origin_x - shift, g.origin_y - shift, g.nodata)


@settings(max_examples=30, deadline=None)
@given(
    st.builds(SynthConfig, rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**16)),
    st.sampled_from(["binary", "value:0.5", "value:0.25", "quantity:obs", "quantity:3"]),
    st.booleans(),
)
def test_a_nodata_border_changes_no_assess_field(cfg, cut, with_exclusion):
    obs, scores = generate_pair(cfg)
    if cut == "binary":
        sim, flags = threshold_scores(scores, quantity=obs.n_ones), ["--sim"]
    else:
        sim, flags = scores, ["--threshold", cut, "--score"]
    rasters = {"sim": sim, "obs": obs}
    if with_exclusion:
        rng = np.random.default_rng(cfg.seed)
        rasters["exclusion"] = BinaryGrid((rng.random(obs.shape) < 0.2).astype(np.int8))
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for prefix, wrap in (("plain_", lambda g: g), ("bordered_", bordered)):
            argv = [*flags]
            for name, grid in rasters.items():
                path = Path(tmp) / f"{prefix}{name}.asc"
                write_grid(wrap(grid), path)
                argv += [path] if name == "sim" else [f"--{name}", path]
            code, out, err = assess([str(a) for a in argv])
            outcomes.append((code, out, err.replace(prefix, "")))  # an error names the file
    assert outcomes[0] == outcomes[1]


@settings(max_examples=30, deadline=None)
@given(
    st.builds(SynthConfig, rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**16)),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
    st.booleans(),
)
def test_a_score_raster_cut_at_a_value_assesses_as_the_binary_raster_of_the_cut(cfg, cut, with_exclusion):
    obs, scores = generate_pair(cfg)  # unrounded scores, excluded cells written as nodata
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_grid(scores, tmp / "score.asc")
        write_grid(obs, tmp / "obs.asc")
        # The six-digit text rounds the scores, so the cut is made on the scores as read back.
        write_grid(threshold_scores(to_scores(load_grid(tmp / "score.asc")), value=cut), tmp / "sim.asc")
        flags = ["--obs", str(tmp / "obs.asc")]
        if with_exclusion:
            rng = np.random.default_rng(cfg.seed)
            write_grid(BinaryGrid((rng.random(obs.shape) < 0.2).astype(np.int8)), tmp / "exclusion.asc")
            flags += ["--exclusion", str(tmp / "exclusion.asc")]
        scored = assess(["--score", str(tmp / "score.asc"), "--threshold", f"value:{cut!r}", *flags])
        binary = assess(["--sim", str(tmp / "sim.asc"), *flags])
    assert scored == binary


def complement(grid):
    """The `BinaryGrid` of `grid` with its 0 and 1 cells swapped; its excluded cells stay excluded."""
    v = grid.values
    return BinaryGrid(np.where(v == EXCLUDED, EXCLUDED, 1 - v).astype(np.int8))


def assess_swapped(rasters, convention, tmp):
    """`assess`'s exit code, the fields it prints by name, and its stderr, for `rasters` and for them with 0 and 1
    swapped in sim and obs."""
    outcomes = []
    for prefix, swap in (("plain_", lambda g: g), ("swapped_", complement)):
        argv = ["--convention", convention]
        for name, grid in rasters.items():
            path = Path(tmp) / f"{prefix}{name}.asc"
            write_grid(grid if name == "exclusion" else swap(grid), path)
            argv += [f"--{name}", str(path)]
        code, out, err = assess(argv)
        outcomes.append((code, dict(line.split(" ", 1) for line in out.splitlines()), err))
    return outcomes


def ratio(text):
    """A printed ratio: None where it is empty (undefined)."""
    return float(text) if text else None


def inverse(x):
    """1 / x, with 1 / 0 = inf and 1 / inf = 0, as the ratios print them."""
    return None if x is None else math.inf if x == 0.0 else 1.0 / x


def near(text, value):
    """Whether the printed `text` is `value`, allowing the rounding of six significant digits on both."""
    if value is None or not text:
        return text == "" and value is None
    return text == f"{value:.6g}" or math.isclose(float(text), value, rel_tol=1e-5, abs_tol=1e-6)


def likelihood_ratios_are_zero_over_zero(sens, tn_rate, convention):
    """Whether a likelihood ratio of the pair is 0/0, which prints inf, at rates `sens` and `tn_rate` as printed."""
    s, t = float(sens), float(tn_rate)
    if convention == "paper":  # s / t, (1 - s) / (1 - t)
        return s == t and s in (0.0, 1.0)
    return s + t == 1.0 and s in (0.0, 1.0)  # s / (1 - t), (1 - s) / t


@settings(max_examples=80, deadline=None)
@given(
    st.builds(SynthConfig, rows=st.integers(1, 12), cols=st.integers(1, 12), seed=st.integers(0, 2**16)),
    st.sampled_from([None, 0.25, 0.5, 0.75]),
    st.sampled_from(["paper", "standard"]),
    st.booleans(),
)
def test_swapping_0_and_1_in_both_maps_swaps_the_tallies(cfg, cut, convention, with_exclusion):
    obs, scores = generate_pair(cfg)
    sim = threshold_scores(scores, quantity=obs.n_ones) if cut is None else threshold_scores(scores, value=cut)
    rasters = {"sim": sim, "obs": obs}
    if with_exclusion:
        rng = np.random.default_rng(cfg.seed)
        rasters["exclusion"] = BinaryGrid((rng.random(obs.shape) < 0.2).astype(np.int8))
    with tempfile.TemporaryDirectory() as tmp:
        (code, a, err), (swapped_code, b, swapped_err) = assess_swapped(rasters, convention, tmp)
    assert (swapped_code, swapped_err) == (code, err)
    if code:  # every cell excluded: refused alike
        assert err == "error: no cells to compare\n"
        return
    assert (b["tp"], b["fp"], b["fn"], b["tn"]) == (a["tn"], a["fn"], a["fp"], a["tp"])
    assert (b["sens"], b["tn_rate"], b["pcm"]) == (a["tn_rate"], a["sens"], a["pcm"])
    assert near(b["prevalence"], 1.0 - float(a["prevalence"]))
    ratios = ("ppv", "npv", "lr_pos", "lr_neg", "dor")
    if "" in (a["sens"], a["tn_rate"]):
        assert [a[k] for k in ratios] == [b[k] for k in ratios] == [""] * 5
        return
    ppv, npv, lr_pos, lr_neg, dor = (ratio(a[k]) for k in ratios)
    if convention == "standard":
        assert near(b["ppv"], npv) and near(b["npv"], ppv)
    else:
        # npv = t(1-p) / (t(1-p) + sp) turns into sp / (sp + t(1-p)). ppv = sp / (sp + (1-s)(1-p))
        # turns into t(1-p) / (t(1-p) + (1-t)p), which no printed ratio gives.
        assert near(b["npv"], None if npv is None else 1.0 - npv)
    if likelihood_ratios_are_zero_over_zero(a["sens"], a["tn_rate"], convention):
        return  # no relation for a ratio that the formulas leave undefined (see the strict xfail below)
    if convention == "standard":
        assert near(b["lr_pos"], inverse(lr_neg)) and near(b["lr_neg"], inverse(lr_pos))
        assert near(b["dor"], dor)
    else:  # lr_pos = s / t and lr_neg = (1 - s) / (1 - t) turn into their inverses
        assert near(b["lr_pos"], inverse(lr_pos)) and near(b["lr_neg"], inverse(lr_neg))
        assert near(b["dor"], inverse(dor))


@pytest.mark.xfail(strict=True, reason="a likelihood ratio of 0/0 prints inf, and so does its inverse")
def test_a_perfect_prediction_keeps_the_complement_relation_under_paper(tmp_path):
    # sens = tn_rate = 1: lr_neg = (1 - s) / (1 - t) = 0/0, for the pair and for its complement alike.
    perfect = BinaryGrid(np.array([[1, 0], [0, 1]], np.int8))
    (_, a, _), (_, b, _) = assess_swapped({"sim": perfect, "obs": perfect}, "paper", tmp_path)
    assert near(b["lr_neg"], inverse(ratio(a["lr_neg"])))
