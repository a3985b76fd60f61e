"""Metamorphic property tests over the CLI, run in process through `cli.main`.

Two relations hold `converge` to account over small generated run tables:
the order of the rows of runs.csv changes nothing it writes or prints, and
renaming the groups without changing their order only renames the
per-scope files. Both pass through `RunTable.group_by`, which splits the
scopes and the cycles. Two more hold `assess` to account over small
generated raster pairs: a border of nodata cells around every raster of
the pair changes no field it prints, and a score raster cut at a value
prints what the binary raster of that cut prints.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapbayes import (
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
