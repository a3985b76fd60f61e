"""Property test for `run_job`'s failure list over generated manifests.

A manifest of small raster pairs is generated, some rows are corrupted (a
raster body that does not parse, a raster whose shape does not match its
observation, a score above 1), and some boxes get a corrupt observation map,
which every row of that box shares. The job must record exactly those
(box_id, cycle) pairs as failures, assess every other row, and account for
every input.
"""

import csv
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mapbayes import Grid, write_grid
from mapbayes.cli import load_job
from mapbayes.report import run_job

SHAPE = (6, 6)
#: Row corruptions, and what they apply to.
ROW_FAULTS = {"binary": (None, "body", "shape"), "score": (None, "body", "shape", "above_one")}
OBS_FAULTS = (None, "body", "shape")


def _write(values, path, fault=None):
    """Write `values` as a raster; a "body" fault spoils one token of the body."""
    write_grid(Grid(values), path)
    if fault == "body":
        lines = path.read_text().split("\n")
        lines[7] = lines[7].replace("0", "zero", 1).replace("1", "one", 1)
        path.write_text("\n".join(lines))


def _values(kind, box, cycle, fault):
    rng = np.random.default_rng([box, cycle])
    shape = (SHAPE[0], SHAPE[1] - 1) if fault == "shape" else SHAPE
    values = rng.integers(0, 2, shape).astype(float) if kind == "binary" else rng.uniform(0.0, 1.0, shape)
    if fault == "above_one":
        values[2, 3] = 1.5
    return values


@st.composite
def manifests(draw):
    """(obs fault per box, [(box, cycle, kind, row fault), ...] in file order)."""
    n_boxes = draw(st.integers(1, 3))
    obs_faults = [draw(st.sampled_from(OBS_FAULTS)) for _ in range(n_boxes)]
    rows = []
    for box in range(n_boxes):
        for cycle in range(1, draw(st.integers(1, 3)) + 1):
            kind = draw(st.sampled_from(sorted(ROW_FAULTS)))
            rows.append((box, cycle, kind, draw(st.sampled_from(ROW_FAULTS[kind]))))
    return obs_faults, draw(st.permutations(rows))


@settings(max_examples=12, deadline=None)
@given(manifests())
def test_the_failure_list_names_exactly_the_corrupt_rows(manifest):
    obs_faults, rows = manifest
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for box, fault in enumerate(obs_faults):
            # A wrong observation shape differs from a wrong prediction shape,
            # so the two never line up by accident.
            shape = (SHAPE[0] + 1, SHAPE[1]) if fault == "shape" else SHAPE
            obs = np.random.default_rng(box).integers(0, 2, shape).astype(float)
            _write(obs, root / f"obs_{box}.asc", fault)
        with (root / "inputs.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "sim", "obs", "exclusion", "box_id", "group", "cycle"])
            for box, cycle, kind, fault in rows:
                _write(_values(kind, box, cycle, fault), root / f"sim_{box}_{cycle}.asc", fault)
                writer.writerow([kind, f"sim_{box}_{cycle}.asc", f"obs_{box}.asc", "", box, "A", cycle])
        (root / "job.cfg").write_text("inputs = inputs.csv\nout = out\n")

        manifest_out = run_job(load_job(root / "job.cfg"))
        summary = json.loads((root / "out" / "summary.json").read_text())

    failed = [(int(f["box_id"]), int(f["cycle"])) for f in manifest_out["failures"]]
    expected = {(box, cycle) for box, cycle, _, fault in rows if fault is not None or obs_faults[box] is not None}
    assert len(failed) == len(set(failed))
    assert set(failed) == expected
    assert summary["n_failed"] == len(expected)
    assert summary["n_assessed"] + summary["n_failed"] == summary["n_inputs"] == len(rows)
