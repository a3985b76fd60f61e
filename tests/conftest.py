"""Shared fixtures: small on-disk assessment jobs built from the synthetic
generators, the KDE tests' reference density and mirrored samples, and the
row-by-row reference CSV reader."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import settings

from mapbayes import SynthConfig, generate_pair, threshold_scores, write_grid
from mapbayes.tableio import read_utf8

# The same examples on every run, and no replay of failures found on earlier
# runs: a tier-1 result depends on the code alone (hypothesis's "ci" settings).
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

SQRT5 = math.sqrt(5.0)

#: (box_id, group, cycle, kind) for a small but non-trivial job: two pool
#: groups, two cycles, a mix of classified and score inputs.
JOB_LAYOUT = [
    (0, "A", 1, "binary"),
    (0, "A", 2, "binary"),
    (1, "A", 1, "score"),
    (1, "A", 2, "score"),
    (2, "A", 1, "score"),
    (2, "A", 2, "score"),
    (3, "B", 1, "binary"),
    (3, "B", 2, "binary"),
    (4, "B", 1, "score"),
    (4, "B", 2, "score"),
    (5, "B", 1, "score"),
    (5, "B", 2, "score"),
]


def write_input_files(data_dir, box_id, cycle, kind, seed, rows=24, cols=24):
    """Write one observation/prediction raster pair; returns a manifest row."""
    cfg = SynthConfig(rows=rows, cols=cols, seed=seed, score_noise=0.25)
    obs, scores = generate_pair(cfg)
    obs_path = data_dir / f"obs_b{box_id}_c{cycle}.asc"
    write_grid(obs, obs_path)
    if kind == "score":
        sim_path = data_dir / f"score_b{box_id}_c{cycle}.asc"
        write_grid(scores, sim_path)
    else:
        sim_path = data_dir / f"sim_b{box_id}_c{cycle}.asc"
        write_grid(threshold_scores(scores, quantity=obs.n_ones), sim_path)
    return {
        "kind": kind,
        "sim": sim_path.name,
        "obs": obs_path.name,
        "exclusion": "",
        "box_id": str(box_id),
        "group": "",  # caller fills in
        "cycle": str(cycle),
    }


def build_job_tree(root, layout=JOB_LAYOUT):
    """Create rasters + inputs.csv + job config under `root`.

    Returns (config_path, out_dir).
    """
    data_dir = root / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed, (box_id, group, cycle, kind) in enumerate(layout, start=100):
        row = write_input_files(data_dir, box_id, cycle, kind, seed)
        row["group"] = group
        rows.append(row)
    manifest_path = data_dir / "inputs.csv"
    with manifest_path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["kind", "sim", "obs", "exclusion", "box_id", "group", "cycle"]
        )
        writer.writeheader()
        writer.writerows(rows)
    out_dir = root / "out"
    config_path = root / "job.cfg"
    config_path.write_text(
        "# assessment job\n"
        f"inputs = {manifest_path}\n"
        f"out = {out_dir}\n"
        "threshold = quantity:obs\n"
        "convention = paper\n"
        "seed = 0\n"
    )
    return config_path, out_dir


@pytest.fixture
def job_tree(tmp_path):
    return build_job_tree(tmp_path)


def reference_density(samples, h):
    """Independent KDE evaluation: plain numpy, no shared code paths."""
    s = np.asarray(samples, dtype=float)

    def f(x):
        z = (x - s) / h
        k = np.where(np.abs(z) <= SQRT5, 0.75 / SQRT5 * (1.0 - z * z / 5.0), 0.0)
        return float(np.sum(k) / (len(s) * h))

    return f


def mirrored_samples():
    """A tall mode near 0.15 and a broad one at 0.5, against its mirror
    image: the two densities tie at their outer crossings, whose rounded
    joint densities put the larger one at the larger x."""
    rng = np.random.default_rng(6)
    pos = np.concatenate([rng.normal(0.15, 0.05, 200), rng.normal(0.5, 0.15, 50)])
    pos = np.clip(pos, 0.01, 0.99)
    return pos, 1.0 - pos


def reference_read_csv(path, columns):
    """The row-by-row pass that `read_csv` once fell back to on a fault, kept as
    the reference for its columns and messages."""
    out = tuple([] for _ in columns)
    header = None
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    for row in reader:
        if not "".join(row).strip():
            continue
        if header is None:
            header = [f.strip() for f in row]
            missing = [name for name in columns if name not in header]
            if missing:
                raise ValueError(f"{path}: missing columns {missing}; needs columns {list(columns)}")
            for name in columns:
                if header.count(name) > 1:
                    raise ValueError(f"{path}: the header names column {name!r} more than once")
            spec = [(header.index(name), parse) for name, parse in columns.items()]
            continue
        if len(row) != len(header):
            found, expected = len(row), len(header)
            raise ValueError(f"{path}: line {reader.line_num} has {found} fields, the header has {expected}")
        for col, name, (i, parse) in zip(out, columns, spec):
            try:
                col.append(parse(row[i].strip()))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}, column {name!r}: {exc}") from None
    if not (out and out[0]):
        raise ValueError(f"{path} lists no inputs")
    return out
