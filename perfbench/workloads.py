"""The benchmark's workloads: input generators, commands and output checks.

Every input comes from the seed alone, so generating twice gives
byte-identical input trees. Set-up (what `setup_s` times) is the generation
with `mapbayes.synth` plus writing with `mapbayes.raster.write_grid`; the
references the checks compare against are computed afterwards, untimed.

Score rasters are rounded to six decimals before writing. Such values print
exactly in the raster format's six significant digits, so the arrays held
here are the values the program parses, and the reference tallies need no
parsing of their own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# Resolved through the modules, so a traced set-up sees the wrapped names.
from mapbayes import raster, synth

BOXES, CYCLES, BOX_SIDE = 30, 12, 83
#: (side, change fraction, exclusion fraction) per pair; fixed so the work
#: does not vary with the seed.
LARGE_PAIRS = ((1000, 0.15, 0.10), (1000, 0.25, 0.15), (1000, 0.35, 0.20))
RUN_BOXES = 2000
RUN_NOISE = 0.3
PLANTED = (0.0, 0.5)
REGION_SIDE, REGION_BOX = 1400, 20
N_QUANTILES = 30
SCOPES = ("all", "A", "B", "C")


@dataclass
class Prepared:
    """A generated workload: how to run it and how to check its output."""

    items: int
    argv: Callable[[Path], list[str]]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    why: str
    setup: Callable[[int, Path], Prepared]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def _write(values: np.ndarray, path: Path) -> None:
    raster.write_grid(raster.Grid(values.astype(np.float64)), path)


def _sim_scores(obs01: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    return np.round(np.clip(obs01 + rng.normal(0.0, sigma, obs01.shape), 0.0, 1.0), 6)


def _write_sim(kind: str, scores: np.ndarray, excluded: np.ndarray, n_obs: int, path: Path) -> None:
    """Score rasters keep the scores; binary ones pin the count to the observation."""
    if kind == "score":
        raster.write_grid(raster.ScoreGrid(np.where(excluded, 0.0, scores), excluded), path)
    else:
        raster.write_grid(raster.BinaryGrid(checks.top_n(scores, excluded, n_obs)), path)


def _write_job(root: Path, rows: list[dict[str, str]], seed: int) -> None:
    with (root / "inputs.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["kind", "sim", "obs", "exclusion", "box_id", "group", "cycle"])
        writer.writeheader()
        writer.writerows(rows)
    (root / "job.cfg").write_text(
        f"inputs = inputs.csv\nout = out\nthreshold = quantity:obs\nconvention = paper\nseed = {seed}\n",
        encoding="utf-8",
    )


def _report_argv(root: Path) -> Callable[[Path], list[str]]:
    return lambda out: ["report", "--config", str(root / "job.cfg"), "--out", str(out)]


@dataclass
class _Pair:
    box: int
    cycle: int
    obs01: np.ndarray
    excluded: np.ndarray
    scores: np.ndarray


def _report_check(pairs: list[_Pair], scopes: tuple[str, ...]) -> Callable[[Path], list[str]]:
    """Tallies for every pair, the 'all' density grid, clean scopes."""

    def check(out: Path) -> list[str]:
        expected = {}
        ppv, npv = [], []
        for p in pairs:
            obs = np.where(p.excluded, -1, p.obs01).astype(np.int8)
            sim = checks.top_n(p.scores, p.excluded, int(np.sum(obs == 1)))
            t = checks.tally(sim, obs)
            expected[(p.box, p.cycle)] = t
            tp, fp, fn, tn = t
            if tp + fn and tn + fp:
                a, b = checks.paper_ppv_npv(*t)
                ppv.append(a)
                npv.append(b)
        fails = checks.check_confusion(out / "confusion.csv", expected)
        fails += checks.check_kde(out / "kde_all.csv", np.array(ppv), np.array(npv))
        return fails + checks.check_scopes(out / "summary.json", scopes)

    return check


def setup_paper_report(seed: int, root: Path) -> Prepared:
    """30 boxes x 12 cycles of 83x83 pairs; a box's observation and
    exclusion map are shared by its cycles, as in the paper's protocol."""
    rng = _rng(seed, "paper_report")
    rows, pairs = [], []
    for box in range(BOXES):
        cfg = synth.SynthConfig(
            rows=BOX_SIDE,
            cols=BOX_SIDE,
            seed=int(rng.integers(2**31)),
            change_fraction=float(rng.uniform(0.10, 0.45)),
            exclusion_fraction=float(rng.uniform(0.05, 0.25)),
        )
        obs, _ = synth.generate_pair(cfg)
        excluded = obs.values == raster.EXCLUDED
        obs01 = (obs.values == 1).astype(np.int8)
        _write(obs01, root / f"obs_b{box}.asc")
        _write(excluded, root / f"excl_b{box}.asc")
        n_obs = int(np.sum(obs01[~excluded]))
        for cycle in range(1, CYCLES + 1):
            kind = "binary" if cycle % 3 == 0 else "score"
            scores = _sim_scores(obs01, 0.3 + 0.3 * cycle ** -0.5, rng)
            name = f"{kind}_b{box}_c{cycle}.asc"
            _write_sim(kind, scores, excluded, n_obs, root / name)
            pairs.append(_Pair(box, cycle, obs01, excluded, scores))
            rows.append({
                "kind": kind, "sim": name, "obs": f"obs_b{box}.asc", "exclusion": f"excl_b{box}.asc",
                "box_id": str(box), "group": "ABC"[box * 3 // BOXES], "cycle": str(cycle),
            })
    _write_job(root, rows, seed)
    return Prepared(len(pairs), _report_argv(root), _report_check(pairs, SCOPES))


def setup_large_report(seed: int, root: Path) -> Prepared:
    """A few large pairs, every path distinct; exclusions are nodata cells."""
    rng = _rng(seed, "large_report")
    rows, pairs = [], []
    for i, (side, change, exclusion) in enumerate(LARGE_PAIRS):
        cfg = synth.SynthConfig(
            rows=side,
            cols=side,
            seed=int(rng.integers(2**31)),
            change_fraction=change,
            exclusion_fraction=exclusion,
        )
        obs, _ = synth.generate_pair(cfg)
        excluded = obs.values == raster.EXCLUDED
        obs01 = (obs.values == 1).astype(np.int8)
        raster.write_grid(obs, root / f"obs_{i}.asc")
        kind = "binary" if i % 3 == 2 else "score"
        scores = _sim_scores(obs01, 0.4, rng)
        _write_sim(kind, scores, excluded, int(np.sum(obs01[~excluded])), root / f"sim_{i}.asc")
        pairs.append(_Pair(i, 1, obs01, excluded, scores))
        rows.append({
            "kind": kind, "sim": f"sim_{i}.asc", "obs": f"obs_{i}.asc", "exclusion": "",
            "box_id": str(i), "group": "A", "cycle": "1",
        })
    _write_job(root, rows, seed)
    # Three runs are too few for stable density crossings; scope errors are
    # reported as per-layer counts, not as failures.
    return Prepared(len(pairs), _report_argv(root), _report_check(pairs, ()))


def setup_converge_runs(seed: int, root: Path) -> Prepared:
    """24,000 run records with a planted PPV - NPV offset."""
    planted = PLANTED[seed % len(PLANTED)]
    cfg = synth.SynthConfig(seed=seed, score_noise=RUN_NOISE, planted_offset=planted)
    runs = synth.generate_run_table(cfg, n_boxes=RUN_BOXES, cycles=tuple(range(1, CYCLES + 1)))
    path = root / "runs.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["box_id", "group", "cycle", "ppv", "npv"])
        writer.writerows([r.box_id, r.group, r.cycle, repr(r.ppv), repr(r.npv)] for r in runs)
    ppv = np.array([r.ppv for r in runs])
    npv = np.array([r.npv for r in runs])

    def check(out: Path) -> list[str]:
        return checks.check_kde(out / "kde_all.csv", ppv, npv) + checks.check_scopes(
            out / "summary.json", SCOPES, planted
        )

    return Prepared(len(runs), lambda out: ["converge", "--runs", str(path), "--out", str(out)], check)


def setup_region_sample(seed: int, root: Path) -> Prepared:
    """A 1400x1400 region whose change rises west to east and whose
    exclusionary land rises north to south, so all three pools fill.

    The gradients are fixed and only the cells are random, so the pool
    sizes, which set the cost of the command, barely vary with the seed.
    """
    rng = _rng(seed, "region_sample")
    frac = (np.arange(REGION_SIDE) + 0.5) / REGION_SIDE
    p_change = 0.01 + 0.25 * frac ** 1.5
    p_excl = 0.02 + 0.35 * frac
    excl = rng.random((REGION_SIDE, REGION_SIDE)) < p_excl[:, None]
    change = (rng.random((REGION_SIDE, REGION_SIDE)) < p_change[None, :]) & ~excl
    raster.write_grid(raster.BinaryGrid(change.astype(np.int8)), root / "change.asc")
    raster.write_grid(raster.BinaryGrid(excl.astype(np.int8)), root / "exclusion.asc")
    n_boxes = (REGION_SIDE // REGION_BOX) ** 2

    def argv(out: Path) -> list[str]:
        return [
            "sample", "--change", str(root / "change.asc"), "--exclusion", str(root / "exclusion.asc"),
            "--box-cells", str(REGION_BOX * REGION_BOX), "--n-quantiles", str(N_QUANTILES),
            "--seed", str(seed), "--out", str(out),
        ]

    def check(out: Path) -> list[str]:
        return checks.check_sample(out / "sample.csv", change, excl, REGION_BOX, N_QUANTILES)

    return Prepared(n_boxes, argv, check)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper_report", "raster pair",
                 "paper-scale report: 360 small pairs over 420 files, parsing dominates and paths repeat",
                 setup_paper_report),
        Workload("large_report", "raster pair",
                 "large rasters with distinct paths: array work grows, nothing repeats",
                 setup_large_report),
        Workload("converge_runs", "run record",
                 "24k run records, no rasters: density and convergence analysis only",
                 setup_converge_runs),
        Workload("region_sample", "box",
                 "4,900-box regional sampling: the only workload for sampling and the CLI loop",
                 setup_region_sample),
    )
}
