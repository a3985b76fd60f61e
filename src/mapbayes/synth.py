"""Synthetic fixtures: paired rasters and planted-offset run tables.

Everything here is test/demo plumbing with fully documented construction -
the generators plant known ground truth so pipeline behavior can be checked
end to end. No empirical claims ride on their particular noise shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convergence import RunRecord
from .raster import EXCLUDED, BinaryGrid, ScoreGrid, check_count, check_nonnegative, check_unit


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generators."""

    rows: int = 60
    cols: int = 60
    seed: int = 0
    change_fraction: float = 0.15
    exclusion_fraction: float = 0.2
    score_noise: float = 0.3
    planted_offset: float = 0.0

    def __post_init__(self):
        check_count("rows", self.rows, 1)
        check_count("cols", self.cols, 1)
        check_count("seed", self.seed)
        for name in ("change_fraction", "exclusion_fraction", "score_noise"):
            check_nonnegative(name, getattr(self, name))
        if self.change_fraction + self.exclusion_fraction > 1.0:
            raise ValueError("change_fraction + exclusion_fraction must not exceed 1")
        check_unit("planted_offset", self.planted_offset)


def _rng(cfg: SynthConfig, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, *stream.encode("utf-8")]))


def generate_pair(cfg: SynthConfig) -> tuple[BinaryGrid, ScoreGrid]:
    """An observed binary grid plus a noisy score grid for it.

    Exactly floor(exclusion_fraction * n) cells are excluded and exactly
    floor(change_fraction * n) of the rest are change cells, placed by the
    seeded generator. Scores equal the observed class plus centered Gaussian
    noise, clamped to [0, 1]; with zero noise, thresholding the scores at
    the true change count reproduces the observation exactly.
    """
    n = cfg.rows * cfg.cols
    n_excl = int(cfg.exclusion_fraction * n)
    n_change = int(cfg.change_fraction * n)
    rng = _rng(cfg, "pair")

    order = rng.permutation(n)
    flat = np.zeros(n, dtype=np.int8)
    flat[order[:n_excl]] = EXCLUDED
    flat[order[n_excl : n_excl + n_change]] = 1
    obs = BinaryGrid(flat.reshape(cfg.rows, cfg.cols))

    noise = rng.normal(0.0, cfg.score_noise, size=n) if cfg.score_noise > 0 else np.zeros(n)
    scores = np.clip(flat.astype(np.float64) + noise, 0.0, 1.0)
    excluded = flat == EXCLUDED
    scores[excluded] = 0.0
    score_grid = ScoreGrid(scores.reshape(cfg.rows, cfg.cols), excluded.reshape(cfg.rows, cfg.cols))
    return obs, score_grid


def generate_run_table(
    cfg: SynthConfig,
    n_boxes: int = 30,
    cycles: tuple[int, ...] = tuple(range(1, 13)),
) -> list[RunRecord]:
    """Run records whose PPV - NPV difference centers on the planted offset.

    Construction (plumbing, chosen so the planted offset is recoverable by
    the dominance selector at desk scale):

    * Per-box heterogeneity: box i carries a persistent difference offset
      of -2b (every third box) or +b (the rest), b = min(0.5,
      (5/3) * score_noise). The exact 1:2 split keeps the table-wide mean
      difference equal to `planted_offset` while spreading factor values
      over [0, 1] the way heterogeneous landscapes do; as score_noise
      shrinks, so does the spread.
    * Learning curve: zero-mean Gaussian cycle noise with scale
      (score_noise / 3) * rank^(-1/2), shrinking as cycles progress.

    PPV and NPV are placed symmetrically around 0.5 at each run's
    difference, clamped away from the ends.
    """
    check_count("n_boxes", n_boxes, 1)
    if not cycles:
        raise ValueError("need at least one cycle")
    rng = _rng(cfg, "runs")
    spread = min(0.5, cfg.score_noise * 5.0 / 3.0)
    jitter = cfg.score_noise / 3.0
    ordered_cycles = sorted(set(int(c) for c in cycles))

    # One row per (box, cycle), box-major: the order the runs are drawn in.
    boxes, n_cycles = np.arange(n_boxes), len(ordered_cycles)
    box_offset = np.where(boxes % 3 == 0, -2.0 * spread, spread).repeat(n_cycles)
    scales = np.tile([jitter * rank**-0.5 for rank in range(1, n_cycles + 1)], n_boxes)
    eps = rng.normal(0.0, scales) if jitter > 0 else 0.0
    diff = np.clip(cfg.planted_offset + box_offset + eps, -0.98, 0.98)
    ppv, npv = (0.5 + diff / 2.0).tolist(), (0.5 - diff / 2.0).tolist()
    group_bounds = np.linspace(0, n_boxes, 4).astype(int)  # thirds: A | B | C
    groups = ["ABC"[g] for g in np.searchsorted(group_bounds[1:3], boxes, side="right").tolist()]
    return [
        RunRecord(box_id=i, group=groups[i], cycle=cycle, ppv=p, npv=n)
        for i, cycle, p, n in zip(boxes.repeat(n_cycles).tolist(), ordered_cycles * n_boxes, ppv, npv)
    ]
