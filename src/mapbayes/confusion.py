"""Confusion matrices and agreement rates for binary map comparisons.

A cell contributes to the tally only when it is non-excluded in both the
prediction and the observation; `np.bincount` over a per-cell code counts
all four outcomes in a single pass, one block of cells at a time. Rates
with a zero marginal are reported as None (undefined), never coerced to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import _BLOCK_CELLS, BinaryGrid, check_aligned, check_count, check_unit


@dataclass(frozen=True)
class ConfusionMatrix:
    """Cell counts for a predicted/observed pair of binary rasters.

    tp: predicted 1, observed 1;  fp: predicted 1, observed 0;
    fn: predicted 0, observed 1;  tn: predicted 0, observed 0.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            check_count(name, getattr(self, name))

    @property
    def predicted_positives(self) -> int:
        return self.tp + self.fp

    @property
    def predicted_negatives(self) -> int:
        return self.tn + self.fn

    @property
    def observed_positives(self) -> int:
        return self.tp + self.fn

    @property
    def observed_negatives(self) -> int:
        return self.tn + self.fp

    @property
    def grand_total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class AgreementRates:
    """Rates derived from a confusion matrix.

    `tn_rate` is TN / (TN + FP): the true-negative rate. Standard usage calls
    this quantity specificity; some reporting traditions label the same number
    "1 - Specificity". It is stored once here and `specificity_std` aliases it
    under the standard name. Undefined rates (zero marginal) are None; a
    defined rate outside [0, 1], or NaN, is refused, naming its field.
    """

    sensitivity: float | None
    tn_rate: float | None
    prevalence_observed: float
    pcm: float

    def __post_init__(self):
        for name in ("sensitivity", "tn_rate", "prevalence_observed", "pcm"):
            if getattr(self, name) is not None:
                check_unit(name, getattr(self, name))

    @property
    def specificity_std(self) -> float | None:
        """Standard-usage alias for the true-negative rate."""
        return self.tn_rate


def build_confusion(sim: BinaryGrid, obs: BinaryGrid) -> ConfusionMatrix:
    """Tally the confusion matrix for a prediction against an observation.

    Args:
        sim: Predicted binary grid.
        obs: Observed binary grid, on the same cells.

    Returns:
        ConfusionMatrix over cells non-excluded in both grids.

    Raises:
        ValueError: The grids do not line up (see `check_aligned`), or no
            jointly non-excluded cells.
    """
    check_aligned(sim, "prediction", obs, "observation")
    # Code (sim + 1) * 3 + (obs + 1) in 0..8: an excluded side (-1) lands in
    # bins 0-3 or 6, and the live outcomes in tn 4, fn 5, fp 7, tp 8. The
    # code is counted in blocks, as bincount casts it to intp, 8 bytes a cell.
    s, o = sim.values.ravel(), obs.values.ravel()
    counts = np.zeros(9, np.int64)
    for i in range(0, s.size, _BLOCK_CELLS):
        code = ((s[i : i + _BLOCK_CELLS] + 1) * 3 + (o[i : i + _BLOCK_CELLS] + 1)).view(np.uint8)
        counts += np.bincount(code, minlength=9)
    tn, fn, _, fp, tp = (int(c) for c in counts[4:])
    if tp + fp + fn + tn == 0:
        raise ValueError("no jointly non-excluded cells to compare")
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def agreement_rates(m: ConfusionMatrix) -> AgreementRates:
    """Compute sensitivity, the true-negative rate, prevalence, and PCM.

    sensitivity = TP / (TP + FN); tn_rate = TN / (TN + FP);
    prevalence_observed = (TP + FN) / total; pcm = (TP + TN) / total
    (the percent-correct match). A zero marginal leaves the rate None.

    Raises:
        ValueError: Empty matrix (grand total zero).
    """
    gt = m.grand_total
    if gt == 0:
        raise ValueError("empty confusion matrix")
    sens = m.tp / m.observed_positives if m.observed_positives else None
    tn_rate = m.tn / m.observed_negatives if m.observed_negatives else None
    return AgreementRates(
        sensitivity=sens,
        tn_rate=tn_rate,
        prevalence_observed=m.observed_positives / gt,
        pcm=(m.tp + m.tn) / gt,
    )


def perfect_agreement_gap(rates: AgreementRates) -> float | None:
    """Absolute gap |sensitivity - tn_rate|; None when either is undefined."""
    if rates.sensitivity is None or rates.tn_rate is None:
        return None
    return abs(rates.sensitivity - rates.tn_rate)
