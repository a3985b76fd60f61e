"""Likelihood ratios, diagnostic odds, and prevalence-conditional
predictive values, under two reporting conventions.

Some land-change reporting labels the true-negative rate "1 - Specificity"
and writes the predictive-value updates in terms of sensitivity and that
quantity alone. The `paper` convention reproduces those formulas literally;
the `standard` convention is the textbook Bayes update with specificity in
its usual sense. Both are first-class: every result records which convention
produced it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .confusion import AgreementRates
from .raster import check_unit


class Convention(str, enum.Enum):
    """Formula convention for ratio and predictive-value calculations."""

    PAPER = "paper"
    STANDARD = "standard"

    @classmethod
    def parse(cls, text: str) -> "Convention":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown convention {text!r}; expected 'paper' or 'standard'") from None


@dataclass(frozen=True)
class LikelihoodRatios:
    """Positive and negative likelihood ratios; +inf marks a zero denominator."""

    lr_pos: float
    lr_neg: float
    convention: Convention


@dataclass(frozen=True)
class PredictiveValues:
    """PPV / NPV at a given prevalence; None marks an undefined (0/0) value."""

    prevalence: float
    ppv: float | None
    npv: float | None
    convention: Convention


def _require_rates(rates: AgreementRates) -> tuple[float, float]:
    if rates.sensitivity is None or rates.tn_rate is None:
        raise ValueError("sensitivity and tn_rate must both be defined")
    return rates.sensitivity, rates.tn_rate


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf
    return num / den


def likelihood_ratios(rates: AgreementRates, convention: Convention = Convention.PAPER) -> LikelihoodRatios:
    """Likelihood ratios under the chosen convention.

    paper:    lr_pos = sens / tn_rate,        lr_neg = (1 - sens) / (1 - tn_rate)
    standard: lr_pos = sens / (1 - tn_rate),  lr_neg = (1 - sens) / tn_rate

    A zero denominator yields +inf (flagged by `math.isinf`).
    """
    sens, tn_rate = _require_rates(rates)
    if convention == Convention.PAPER:
        return LikelihoodRatios(_ratio(sens, tn_rate), _ratio(1.0 - sens, 1.0 - tn_rate), convention)
    return LikelihoodRatios(_ratio(sens, 1.0 - tn_rate), _ratio(1.0 - sens, tn_rate), convention)


def diagnostic_odds_ratio(lr: LikelihoodRatios) -> float:
    """DOR = lr_pos / lr_neg; +inf when lr_neg is 0, nan when both are inf.

    Comparable across reports only when built under one threshold rule.
    """
    if math.isinf(lr.lr_pos) and math.isinf(lr.lr_neg):
        return math.nan
    return _ratio(lr.lr_pos, lr.lr_neg)


def predictive_values(
    rates: AgreementRates,
    prevalence: float,
    convention: Convention = Convention.PAPER,
) -> PredictiveValues:
    """Prevalence-conditional PPV and NPV under the chosen convention.

    With s = sensitivity, t = tn_rate, p = prevalence:

    paper:    ppv = s p / (s p + (1 - s)(1 - p))
              npv = t (1 - p) / (t (1 - p) + s p)
    standard: ppv = s p / (s p + (1 - t)(1 - p))
              npv = t (1 - p) / (t (1 - p) + (1 - s) p)

    A zero denominator (0/0) leaves that value None.
    """
    p = check_unit("prevalence", prevalence)
    s, t = _require_rates(rates)
    if convention == Convention.PAPER:
        ppv_num, ppv_extra = s * p, (1.0 - s) * (1.0 - p)
        npv_num, npv_extra = t * (1.0 - p), s * p
    else:
        ppv_num, ppv_extra = s * p, (1.0 - t) * (1.0 - p)
        npv_num, npv_extra = t * (1.0 - p), (1.0 - s) * p
    ppv = ppv_num / (ppv_num + ppv_extra) if ppv_num + ppv_extra > 0.0 else None
    npv = npv_num / (npv_num + npv_extra) if npv_num + npv_extra > 0.0 else None
    return PredictiveValues(prevalence=p, ppv=ppv, npv=npv, convention=convention)


def prevalence_sweep(
    rates: AgreementRates,
    prevalences: Iterable[float] | Sequence[float],
    convention: Convention = Convention.PAPER,
) -> list[PredictiveValues]:
    """Predictive values on a grid of prevalences (order preserved)."""
    return [predictive_values(rates, p, convention) for p in prevalences]
