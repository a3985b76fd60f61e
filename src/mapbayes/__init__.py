"""Spatially explicit Bayesian accuracy assessment for binary map predictions.

Confusion tallies under exclusion masks, likelihood ratios and
prevalence-conditional predictive values (dual reporting conventions),
Epanechnikov density crossings, convergence-factor model selection, and a
deterministic regional sampling scheme - as a library and a CLI.

`import mapbayes` loads no submodule: each public name below is imported
from its module on first use (PEP 562), so a command loads only the
modules it calls.
"""

import importlib

#: The public names, by the module that defines them.
_EXPORTS = {
    "bayes": (
        "Convention", "LikelihoodRatios", "PredictiveValues", "diagnostic_odds_ratio", "likelihood_ratios",
        "predictive_values", "prevalence_sweep",
    ),
    "confusion": ("AgreementRates", "ConfusionMatrix", "agreement_rates", "build_confusion", "perfect_agreement_gap"),
    "convergence": (
        "DEFAULT_ALPHA_GRID", "FORM_KINDS", "GROUP_ALL", "GROUP_FINAL", "ConvergenceForm", "DominanceTable",
        "FitGrid", "PPCurve", "RunRecord", "RunTable", "asymmetric_family", "convergence_factor",
        "dominance_table", "factor_timeline", "factor_values", "fit_by_form", "fit_normal_ml", "pp_curve",
        "split_robustness",
    ),
    "kde": (
        "Crossing", "KdeModel", "density_intersection", "epanechnikov", "find_crossings", "fit_kde",
        "silverman_bandwidth",
    ),
    "raster": (
        "EXCLUDED", "BinaryGrid", "Grid", "GridFormatError", "ScoreGrid", "check_aligned", "load_binary",
        "load_grid", "load_scores", "threshold_scores", "to_binary", "to_scores", "write_grid",
    ),
    "sampling": (
        "POOL_THRESHOLDS", "BoxTable", "change_exclusion_index", "classify_pools", "draw_quantile_sample",
        "quantile_bin_sizes", "tile_region",
    ),
    "synth": ("SynthConfig", "generate_pair", "generate_run_table"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module on first use and kept here."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
