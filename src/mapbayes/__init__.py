"""Spatially explicit Bayesian accuracy assessment for binary map predictions.

Confusion tallies under exclusion masks, likelihood ratios and
prevalence-conditional predictive values (dual reporting conventions),
Epanechnikov density crossings, convergence-factor model selection, and a
deterministic regional sampling scheme - as a library and a CLI.
"""

from .bayes import (
    Convention,
    LikelihoodRatios,
    PredictiveValues,
    diagnostic_odds_ratio,
    likelihood_ratios,
    predictive_values,
    prevalence_sweep,
)
from .confusion import (
    AgreementRates,
    ConfusionMatrix,
    agreement_rates,
    build_confusion,
    perfect_agreement_gap,
)
from .convergence import (
    DEFAULT_ALPHA_GRID,
    FORM_KINDS,
    GROUP_ALL,
    GROUP_FINAL,
    ConvergenceForm,
    DominanceTable,
    FitGrid,
    PPCurve,
    RunRecord,
    RunTable,
    asymmetric_family,
    convergence_factor,
    dominance_table,
    factor_timeline,
    factor_values,
    fit_by_form,
    fit_normal_ml,
    pp_curve,
    split_robustness,
)
from .kde import (
    Crossing,
    KdeModel,
    density_intersection,
    epanechnikov,
    find_crossings,
    fit_kde,
    silverman_bandwidth,
)
from .raster import (
    EXCLUDED,
    BinaryGrid,
    Grid,
    GridFormatError,
    ScoreGrid,
    check_aligned,
    load_grid,
    threshold_scores,
    to_binary,
    to_scores,
    write_grid,
)
from .sampling import (
    POOL_THRESHOLDS,
    SampleBox,
    change_exclusion_index,
    classify_pools,
    draw_quantile_sample,
    quantile_bin_sizes,
    tile_region,
)
from .synth import SynthConfig, generate_pair, generate_run_table

__version__ = "0.1.0"
