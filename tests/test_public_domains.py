"""Every public callable of mapbayes against the domain of each numeric parameter.

`TABLE` lists each public callable that takes a scalar number, with the
domain of each such parameter; `NO_SCALAR` and `RECORDS` list the rest. A
public callable in none of them, or a parameter annotated `int` or `float`
that its entry leaves out, fails `test_the_table_covers_the_public_library`.
For every listed parameter, hypothesis draws values outside its domain
(NaN, infinities, bools, negatives, non-integers for counts, values above 1
for unit parameters), and each must give a `ValueError` that names the
parameter.
"""

import inspect
import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mapbayes
from mapbayes import AgreementRates, BinaryGrid, ScoreGrid, SynthConfig, tile_region


class Domain(NamedTuple):
    """A parameter's domain: one value inside it, and a strategy for values outside it."""

    valid: object
    outside: st.SearchStrategy


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BOOLS = st.sampled_from([True, False, np.True_])
NOT_INTEGERS = st.floats() | st.sampled_from([np.float64(2.0), np.float32(0.5)])

#: A real number in [0, 1]: `raster.check_unit`.
UNIT = Domain(
    0.5,
    NON_FINITE
    | BOOLS
    | st.floats(max_value=0.0, exclude_max=True)
    | st.floats(min_value=1.0, exclude_min=True)
    | st.integers(max_value=-1)
    | st.integers(min_value=2),
)
#: A positive, finite real number: `raster.check_positive`.
POSITIVE = Domain(2.0, NON_FINITE | BOOLS | st.floats(max_value=0.0) | st.integers(max_value=0))
#: A non-negative integer: `raster.check_count`.
COUNT = Domain(4, NON_FINITE | BOOLS | NOT_INTEGERS | st.integers(max_value=-1))
#: A positive integer: `raster.check_count(..., least=1)`.
COUNT1 = Domain(4, COUNT.outside | st.just(0))
#: A non-negative, finite real number: `raster.check_nonnegative`.
NON_NEGATIVE = Domain(0.1, NON_FINITE | BOOLS | st.floats(max_value=0.0, exclude_max=True) | st.integers(max_value=-1))
#: A predictive value of a run record, checked as a `RunTable` row is; a
#: float column takes a bool as 0 or 1.
ROW = Domain(0.5, NON_FINITE | st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0, exclude_min=True))

RATES = AgreementRates(sensitivity=0.8, tn_rate=0.7, prevalence_observed=0.3, pcm=0.75)
REGION = BinaryGrid(np.zeros((4, 4), dtype=np.int8))
POOL = tile_region(REGION, REGION, 1)
SCORES = ScoreGrid(np.linspace(0.0, 1.0, 16).reshape(4, 4))

#: name -> (the other arguments, {numeric parameter: its domain}). A domain
#: of None has no rule to break: the parameter takes any number of its type.
TABLE = {
    "AgreementRates": (
        dict(sensitivity=0.8, tn_rate=0.7, prevalence_observed=0.3, pcm=0.75),
        {"sensitivity": UNIT, "tn_rate": UNIT, "prevalence_observed": UNIT, "pcm": UNIT},
    ),
    "ConfusionMatrix": (dict(tp=1, fp=2, fn=3, tn=4), {"tp": COUNT, "fp": COUNT, "fn": COUNT, "tn": COUNT}),
    "predictive_values": (dict(rates=RATES), {"prevalence": UNIT}),
    "ConvergenceForm": (dict(kind="asymmetric_normal"), {"alpha": UNIT}),
    "convergence_factor": (
        dict(ppv=0.6, npv=0.4, form=mapbayes.ConvergenceForm("triangular")),
        {"ppv": UNIT, "npv": UNIT},
    ),
    "RunRecord": (
        dict(box_id=0, group="A", cycle=1, ppv=0.6, npv=0.4),
        {"box_id": None, "cycle": None, "ppv": ROW, "npv": ROW},
    ),
    "split_robustness": (dict(runs=mapbayes.RunTable([0], ["A"], [1], [0.6], [0.4])), {"final_cycle": None}),
    "pp_curve": (dict(values=[0.2, 0.4, 0.6], mu=0.4, sigma=0.2), {"mu": UNIT, "sigma": POSITIVE}),
    "KdeModel": (dict(samples=np.array([0.2, 0.5])), {"bandwidth": POSITIVE}),
    "fit_kde": (dict(samples=[0.2, 0.5, 0.7]), {"bandwidth": POSITIVE}),
    "epanechnikov": ({}, {"z": None}),
    "Grid": (
        dict(values=np.zeros((2, 2))),
        {"cell_size": POSITIVE, "origin_x": None, "origin_y": None, "nodata": None},
    ),
    "BinaryGrid": (dict(values=np.zeros((2, 2))), {"cell_size": POSITIVE, "origin_x": None, "origin_y": None}),
    "ScoreGrid": (dict(values=np.zeros((2, 2))), {"cell_size": POSITIVE, "origin_x": None, "origin_y": None}),
    "threshold_scores": (dict(scores=SCORES), {"value": UNIT, "quantity": COUNT}),
    # Box shares, which may exceed 1 in a caller's own boxes.
    "change_exclusion_index": (dict(pct_urban_change=0.2, pct_exclusionary=0.4), {
        "pct_urban_change": NON_NEGATIVE, "pct_exclusionary": NON_NEGATIVE,
    }),
    "tile_region": (dict(urban_change=REGION, exclusion=REGION), {"box_cells": COUNT1}),
    "quantile_bin_sizes": (dict(pool_size=10, n_quantiles=3), {"pool_size": COUNT, "n_quantiles": COUNT1}),
    "draw_quantile_sample": (dict(pool=POOL, n_quantiles=2), {"n_quantiles": COUNT1, "seed": COUNT}),
    "SynthConfig": (
        dict(rows=4, cols=4),
        {
            "rows": COUNT1, "cols": COUNT1, "seed": COUNT, "change_fraction": NON_NEGATIVE,
            "exclusion_fraction": NON_NEGATIVE, "score_noise": NON_NEGATIVE, "planted_offset": UNIT,
        },
    ),
    "generate_run_table": (dict(cfg=SynthConfig(rows=4, cols=4)), {"n_boxes": COUNT1}),
}

#: Public callables without a scalar numeric parameter. The entries of
#: `prevalence_sweep`'s prevalences and `asymmetric_family`'s offsets are
#: probed one by one below; arrays are checked whole (`RunTable`, `FitGrid`,
#: `BoxTable`, the KDE's samples).
NO_SCALAR = {
    "Convention", "diagnostic_odds_ratio", "likelihood_ratios", "prevalence_sweep", "agreement_rates",
    "build_confusion", "perfect_agreement_gap", "FitGrid", "RunTable", "asymmetric_family", "dominance_table",
    "factor_timeline", "factor_values", "fit_by_form", "fit_normal_ml", "density_intersection", "find_crossings",
    "silverman_bandwidth", "check_aligned", "load_binary", "load_grid", "load_scores", "to_binary", "to_scores",
    "write_grid", "classify_pools", "generate_pair", "BoxTable",
}

#: Results and errors that the library fills in; they check nothing.
RECORDS = {
    "LikelihoodRatios", "PredictiveValues", "DominanceTable", "PPCurve", "Crossing", "GridFormatError",
}

#: (callable, parameter, domain) for every parameter with a rule.
CASES = [(name, param, dom) for name, (_, domains) in TABLE.items() for param, dom in domains.items() if dom]


def call(name, param, value):
    base, _ = TABLE[name]
    return getattr(mapbayes, name)(**{**base, param: value})


def scalar_numbers(fn):
    """Parameters of `fn` annotated as one int or float, optional or not."""
    params = inspect.signature(fn).parameters.values()
    return {p.name for p in params if re.fullmatch(r"(int|float)( \| None)?", str(p.annotation))}


def test_the_table_covers_the_public_library():
    # The package loads its names on first use, so they are read through
    # `__all__` and getattr, not from the package's namespace.
    public = {
        name
        for name, obj in ((name, getattr(mapbayes, name)) for name in mapbayes.__all__)
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
    }
    assert public == set(TABLE) | NO_SCALAR | RECORDS
    assert not (set(TABLE) & NO_SCALAR or set(TABLE) & RECORDS or NO_SCALAR & RECORDS)
    for name, (base, domains) in TABLE.items():
        fn = getattr(mapbayes, name)
        assert scalar_numbers(fn) <= set(domains) <= set(inspect.signature(fn).parameters), name
    for name in NO_SCALAR:
        assert scalar_numbers(getattr(mapbayes, name)) == set(), name


@pytest.mark.parametrize("name, param, domain", CASES, ids=[f"{n}.{p}" for n, p, _ in CASES])
def test_a_value_inside_the_domain_is_taken(name, param, domain):
    # Each refusal below is then the probed parameter's, not its fixture's.
    call(name, param, domain.valid)


def out_of_domain(case):
    name, param, domain = case
    return st.tuples(st.just(name), st.just(param), domain.outside)


@settings(max_examples=600, deadline=None)
@given(probe=st.sampled_from(CASES).flatmap(out_of_domain))
@example(probe=("AgreementRates", "sensitivity", True))
@example(probe=("predictive_values", "prevalence", True))
@example(probe=("ConvergenceForm", "alpha", True))
@example(probe=("SynthConfig", "seed", 1.5))
@example(probe=("SynthConfig", "rows", 2.5))
@example(probe=("ConfusionMatrix", "tp", 1.5))
@example(probe=("tile_region", "box_cells", True))
@example(probe=("tile_region", "box_cells", 4.0))
@example(probe=("fit_kde", "bandwidth", True))
@example(probe=("Grid", "cell_size", True))
@example(probe=("pp_curve", "sigma", math.inf))
@example(probe=("pp_curve", "mu", math.nan))
@example(probe=("change_exclusion_index", "pct_urban_change", math.nan))
@example(probe=("change_exclusion_index", "pct_exclusionary", -0.5))
@example(probe=("SynthConfig", "score_noise", True))
@example(probe=("quantile_bin_sizes", "n_quantiles", 0))
@example(probe=("generate_run_table", "n_boxes", 2.5))
@example(probe=("draw_quantile_sample", "n_quantiles", 2.5))
def test_a_value_outside_the_domain_is_refused_by_name(probe):
    name, param, value = probe
    with pytest.raises(ValueError) as err:
        call(name, param, value)
    assert re.search(rf"\b{param}\b", str(err.value)), str(err.value)
    assert "np." not in str(err.value)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: mapbayes.prevalence_sweep(RATES, [0.5, v]), "prevalence"),
        (lambda v: mapbayes.asymmetric_family([0.5, v]), "alpha"),
    ],
    ids=["prevalence_sweep", "asymmetric_family"],
)
@settings(max_examples=50, deadline=None)
@given(value=UNIT.outside)
def test_an_entry_outside_the_unit_interval_is_refused_by_name(make, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be in \[0, 1\], got "):
        make(value)
