"""Command-line interface.

Subcommands: assess, sweep, kde, converge, sample, synth, report. Every
subcommand takes --config, a key = value file; `SHARED_SETTINGS` lists the
shared settings (seed, out, convention, alpha_grid, bandwidth) each one
reads, as flags or config keys; `report.read_settings` parses both.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import astuple
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .bayes import Convention, prevalence_sweep
from .confusion import AgreementRates
from .convergence import DEFAULT_ALPHA_GRID
from .kde import GRID, balance_point, find_crossings, fit_kde
from .raster import format_float, format_floats, load_grid, to_binary, write_grid
from .report import (
    _BAYES_HEADER,
    _CONFUSION_HEADER,
    DEFAULT_THRESHOLD,
    PairAssessment,
    ThresholdPolicy,
    analyze_scopes,
    assess_pair,
    column_rows,
    load_job,
    load_observed,
    read_csv,
    read_runs_csv,
    read_settings,
    run_job,
    unit_value,
    write_csv,
    write_json,
    write_runs_csv,
)
from .sampling import DEFAULT_QUANTILES, classify_pools, draw_quantile_sample, tile_region
from .synth import SynthConfig, generate_pair, generate_run_table

log = logging.getLogger(__name__)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


#: The shared settings each subcommand reads. Each one may come from its
#: flag or from the --config file, and the flag wins; a subcommand gets no
#: flag and accepts no config key for a setting it does not read. `report`
#: hands its flags to `load_job`, which also reads the job keys (inputs,
#: threshold, final_cycle) from the config file.
SHARED_SETTINGS: dict[str, tuple[str, ...]] = {
    "assess": ("out", "convention"),
    "sweep": ("out", "convention"),
    "kde": ("out", "bandwidth"),
    "converge": ("out", "alpha_grid", "bandwidth"),
    "sample": ("out", "seed"),
    "synth": ("out", "seed"),
    "report": ("out", "convention", "alpha_grid", "bandwidth", "seed"),
}

#: argparse options of each shared setting's flag; `read_settings` parses its text.
_FLAGS: dict[str, dict[str, Any]] = {
    "out": {"help": "output directory"},
    "convention": {"choices": ["paper", "standard"], "help": "formula convention (default paper)"},
    "alpha_grid": {"help": "comma-separated offsets in [0,1] for the asymmetric family"},
    "bandwidth": {"help": "positive KDE bandwidth (default: Silverman's rule)"},
    "seed": {"help": "non-negative RNG seed (default 0)"},
}
_REPORT_SEED_HELP = "provenance only: echoed into manifest.json settings, feeds no computation (default 0)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapbayes",
        description="Bayesian accuracy assessment of binary map predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, help="key = value config file; flags override it")
        for key in SHARED_SETTINGS[name]:
            spec = _FLAGS[key]
            if (name, key) == ("report", "seed"):
                spec = {**spec, "help": _REPORT_SEED_HELP}
            p.add_argument("--" + key.replace("_", "-"), **spec)
        p.set_defaults(func=func)
        return p

    _add_pair_arguments(add("assess", "confusion + ratio metrics for one raster pair", cmd_assess))

    p = add("sweep", "predictive values across a prevalence grid", cmd_sweep)
    _add_pair_arguments(p, required=False)
    p.add_argument("--sens", type=float, help="sensitivity (alternative to rasters)")
    p.add_argument("--tn-rate", type=float, help="true-negative rate (alternative to rasters)")
    p.add_argument("--prevalences", help="comma list of prevalences (default 0..1 step 0.01)")

    p = add("kde", "fit densities to labelled samples and find the crossing", cmd_kde)
    p.add_argument("--samples", type=Path, required=True, help="CSV with columns label (pos|neg), value")

    p = add("converge", "convergence-factor fits, dominance, selection", cmd_converge)
    p.add_argument("--runs", type=Path, required=True, help="CSV with box_id, group, cycle, ppv, npv")
    p.add_argument("--final-cycle", type=int, help="first cycle of the converged tail (default: last cycle)")

    p = add("sample", "tile a region, pool boxes, draw quantile samples", cmd_sample)
    p.add_argument("--change", type=Path, required=True, help="binary change raster")
    p.add_argument("--exclusion", type=Path, required=True, help="binary exclusionary raster")
    p.add_argument("--box-cells", type=int, default=6889, help="cells per square box (default 6889 = 83x83)")
    p.add_argument("--n-quantiles", type=int, default=DEFAULT_QUANTILES)

    p = add("synth", "write synthetic rasters and a planted run table", cmd_synth)
    p.add_argument("--rows", type=int, default=60)
    p.add_argument("--cols", type=int, default=60)
    p.add_argument("--change-fraction", type=float, default=0.15)
    p.add_argument("--exclusion-fraction", type=float, default=0.2)
    p.add_argument("--score-noise", type=float, default=0.3)
    p.add_argument("--planted-offset", type=float, default=0.0)
    p.add_argument("--boxes", type=int, default=30)
    p.add_argument("--cycles", type=int, default=12, help="number of cycles in the run table")

    add("report", "run a full assessment job from a config file", cmd_report)
    return parser


def _add_pair_arguments(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--sim", type=Path, required=False, help="predicted binary raster")
    p.add_argument("--score", type=Path, required=False, help="predicted score raster (needs --threshold)")
    p.add_argument("--obs", type=Path, required=required, help="observed binary raster")
    p.add_argument("--exclusion", type=Path, help="exclusionary raster (nonzero = excluded)")
    p.add_argument("--threshold", help="for --score: value:<t>, quantity:<n>, or quantity:obs (default value:0.5)")


def _settings(args, *required: str) -> dict[str, Any]:
    """The subcommand's shared settings, parsed from its flags and --config."""
    return read_settings(args.config, vars(args), args.command, SHARED_SETTINGS[args.command], required)


def _assess(args, convention: Convention) -> PairAssessment:
    """Assess the pair that --sim or --score and --obs name."""
    if (args.sim is None) == (args.score is None):
        raise ValueError("give exactly one of --sim (binary) or --score")
    if args.sim is not None and args.threshold is not None:
        raise ValueError("--threshold applies to --score only; a --sim raster is already classified")
    sim, kind = (args.sim, "binary") if args.sim is not None else (args.score, "score")
    threshold = DEFAULT_THRESHOLD if args.threshold is None else ThresholdPolicy.parse(args.threshold)
    return assess_pair(kind, sim, load_observed(args.obs, args.exclusion), threshold, convention)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_assess(args) -> int:
    settings = _settings(args)
    convention, out = settings.get("convention", Convention.PAPER), settings.get("out")
    a = _assess(args, convention)
    # confusion.csv's columns and bayes.csv's ratios, without box_id, cycle and a second prevalence.
    header = (*_CONFUSION_HEADER[2:], "convention", *_BAYES_HEADER[4:])
    row = (*astuple(a.matrix), *format_floats(astuple(a.rates)), convention.value, *format_floats(a.ratios()))
    if out is not None:
        _emit_csv(out, "assess.csv", header, [row])
    else:
        for k, v in zip(header, row):
            print(f"{k} {v}")
    return 0


def cmd_sweep(args) -> int:
    settings = _settings(args)
    convention = settings.get("convention", Convention.PAPER)
    if args.sens is not None or args.tn_rate is not None:
        flags = ("sens", "tn_rate", "sim", "score", "obs", "exclusion", "threshold")
        given = [f"--{k.replace('_', '-')}" for k in flags if getattr(args, k) is not None]
        if given != ["--sens", "--tn-rate"]:
            raise ValueError(f"--sens and --tn-rate go together, without a raster pair; got {' '.join(given)}")
        rates = AgreementRates(sensitivity=args.sens, tn_rate=args.tn_rate, prevalence_observed=0.0, pcm=0.0)
    elif args.obs is not None:
        rates = _assess(args, convention).rates
        if rates.sensitivity is None or rates.tn_rate is None:
            raise ValueError("pair has an undefined rate; sweep needs both sensitivity and tn_rate")
    else:
        raise ValueError("give --sens/--tn-rate, or a raster pair")
    grid = [round(i * 0.01, 2) for i in range(101)]
    try:
        if args.prevalences:
            grid = [float(t) for t in args.prevalences.split(",")]
        sweep = prevalence_sweep(rates, grid, convention)
    except ValueError as exc:
        raise ValueError(f"--prevalences: {exc}") from None
    rows = [(*format_floats((pv.prevalence, pv.ppv, pv.npv)), convention.value) for pv in sweep]
    _emit_csv(settings.get("out"), "sweep.csv", ("prevalence", "ppv", "npv", "convention"), rows)
    return 0


def cmd_kde(args) -> int:
    settings = _settings(args)
    bandwidth = settings.get("bandwidth")
    labels, values = map(np.array, read_csv(args.samples, {"label": _sample_label, "value": unit_value}))
    fits = {}
    for label in ("pos", "neg"):
        try:
            fits[label] = fit_kde(values[labels == label], bandwidth)
        except ValueError as exc:
            raise ValueError(f"{args.samples}: label {label!r}: {exc}") from None
    f_pos, f_neg = fits["pos"], fits["neg"]
    crossings = find_crossings(f_pos, f_neg)  # refuses before any output is written
    rows = column_rows(GRID, f_pos.on_grid, f_neg.on_grid)
    _emit_csv(settings.get("out"), "kde.csv", ("x", "f_pos", "f_neg"), rows)
    print(f"crossing {format_float(balance_point(crossings).x)}")
    for c in crossings:
        print(f"crossing_at {format_float(c.x)} density {format_float(c.density)}")
    return 0


def cmd_converge(args) -> int:
    settings = _settings(args, "out")
    out = settings["out"]
    runs = read_runs_csv(args.runs)
    out.mkdir(parents=True, exist_ok=True)
    _, scope_summaries = analyze_scopes(
        runs,
        out,
        alpha_grid=settings.get("alpha_grid", DEFAULT_ALPHA_GRID),
        bandwidth=settings.get("bandwidth"),
        final_cycle=args.final_cycle,
    )
    write_json(out / "summary.json", {"scopes": scope_summaries})
    for scope in sorted(scope_summaries):
        sel = scope_summaries[scope].get("selected_alpha")
        print(f"{scope} selected_alpha {format_float(sel) if sel is not None else 'none'}")
    return 0


def cmd_sample(args) -> int:
    settings = _settings(args)
    seed = settings.get("seed", 0)
    boxes = tile_region(to_binary(load_grid(args.change)), to_binary(load_grid(args.exclusion)), args.box_cells)
    pools = classify_pools(boxes)
    selected: dict[str, set[int]] = {}
    for label, pool in sorted(pools.items()):
        if len(pool) >= args.n_quantiles:
            drawn = draw_quantile_sample(pool, args.n_quantiles, seed=seed, label=label)
            selected[label] = {b.box_id for b in drawn}
        else:
            log.warning("pool %s has %d boxes; fewer than %d quantiles, skipped", label, len(pool), args.n_quantiles)
    members = {label: {b.box_id for b in pool} for label, pool in sorted(pools.items())}
    rows = []
    for b in boxes:
        in_pools = "".join(l for l in members if b.box_id in members[l])
        chosen = "".join(l for l in sorted(selected) if b.box_id in selected[l])
        stats = format_floats((b.pct_urban_change, b.pct_exclusionary, b.index))
        rows.append((b.box_id, b.row0, b.col0, *stats, in_pools, chosen))
    header = ("box_id", "row0", "col0", "pct_urban", "pct_excl", "index", "pools", "selected_for")
    _emit_csv(settings.get("out"), "sample.csv", header, rows)
    return 0


def cmd_synth(args) -> int:
    settings = _settings(args, "out")
    out = settings["out"]
    cfg = SynthConfig(
        rows=args.rows,
        cols=args.cols,
        seed=settings.get("seed", 0),
        change_fraction=args.change_fraction,
        exclusion_fraction=args.exclusion_fraction,
        score_noise=args.score_noise,
        planted_offset=args.planted_offset,
    )
    out.mkdir(parents=True, exist_ok=True)
    obs, scores = generate_pair(cfg)
    write_grid(obs, out / "obs.asc")
    write_grid(scores, out / "scores.asc")
    runs = generate_run_table(cfg, n_boxes=args.boxes, cycles=tuple(range(1, args.cycles + 1)))
    write_runs_csv(out / "runs.csv", runs)
    print(out)
    return 0


def cmd_report(args) -> int:
    if args.config is None:
        raise ValueError("report needs --config")
    job = load_job(args.config, vars(args))
    manifest = run_job(job)
    print(job.out_dir)
    n_fail = len(manifest["failures"])
    if n_fail:
        print(f"failed_inputs {n_fail}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _sample_label(text: str) -> str:
    label = text.lower()
    if label not in ("pos", "neg"):
        raise ValueError(f"sample label must be pos or neg, got {text!r}")
    return label


def _emit_csv(out: Path | None, name: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write the table to `out`/`name` and print that path; without `out`, print the table."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        print(write_csv(out / name, header, rows))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


if __name__ == "__main__":
    sys.exit(main())
