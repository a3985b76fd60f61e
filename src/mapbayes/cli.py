"""Command-line interface.

Subcommands: assess, sweep, kde, converge, sample, synth, report. Every
subcommand takes --config, a key = value file; `SHARED_SETTINGS` lists the
shared settings (seed, out, convention, alpha_grid, bandwidth) each one
reads, as flags or config keys. Explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path
from typing import Any

from .bayes import Convention, prevalence_sweep
from .confusion import AgreementRates
from .convergence import DEFAULT_ALPHA_GRID, RunRecord
from .kde import GRID, balance_point, find_crossings, fit_kde
from .raster import load_grid, to_binary, write_grid
from .report import (
    JobInput,
    ThresholdPolicy,
    analyze_scopes,
    assess_pair,
    format_float,
    load_job,
    parse_alpha_grid,
    parse_config,
    run_job,
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
    "converge": ("out", "convention", "alpha_grid", "bandwidth"),
    "sample": ("out", "seed"),
    "synth": ("out", "seed"),
    "report": ("out", "convention", "alpha_grid", "bandwidth", "seed"),
}

#: argparse options of each shared setting's flag.
_FLAGS: dict[str, dict[str, Any]] = {
    "out": {"type": Path, "help": "output directory"},
    "convention": {"choices": ["paper", "standard"], "help": "formula convention (default paper)"},
    "alpha_grid": {"help": "comma-separated offsets in [0,1] for the asymmetric family"},
    "bandwidth": {"type": float, "help": "KDE bandwidth (default: Silverman's rule)"},
    "seed": {"type": int, "help": "non-negative RNG seed (default 0)"},
}
_REPORT_SEED_HELP = "provenance only: echoed into manifest.json settings, feeds no computation (default 0)"

#: Parser of each shared setting, for flag values and config-file text alike.
_PARSE = {
    "out": Path,
    "seed": int,
    "convention": lambda v: Convention.parse(str(v)),
    "alpha_grid": lambda v: parse_alpha_grid(str(v)),
    "bandwidth": float,
}


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

    p = add("assess", "confusion + ratio metrics for one raster pair", cmd_assess)
    _add_pair_arguments(p)
    p.add_argument("--box-id", type=int, default=0)
    p.add_argument("--group", default="A")
    p.add_argument("--cycle", type=int, default=0)

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
    p.add_argument("--threshold", default="value:0.5", help="value:<t>, quantity:<n>, or quantity:obs")


def _settings(args) -> dict[str, Any]:
    """The subcommand's shared settings, parsed; a flag wins over --config.

    The config file is read once. A setting that is unset or empty is left
    out of the result.

    Raises:
        ValueError: The config file sets a key the subcommand does not read.
    """
    keys = SHARED_SETTINGS[args.command]
    raw: dict[str, Any] = parse_config(args.config) if args.config is not None else {}
    unread = sorted(set(raw) - set(keys))
    if unread:
        raise ValueError(f"{args.config}: config keys not read by {args.command}: {unread}")
    raw.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    return {k: _PARSE[k](v) for k, v in raw.items() if v != ""}


def _pair_input(args) -> JobInput:
    if (args.sim is None) == (args.score is None):
        raise ValueError("give exactly one of --sim (binary) or --score")
    return JobInput(
        kind="binary" if args.sim is not None else "score",
        sim=args.sim if args.sim is not None else args.score,
        obs=args.obs,
        exclusion=args.exclusion,
        box_id=getattr(args, "box_id", 0),
        group=getattr(args, "group", "A"),
        cycle=getattr(args, "cycle", 0),
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_assess(args) -> int:
    settings = _settings(args)
    convention, out = settings.get("convention", Convention.PAPER), settings.get("out")
    inp = _pair_input(args)
    a = assess_pair(inp, ThresholdPolicy.parse(args.threshold), convention)
    rows = [
        ("tp", a.tp),
        ("fp", a.fp),
        ("fn", a.fn),
        ("tn", a.tn),
        ("sens", format_float(a.sensitivity)),
        ("tn_rate", format_float(a.tn_rate)),
        ("prevalence", format_float(a.prevalence)),
        ("pcm", format_float(a.pcm)),
        ("convention", convention.value),
        ("ppv", format_float(a.ppv)),
        ("npv", format_float(a.npv)),
        ("lr_pos", format_float(a.lr_pos)),
        ("lr_neg", format_float(a.lr_neg)),
        ("dor", format_float(a.dor)),
    ]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with (out / "assess.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([k for k, _ in rows])
            writer.writerow([v for _, v in rows])
        print(out / "assess.csv")
    else:
        for k, v in rows:
            print(f"{k} {v}")
    return 0


def cmd_sweep(args) -> int:
    settings = _settings(args)
    convention = settings.get("convention", Convention.PAPER)
    if args.sens is not None and args.tn_rate is not None:
        rates = AgreementRates(
            sensitivity=args.sens, tn_rate=args.tn_rate, prevalence_observed=0.0, pcm=0.0
        )
    elif args.obs is not None:
        a = assess_pair(_pair_input(args), ThresholdPolicy.parse(args.threshold), convention)
        if a.sensitivity is None or a.tn_rate is None:
            raise ValueError("pair has an undefined rate; sweep needs both sensitivity and tn_rate")
        rates = AgreementRates(
            sensitivity=a.sensitivity, tn_rate=a.tn_rate, prevalence_observed=a.prevalence, pcm=a.pcm
        )
    else:
        raise ValueError("give --sens/--tn-rate, or a raster pair")
    if args.prevalences:
        grid = [float(t) for t in args.prevalences.split(",")]
    else:
        grid = [round(i * 0.01, 2) for i in range(101)]
    lines = [("prevalence", "ppv", "npv", "convention")]
    for pv in prevalence_sweep(rates, grid, convention):
        lines.append((format_float(pv.prevalence), format_float(pv.ppv), format_float(pv.npv), convention.value))
    _emit_csv(settings.get("out"), "sweep.csv", lines)
    return 0


def cmd_kde(args) -> int:
    settings = _settings(args)
    bandwidth = settings.get("bandwidth")
    pos, neg = [], []
    with args.samples.open(newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            label = rec["label"].strip().lower()
            if label == "pos":
                pos.append(float(rec["value"]))
            elif label == "neg":
                neg.append(float(rec["value"]))
            else:
                raise ValueError(f"sample label must be pos or neg, got {rec['label']!r}")
    f_pos = fit_kde(pos, bandwidth)
    f_neg = fit_kde(neg, bandwidth)
    lines = [("x", "f_pos", "f_neg")]
    rows = zip(GRID, f_pos.on_grid, f_neg.on_grid)
    lines += [(format_float(x), format_float(a), format_float(b)) for x, a, b in rows]
    _emit_csv(settings.get("out"), "kde.csv", lines)
    crossings = find_crossings(f_pos, f_neg)
    print(f"crossing {format_float(balance_point(crossings).x)}")
    for c in crossings:
        print(f"crossing_at {format_float(c.x)} density {format_float(c.density)}")
    return 0


def cmd_converge(args) -> int:
    settings = _settings(args)
    convention = settings.get("convention", Convention.PAPER)
    out = settings.get("out")
    if out is None:
        raise ValueError("converge needs --out")
    runs = _read_runs(args.runs)
    out.mkdir(parents=True, exist_ok=True)
    write_runs_csv(out / "runs.csv", runs)
    _, scope_summaries = analyze_scopes(
        runs,
        out,
        alpha_grid=settings.get("alpha_grid") or DEFAULT_ALPHA_GRID,
        bandwidth=settings.get("bandwidth"),
        final_cycle=args.final_cycle,
    )
    write_json(out / "summary.json", {"convention": convention.value, "scopes": scope_summaries})
    for scope in sorted(scope_summaries):
        sel = scope_summaries[scope].get("selected_alpha")
        print(f"{scope} selected_alpha {format_float(sel) if sel is not None else 'none'}")
    return 0


def cmd_sample(args) -> int:
    settings = _settings(args)
    seed = settings.get("seed", 0)
    change = load_grid(args.change)
    exclusion = load_grid(args.exclusion)
    change_b = to_binary(change, one_value=1.0, zero_value=0.0)
    excl_b = to_binary(exclusion, one_value=1.0, zero_value=0.0)
    boxes = tile_region(change_b, excl_b, args.box_cells)
    pools = classify_pools(boxes)
    selected: dict[str, set[int]] = {}
    for label, pool in sorted(pools.items()):
        if len(pool) >= args.n_quantiles:
            drawn = draw_quantile_sample(pool, args.n_quantiles, seed=seed, label=label)
            selected[label] = {b.box_id for b in drawn}
        else:
            log.warning("pool %s has %d boxes; fewer than %d quantiles, skipped", label, len(pool), args.n_quantiles)
    lines = [("box_id", "row0", "col0", "pct_urban", "pct_excl", "index", "pools", "selected_for")]
    members = {label: {b.box_id for b in pool} for label, pool in sorted(pools.items())}
    for b in boxes:
        in_pools = "".join(l for l in members if b.box_id in members[l])
        chosen = "".join(l for l in sorted(selected) if b.box_id in selected[l])
        lines.append(
            (
                str(b.box_id),
                str(b.row0),
                str(b.col0),
                format_float(b.pct_urban_change),
                format_float(b.pct_exclusionary),
                format_float(b.index),
                in_pools,
                chosen,
            )
        )
    _emit_csv(settings.get("out"), "sample.csv", lines)
    return 0


def cmd_synth(args) -> int:
    settings = _settings(args)
    out = settings.get("out")
    if out is None:
        raise ValueError("synth needs --out")
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
    flags = {k: getattr(args, k) for k in SHARED_SETTINGS["report"]}
    job = load_job(args.config, {k: str(v) for k, v in flags.items() if v is not None})
    manifest = run_job(job)
    print(job.out_dir)
    n_fail = len(manifest["failures"])
    if n_fail:
        print(f"failed_inputs {n_fail}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _read_runs(path: Path) -> list[RunRecord]:
    runs = []
    with path.open(newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            runs.append(
                RunRecord(
                    box_id=int(rec["box_id"]),
                    group=rec["group"].strip(),
                    cycle=int(rec["cycle"]),
                    ppv=float(rec["ppv"]),
                    npv=float(rec["npv"]),
                )
            )
    if not runs:
        raise ValueError(f"runs file {path} is empty")
    return runs


def _emit_csv(out: Path | None, name: str, lines) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with (out / name).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(lines)
        print(out / name)
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(lines)


if __name__ == "__main__":
    sys.exit(main())
