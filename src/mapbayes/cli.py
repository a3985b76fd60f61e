"""Command-line interface.

Subcommands: assess, sweep, kde, converge, sample, synth, report. Every
subcommand takes --config, a key = value file. `SETTINGS` is the one table
of settings: each has one parser, for its flag's text and its config key's
alike, and its flag's help. `READS` gives the settings each subcommand
reads; each is both a flag and a config key, and the flag wins.
`read_settings` reads them, and `load_job` builds a `report` job from them.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import sys
from dataclasses import astuple
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from .raster import check_count, format_float, format_floats, load_binary, write_grid
from .tableio import column_rows, read_csv, read_utf8, unit_value, write_csv, write_json

if TYPE_CHECKING:
    from .bayes import Convention
    from .report import AssessmentJob, PairAssessment, ThresholdPolicy

#: The names cli takes from modules that it imports only on first use, by
#: module: a subcommand loads just the modules it calls, so `sample` loads
#: only `sampling`. `_load` binds a module's names here; a name read from
#: outside (a wrapper's target, say) loads its module through `__getattr__`.
_DEFERRED: dict[str, tuple[str, ...]] = {
    "bayes": ("Convention", "prevalence_sweep"),
    "confusion": ("AgreementRates",),
    "convergence": ("asymmetric_family",),
    "kde": ("GRID", "balance_point", "check_bandwidth", "find_crossings", "fit_kde"),
    "report": (
        "_BAYES_HEADER", "_CONFUSION_HEADER", "DEFAULT_ALPHA_GRID", "DEFAULT_THRESHOLD", "AssessmentJob",
        "ThresholdPolicy", "analyze_scopes", "assess_pair", "load_observed", "read_inputs_manifest", "read_runs_csv",
        "run_job", "write_runs_csv", "write_tree",
    ),
    "sampling": ("DEFAULT_QUANTILES", "classify_pools", "draw_quantile_sample", "tile_region"),
    "synth": ("SynthConfig", "generate_pair", "generate_run_table"),
}


def _load(*modules: str) -> None:
    """Import `modules` and bind the names cli takes from them, keeping a name already bound (a wrapper)."""
    for module in modules:
        owner = importlib.import_module(f".{module}", __package__)
        for name in _DEFERRED[module]:
            globals().setdefault(name, getattr(owner, name))


def __getattr__(name: str) -> Any:
    """A deferred name read from outside: its module is loaded and its names bound first (PEP 562)."""
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")


# ---------------------------------------------------------------------------
# Settings: one table, read from flags and the --config file alike
# ---------------------------------------------------------------------------


def parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Parse a comma-separated offset list, refused as `asymmetric_family` would refuse it."""
    _load("convergence")
    return tuple(form.alpha for form in asymmetric_family(float(t) for t in text.split(",")))


#: Each setting's parser, for its flag's text and its config key's alike, and its flag's help.
#: A parser from a deferred module loads it first (`_load` returns None).
SETTINGS: dict[str, tuple[Callable[[str], Any], str]] = {
    "inputs": (Path, "inputs CSV: kind, sim, obs, exclusion, box_id, group, cycle"),
    "out": (Path, "output directory"),
    "threshold": (
        lambda v: _load("report") or ThresholdPolicy.parse(v),
        "score cut: value:<t>, quantity:<n> or quantity:obs (default value:0.5)",
    ),
    "convention": (
        lambda v: _load("bayes") or Convention.parse(v), "formula convention: paper or standard (default paper)"
    ),
    "alpha_grid": (parse_alpha_grid, "comma-separated offsets in [0,1] for the asymmetric family"),
    "bandwidth": (
        lambda v: _load("kde") or check_bandwidth(float(v)), "positive KDE bandwidth (default: Silverman's rule)"
    ),
    "seed": (lambda v: check_count("seed", int(v)), "non-negative RNG seed (default 0); report only records it"),
    "final_cycle": (int, "first cycle of the converged tail (default: last cycle)"),
}

#: The settings each subcommand reads, each as a flag and as a config key;
#: a subcommand gets no flag and accepts no config key for any other.
READS: dict[str, tuple[str, ...]] = {
    "assess": ("out", "threshold", "convention"),
    "sweep": ("out", "threshold", "convention"),
    "kde": ("out", "bandwidth"),
    "converge": ("out", "alpha_grid", "bandwidth", "final_cycle"),
    "sample": ("out", "seed"),
    "synth": ("out", "seed"),
    "report": tuple(SETTINGS),
}


def parse_config(path: str | Path) -> dict[str, str]:
    """Read a key = value config file ('#' starts a comment); a key may be set once."""
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(read_utf8(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().lower()
        if key in set_on:
            raise ValueError(f"{path}: key {key!r} is set twice, on lines {set_on[key]} and {lineno}")
        set_on[key] = lineno
        out[key] = value.strip()
    return out


def _source(key: str, config: str | Path | None, flags: Mapping[str, str | None]) -> str:
    """Where setting `key` is read from: its flag if given, else the config file's key."""
    return f"{config}: {key}" if flags.get(key) is None else "--" + key.replace("_", "-")


def read_settings(
    config: str | Path | None, flags: Mapping[str, str | None], command: str, required: Collection[str] = ()
) -> dict[str, Any]:
    """The settings `command` reads, parsed from their flags and the `config` file.

    `flags` maps a setting to its flag text, None when the flag is not
    given; other entries are ignored. A flag wins over the config file, and
    an empty value leaves the setting unset and out of the result. A
    relative `inputs` or `out` path from the config file resolves against
    the file's directory; one from a flag, against the working directory.

    Raises:
        ValueError: The config file sets a key `command` does not read, a
            value is refused (naming its source, see `_source`), or a
            `required` setting is unset.
    """
    text = parse_config(config) if config is not None else {}
    unread = sorted(set(text) - set(READS[command]))
    if unread:
        raise ValueError(f"{config}: config keys not read by {command}: {unread}")
    settings: dict[str, Any] = {}
    for key in READS[command]:
        flag = flags.get(key)
        value = text.get(key, "") if flag is None else flag
        if not value.strip():
            continue
        if flag is None and key in ("inputs", "out"):
            value = Path(config).parent / value
        try:
            settings[key] = SETTINGS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"{_source(key, config, flags)}: {exc}") from None
    for key in required:
        if key not in settings:
            raise ValueError(f"{command} must set '{key}'")
    return settings


def load_job(config: str | Path | None, flags: Mapping[str, str | None] | None = None) -> AssessmentJob:
    """Build a `report` job from its flags (none by default) and config file.

    inputs (the CSV manifest's path) and out must be set; threshold may be
    set only when the manifest lists a score raster. The seed is only
    recorded in manifest.json: a report job draws no random numbers.
    """
    _load("report")
    flags = flags or {}
    settings = read_settings(config, flags, "report", required=("inputs", "out"))
    inputs = read_inputs_manifest(settings.pop("inputs"))
    job = AssessmentJob(inputs=inputs, out_dir=settings.pop("out"), **settings)
    if "threshold" in settings and all(inp.kind != "score" for inp in inputs):
        raise ValueError(f"{_source('threshold', config, flags)}: the inputs list no score raster to threshold")
    return job


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapbayes",
        description="Bayesian accuracy assessment of binary map predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", type=Path, help="key = value config file; flags override it")
        for key in READS[name]:
            p.add_argument("--" + key.replace("_", "-"), help=SETTINGS[key][1])
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

    p = add("sample", "tile a region, pool boxes, draw quantile samples", cmd_sample)
    p.add_argument("--change", type=Path, required=True, help="binary change raster")
    p.add_argument("--exclusion", type=Path, required=True, help="binary exclusionary raster")
    p.add_argument("--box-cells", type=int, default=6889, help="cells per square box (default 6889 = 83x83)")
    p.add_argument("--n-quantiles", type=int)  # left out, it takes sampling.DEFAULT_QUANTILES

    # A flag left out takes the library's default: SynthConfig's, or generate_run_table's.
    p = add("synth", "write synthetic rasters and a planted run table", cmd_synth)
    for flag in ("--rows", "--cols"):
        p.add_argument(flag, type=int)
    for flag in ("--change-fraction", "--exclusion-fraction", "--score-noise", "--planted-offset"):
        p.add_argument(flag, type=float)
    p.add_argument("--boxes", type=int, dest="n_boxes")
    p.add_argument("--cycles", type=int, help="the run table's cycles are 1 to this number")

    add("report", "run a full assessment job over an inputs manifest", cmd_report)
    return parser


def _add_pair_arguments(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--sim", type=Path, required=False, help="predicted binary raster")
    p.add_argument("--score", type=Path, required=False, help="predicted score raster, cut by the threshold")
    p.add_argument("--obs", type=Path, required=required, help="observed binary raster")
    p.add_argument("--exclusion", type=Path, help="exclusionary raster (nonzero = excluded)")


def _settings(args, *required: str) -> dict[str, Any]:
    """The subcommand's settings, parsed from its flags and --config."""
    return read_settings(args.config, vars(args), args.command, required)


def _threshold(args, settings: Mapping[str, Any]) -> ThresholdPolicy:
    """The policy that cuts the --score raster; a threshold with no --score raster to cut is refused."""
    if args.score is None and "threshold" in settings:
        raise ValueError(f"{_source('threshold', args.config, vars(args))}: there is no --score raster to threshold")
    return settings.get("threshold", DEFAULT_THRESHOLD)


def _assess(args, threshold: ThresholdPolicy, convention: Convention) -> PairAssessment:
    """Assess the pair that --sim or --score and --obs name."""
    if (args.sim is None) == (args.score is None):
        raise ValueError("give exactly one of --sim (binary) or --score")
    sim, kind = (args.sim, "binary") if args.sim is not None else (args.score, "score")
    return assess_pair(kind, sim, load_observed(args.obs, args.exclusion), threshold, convention)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_assess(args) -> int:
    _load("bayes", "report")
    settings = _settings(args)
    convention, out = settings.get("convention", Convention.PAPER), settings.get("out")
    a = _assess(args, _threshold(args, settings), convention)
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
    _load("bayes", "confusion", "report")
    settings = _settings(args)
    convention = settings.get("convention", Convention.PAPER)
    threshold = _threshold(args, settings)
    if args.sens is not None or args.tn_rate is not None:
        flags = ("sens", "tn_rate", "sim", "score", "obs", "exclusion")
        given = [f"--{k.replace('_', '-')}" for k in flags if getattr(args, k) is not None]
        if given != ["--sens", "--tn-rate"]:
            raise ValueError(f"--sens and --tn-rate go together, without a raster pair; got {' '.join(given)}")
        rates = AgreementRates(sensitivity=args.sens, tn_rate=args.tn_rate, prevalence_observed=0.0, pcm=0.0)
    elif args.obs is not None:
        rates = _assess(args, threshold, convention).rates
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
    _load("kde")
    settings = _settings(args)
    labels, values = map(np.array, read_csv(args.samples, {"label": _sample_label, "value": unit_value}))
    fits = {}
    for label in ("pos", "neg"):
        try:
            fits[label] = fit_kde(values[labels == label], settings.get("bandwidth"))
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
    _load("report")
    settings = _settings(args, "out")
    out = settings.pop("out")
    runs = read_runs_csv(args.runs)
    scope_summaries: dict[str, Any] = {}

    def write(stage: Path) -> list[dict[str, str]]:
        scope_summaries.update(analyze_scopes(runs, stage, **settings))  # alpha_grid, bandwidth and final_cycle
        write_json(stage / "summary.json", {"scopes": scope_summaries})
        return []

    write_tree(out, write, alpha_grid=format_floats(settings.get("alpha_grid", DEFAULT_ALPHA_GRID)),
               bandwidth=format_float(settings.get("bandwidth")), final_cycle=settings.get("final_cycle"))
    for scope in sorted(scope_summaries):
        sel = scope_summaries[scope].get("selected_alpha")
        print(f"{scope} selected_alpha {format_float(sel) if sel is not None else 'none'}")
    return 0


def cmd_sample(args) -> int:
    _load("sampling")
    settings = _settings(args)
    out = settings.pop("out", None)
    n_quantiles = DEFAULT_QUANTILES if args.n_quantiles is None else args.n_quantiles
    boxes = tile_region(load_binary(args.change), load_binary(args.exclusion), args.box_cells)
    # Per box, the labels of the pools that hold it and of the draws that took it, in label order.
    in_pools = np.full(len(boxes), "", dtype=object)
    chosen = np.full(len(boxes), "", dtype=object)
    for label, pool in sorted(classify_pools(boxes).items()):
        in_pools[np.isin(boxes.box_id, pool.box_id)] += label
        if len(pool) >= n_quantiles:
            drawn = draw_quantile_sample(pool, n_quantiles, label=label, **settings)  # seed
            chosen[np.isin(boxes.box_id, drawn.box_id)] += label
        else:
            print(f"skipped_pool {label} {len(pool)}", file=sys.stderr)
    columns = (boxes.box_id, boxes.row0, boxes.col0, boxes.pct_urban_change, boxes.pct_exclusionary, boxes.index)
    header = ("box_id", "row0", "col0", "pct_urban", "pct_excl", "index", "pools", "selected_for")
    _emit_csv(out, "sample.csv", header, column_rows(*columns, in_pools, chosen))
    return 0


def cmd_synth(args) -> int:
    _load("synth", "report")
    settings = _settings(args, "out")
    out = settings.pop("out")
    knobs = ("rows", "cols", "change_fraction", "exclusion_fraction", "score_noise", "planted_offset")
    cfg = SynthConfig(**_given(args, knobs), **settings)  # seed
    table = _given(args, ("n_boxes",))
    if args.cycles is not None:
        table["cycles"] = tuple(range(1, args.cycles + 1))
    out.mkdir(parents=True, exist_ok=True)
    obs, scores = generate_pair(cfg)
    write_grid(obs, out / "obs.asc")
    write_grid(scores, out / "scores.asc")
    runs = generate_run_table(cfg, **table)
    write_runs_csv(out / "runs.csv", runs)
    print(out)
    return 0


def cmd_report(args) -> int:
    _load("report")
    job = load_job(args.config, vars(args))
    failures = run_job(job)["failures"]
    print(job.out_dir)
    if failures:
        print(f"failed_inputs {len(failures)}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _given(args, names: Iterable[str]) -> dict[str, Any]:
    """The flags among `names` that were given, by name; one left out takes the library's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


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
