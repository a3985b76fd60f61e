"""Batch assessment jobs: config parsing, orchestration, stable outputs.

A job lists raster pairs (with box/group/cycle metadata), a threshold
policy, and analysis settings. `run_job` assesses every pair, pools the
results into per-group density and convergence analyses, and writes a
deterministic output tree - CSVs, a summary JSON, and a manifest with a
content hash per file. Floats are written with six significant digits
(round-half-even) so byte-identical reruns hash identically. One failing
input does not abort the job; it lands in the manifest's failure list.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .bayes import Convention, diagnostic_odds_ratio, likelihood_ratios, predictive_values
from .confusion import agreement_rates, build_confusion
from .convergence import (
    DEFAULT_ALPHA_GRID,
    RunRecord,
    asymmetric_family,
    dominance_table,
    factor_timeline,
    factor_values,
    fit_by_form,
    pp_curve,
    split_robustness,
)
from .kde import GRID, balance_point, find_crossings, fit_kde
from .raster import BinaryGrid, Grid, load_grid, threshold_scores, to_binary, to_scores
from .sampling import POOL_THRESHOLDS

log = logging.getLogger(__name__)

#: Scope label covering every run regardless of group.
SCOPE_ALL = "all"


def format_float(x: float | None) -> str:
    """Canonical float text: up to 6 significant digits, '' for undefined."""
    if x is None:
        return ""
    return f"{float(x):.6g}"


# ---------------------------------------------------------------------------
# Job description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPolicy:
    """How score grids are binarized.

    kind "value": fixed cut at `value`. kind "quantity": top-`value` cells.
    kind "quantity_obs": top-n with n equal to the observation's change
    count (pins predicted change area to the observed amount).
    """

    kind: str
    value: float | None = None

    def __post_init__(self):
        if self.kind not in ("value", "quantity", "quantity_obs"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "value" and not (self.value is not None and 0.0 <= self.value <= 1.0):
            raise ValueError(f"value threshold needs a cut in [0, 1], got {self.value}")
        if self.kind == "quantity" and not (self.value is not None and self.value >= 0):
            raise ValueError(f"quantity threshold needs a non-negative count, got {self.value}")

    @classmethod
    def parse(cls, text: str) -> "ThresholdPolicy":
        """Parse 'value:<float>', 'quantity:<int>', or 'quantity:obs'."""
        kind, _, arg = text.partition(":")
        kind = kind.strip().lower()
        arg = arg.strip().lower()
        if kind == "value":
            return cls("value", float(arg))
        if kind == "quantity":
            if arg == "obs":
                return cls("quantity_obs")
            return cls("quantity", int(arg))
        raise ValueError(f"cannot parse threshold policy {text!r}")

    def describe(self) -> str:
        if self.kind == "value":
            return f"value:{format_float(self.value)}"
        if self.kind == "quantity":
            return f"quantity:{int(self.value)}"
        return "quantity:obs"


@dataclass(frozen=True)
class JobInput:
    """One raster pair to assess."""

    kind: str  # "binary" (sim is classified) or "score" (sim needs thresholding)
    sim: Path
    obs: Path
    exclusion: Path | None
    box_id: int
    group: str
    cycle: int

    def __post_init__(self):
        if self.kind not in ("binary", "score"):
            raise ValueError(f"input kind must be 'binary' or 'score', got {self.kind!r}")


@dataclass(frozen=True)
class AssessmentJob:
    """Everything `run_job` needs, validated up front."""

    inputs: tuple[JobInput, ...]
    out_dir: Path
    threshold: ThresholdPolicy = ThresholdPolicy("value", 0.5)
    convention: Convention = Convention.PAPER
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    bandwidth: float | None = None
    seed: int = 0
    final_cycle: int | None = None

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("job has no inputs")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not self.alpha_grid:
            raise ValueError("alpha grid is empty")
        missing = [
            str(p)
            for inp in self.inputs
            for p in (inp.sim, inp.obs, inp.exclusion)
            if p is not None and not Path(p).is_file()
        ]
        if missing:
            raise ValueError(f"job references missing files: {', '.join(sorted(set(missing)))}")


# ---------------------------------------------------------------------------
# Config file + inputs manifest
# ---------------------------------------------------------------------------


def parse_config(path: str | Path) -> dict[str, str]:
    """Read a key = value config file ('#' starts a comment)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip().lower()] = value.strip()
    return out


def read_inputs_manifest(path: str | Path) -> tuple[JobInput, ...]:
    """Read the inputs CSV (kind, sim, obs, exclusion, box_id, group, cycle)."""
    base = Path(path).parent
    rows: list[JobInput] = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"kind", "sim", "obs", "exclusion", "box_id", "group", "cycle"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ValueError(f"inputs manifest must have columns {sorted(needed)}")
        for rec in reader:
            rows.append(
                JobInput(
                    kind=rec["kind"].strip(),
                    sim=base / rec["sim"].strip(),
                    obs=base / rec["obs"].strip(),
                    exclusion=(base / rec["exclusion"].strip()) if rec["exclusion"].strip() else None,
                    box_id=int(rec["box_id"]),
                    group=rec["group"].strip(),
                    cycle=int(rec["cycle"]),
                )
            )
    if not rows:
        raise ValueError(f"inputs manifest {path} lists no inputs")
    return tuple(rows)


def load_job(config_path: str | Path, overrides: Mapping[str, str] | None = None) -> AssessmentJob:
    """Build a job from a config file; override values win over file values.

    Recognized keys: inputs (CSV manifest path), out, threshold, convention,
    alpha_grid (comma list), bandwidth, seed, final_cycle. The seed is
    provenance only: it is echoed into the settings of manifest.json and
    feeds no computation.
    """
    cfg = parse_config(config_path)
    if overrides:
        cfg.update({k.lower(): v for k, v in overrides.items() if v is not None})
    known = {"inputs", "out", "threshold", "convention", "alpha_grid", "bandwidth", "seed", "final_cycle"}
    unknown = set(cfg) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for req in ("inputs", "out"):
        if req not in cfg:
            raise ValueError(f"config must set '{req}'")
    base = Path(config_path).parent
    inputs_path = Path(cfg["inputs"])
    if not inputs_path.is_absolute():
        inputs_path = base / inputs_path
    return AssessmentJob(
        inputs=read_inputs_manifest(inputs_path),
        out_dir=Path(cfg["out"]),
        threshold=ThresholdPolicy.parse(cfg.get("threshold", "value:0.5")),
        convention=Convention.parse(cfg.get("convention", "paper")),
        alpha_grid=parse_alpha_grid(cfg.get("alpha_grid", "")) or DEFAULT_ALPHA_GRID,
        bandwidth=float(cfg["bandwidth"]) if cfg.get("bandwidth") else None,
        seed=int(cfg.get("seed", "0")),
        final_cycle=int(cfg["final_cycle"]) if cfg.get("final_cycle") else None,
    )


def parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Parse a comma-separated offset list; empty text gives ()."""
    if not text.strip():
        return ()
    vals = tuple(float(t) for t in text.split(","))
    for v in vals:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"alpha grid values must be in [0, 1], got {v}")
    return vals


# ---------------------------------------------------------------------------
# Single-pair assessment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairAssessment:
    """Everything computed for one input pair."""

    input: JobInput
    tp: int
    fp: int
    fn: int
    tn: int
    sensitivity: float | None
    tn_rate: float | None
    prevalence: float
    pcm: float
    ppv: float | None
    npv: float | None
    lr_pos: float | None
    lr_neg: float | None
    dor: float | None


def load_observed(inp: JobInput) -> tuple[Grid | None, BinaryGrid]:
    """Load an input's exclusion map (None without one) and classify its observed map."""
    exclusion = load_grid(inp.exclusion) if inp.exclusion is not None else None
    return exclusion, to_binary(load_grid(inp.obs), one_value=1.0, zero_value=0.0, exclusion=exclusion)


def assess_pair(
    inp: JobInput,
    threshold: ThresholdPolicy,
    convention: Convention,
    *,
    observed: tuple[Grid | None, BinaryGrid] | None = None,
) -> PairAssessment:
    """Load, binarize as needed, and compute all per-pair metrics.

    PPV/NPV are evaluated at the pair's own observed prevalence. Likelihood
    ratios and the DOR are None (not emitted) when a needed rate is
    undefined. `observed` is `load_observed(inp)` when the caller already
    has it (inputs that share an observed and exclusion map); otherwise it
    is loaded here.
    """
    exclusion, obs = observed if observed is not None else load_observed(inp)
    if inp.kind == "binary":
        sim = to_binary(load_grid(inp.sim), one_value=1.0, zero_value=0.0, exclusion=exclusion)
    else:
        scores = to_scores(load_grid(inp.sim), exclusion=exclusion)
        if threshold.kind == "value":
            sim = threshold_scores(scores, value=threshold.value)
        elif threshold.kind == "quantity":
            sim = threshold_scores(scores, quantity=int(threshold.value))
        else:
            sim = threshold_scores(scores, quantity=obs.n_ones)

    matrix = build_confusion(sim, obs)
    rates = agreement_rates(matrix)
    pv = (
        predictive_values(rates, rates.prevalence_observed, convention)
        if rates.sensitivity is not None and rates.tn_rate is not None
        else None
    )
    lr = dor = None
    if rates.sensitivity is not None and rates.tn_rate is not None:
        ratios = likelihood_ratios(rates, convention)
        lr = ratios
        dor = diagnostic_odds_ratio(ratios)
    return PairAssessment(
        input=inp,
        tp=matrix.tp,
        fp=matrix.fp,
        fn=matrix.fn,
        tn=matrix.tn,
        sensitivity=rates.sensitivity,
        tn_rate=rates.tn_rate,
        prevalence=rates.prevalence_observed,
        pcm=rates.pcm,
        ppv=pv.ppv if pv else None,
        npv=pv.npv if pv else None,
        lr_pos=lr.lr_pos if lr else None,
        lr_neg=lr.lr_neg if lr else None,
        dor=dor,
    )


# ---------------------------------------------------------------------------
# Group summaries
# ---------------------------------------------------------------------------


def group_summaries(records: Sequence[RunRecord]) -> dict[str, dict[str, Any]]:
    """Per-group cycle trajectories of the predictive values.

    For each group: mean PPV and NPV per cycle, the sign of mean PPV - mean
    NPV per cycle (+1/0/-1), and a small convergence summary (run count,
    mean absolute difference, final-cycle means). Groups must be known pool
    labels; empty groups are simply absent.

    Raises:
        ValueError: A record carries an unknown group label.
    """
    known = set(POOL_THRESHOLDS)
    out: dict[str, dict[str, Any]] = {}
    for rec in records:
        if rec.group not in known:
            raise ValueError(f"unknown group label {rec.group!r}; expected one of {sorted(known)}")
    for label in sorted(known):
        batch = [r for r in records if r.group == label]
        if not batch:
            log.info("group %s has no runs; omitted from summaries", label)
            continue
        cycles = sorted({r.cycle for r in batch})
        per_cycle = {}
        for cyc in cycles:
            here = [r for r in batch if r.cycle == cyc]
            mean_ppv = float(np.mean([r.ppv for r in here]))
            mean_npv = float(np.mean([r.npv for r in here]))
            per_cycle[cyc] = {
                "mean_ppv": mean_ppv,
                "mean_npv": mean_npv,
                "dominance_sign": int(np.sign(mean_ppv - mean_npv)),
            }
        final = per_cycle[cycles[-1]]
        out[label] = {
            "cycles": per_cycle,
            "n_runs": len(batch),
            "mean_abs_difference": float(np.mean([abs(r.ppv - r.npv) for r in batch])),
            "final_cycle": cycles[-1],
            "final_mean_ppv": final["mean_ppv"],
            "final_mean_npv": final["mean_npv"],
        }
    return out


# ---------------------------------------------------------------------------
# Job orchestration
# ---------------------------------------------------------------------------


def run_job(job: AssessmentJob) -> dict[str, Any]:
    """Run a full assessment job and write the output tree.

    Writes confusion.csv, bayes.csv, runs.csv, timeline.csv, per-scope
    kde_/ppcurve_ CSVs, fits.csv, dominance.csv, summary.json, and
    manifest.json into the job's output directory. Returns the manifest
    (also written to disk). Failures of individual inputs or per-scope
    analyses are recorded rather than raised.
    """
    out_dir = Path(job.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    assessed: list[PairAssessment] = []
    failures: list[dict[str, str]] = []

    def fail(inp: JobInput, exc: Exception) -> None:
        log.warning("input %s (box %s, cycle %s) failed: %s", inp.sim, inp.box_id, inp.cycle, exc)
        failures.append(
            {"sim": str(inp.sim), "box_id": str(inp.box_id), "cycle": str(inp.cycle), "error": str(exc)}
        )

    # A box's observed and exclusion maps repeat over its cycles: they are
    # parsed once per run of consecutive inputs that share them, and dropped
    # when the run ends, so at most one run's maps are held at a time.
    for _, shared in itertools.groupby(job.inputs, key=lambda inp: (inp.obs, inp.exclusion)):
        run = list(shared)
        try:
            observed = load_observed(run[0])
        except Exception as exc:
            for inp in run:
                fail(inp, exc)
            continue
        for inp in run:
            try:
                assessed.append(assess_pair(inp, job.threshold, job.convention, observed=observed))
            except Exception as exc:
                fail(inp, exc)

    files: list[Path] = []
    files.append(_write_confusion_csv(out_dir / "confusion.csv", assessed))
    files.append(_write_bayes_csv(out_dir / "bayes.csv", assessed, job.convention))

    runs = [
        RunRecord(box_id=a.input.box_id, group=a.input.group, cycle=a.input.cycle, ppv=a.ppv, npv=a.npv)
        for a in assessed
        if a.ppv is not None and a.npv is not None
    ]
    files.append(write_runs_csv(out_dir / "runs.csv", runs))

    summary: dict[str, Any] = {
        "convention": job.convention.value,
        "threshold": job.threshold.describe(),
        "alpha_grid": list(job.alpha_grid),
        "n_inputs": len(job.inputs),
        "n_assessed": len(assessed),
        "n_failed": len(failures),
        "scopes": {},
        "rate_naming": {
            "tn_rate": "true-negative rate TN/(TN+FP)",
            "standard_alias": "specificity",
            "paper_alias": "1 - specificity",
        },
    }
    if runs:
        try:
            summary["groups"] = group_summaries(runs)
        except ValueError as exc:
            summary["groups_error"] = str(exc)
        summary["dor_by_group"] = _dor_by_group(assessed)
        scope_files, scope_summaries = analyze_scopes(
            runs,
            out_dir,
            alpha_grid=job.alpha_grid,
            bandwidth=job.bandwidth,
            final_cycle=job.final_cycle,
        )
        files.extend(scope_files)
        summary["scopes"] = scope_summaries

    summary_path = out_dir / "summary.json"
    write_json(summary_path, summary)
    files.append(summary_path)

    manifest = {
        "outputs": {f.name: _sha256(f) for f in sorted(files, key=lambda p: p.name)},
        "failures": failures,
        "settings": {
            "convention": job.convention.value,
            "threshold": job.threshold.describe(),
            "alpha_grid": [format_float(a) for a in job.alpha_grid],
            "bandwidth": format_float(job.bandwidth),
            "seed": job.seed,
        },
    }
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def analyze_scopes(
    runs: Sequence[RunRecord],
    out_dir: Path,
    *,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    bandwidth: float | None = None,
    final_cycle: int | None = None,
) -> tuple[list[Path], dict[str, Any]]:
    """Density and convergence analyses for the full run set and each group.

    Writes timeline.csv, per-scope kde_/ppcurve_ CSVs, fits.csv and
    dominance.csv under `out_dir`; returns the written files plus a
    per-scope summary mapping. Scope-level failures (too few runs,
    degenerate fits, no density crossing) are recorded in the summary
    instead of raised.
    """
    forms = asymmetric_family(alpha_grid)
    files: list[Path] = []

    files.append(_write_timeline_csv(out_dir / "timeline.csv", runs, forms))

    scopes: dict[str, Sequence[RunRecord]] = {SCOPE_ALL: runs}
    for label in sorted({r.group for r in runs}):
        scopes[label] = [r for r in runs if r.group == label]

    fits_rows: list[dict[str, str]] = []
    dom_rows: list[dict[str, str]] = []
    summaries: dict[str, Any] = {}
    for scope, batch in scopes.items():
        entry: dict[str, Any] = {"n_runs": len(batch)}
        entry.update(_kde_analysis(scope, batch, bandwidth, out_dir, files))
        try:
            groups = split_robustness(batch, final_cycle)
            fits = fit_by_form(groups, forms)
            table = dominance_table(fits)
        except ValueError as exc:
            entry["convergence_error"] = str(exc)
            summaries[scope] = entry
            continue
        for f in fits:
            fits_rows.append(
                {
                    "scope": scope,
                    "group": f.group,
                    "form": f.form.label,
                    "alpha": format_float(f.form.alpha),
                    "mu": format_float(f.mu),
                    "sigma": format_float(f.sigma),
                }
            )
        ordered_groups = list(table.groups)
        for form in table.forms:
            lbl = form.label
            row = {"scope": scope, "form": lbl, "alpha": format_float(form.alpha)}
            for m in ordered_groups:
                for k in ordered_groups:
                    if m != k:
                        row[f"score_{m}_vs_{k}"] = format_float(table.scores[(lbl, m, k)])
            for g in ordered_groups:
                row[f"location_{g}"] = format_float(table.location[(lbl, g)])
                row[f"scale_{g}"] = format_float(table.scale[(lbl, g)])
            row["robustness"] = format_float(table.robustness[lbl])
            row["selected"] = "1" if lbl == table.selected else "0"
            dom_rows.append(row)

        selected = table.selected_form
        entry["selected_alpha"] = selected.alpha
        entry["uniform_dominator"] = table.uniform_dominator
        if not table.uniform_dominator:
            entry["selection_note"] = "no uniform dominator; ranked by location criterion"
        values = factor_values(batch, selected)
        fit_all = next(f for f in fits if f.form.label == selected.label and f.group == table.groups[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            curve = pp_curve(values, fit_all.mu, fit_all.sigma)
        files.append(_write_ppcurve_csv(out_dir / f"ppcurve_{scope}.csv", curve))
        entry["pp_prevalence_estimate"] = curve.prevalence_estimate
        entry["pp_net_gain"] = curve.net_gain
        entry["pp_crossings"] = list(curve.crossings)
        summaries[scope] = entry

    if fits_rows:
        files.append(_write_rows_csv(out_dir / "fits.csv", fits_rows))
    if dom_rows:
        files.append(_write_rows_csv(out_dir / "dominance.csv", dom_rows))
    return files, summaries


def _kde_analysis(
    scope: str,
    batch: Sequence[RunRecord],
    bandwidth: float | None,
    out_dir: Path,
    files: list[Path],
) -> dict[str, Any]:
    entry: dict[str, Any] = {}
    pos = [r.ppv for r in batch]
    neg = [r.npv for r in batch]
    try:
        f_pos = fit_kde(pos, bandwidth)
        f_neg = fit_kde(neg, bandwidth)
        rows = [
            {
                "x": format_float(x),
                "f_pos": format_float(fp),
                "f_neg": format_float(fn),
            }
            for x, fp, fn in zip(GRID, f_pos.on_grid, f_neg.on_grid)
        ]
        files.append(_write_rows_csv(out_dir / f"kde_{scope}.csv", rows))
        entry["kde_bandwidth_pos"] = f_pos.bandwidth
        entry["kde_bandwidth_neg"] = f_neg.bandwidth
        crossings = find_crossings(f_pos, f_neg)
        entry["kde_prevalence"] = balance_point(crossings).x
        entry["kde_crossings"] = [c.x for c in crossings]
    except ValueError as exc:
        entry["kde_error"] = str(exc)
    return entry


def _dor_by_group(assessed: Sequence[PairAssessment]) -> dict[str, float | None]:
    """Mean DOR per group; DOR is threshold-bound, so when two or more groups
    carry a finite mean, cross-group reading gets a warning rather than silence."""
    out: dict[str, float | None] = {}
    for label in sorted({a.input.group for a in assessed}):
        vals = [a.dor for a in assessed if a.input.group == label and a.dor is not None and math.isfinite(a.dor)]
        out[label] = float(np.mean(vals)) if vals else None
    if sum(v is not None and math.isfinite(v) for v in out.values()) >= 2:
        warnings.warn(
            "diagnostic odds ratios are comparable across groups only under a shared threshold rule",
            stacklevel=2,
        )
    return out


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def _write_rows_csv(path: Path, rows: Sequence[Mapping[str, str]]) -> Path:
    fieldnames = list(rows[0].keys())
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def _write_confusion_csv(path: Path, assessed: Sequence[PairAssessment]) -> Path:
    rows = [
        {
            "box_id": str(a.input.box_id),
            "cycle": str(a.input.cycle),
            "tp": str(a.tp),
            "fp": str(a.fp),
            "fn": str(a.fn),
            "tn": str(a.tn),
            "sens": format_float(a.sensitivity),
            "tn_rate": format_float(a.tn_rate),
            "prevalence": format_float(a.prevalence),
            "pcm": format_float(a.pcm),
        }
        for a in assessed
    ]
    if not rows:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["box_id", "cycle", "tp", "fp", "fn", "tn", "sens", "tn_rate", "prevalence", "pcm"]
            )
        return path
    return _write_rows_csv(path, rows)


def _write_bayes_csv(path: Path, assessed: Sequence[PairAssessment], convention: Convention) -> Path:
    header = ["box_id", "cycle", "convention", "prevalence", "ppv", "npv", "lr_pos", "lr_neg", "dor"]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for a in assessed:
            writer.writerow(
                [
                    a.input.box_id,
                    a.input.cycle,
                    convention.value,
                    format_float(a.prevalence),
                    format_float(a.ppv),
                    format_float(a.npv),
                    format_float(a.lr_pos),
                    format_float(a.lr_neg),
                    format_float(a.dor),
                ]
            )
    return path


def write_runs_csv(path: Path, runs: Sequence[RunRecord]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["box_id", "group", "cycle", "ppv", "npv"])
        for r in runs:
            writer.writerow([r.box_id, r.group, r.cycle, format_float(r.ppv), format_float(r.npv)])
    return path


def _write_timeline_csv(path: Path, runs: Sequence[RunRecord], forms) -> Path:
    timeline = factor_timeline(runs, forms)
    labels = [f.label for f in forms]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cycle"] + [f"mean_{lbl}" for lbl in labels])
        for cycle, means in timeline:
            writer.writerow([cycle] + [format_float(means[lbl]) for lbl in labels])
    return path


def _write_ppcurve_csv(path: Path, curve) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p_empirical", "p_fitted"])
        for p, f in zip(curve.p, curve.fitted):
            writer.writerow([format_float(p), format_float(f)])
    return path


def _round_floats(obj: Any) -> Any:
    """Recursively reduce floats to 6 significant digits for stable JSON."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(format_float(obj))
    if isinstance(obj, dict):
        return {str(k): _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(path: Path, payload: Mapping[str, Any]) -> None:
    path.write_text(json.dumps(_round_floats(dict(payload)), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
