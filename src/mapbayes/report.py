"""Batch assessment jobs: job description, orchestration, stable outputs.

A job lists raster pairs (with box/group/cycle metadata), a threshold
policy, and analysis settings; `cli.load_job` builds one from the `report`
subcommand's settings. `run_job` assesses every pair, in one forked lane
per CPU, pools the results into per-group density and convergence
analyses, and writes a deterministic output tree - CSVs, a summary JSON,
and a manifest with a content hash per file. Floats are written with six significant digits
(round-half-even) so byte-identical reruns hash identically. One failing
input does not abort the job; it lands in the manifest's failure list.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import pickle
import shutil
import tempfile
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .bayes import (
    Convention, LikelihoodRatios, PredictiveValues, diagnostic_odds_ratio, likelihood_ratios, predictive_values,
)
from .confusion import AgreementRates, ConfusionMatrix, agreement_rates, build_confusion
from .convergence import (
    DEFAULT_ALPHA_GRID, MIN_PP_POINTS, RunRecord, RunTable, asymmetric_family, check_final_cycle, dominance_table,
    factor_timeline, fit_by_form, pp_curve, split_robustness,
)
from .kde import GRID, balance_point, check_bandwidth, find_crossings, fit_kde
from .raster import (
    BinaryGrid, check_count, check_unit, format_float, format_floats, load_binary, load_grid, load_scores,
    threshold_scores,
)
from .tableio import column_rows, int64_id, read_csv, read_utf8, unit_value, write_csv, write_json

#: Scope label covering every run regardless of group.
SCOPE_ALL = "all"


# ---------------------------------------------------------------------------
# Job description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPolicy:
    """How score grids are binarized.

    kind "value": fixed cut at `value`. kind "quantity": the top `value`
    cells, `value` a non-negative int. kind "quantity_obs": top-n with n
    equal to the observation's change count (pins predicted change area to
    the observed amount).
    """

    kind: str
    value: float | int | None = None

    def __post_init__(self):
        if self.kind not in ("value", "quantity", "quantity_obs"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "value":
            check_unit("value", self.value)
        if self.kind == "quantity":
            check_count("quantity", self.value)

    @classmethod
    def parse(cls, text: str) -> "ThresholdPolicy":
        """Parse 'value:<float>', 'quantity:<int>', or 'quantity:obs'."""
        kind, _, arg = text.partition(":")
        kind = kind.strip().lower()
        arg = arg.strip().lower()
        if (kind, arg) == ("quantity", "obs"):
            return cls("quantity_obs")
        if kind in ("value", "quantity"):
            try:
                number: Any = (float if kind == "value" else int)(arg)
            except ValueError:
                number = arg  # refused by __post_init__, which names the field
            return cls(kind, number)
        raise ValueError(f"cannot parse threshold policy {text!r}")

    def describe(self) -> str:
        if self.kind == "value":
            return f"value:{format_float(self.value)}"
        if self.kind == "quantity":
            return f"quantity:{self.value}"
        return "quantity:obs"


#: The policy of a score prediction when none is given.
DEFAULT_THRESHOLD = ThresholdPolicy("value", 0.5)


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
        input_kind(self.kind)
        group_label(self.group)


#: The path separator; the other one, where there is one, is "/".
_SEP = os.sep


def group_label(label: str) -> str:
    """`label` unless it is `SCOPE_ALL`, which names the scope of all runs, or cannot be part of a file name.

    Each group's scope files are named after it (`kde_<label>.csv`), so a
    label may hold no path separator and no NUL.
    """
    if label == SCOPE_ALL:
        raise ValueError(f"group label {SCOPE_ALL!r} is reserved for the scope of all runs")
    # Called once per runs.csv row: three substring tests cost less than a regex search.
    if "/" in label or "\0" in label or _SEP in label:
        raise ValueError(f"group label {label!r} cannot be part of a file name: it holds a path separator or NUL")
    return label


def raster_path(text: str) -> str:
    """`text` unless it is empty: a `sim` or `obs` path, which would otherwise name the manifest's directory."""
    if not text:
        raise ValueError("a raster path must not be empty")
    return text


def input_kind(kind: str) -> str:
    """`kind` if it is an input kind ("binary" or "score")."""
    if kind not in ("binary", "score"):
        raise ValueError(f"input kind must be 'binary' or 'score', got {kind!r}")
    return kind


@dataclass(frozen=True)
class AssessmentJob:
    """Everything `run_job` needs, validated up front."""

    inputs: tuple[JobInput, ...]
    out_dir: Path
    threshold: ThresholdPolicy = DEFAULT_THRESHOLD
    convention: Convention = Convention.PAPER
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    bandwidth: float | None = None
    seed: int = 0
    final_cycle: int | None = None

    def __post_init__(self):
        if not self.inputs:
            raise ValueError("job has no inputs")
        if self.bandwidth is not None:
            check_bandwidth(self.bandwidth)
        check_count("seed", self.seed)
        asymmetric_family(self.alpha_grid)  # refuses an empty grid or an offset outside [0, 1] before any work
        check_final_cycle(self.final_cycle, [inp.cycle for inp in self.inputs])
        missing = [
            str(p)
            for inp in self.inputs
            for p in (inp.sim, inp.obs, inp.exclusion)
            if p is not None and not Path(p).is_file()
        ]
        if missing:
            raise ValueError(f"job references missing files: {', '.join(sorted(set(missing)))}")


def read_inputs_manifest(path: str | Path) -> tuple[JobInput, ...]:
    """Read the inputs CSV (kind, sim, obs, exclusion, box_id, group, cycle); only `exclusion` may be empty."""
    base = Path(path).parent
    columns = {
        "kind": input_kind, "sim": raster_path, "obs": raster_path, "exclusion": str,
        "box_id": int64_id, "group": group_label, "cycle": int64_id,
    }
    return tuple(
        JobInput(kind, base / sim, base / obs, base / excl if excl else None, box_id, group, cycle)
        for kind, sim, obs, excl, box_id, group, cycle in zip(*read_csv(path, columns))
    )


# ---------------------------------------------------------------------------
# Single-pair assessment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairAssessment:
    """One pair's tallies, rates and Bayes ratios; `pv`, `lr` and `dor` are None if sensitivity or tn_rate is."""

    matrix: ConfusionMatrix
    rates: AgreementRates
    pv: PredictiveValues | None
    lr: LikelihoodRatios | None
    dor: float | None

    def ratios(self) -> tuple[float | None, ...]:
        """(ppv, npv, lr_pos, lr_neg, dor), None where undefined."""
        if self.pv is None or self.lr is None:
            return (None,) * 5
        return (self.pv.ppv, self.pv.npv, self.lr.lr_pos, self.lr.lr_neg, self.dor)


def load_observed(obs: Path, exclusion: Path | None) -> tuple[BinaryGrid | None, BinaryGrid]:
    """Load an exclusion map as a mask (None without one) and classify the observed map under it.

    The mask is 1 where the map is nonzero (NaN included) and 0 elsewhere,
    so `load_binary` and `load_scores` exclude the same cells under it as
    under the map. It costs one byte a cell while the inputs that share it
    are assessed.
    """
    excl = None
    if exclusion is not None:
        grid = load_grid(exclusion)
        excl = BinaryGrid(grid.values != 0, grid.cell_size, grid.origin_x, grid.origin_y)
    return excl, load_binary(obs, exclusion=excl)


def assess_pair(
    kind: str,
    sim: Path,
    observed: tuple[BinaryGrid | None, BinaryGrid],
    threshold: ThresholdPolicy,
    convention: Convention,
) -> PairAssessment:
    """Load the prediction `sim`, binarize it as its `kind` needs, and compute all per-pair metrics.

    `observed` is `load_observed(obs, exclusion)`, which inputs that share
    an observed and exclusion map share. PPV/NPV are evaluated at the pair's
    own observed prevalence.
    """
    exclusion, obs = observed
    if input_kind(kind) == "binary":
        pred = load_binary(sim, exclusion=exclusion)
    else:
        scores = load_scores(sim, exclusion=exclusion)
        if threshold.kind == "value":
            pred = threshold_scores(scores, value=threshold.value)
        elif threshold.kind == "quantity":
            pred = threshold_scores(scores, quantity=threshold.value)
        else:
            pred = threshold_scores(scores, quantity=obs.n_ones)
        del scores  # released before the tally

    matrix = build_confusion(pred, obs)
    rates = agreement_rates(matrix)
    if rates.sensitivity is None or rates.tn_rate is None:
        return PairAssessment(matrix, rates, None, None, None)
    pv = predictive_values(rates, rates.prevalence_observed, convention)
    lr = likelihood_ratios(rates, convention)
    return PairAssessment(matrix, rates, pv, lr, diagnostic_odds_ratio(lr))


# ---------------------------------------------------------------------------
# Group summaries
# ---------------------------------------------------------------------------


def group_summaries(runs: RunTable) -> dict[str, dict[str, Any]]:
    """Per-group cycle trajectories of the predictive values.

    For each group that a run carries: mean PPV and NPV per cycle, the
    sign of mean PPV - mean NPV per cycle (+1/0/-1), and a small convergence
    summary (run count, mean absolute difference, final-cycle means).

    Raises:
        ValueError: A group labelled `SCOPE_ALL` (see `group_label`).
    """
    out: dict[str, dict[str, Any]] = {}
    for label, batch in runs.group_by("group"):
        per_cycle = {}
        for cyc, here in batch.group_by("cycle"):
            mean_ppv = float(np.mean(here.ppv))
            mean_npv = float(np.mean(here.npv))
            per_cycle[cyc] = {
                "mean_ppv": mean_ppv,
                "mean_npv": mean_npv,
                "dominance_sign": int(np.sign(mean_ppv - mean_npv)),
            }
        last = max(per_cycle)
        out[group_label(label)] = {
            "cycles": per_cycle,
            "n_runs": len(batch),
            "mean_abs_difference": float(np.mean(np.abs(batch.diff))),
            "final_cycle": last,
            "final_mean_ppv": per_cycle[last]["mean_ppv"],
            "final_mean_npv": per_cycle[last]["mean_npv"],
        }
    return out


# ---------------------------------------------------------------------------
# Job orchestration
# ---------------------------------------------------------------------------


_CONFUSION_HEADER = ("box_id", "cycle", "tp", "fp", "fn", "tn", "sens", "tn_rate", "prevalence", "pcm")
_BAYES_HEADER = ("box_id", "cycle", "convention", "prevalence", "ppv", "npv", "lr_pos", "lr_neg", "dor")


def run_job(job: AssessmentJob) -> dict[str, Any]:
    """Run a full assessment job and write the output tree with `write_tree`.

    Writes confusion.csv, bayes.csv, runs.csv, timeline.csv, per-scope
    kde_/ppcurve_ CSVs, fits.csv, dominance.csv, summary.json, and
    manifest.json as the job's output directory. Returns the manifest
    (also written to disk). Failures of individual inputs or per-scope
    analyses are recorded rather than raised; so is a `final_cycle` that
    the scored runs no longer reach (`scopes_error`), and so are the caveats
    on reading the results: summary.json's `dor_caveat` is true when two or
    more groups carry a finite mean DOR, and each scope's `pp_coarse` when
    its P-P curve has fewer than `MIN_PP_POINTS` points.
    """
    return write_tree(job.out_dir, lambda stage: _write_job(job, stage), convention=job.convention.value,
                      threshold=job.threshold.describe(), alpha_grid=format_floats(job.alpha_grid),
                      bandwidth=format_float(job.bandwidth), final_cycle=job.final_cycle, seed=job.seed)


def _write_job(job: AssessmentJob, out_dir: Path) -> list[dict[str, str]]:
    """Assess the job's pairs and write its files, bar manifest.json, into `out_dir`; return its failures."""
    assessed: list[tuple[JobInput, PairAssessment]] = []
    failures: list[dict[str, str]] = []
    # A box's observed and exclusion maps repeat over its cycles: each run of
    # consecutive inputs that share them is assessed in one lane, which parses
    # them once for the run.
    runs = [list(shared) for _, shared in itertools.groupby(job.inputs, key=lambda inp: (inp.obs, inp.exclusion))]
    for run, outcomes in zip(runs, _assess_in_lanes(runs, job.threshold, job.convention)):
        for inp, outcome in zip(run, outcomes):
            if isinstance(outcome, PairAssessment):
                assessed.append((inp, outcome))
            else:
                error, error_type = outcome
                failures.append({"sim": str(inp.sim), "box_id": str(inp.box_id), "cycle": str(inp.cycle),
                                 "error": error, "error_type": error_type})

    # The fields of ConfusionMatrix and AgreementRates come in _CONFUSION_HEADER's order.
    confusion = [(inp.box_id, inp.cycle, *astuple(a.matrix), *format_floats(astuple(a.rates))) for inp, a in assessed]
    bayes = [
        (inp.box_id, inp.cycle, job.convention.value, *format_floats((a.rates.prevalence_observed, *a.ratios())))
        for inp, a in assessed
    ]
    write_csv(out_dir / "confusion.csv", _CONFUSION_HEADER, confusion)
    write_csv(out_dir / "bayes.csv", _BAYES_HEADER, bayes)

    scored = [(inp, a.pv) for inp, a in assessed if a.pv is not None and None not in (a.pv.ppv, a.pv.npv)]
    runs = RunTable(
        [inp.box_id for inp, _ in scored],
        [inp.group for inp, _ in scored],
        [inp.cycle for inp, _ in scored],
        [pv.ppv for _, pv in scored],
        [pv.npv for _, pv in scored],
    )
    write_runs_csv(out_dir / "runs.csv", runs)

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
    if len(runs):
        summary["groups"] = group_summaries(runs)
        dor = summary["dor_by_group"] = _dor_by_group(assessed)
        summary["dor_caveat"] = sum(v is not None and math.isfinite(v) for v in dor.values()) >= 2
        try:
            summary["scopes"] = analyze_scopes(
                runs, out_dir, alpha_grid=job.alpha_grid, bandwidth=job.bandwidth, final_cycle=job.final_cycle
            )
        except ValueError as exc:  # failed or unscored inputs can leave no run past the manifest's final_cycle
            summary["scopes_error"] = str(exc)
    write_json(out_dir / "summary.json", summary)
    return failures


def _assess_run(
    run: Sequence[JobInput], threshold: ThresholdPolicy, convention: Convention
) -> list[PairAssessment | tuple[str, str]]:
    """Each input's `PairAssessment`, or its failure as (message, exception type name), for a run of inputs.

    The run's inputs share one observed and exclusion map, loaded once here and
    dropped on return, so a lane holds one run's maps at a time.
    """
    try:
        observed = load_observed(run[0].obs, run[0].exclusion)
    except Exception as exc:
        return [(str(exc), type(exc).__name__)] * len(run)
    outcomes: list[PairAssessment | tuple[str, str]] = []
    for inp in run:
        try:
            outcomes.append(assess_pair(inp.kind, inp.sim, observed, threshold, convention))
        except Exception as exc:
            outcomes.append((str(exc), type(exc).__name__))
    return outcomes


def _lane_count(n_runs: int) -> int:
    """The lanes that `n_runs` runs are assessed in: one per CPU this process may use, at most one per run.

    One where there is no `os.fork`.
    """
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, n_runs)


def _assess_in_lanes(
    runs: Sequence[Sequence[JobInput]], threshold: ThresholdPolicy, convention: Convention
) -> list[list[PairAssessment | tuple[str, str]]]:
    """`_assess_run` on each run, in the order of `runs`, split over `_lane_count` lanes.

    Lane i takes runs[i::k]. This process assesses lane 0 and forks one child
    for each other lane, which sends its outcomes back pickled through a pipe:
    a few counts and floats a pair, no raster. With one lane nothing is
    forked. Every child is reaped before this returns or raises, and killed
    first if this process's own lane raises.

    Raises:
        ChildProcessError: A child that ended with a nonzero exit status, or
            whose payload does not hold its lane's outcomes.
    """
    k = _lane_count(len(runs))
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe), lane 1 first
    payloads: list[bytes] = []
    try:
        for lane in range(1, k):
            children.append(_fork_lane(runs[lane::k], threshold, convention))
        mine = [_assess_run(run, threshold, convention) for run in runs[::k]]
        for _, read_end in children:  # before any wait: a payload can exceed the pipe's buffer
            with open(read_end, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        if children:
            import signal  # loaded only to stop the children of a lane that failed

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        for _, read_end in children:
            os.close(read_end)

    by_run: list[Any] = [None] * len(runs)
    by_run[::k] = mine
    for lane, (status, payload) in enumerate(zip(statuses, payloads), start=1):
        if status != 0:
            raise ChildProcessError(f"the child assessing pair lane {lane} of {k} ended with exit status {status}")
        try:
            by_run[lane::k] = pickle.loads(payload)
        except Exception:
            raise ChildProcessError(
                f"the child assessing pair lane {lane} of {k} sent {len(payload)} bytes, which do not hold its outcomes"
            ) from None
    return by_run


def _fork_lane(
    runs: Sequence[Sequence[JobInput]], threshold: ThresholdPolicy, convention: Convention
) -> tuple[int, int]:
    """Fork a child that sends `_assess_run`'s outcomes on `runs`, pickled; return its pid and its pipe's read end.

    The child writes no file, prints nothing and never returns into the
    caller, whose handlers would delete the stage: it ends with `os._exit`,
    status 0 once its payload is written and 1 on anything raised.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            payload = pickle.dumps([_assess_run(run, threshold, convention) for run in runs])
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:  # reported by the parent through the status, not as a traceback here
            pass
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def write_tree(out_dir: str | Path, write: Callable[[Path], list], **settings: Any) -> dict[str, Any]:
    """Write a command's files and their manifest.json in place of the tree at `out_dir`; return the manifest.

    `write(stage)` writes the files into a fresh directory beside `out_dir`
    and returns the failures to record; the manifest holds the sha256 of each
    file found there, those failures and the `settings` given. Only then are
    the files that the old tree's manifest.json lists deleted and the new tree
    renamed into place, so a `write` that raises leaves `out_dir` as it was.
    An `out_dir` that holds any other file is refused before anything is
    written.
    """
    out_dir = Path(out_dir).resolve()  # a symlink's target, which is what is replaced
    old = list(out_dir.iterdir()) if out_dir.exists() else None
    try:
        listed = {*json.loads(read_utf8(out_dir / "manifest.json"))["outputs"], "manifest.json"}
    except (OSError, ValueError, LookupError, TypeError):  # no manifest.json, or one that lists no outputs
        listed = set()
    if foreign := sorted(f.name for f in old or () if f.name not in listed or not f.is_file()):
        raise ValueError(f"{out_dir} holds {', '.join(foreign)}, which no manifest.json there lists")
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    stage.rmdir()  # made again under the umask, as `out_dir` would be, not private as mkdtemp makes it
    stage.mkdir()
    try:
        failures = write(stage)
        outputs = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(stage.iterdir())}
        manifest = {"outputs": outputs, "failures": failures, "settings": settings}
        write_json(stage / "manifest.json", manifest)
    except BaseException:
        shutil.rmtree(stage)  # the fresh stage, never `out_dir`
        raise
    if old is not None:
        for f in old:
            f.unlink()
        out_dir.rmdir()
    stage.rename(out_dir)
    return manifest


def analyze_scopes(
    runs: RunTable,
    out_dir: Path,
    *,
    alpha_grid: Sequence[float] = DEFAULT_ALPHA_GRID,
    bandwidth: float | None = None,
    final_cycle: int | None = None,
) -> dict[str, Any]:
    """Density and convergence analyses for the full run set and each group.

    Writes timeline.csv, per-scope kde_/ppcurve_ CSVs, fits.csv and
    dominance.csv under the directory `out_dir`; returns a per-scope summary
    mapping. Scope-level failures (too few runs, degenerate fits, no density
    crossing) are recorded in the summary instead of raised.

    Raises:
        ValueError: A group labelled `SCOPE_ALL` (see `group_label`) or a
            `final_cycle` that `check_final_cycle` refuses, before anything
            is written.
    """
    check_final_cycle(final_cycle, runs.cycle)
    scopes = {SCOPE_ALL: runs, **{group_label(g): batch for g, batch in runs.group_by("group")}}

    forms = asymmetric_family(alpha_grid)
    labels = [f.label for f in forms]
    timeline = factor_timeline(runs, forms)
    rows = [(cycle, *format_floats([means[lbl] for lbl in labels])) for cycle, means in timeline]
    write_csv(out_dir / "timeline.csv", ["cycle"] + [f"mean_{lbl}" for lbl in labels], rows)

    fits_rows: list[tuple[Any, ...]] = []
    dom_rows: list[dict[str, str]] = []
    summaries: dict[str, Any] = {}
    for scope, batch in scopes.items():
        entry: dict[str, Any] = {"n_runs": len(batch)}
        entry.update(_kde_analysis(scope, batch, bandwidth, out_dir))
        try:
            groups = split_robustness(batch, final_cycle)
            grid = fit_by_form(groups, forms)
            table = dominance_table(grid)
        except ValueError as exc:
            entry["convergence_error"] = str(exc)
            summaries[scope] = entry
            continue
        fits_rows += [
            (scope, group, form.label, *format_floats((form.alpha, grid.mu[f, g], grid.sigma[f, g])))
            for g, group in enumerate(grid.groups)
            for f, form in enumerate(grid.forms)
        ]
        for f, form in enumerate(grid.forms):
            row = {"scope": scope, "form": form.label, "alpha": format_float(form.alpha)}
            for m, group_m in enumerate(grid.groups):
                for k, group_k in enumerate(grid.groups):
                    if m != k:
                        row[f"score_{group_m}_vs_{group_k}"] = format_float(table.scores[f, m, k])
            for g, group in enumerate(grid.groups):
                row[f"location_{group}"] = format_float(table.location[f, g])
                row[f"scale_{group}"] = format_float(grid.sigma[f, g])
            row["robustness"] = format_float(table.robustness[f])
            row["selected"] = "1" if f == table.selected else "0"
            dom_rows.append(row)

        entry["selected_alpha"] = table.selected_form.alpha
        entry["uniform_dominator"] = table.uniform_dominator
        if not table.uniform_dominator:
            entry["selection_note"] = "no uniform dominator; ranked by location criterion"
        best = table.selected
        curve = pp_curve(grid.values[best][0], grid.mu[best, 0], grid.sigma[best, 0])
        pp_rows = column_rows(curve.p, curve.fitted)
        write_csv(out_dir / f"ppcurve_{scope}.csv", ("p_empirical", "p_fitted"), pp_rows)
        entry["pp_prevalence_estimate"] = curve.prevalence_estimate
        entry["pp_net_gain"] = curve.net_gain
        entry["pp_crossings"] = list(curve.crossings)
        entry["pp_coarse"] = curve.n < MIN_PP_POINTS
        summaries[scope] = entry

    if fits_rows:
        write_csv(out_dir / "fits.csv", ("scope", "group", "form", "alpha", "mu", "sigma"), fits_rows)
    if dom_rows:
        # Every scope has the same robustness groups and forms, so the same keys.
        write_csv(out_dir / "dominance.csv", dom_rows[0], [row.values() for row in dom_rows])
    return summaries


def _kde_analysis(scope: str, batch: RunTable, bandwidth: float | None, out_dir: Path) -> dict[str, Any]:
    entry: dict[str, Any] = {}
    try:
        f_pos = fit_kde(batch.ppv, bandwidth)
        f_neg = fit_kde(batch.npv, bandwidth)
        rows = column_rows(GRID, f_pos.on_grid, f_neg.on_grid)
        write_csv(out_dir / f"kde_{scope}.csv", ("x", "f_pos", "f_neg"), rows)
        entry["kde_bandwidth_pos"] = f_pos.bandwidth
        entry["kde_bandwidth_neg"] = f_neg.bandwidth
        crossings = find_crossings(f_pos, f_neg)
        entry["kde_prevalence"] = balance_point(crossings).x
        entry["kde_crossings"] = [c.x for c in crossings]
    except ValueError as exc:
        entry["kde_error"] = str(exc)
    return entry


def _dor_by_group(assessed: Sequence[tuple[JobInput, PairAssessment]]) -> dict[str, float | None]:
    """Mean finite DOR per group, None for a group with none."""
    out: dict[str, float | None] = {}
    for label in sorted({inp.group for inp, _ in assessed}):
        vals = [a.dor for inp, a in assessed if inp.group == label and a.dor is not None and math.isfinite(a.dor)]
        out[label] = float(np.mean(vals)) if vals else None
    return out


# ---------------------------------------------------------------------------
# runs.csv
# ---------------------------------------------------------------------------


#: The columns of runs.csv and their parsers.
_RUNS_CSV = {"box_id": int64_id, "group": group_label, "cycle": int64_id, "ppv": unit_value, "npv": unit_value}


def read_runs_csv(path: str | Path) -> RunTable:
    """The run table of a runs.csv file, as `write_runs_csv` writes it."""
    return RunTable(*read_csv(path, _RUNS_CSV))


def write_runs_csv(path: Path, runs: RunTable | Sequence[RunRecord]) -> Path:
    t = RunTable.of(runs)
    rows = column_rows(t.box_id, t.group, t.cycle, t.ppv, t.npv)
    return write_csv(path, tuple(_RUNS_CSV), rows)
