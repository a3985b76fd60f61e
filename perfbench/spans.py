"""In-memory span tracing around mapbayes' public functions.

Spans are recorded only from the benchmark's own files: `install` replaces
module attributes at the names the callers resolve (for example
`mapbayes.report.load_grid`, which `report.assess_pair` calls) with thin
wrappers, and `uninstall` puts the originals back. The library itself is
never edited.

Every wrapped name belongs to a metric stem such as `raster.load_grid`; the
layer is the stem's first part. A stem whose every candidate name is missing
(a later version removed or moved it) is reported as absent rather than
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

LAYERS = ("startup", "cli", "report", "raster", "confusion", "bayes", "kde", "convergence", "sampling", "synth")

#: Root span of one traced command; its self time (tracer install, gaps)
#: is charged to the startup layer together with the import span.
ROOT = "startup.process"
IMPORT = "startup.import"


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts", "failed", "key")

    def __init__(self, id: int, parent: int | None, name: str, start: float):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.counts: dict[str, int] = {}
        self.failed = False
        self.key: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
            "failed": self.failed,
            "key": self.key,
        }

    @classmethod
    def from_json(cls, d: dict[str, Any]) -> "Span":
        s = cls(d["id"], d["parent"], d["name"], d["start"])
        s.end = d["end"]
        s.counts = dict(d["counts"])
        s.failed = d["failed"]
        s.key = d["key"]
        return s


class Recorder:
    """Collects spans in memory; a span's parent is the innermost open one."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str, start: float | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock() if start is None else start)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, end: float | None = None) -> None:
        span.end = self.clock() if end is None else end
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add(self, name: str, start: float, end: float) -> Span:
        """Record an already finished span under the innermost open one."""
        span = self.open(name, start)
        self.close(span, end)
        return span

    def innermost(self) -> str | None:
        return self._stack[-1].name if self._stack else None


# ---------------------------------------------------------------------------
# Work counters: called with (span, args, kwargs, result) after a call returns
# ---------------------------------------------------------------------------


def _cells(obj) -> int:
    return int(obj.values.size)


def _count_load(span, args, kwargs, out):
    span.counts["cells"] = _cells(out)
    span.key = str(args[0] if args else kwargs.get("path"))


def _count_out_cells(span, args, kwargs, out):
    span.counts["cells"] = _cells(out)


def _count_arg_cells(span, args, kwargs, out):
    span.counts["cells"] = _cells(args[0] if args else kwargs["grid"])


def _count_confusion(span, args, kwargs, out):
    cells = _cells(args[0] if args else kwargs["sim"])
    span.counts["cells"] = cells
    span.counts["excluded_cells"] = cells - int(out.tp + out.fp + out.fn + out.tn)


def _count_terms(span, args, kwargs, out):
    model, x = args[0], (args[1] if len(args) > 1 else kwargs["x"])
    span.counts["kernel_terms"] = int(np.size(x)) * int(model.samples.size)


def _count_boxes(span, args, kwargs, out):
    span.counts["boxes"] = len(out)


@dataclass(frozen=True)
class Target:
    """One metric stem and the dotted names wrapped to measure it."""

    stem: str
    names: tuple[str, ...]
    counter: Callable | None = None


#: Stems without a published metric (load_job, write_json, agreement_rates,
#: factor_values, density_intersection, ...) are wrapped anyway, so their
#: time counts toward their own layer's self time and not their caller's.
TARGETS: tuple[Target, ...] = (
    Target("cli.main", ("mapbayes.cli.main",)),
    Target("report.load_job", ("mapbayes.cli.load_job",)),
    Target("report.run_job", ("mapbayes.cli.run_job",)),
    Target("report.assess_pair", ("mapbayes.report.assess_pair", "mapbayes.cli.assess_pair")),
    Target("report.analyze_scopes", ("mapbayes.report.analyze_scopes", "mapbayes.cli.analyze_scopes")),
    Target("report.write_runs_csv", ("mapbayes.cli.write_runs_csv",)),
    Target("report.write_json", ("mapbayes.cli.write_json",)),
    Target("raster.load_grid", ("mapbayes.report.load_grid", "mapbayes.cli.load_grid"), _count_load),
    Target(
        "raster.classify",
        (
            "mapbayes.report.to_binary",
            "mapbayes.report.to_scores",
            "mapbayes.report.threshold_scores",
            "mapbayes.cli.to_binary",
        ),
        _count_out_cells,
    ),
    Target("raster.write_grid", ("mapbayes.raster.write_grid", "mapbayes.cli.write_grid"), _count_arg_cells),
    Target("confusion.build_confusion", ("mapbayes.report.build_confusion",), _count_confusion),
    Target("confusion.agreement_rates", ("mapbayes.report.agreement_rates",)),
    Target(
        "bayes.ratios",
        (
            "mapbayes.report.predictive_values",
            "mapbayes.report.likelihood_ratios",
            "mapbayes.report.diagnostic_odds_ratio",
        ),
    ),
    Target("kde.fit_kde", ("mapbayes.report.fit_kde", "mapbayes.cli.fit_kde")),
    Target("kde.evaluate", ("mapbayes.kde.KdeModel.evaluate",), _count_terms),
    Target(
        "kde.find_crossings",
        ("mapbayes.report.find_crossings", "mapbayes.kde.find_crossings", "mapbayes.cli.find_crossings"),
    ),
    Target("kde.density_intersection", ("mapbayes.report.density_intersection", "mapbayes.cli.density_intersection")),
    Target("convergence.split_robustness", ("mapbayes.report.split_robustness",)),
    Target("convergence.fit_by_form", ("mapbayes.report.fit_by_form",)),
    Target("convergence.dominance_table", ("mapbayes.report.dominance_table",)),
    Target("convergence.factor_timeline", ("mapbayes.report.factor_timeline",)),
    Target("convergence.factor_values", ("mapbayes.report.factor_values",)),
    Target("convergence.pp_curve", ("mapbayes.report.pp_curve",)),
    Target("sampling.tile_region", ("mapbayes.cli.tile_region",), _count_boxes),
    Target("sampling.classify_pools", ("mapbayes.cli.classify_pools",)),
    Target("sampling.draw_quantile_sample", ("mapbayes.cli.draw_quantile_sample",)),
    Target("synth.generate_pair", ("mapbayes.synth.generate_pair",)),
    Target("synth.generate_run_table", ("mapbayes.synth.generate_run_table",)),
)


def _resolve(dotted: str) -> tuple[Any, str] | None:
    """(owner object, attribute) for a dotted name, or None when missing."""
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


def _wrap(fn: Callable, stem: str, counter: Callable | None, rec: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # Two wrapped names that reach the same stem (a caller-side alias
        # calling the defining module) count once, at the outer call.
        if rec.innermost() == stem:
            return fn(*args, **kwargs)
        span = rec.open(stem)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            rec.close(span)
        if counter is not None:
            try:
                counter(span, args, kwargs, out)
            except (AttributeError, KeyError, IndexError, TypeError):
                span.counts.clear()
        return out

    return wrapper


@dataclass
class Installation:
    """What `install` changed, so it can be undone and reported."""

    present: set[str] = field(default_factory=set)
    missing: list[str] = field(default_factory=list)
    _undo: list[tuple[Any, str, Any]] = field(default_factory=list)

    def absent_stems(self, targets=TARGETS) -> set[str]:
        return {t.stem for t in targets} - self.present


def install(rec: Recorder, targets=TARGETS) -> Installation:
    """Wrap every resolvable target name; record the ones that are gone."""
    inst = Installation()
    for t in targets:
        for dotted in t.names:
            found = _resolve(dotted)
            if found is None:
                inst.missing.append(dotted)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(original, t.stem, t.counter, rec))
            inst._undo.append((owner, attr, original))
            inst.present.add(t.stem)
    return inst


def uninstall(inst: Installation) -> None:
    for owner, attr, original in reversed(inst._undo):
        setattr(owner, attr, original)
    inst._undo.clear()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    Spans of one thread nest properly, so the children of a span cover
    disjoint parts of it and their durations can simply be subtracted.
    """
    child_total: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + s.duration
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer = layer_of(s.name)
        out[layer] = out.get(layer, 0.0) + s.duration - child_total.get(s.id, 0.0)
    return out


def stem_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per stem: calls, inclusive seconds, failures and summed counters."""
    out: dict[str, dict[str, float]] = {}
    keys: dict[str, set[str]] = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "failed": 0})
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["failed"] += int(s.failed)
        for k, v in s.counts.items():
            agg[k] = agg.get(k, 0) + v
        if s.key is not None:
            keys.setdefault(s.name, set()).add(s.key)
    for name, distinct in keys.items():
        out[name]["distinct"] = len(distinct)
    return out


# Published per-layer metrics. Each maps to (unit, the stem it reads, the
# key of that stem's totals); a metric whose stem is absent is left out.
def _stem_metrics(stem: str, **keys: str) -> dict[str, tuple[str, str, str]]:
    return {f"{stem}.{key}": (unit, stem, key) for key, unit in keys.items()}


COMMAND_METRICS: dict[str, tuple[str, str, str]] = {
    **_stem_metrics("raster.load_grid", calls="count", s="s", cells="count", unique_ratio="ratio"),
    **_stem_metrics("raster.classify", s="s", cells="count"),
    **_stem_metrics("confusion.build_confusion", s="s", cells="count", excluded_cells="count"),
    "bayes.calls": ("count", "bayes.ratios", "calls"),
    "bayes.s": ("s", "bayes.ratios", "s"),
    **_stem_metrics("kde.evaluate", calls="count", s="s", kernel_terms="count"),
    **_stem_metrics("kde.fit_kde", s="s"),
    **_stem_metrics("kde.find_crossings", calls="count", s="s"),
    **_stem_metrics("convergence.split_robustness", s="s"),
    **_stem_metrics("convergence.fit_by_form", s="s"),
    **_stem_metrics("convergence.dominance_table", s="s"),
    **_stem_metrics("convergence.factor_timeline", s="s"),
    **_stem_metrics("convergence.pp_curve", s="s"),
    **_stem_metrics("sampling.tile_region", s="s", boxes="count"),
    **_stem_metrics("sampling.classify_pools", s="s"),
    **_stem_metrics("sampling.draw_quantile_sample", s="s"),
    **_stem_metrics("report.run_job", s="s"),
    **_stem_metrics("report.assess_pair", calls="count", s="s", failed="count"),
    **_stem_metrics("report.analyze_scopes", s="s"),
}

SETUP_METRICS: dict[str, tuple[str, str, str]] = {
    **_stem_metrics("raster.write_grid", s="s", cells="count"),
    **_stem_metrics("synth.generate_pair", s="s"),
    **_stem_metrics("synth.generate_run_table", s="s"),
}

SETUP_TARGETS = tuple(t for t in TARGETS if t.stem in {v[1] for v in SETUP_METRICS.values()})

#: Self time per layer of one command; these add up to the traced job_s.
SELF_METRICS = tuple(f"{layer}.self_s" for layer in LAYERS if layer != "synth")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    **{name: v[0] for name, v in {**COMMAND_METRICS, **SETUP_METRICS}.items()},
    **{name: "s" for name in SELF_METRICS},
    "kde.scope_errors": "count",
    "convergence.scope_errors": "count",
    "trace.job_s": "s",
    "trace_overhead": "ratio",
}


def command_metrics(spans: list[Span], absent: set[str], table=COMMAND_METRICS) -> dict[str, float]:
    """Per-layer metrics of one traced command, or of one traced set-up.

    `absent` holds the stems none of whose names could be wrapped. A
    command's metrics also carry the layer self times and `trace.job_s`,
    the duration of its root span.
    """
    totals = stem_totals(spans)
    out = {}
    for name, (_, stem, key) in table.items():
        if stem in absent:
            continue
        t = totals.get(stem, {})
        if key == "unique_ratio":
            out[name] = t.get("distinct", 0) / t["calls"] if t.get("calls") else 0.0
        else:
            out[name] = float(t.get(key, 0))
    if table is COMMAND_METRICS:
        selfs = self_times(spans)
        for name in SELF_METRICS:
            out[name] = selfs[layer_of(name)]
        out["trace.job_s"] = sum(s.duration for s in spans if s.parent is None)
    return out
