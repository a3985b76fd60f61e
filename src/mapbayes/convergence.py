"""Convergence factors over predictive values, and model-form selection.

A convergence factor maps a run's (PPV, NPV) pair to [0, 1], peaking where
the two predictive values agree up to a chosen offset. Three functional
forms are supported:

    triangular:        1 - |ppv - npv|
    adjusted_normal:   exp(-2 (ppv - npv)^2)
    asymmetric_normal: exp(-2 (ppv - npv - alpha)^2),  alpha in [0, 1]

The adjusted normal form is the asymmetric form at alpha = 0. Factor values
collected over many runs are summarized by a maximum-likelihood normal fit
per robustness group (location = sample mean, scale = population standard
deviation), and the offset family is compared by a dominance rule on three
sub-criteria: location closest to the 0.5 balance point, smallest scale,
and cross-group consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray

from .raster import check_positive, check_unit
from .tableio import ColumnTable

FORM_KINDS = ("triangular", "adjusted_normal", "asymmetric_normal")

#: Offsets tried by default when selecting an asymmetric form.
DEFAULT_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Default robustness-group labels: every run vs. the converged tail.
GROUP_ALL = "all_cycles"
GROUP_FINAL = "final_cycles"

#: A P-P curve of fewer points gives only coarse crossings.
MIN_PP_POINTS = 10


# ---------------------------------------------------------------------------
# Forms and factor values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceForm:
    """A convergence-factor functional form (kind + offset)."""

    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in FORM_KINDS:
            raise ValueError(f"unknown form kind {self.kind!r}; expected one of {FORM_KINDS}")
        check_unit("alpha", self.alpha)
        if self.kind != "asymmetric_normal" and self.alpha != 0.0:
            raise ValueError(f"{self.kind} form takes no offset")

    @property
    def label(self) -> str:
        if self.kind == "asymmetric_normal":
            return f"asymmetric_a{self.alpha:g}"
        return self.kind


def asymmetric_family(alpha_grid: Iterable[float] = DEFAULT_ALPHA_GRID) -> list[ConvergenceForm]:
    """Asymmetric-normal forms over a non-empty offset grid; two offsets may not share a label."""
    forms: dict[str, ConvergenceForm] = {}
    for form in (ConvergenceForm("asymmetric_normal", float(check_unit("alpha", a))) for a in alpha_grid):
        if forms.setdefault(form.label, form) is not form:
            raise ValueError(f"offsets {forms[form.label].alpha!r} and {form.alpha!r} share the label {form.label}")
    if not forms:
        raise ValueError("alpha grid is empty")
    return list(forms.values())


def convergence_factor(ppv: float, npv: float, form: ConvergenceForm) -> float:
    """Factor value in [0, 1] for one (PPV, NPV) pair."""
    diff = check_unit("ppv", ppv) - check_unit("npv", npv)
    return float(_factor_array(np.asarray([diff]), form)[0])


def _factor_array(diff: NDArray[np.float64], form: ConvergenceForm) -> NDArray[np.float64]:
    if form.kind == "triangular":
        return 1.0 - np.abs(diff)
    if form.kind == "adjusted_normal":
        return np.exp(-2.0 * diff * diff)
    shifted = diff - form.alpha
    return np.exp(-2.0 * shifted * shifted)


# ---------------------------------------------------------------------------
# Run records, run tables and robustness groups
# ---------------------------------------------------------------------------


def _outside(box_id: int, cycle: int, ppv: float, npv: float) -> str:
    return f"run {box_id}@{cycle}: predictive values outside [0, 1] (ppv={ppv}, npv={npv})"


@dataclass(frozen=True)
class RunRecord:
    """One assessed simulation run: a row of a `RunTable`."""

    box_id: int
    group: str
    cycle: int
    ppv: float
    npv: float

    def __post_init__(self):
        if not (0.0 <= self.ppv <= 1.0 and 0.0 <= self.npv <= 1.0):
            raise ValueError(_outside(self.box_id, self.cycle, self.ppv, self.npv))


@dataclass(frozen=True, eq=False)
class RunTable(ColumnTable):
    """Assessed simulation runs as read-only columns, one row per run.

    `group` holds each label, a `str`, as given, and `diff` is ppv - npv. A
    label of another type is refused, naming its row, since the analyses
    sort, search and name files by the labels. A predictive value outside
    [0, 1] is refused with the message a `RunRecord` gives for that row.
    """

    _name = "run table"
    _dtypes = {"box_id": np.int64, "group": object, "cycle": np.int64, "ppv": np.float64, "npv": np.float64}

    box_id: NDArray[np.int64]
    group: NDArray[np.object_]
    cycle: NDArray[np.int64]
    ppv: NDArray[np.float64]
    npv: NDArray[np.float64]
    diff: NDArray[np.float64] = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        for i, label in enumerate(self.group.tolist()):
            if not isinstance(label, str):
                raise ValueError(f"{self._name} column 'group': row {i} holds {label!r}, not a str label")
        inside = (0.0 <= self.ppv) & (self.ppv <= 1.0) & (0.0 <= self.npv) & (self.npv <= 1.0)
        if not inside.all():
            i = int(np.argmin(inside))
            raise ValueError(_outside(*(getattr(self, c)[i].item() for c in ("box_id", "cycle", "ppv", "npv"))))
        self._set("diff", self.ppv - self.npv)

    @classmethod
    def of(cls, runs: RunTable | Sequence[RunRecord]) -> RunTable:
        """`runs` as a table: a table as it is, records gathered by column."""
        return runs if isinstance(runs, RunTable) else cls(*([getattr(r, c) for r in runs] for c in cls._dtypes))


def factor_values(runs: RunTable, form: ConvergenceForm) -> NDArray[np.float64]:
    """Factor value per run, in run order."""
    return _factor_array(runs.diff, form)


def split_robustness(runs: RunTable, final_cycle: int | None = None) -> dict[str, RunTable]:
    """Split runs into the two default robustness groups.

    `all_cycles` keeps everything; `final_cycles` keeps runs at or past
    `final_cycle` (default: only the largest cycle present). Both keep run
    order.
    """
    if not len(runs):
        raise ValueError("no runs to split")
    cutoff = runs.cycle.max().item() if final_cycle is None else final_cycle
    final = runs[runs.cycle >= cutoff]
    if not len(final):
        raise ValueError(f"no runs at or past cycle {cutoff}")
    return {GROUP_ALL: runs, GROUP_FINAL: final}


def check_final_cycle(final_cycle: int | None, cycles: Sequence[int] | NDArray[np.int64]) -> int | None:
    """`final_cycle` unless it is at or below the first of `cycles`, where the converged tail would
    hold every run and compare the runs with themselves, or past the last, where it would hold none."""
    cycles = np.asarray(cycles)
    if final_cycle is None or (cycles.size and cycles.min() < final_cycle <= cycles.max()):
        return final_cycle
    span = f"cycles {cycles.min()} to {cycles.max()}" if cycles.size else "no cycles"
    raise ValueError(f"final_cycle must be above the first cycle and at most the last ({span}), got {final_cycle}")


# ---------------------------------------------------------------------------
# Maximum-likelihood normal summaries
# ---------------------------------------------------------------------------


def fit_normal_ml(values: Sequence[float] | NDArray[np.float64]) -> tuple[float, float]:
    """Closed-form ML normal fit: (mean, population standard deviation).

    The scale uses the N divisor (the likelihood maximizer), not N-1.
    Identical values give scale 0.0 - degenerate; `FitGrid` refuses it.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot fit a distribution to zero values")
    return float(np.mean(x)), float(np.std(x, ddof=0))


@dataclass(frozen=True, eq=False)
class FitGrid:
    """ML normal fits of every form's factor values in every robustness group.

    `mu[f, g]` and `sigma[f, g]` summarize form `forms[f]` in group
    `groups[g]`, and `values[f][g]` holds the factor values they summarize
    (empty when not kept). A scale that is not positive is refused, in group
    order: the values were identical and the fit is degenerate.
    """

    forms: tuple[ConvergenceForm, ...]
    groups: tuple[str, ...]
    mu: NDArray[np.float64]
    sigma: NDArray[np.float64]
    values: tuple[tuple[NDArray[np.float64], ...], ...] = ()

    def __post_init__(self):
        bad = np.argwhere(~(self.sigma.T > 0.0))
        if bad.size:
            g, f = bad[0]
            label, group, scale = self.forms[f].label, self.groups[g], self.sigma[f, g]
            raise ValueError(f"degenerate fit for {label} in {group}: scale {scale} (identical values?)")


def fit_by_form(groups: Mapping[str, RunTable], forms: Sequence[ConvergenceForm]) -> FitGrid:
    """ML normal fits of every form in every group, with the factor values they summarize."""
    values: list[list[NDArray[np.float64]]] = [[] for _ in forms]
    for group, runs in groups.items():
        if not len(runs):
            raise ValueError(f"robustness group {group!r} is empty")
        for form, row in zip(forms, values):
            row.append(_factor_array(runs.diff, form))
    fits = np.array([[fit_normal_ml(v) for v in row] for row in values]).reshape(len(forms), len(groups), 2)
    return FitGrid(tuple(forms), tuple(groups), fits[..., 0], fits[..., 1], tuple(map(tuple, values)))


# ---------------------------------------------------------------------------
# Dominance selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DominanceTable:
    """Pairwise scores, sub-criteria, and the selected form.

    Arrays are indexed by form, then group, as in the `FitGrid` compared.
    With z = (0.5 - mu) / sigma, scores[f, m, k] = z[f, m] - z[f, k],
    antisymmetric in the group pair. Sub-criteria per form: location
    |0.5 - mu| per group, scale (the grid's sigma) per group, and robustness
    = the largest |score| over group pairs. A form is the uniform dominator
    when no rival beats it on any sub-criterion in any group; without one,
    `selected` (an index into `forms`) falls back to the best mean location
    and `uniform_dominator` is False.
    """

    forms: tuple[ConvergenceForm, ...]
    scores: NDArray[np.float64]
    location: NDArray[np.float64]
    robustness: NDArray[np.float64]
    ranking: tuple[str, ...]
    selected: int
    uniform_dominator: bool

    @property
    def selected_form(self) -> ConvergenceForm:
        return self.forms[self.selected]


def dominance_table(grid: FitGrid) -> DominanceTable:
    """Compare fitted forms across robustness groups and pick one.

    Requires at least two groups and one form. The selected form dominates
    on all three sub-criteria when such a form exists; otherwise forms are
    ranked by location criterion averaged over groups (ties by label) and
    the best is selected with the uniform-dominator flag off.
    """
    if len(grid.groups) < 2:
        raise ValueError("dominance comparison needs at least two robustness groups")
    if not grid.forms:
        raise ValueError("dominance comparison needs at least one form")
    location = np.abs(0.5 - grid.mu)
    z = (0.5 - grid.mu) / grid.sigma
    # Rounding is monotone and symmetric, so max - min is the largest |z_m - z_k| bit for bit.
    robustness = z.max(1) - z.min(1)
    # no_worse[f, r]: form f is no worse than form r on every sub-criterion in every group.
    no_worse = (location[:, None] <= location).all(2) & (grid.sigma[:, None] <= grid.sigma).all(2)
    no_worse &= robustness[:, None] <= robustness
    dominators = np.flatnonzero(no_worse.all(1))
    mean_location = location.mean(1)
    labels = [f.label for f in grid.forms]
    order = sorted(range(len(labels)), key=lambda f: (mean_location[f], labels[f]))
    ranking = tuple(labels[f] for f in order)
    uniform = dominators.size == 1
    selected = int(dominators[0]) if uniform else order[0]
    return DominanceTable(grid.forms, z[:, :, None] - z[:, None, :], location, robustness, ranking, selected, uniform)


# ---------------------------------------------------------------------------
# Probability-probability curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PPCurve:
    """Empirical-vs-fitted probability curve for one set of factor values.

    Points are (p_i, Phi((x_(i) - mu)/sigma)) with p_i = (i - 0.5)/n over the
    sorted values. `prevalence_estimate` is the diagonal crossing nearest
    p = 0.5 (None when the curve never crosses); `net_gain` is the signed
    trapezoid-rule area between curve and diagonal (positive when the fitted
    distribution sits above the empirical one).
    """

    p: NDArray[np.float64]
    fitted: NDArray[np.float64]
    crossings: tuple[float, ...]
    prevalence_estimate: float | None
    net_gain: float

    @property
    def n(self) -> int:
        return int(self.p.size)


def pp_curve(values: Sequence[float] | NDArray[np.float64], mu: float, sigma: float) -> PPCurve:
    """Build the P-P curve of `values` against a normal(mu, sigma) fit.

    A curve of fewer than `MIN_PP_POINTS` points is still computed; its
    crossings are coarse, which callers read from `PPCurve.n`.

    Raises:
        ValueError: No values, a mu outside [0, 1], or a sigma that is not positive and finite.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if x.size == 0:
        raise ValueError("cannot build a probability curve from zero values")
    check_unit("mu", mu)
    check_positive("sigma", sigma)
    n = x.size
    p = (np.arange(1, n + 1) - 0.5) / n
    z = (x - mu) / sigma
    # The standard normal CDF, one math.erf per point.
    fitted = 0.5 * (1.0 + np.array([math.erf(v) for v in (z / math.sqrt(2.0)).tolist()]))

    d = fitted - p
    # Points on the diagonal, then sign changes, interpolated linearly to zero.
    i = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    frac = d[i] / (d[i] - d[i + 1])
    crossings = sorted(set(p[d == 0.0].tolist() + (p[i] + frac * (p[i + 1] - p[i])).tolist()))

    prevalence = min(crossings, key=lambda c: (abs(c - 0.5), c)) if crossings else None

    net_gain = float(np.trapezoid(d, p)) if n > 1 else 0.0
    return PPCurve(
        p=p,
        fitted=fitted,
        crossings=tuple(crossings),
        prevalence_estimate=prevalence,
        net_gain=net_gain,
    )


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------


def factor_timeline(runs: RunTable, forms: Sequence[ConvergenceForm]) -> list[tuple[int, dict[str, float]]]:
    """Mean factor value per form at each cycle that has runs, ascending."""
    return [
        (cycle, {form.label: float(np.mean(_factor_array(batch.diff, form))) for form in forms})
        for cycle, batch in runs.group_by("cycle")
    ]
