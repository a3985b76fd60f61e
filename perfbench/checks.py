"""Output checks that do not depend on float formatting.

Each check returns a list of failure messages; every message counts once
toward the run's failed total. References are computed here with numpy from
the arrays the benchmark generated, never by calling mapbayes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

#: Slack beyond half a unit in the sixth significant digit: summation order
#: may put the program's value and the reference on either side of a
#: rounding boundary. Values near zero are compared absolutely.
PRINT_SLACK = 1e-6
PRINT_ATOL = 1e-9

SQRT5 = math.sqrt(5.0)
EPA_C = 3.0 / (4.0 * SQRT5)
KDE_GRID_POINTS = 512
POOL_THRESHOLDS = {"A": 0.0, "B": 0.5, "C": 1.0}


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def matches_print(printed: str, ref: float) -> bool:
    """True when `printed` is `ref` written to six significant digits."""
    if math.isinf(ref):
        return printed == ("inf" if ref > 0 else "-inf")
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - 5) if ref else 0.0
    return abs(float(printed) - ref) <= half_unit * (1 + PRINT_SLACK) + PRINT_ATOL


# ---------------------------------------------------------------------------
# Tallies
# ---------------------------------------------------------------------------


def top_n(scores: np.ndarray, excluded: np.ndarray, n: int) -> np.ndarray:
    """Binary map with the n highest live scores set; ties go to the lower index.

    Excluded cells are -1. This is the `quantity:obs` rule, done with lexsort.
    """
    live = np.flatnonzero(~excluded.ravel())
    order = np.lexsort((live, -scores.ravel()[live]))[:n]
    out = np.full(scores.size, -1, dtype=np.int8)
    out[live] = 0
    out[live[order]] = 1
    return out.reshape(scores.shape)


def tally(sim: np.ndarray, obs: np.ndarray) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) over cells that are not -1 in either map."""
    live = (sim >= 0) & (obs >= 0)
    s, o = sim[live] == 1, obs[live] == 1
    return (
        int(np.sum(s & o)),
        int(np.sum(s & ~o)),
        int(np.sum(~s & o)),
        int(np.sum(~s & ~o)),
    )


def check_confusion(path: Path, expected: dict[tuple[int, int], tuple[int, int, int, int]]) -> list[str]:
    """Every (box, cycle) row of confusion.csv holds the expected tally."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="", encoding="utf-8") as fh:
        got = {
            (int(r["box_id"]), int(r["cycle"])): tuple(int(r[k]) for k in ("tp", "fp", "fn", "tn"))
            for r in csv.DictReader(fh)
        }
    fails = [f"pair {key}: tally {got.get(key)} != {want}" for key, want in expected.items() if got.get(key) != want]
    fails += [f"unexpected row {key}" for key in got.keys() - expected.keys()]
    return fails


def paper_ppv_npv(tp: int, fp: int, fn: int, tn: int) -> tuple[float, float]:
    """Paper-convention PPV and NPV at the pair's own observed prevalence.

    Written in the same operation order as the published formulas, so the
    values agree with the program's to the last bit.
    """
    total = tp + fp + fn + tn
    s = tp / (tp + fn)
    t = tn / (tn + fp)
    p = (tp + fn) / total
    ppv_num = s * p
    npv_num = t * (1.0 - p)
    return ppv_num / (ppv_num + (1.0 - s) * (1.0 - p)), npv_num / (npv_num + s * p)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def silverman(x: np.ndarray) -> float:
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    return 0.9 * (min(sd, iqr / 1.34) if iqr > 0.0 else sd) * x.size ** -0.2


def direct_kde(xs: np.ndarray, samples: np.ndarray, h: float) -> np.ndarray:
    """Epanechnikov density by direct summation, one grid point at a time."""
    out = np.empty(xs.size)
    for i, x in enumerate(xs):
        z = (x - samples) / h
        out[i] = np.sum(EPA_C * np.clip(1.0 - z * z / 5.0, 0.0, None))
    return out / (samples.size * h)


def check_kde(path: Path, pos: np.ndarray, neg: np.ndarray) -> list[str]:
    """kde_<scope>.csv against a direct-sum reference at print precision."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    xs = np.linspace(0.0, 1.0, KDE_GRID_POINTS)
    if len(rows) != xs.size:
        return [f"{path.name}: {len(rows)} rows, expected {xs.size}"]
    ref = {
        "x": xs,
        "f_pos": direct_kde(xs, pos, silverman(pos)),
        "f_neg": direct_kde(xs, neg, silverman(neg)),
    }
    fails = []
    for col, want in ref.items():
        bad = [i for i, r in enumerate(rows) if not matches_print(r[col], float(want[i]))]
        if bad:
            i = bad[0]
            fails.append(f"{path.name} {col}: {len(bad)} points off, first x={xs[i]:.6g} {rows[i][col]} vs {want[i]!r}")
    return fails


def check_scopes(summary_path: Path, scopes: tuple[str, ...], planted: float | None = None) -> list[str]:
    """No scope failed its density or convergence analysis; the offset is found."""
    if not summary_path.is_file():
        return [f"{summary_path.name} missing"]
    found = json.loads(summary_path.read_text(encoding="utf-8")).get("scopes", {})
    fails = []
    for scope in scopes:
        entry = found.get(scope)
        if entry is None:
            fails.append(f"scope {scope} missing")
            continue
        for key in ("kde_error", "convergence_error"):
            if key in entry:
                fails.append(f"scope {scope}: {key}: {entry[key]}")
        if planted is not None and entry.get("selected_alpha") != planted:
            fails.append(f"scope {scope}: selected_alpha {entry.get('selected_alpha')} != planted {planted}")
    return fails


def scope_errors(summary_path: Path) -> tuple[int, int]:
    """(kde errors, convergence errors) over the scopes of a summary.json."""
    if not summary_path.is_file():
        return 0, 0
    found = json.loads(summary_path.read_text(encoding="utf-8")).get("scopes", {})
    return (
        sum("kde_error" in e for e in found.values()),
        sum("convergence_error" in e for e in found.values()),
    )


# ---------------------------------------------------------------------------
# Regional sampling
# ---------------------------------------------------------------------------


def box_counts(mask: np.ndarray, side: int) -> np.ndarray:
    """Cells set per side x side box, row-major; partial edge boxes dropped."""
    r, c = mask.shape[0] // side, mask.shape[1] // side
    return mask[: r * side, : c * side].reshape(r, side, c, side).sum((1, 3)).ravel()


def bin_sizes(pool: int, n: int) -> list[int]:
    base, extra = divmod(pool, n)
    return [base + 1] * extra + [base] * (n - extra)


def check_sample(path: Path, change: np.ndarray, excl: np.ndarray, side: int, n_quantiles: int) -> list[str]:
    """sample.csv: percentages, nested pools, one draw per quantile bin."""
    if not path.is_file():
        return [f"{path.name} missing"]
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = side * side
    pct_c = box_counts(change, side) / cells
    pct_e = box_counts(excl, side) / cells
    with np.errstate(divide="ignore", invalid="ignore"):
        index = np.where(pct_e > 0, pct_c / pct_e, np.where(pct_c > 0, np.inf, 0.0))
    if len(rows) != pct_c.size:
        return [f"{path.name}: {len(rows)} boxes, expected {pct_c.size}"]
    fails = []
    for i, r in enumerate(rows):
        if not (
            matches_print(r["pct_urban"], pct_c[i])
            and matches_print(r["pct_excl"], pct_e[i])
            and matches_print(r["index"], index[i])
        ):
            fails.append(f"box {i}: percentages {r['pct_urban']}, {r['pct_excl']}, {r['index']} differ")
        pools = r["pools"]
        if not ("C" not in pools or "B" in pools) or not ("B" not in pools or "A" in pools):
            fails.append(f"box {i}: pools {pools!r} do not nest")
        want = "".join(lbl for lbl, t in POOL_THRESHOLDS.items() if index[i] >= t)
        if pools != want:
            fails.append(f"box {i}: pools {pools!r}, expected {want!r}")
    for label, threshold in POOL_THRESHOLDS.items():
        members = np.flatnonzero(index >= threshold)
        chosen = {i for i, r in enumerate(rows) if label in r["selected_for"]}
        if members.size < n_quantiles:
            if chosen:
                fails.append(f"pool {label}: {len(chosen)} draws from a pool below {n_quantiles} boxes")
            continue
        ordered = members[np.lexsort((members, pct_c[members]))]
        start = 0
        for q, size in enumerate(bin_sizes(members.size, n_quantiles)):
            hits = sum(int(b) in chosen for b in ordered[start : start + size])
            if hits != 1:
                fails.append(f"pool {label} quantile {q}: {hits} draws")
            start += size
        if not chosen <= set(members.tolist()):
            fails.append(f"pool {label}: a draw lies outside the pool")
    return fails
