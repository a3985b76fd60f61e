"""Epanechnikov kernel density estimation and density-crossing search.

The estimator is the classic fixed-bandwidth sum f(x) = (1/(N h)) sum_i
K((x - X_i)/h) with the variance-normalized Epanechnikov kernel
K(z) = (3 / (4 sqrt(5))) (1 - z^2/5) on [-sqrt(5), sqrt(5)], summed directly
in blocks of at most `_BLOCK` kernel terms. Each fitted density is tabulated
once on the fixed 512-point `GRID` over [0, 1]; the crossing search scans
that table for sign changes and refines each one by bisection. The crossings
give the prevalence at which positive and negative predictive-value densities
balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

SQRT5 = math.sqrt(5.0)
_EPA_C = 3.0 / (4.0 * SQRT5)

_BISECT_TOL = 1e-6

#: The fixed points over [0, 1] at which densities are tabulated and scanned.
GRID = np.linspace(0.0, 1.0, 512)
GRID.setflags(write=False)

# Cap on the size of the temporary (points x samples) block in `evaluate`.
_BLOCK = 4_000_000


def epanechnikov(z):
    """Epanechnikov kernel, variance-normalized form.

    K(z) = (3/(4 sqrt(5))) (1 - z^2/5) for |z| <= sqrt(5), else 0.
    Accepts a scalar or an array; integrates to 1 over its support.
    """
    arr = np.asarray(z, dtype=np.float64)
    out = _EPA_C * np.clip(1.0 - arr * arr / 5.0, 0.0, None)
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


def silverman_bandwidth(samples: Sequence[float] | NDArray[np.float64]) -> float:
    """Rule-of-thumb bandwidth h = 0.9 min(sd, IQR/1.34) n^(-1/5).

    Falls back to the standard deviation alone when the IQR is 0 (heavily
    tied data), so only truly constant samples are degenerate.

    Raises:
        ValueError: Fewer than two samples, or all samples identical
            (bandwidth would be 0).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError(f"need at least 2 samples to pick a bandwidth, got {x.size}")
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * spread * x.size ** (-1.0 / 5.0)
    if h <= 0.0:
        raise ValueError("degenerate bandwidth: all samples identical; pass an explicit bandwidth")
    return h


@dataclass(frozen=True, eq=False)
class KdeModel:
    """A fitted fixed-bandwidth Epanechnikov density."""

    samples: NDArray[np.float64]
    bandwidth: float

    def __post_init__(self):
        arr = np.sort(np.asarray(self.samples, dtype=np.float64))
        if arr.size == 0:
            raise ValueError("cannot fit a density to zero samples")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")
        if not (self.bandwidth > 0.0 and math.isfinite(self.bandwidth)):
            raise ValueError(f"bandwidth must be positive and finite, got {self.bandwidth}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def support(self) -> tuple[float, float]:
        """Interval outside which the density is exactly 0."""
        half = SQRT5 * self.bandwidth
        return float(self.samples[0]) - half, float(self.samples[-1]) + half

    def evaluate(self, x):
        """Density at `x`: a float for a scalar, else an array of `x`'s shape."""
        arr = np.asarray(x, dtype=np.float64)
        pts = arr.ravel()
        dens = np.empty(pts.shape)
        step = max(1, _BLOCK // self.n)
        for i in range(0, pts.size, step):
            z = (pts[i : i + step, None] - self.samples[None, :]) / self.bandwidth
            dens[i : i + step] = epanechnikov(z).sum(axis=1)
        dens /= self.n * self.bandwidth
        if arr.ndim == 0:
            return float(dens[0])
        return dens.reshape(arr.shape)

    __call__ = evaluate

    @cached_property
    def on_grid(self) -> NDArray[np.float64]:
        """The density at each point of `GRID`, evaluated once (read-only)."""
        dens = self.evaluate(GRID)
        dens.setflags(write=False)
        return dens


def fit_kde(samples: Sequence[float] | NDArray[np.float64], bandwidth: float | None = None) -> KdeModel:
    """Fit a KDE, choosing the bandwidth by Silverman's rule when omitted."""
    x = np.asarray(samples, dtype=np.float64)
    if bandwidth is None:
        bandwidth = silverman_bandwidth(x)
    return KdeModel(samples=x, bandwidth=float(bandwidth))


@dataclass(frozen=True)
class Crossing:
    """A point where two densities meet; `density` is their common value."""

    x: float
    density: float


def find_crossings(f_pos: KdeModel, f_neg: KdeModel) -> list[Crossing]:
    """All crossings of two densities in [0, 1].

    The difference is scanned at the points of `GRID`; each sign change is
    refined by bisection to 1e-6. Crossings come back sorted by x. Points
    where both densities vanish are skipped - equality only counts where
    there is density to balance.

    Raises:
        ValueError: Densities equal at every grid point (degenerate), or no
            crossing found.
    """

    def diff(v: float) -> float:
        return f_pos.evaluate(v) - f_neg.evaluate(v)

    dens_pos = f_pos.on_grid
    g = dens_pos - f_neg.on_grid

    if not np.any(g):
        raise ValueError("densities are identical across the search interval; no isolated crossing")

    roots: list[float] = []
    for i in range(GRID.size - 1):
        if g[i] == 0.0:
            if dens_pos[i] > 0.0:
                roots.append(float(GRID[i]))
        elif g[i] * g[i + 1] < 0.0:
            roots.append(_bisect(diff, float(GRID[i]), float(GRID[i + 1])))
    if g[-1] == 0.0 and dens_pos[-1] > 0.0:
        roots.append(float(GRID[-1]))

    if not roots:
        raise ValueError("densities do not cross in [0.0, 1.0]")

    out = []
    for r in _dedupe(roots):
        val = 0.5 * (f_pos.evaluate(r) + f_neg.evaluate(r))
        out.append(Crossing(x=r, density=val))
    return out


def density_intersection(f_pos: KdeModel, f_neg: KdeModel) -> float:
    """The crossing point of two densities - the balance threshold.

    With several crossings, returns `balance_point` of them; `find_crossings`
    lists all.
    """
    return balance_point(find_crossings(f_pos, f_neg)).x


def balance_point(crossings: Sequence[Crossing]) -> Crossing:
    """The crossing with the largest joint density, ties toward the smaller x.

    `crossings` must be sorted by x, as `find_crossings` returns them.
    """
    return max(crossings, key=lambda c: c.density)


def _bisect(fn, lo: float, hi: float) -> float:
    flo = fn(lo)
    if flo == 0.0:
        return lo
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _dedupe(roots: list[float], tol: float = 10 * _BISECT_TOL) -> list[float]:
    """Merge refined roots that collapsed onto the same point."""
    roots = sorted(roots)
    kept = [roots[0]]
    for r in roots[1:]:
        if r - kept[-1] > tol:
            kept.append(r)
    return kept
