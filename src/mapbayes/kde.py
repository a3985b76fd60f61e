"""Epanechnikov kernel density estimation and density-crossing search.

The estimator is the classic fixed-bandwidth sum f(x) = (1/(N h)) sum_i
K((x - X_i)/h) with the variance-normalized Epanechnikov kernel
K(z) = (3 / (4 sqrt(5))) (1 - z^2/5) on [-sqrt(5), sqrt(5)], summed directly
in blocks of at most `_BLOCK` kernel terms. The crossing search locates where
two fitted densities meet - used to read off the prevalence at which positive
and negative predictive-value densities balance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

SQRT5 = math.sqrt(5.0)
_EPA_C = 3.0 / (4.0 * SQRT5)

_SCAN_POINTS = 512
_BISECT_TOL = 1e-6

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
        """Density at `x` (scalar or array)."""
        scalar = np.isscalar(x) or np.asarray(x).ndim == 0
        pts = np.atleast_1d(np.asarray(x, dtype=np.float64))
        dens = np.empty(pts.shape)
        step = max(1, _BLOCK // self.n)
        for i in range(0, pts.size, step):
            z = (pts[i : i + step, None] - self.samples[None, :]) / self.bandwidth
            dens[i : i + step] = epanechnikov(z).sum(axis=1)
        dens /= self.n * self.bandwidth
        if scalar:
            return float(dens[0])
        return dens

    __call__ = evaluate


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


def find_crossings(
    f_pos: KdeModel,
    f_neg: KdeModel,
    search: tuple[float, float] = (0.0, 1.0),
) -> list[Crossing]:
    """All crossings of two densities inside the search interval.

    The difference is scanned at 512 evenly spaced points; each sign change
    is refined by bisection to 1e-6. Crossings come back sorted by x.
    Points where both densities vanish are skipped - equality only counts
    where there is density to balance.

    Raises:
        ValueError: Bad interval, densities equal at every scan point
            (degenerate), or no crossing found.
    """
    lo, hi = float(search[0]), float(search[1])
    if not lo < hi:
        raise ValueError(f"search interval must satisfy lo < hi, got ({lo}, {hi})")

    def diff(v: float) -> float:
        return f_pos.evaluate(v) - f_neg.evaluate(v)

    xs = np.linspace(lo, hi, _SCAN_POINTS)
    dens_pos = f_pos.evaluate(xs)
    g = dens_pos - f_neg.evaluate(xs)

    if not np.any(g):
        raise ValueError("densities are identical across the search interval; no isolated crossing")

    roots: list[float] = []
    for i in range(_SCAN_POINTS - 1):
        if g[i] == 0.0:
            if dens_pos[i] > 0.0:
                roots.append(float(xs[i]))
        elif g[i] * g[i + 1] < 0.0:
            roots.append(_bisect(diff, float(xs[i]), float(xs[i + 1])))
    if g[-1] == 0.0 and dens_pos[-1] > 0.0:
        roots.append(float(xs[-1]))

    if not roots:
        raise ValueError(f"densities do not cross in [{lo}, {hi}]")

    out = []
    for r in _dedupe(roots):
        val = 0.5 * (f_pos.evaluate(r) + f_neg.evaluate(r))
        out.append(Crossing(x=r, density=val))
    return out


def density_intersection(
    f_pos: KdeModel,
    f_neg: KdeModel,
    search: tuple[float, float] = (0.0, 1.0),
) -> float:
    """The crossing point of two densities - the balance threshold.

    With several crossings, returns `balance_point` of them; `find_crossings`
    lists all.
    """
    return balance_point(find_crossings(f_pos, f_neg, search)).x


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
