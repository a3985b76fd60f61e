"""Epanechnikov kernel density estimation and density-crossing search.

The estimator is the classic fixed-bandwidth sum f(x) = (1/(N h)) sum_i
K((x - X_i)/h) with the variance-normalized Epanechnikov kernel
K(z) = (3 / (4 sqrt(5))) (1 - z^2/5) on [-sqrt(5), sqrt(5)].

The kernel is a polynomial on its support, so the sum over the samples within
sqrt(5) h of a point is exact from the sums of 1, t and t^2 over them
(Seifert et al. 1994, "Fast algorithms for nonparametric curve estimation",
JCGS 3:192). The sorted samples are cut into bins of width h anchored at the
smallest one, and t is a sample's offset, in units of h, from the midpoint of
its own bin's samples: |t| <= 1/2, so no sum is large enough to cancel. The
prefix sums of t and t^2 are built once per model. Binary searches find the
samples within a point's kernel, by the direct sum's own test; they fall in
at most six bins, and bin b adds k - (k v^2 - 2 v T1 + T2) / 5, where v is
the point's offset from the bin's midpoint in units of h and k, T1, T2 are
the count and sums over the bin's share of those samples. A density costs
O(n) once and O(log n) per point, and agrees with the direct sum to rounding.

Each fitted density is tabulated once on the fixed 512-point `GRID` over
[0, 1]; the crossing search scans that table for sign changes and refines
them all by one bisection in lockstep. The crossings give the prevalence at
which positive and negative predictive-value densities balance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .raster import check_positive

SQRT5 = math.sqrt(5.0)
_EPA_C = 3.0 / (4.0 * SQRT5)

_BISECT_TOL = 1e-6

#: The fixed points over [0, 1] at which densities are tabulated and scanned.
GRID = np.linspace(0.0, 1.0, 512)
GRID.setflags(write=False)

# A point's kernel window, in bandwidths from the point, and the bounds on
# z = (x - X_i) / h that settle its ends: the window holds the samples with
# z <= sqrt(5) and z > _EDGE[1], the float just below -sqrt(5).
_REACH = np.array([-SQRT5, SQRT5])
_EDGE = np.array([SQRT5, np.nextafter(-SQRT5, -np.inf)])

#: Relative gap in joint density within which two crossings count as tied.
_TIE_RTOL = 1e-9

#: The smallest bandwidth: below the smallest normal float the peak density,
#: K(0) / h, is no longer safely finite.
_MIN_BANDWIDTH = sys.float_info.min


class _BinSums(NamedTuple):
    """Per-bin re-centred prefix sums over a model's sorted samples."""

    rank: NDArray[np.intp]  # bin of each sample
    start: NDArray[np.intp]  # first sample of each bin, then n
    centre: NDArray[np.float64]  # midpoint of each bin's samples
    t1: NDArray[np.float64]  # t1[i]: sum of t over samples[:i]
    t2: NDArray[np.float64]  # t2[i]: sum of t^2 over samples[:i]


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


def _finite(samples: Sequence[float] | NDArray[np.float64]) -> NDArray[np.float64]:
    """`samples` as a float array if every one is finite; otherwise a `ValueError`."""
    x = np.asarray(samples, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite")
    return x


def silverman_bandwidth(samples: Sequence[float] | NDArray[np.float64]) -> float:
    """Rule-of-thumb bandwidth h = 0.9 min(sd, IQR/1.34) n^(-1/5).

    Falls back to the standard deviation alone when the IQR is 0 (heavily
    tied data), so only samples that are constant, or all but constant, are
    degenerate.

    Raises:
        ValueError: A sample that is not finite, fewer than two samples, or
            samples so close to identical that the bandwidth falls below the
            smallest normal float (about 2.2e-308), where the peak density,
            K(0) / h, is no longer safely finite.
    """
    x = _finite(samples)
    if x.size < 2:
        raise ValueError(f"need at least 2 samples to pick a bandwidth, got {x.size}")
    sd = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0.0 else sd
    h = 0.9 * spread * x.size ** (-1.0 / 5.0)
    if h < _MIN_BANDWIDTH:
        raise ValueError(f"degenerate bandwidth {h!r}: the samples are all but identical; pass an explicit bandwidth")
    return h


def check_bandwidth(bandwidth: float) -> float:
    """`bandwidth` if it is finite and at least `_MIN_BANDWIDTH`; otherwise a `ValueError`."""
    if check_positive("bandwidth", bandwidth) < _MIN_BANDWIDTH:
        raise ValueError(f"bandwidth must be at least the smallest normal float {_MIN_BANDWIDTH!r}, got {bandwidth!r}")
    return bandwidth


@dataclass(frozen=True, eq=False)
class KdeModel:
    """A fitted fixed-bandwidth Epanechnikov density."""

    samples: NDArray[np.float64]
    bandwidth: float

    def __post_init__(self):
        arr = np.sort(_finite(self.samples))
        if arr.size == 0:
            raise ValueError("cannot fit a density to zero samples")
        object.__setattr__(self, "bandwidth", float(check_bandwidth(self.bandwidth)))
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

    @cached_property
    def _bin_sums(self) -> _BinSums:
        s, h = self.samples, self.bandwidth
        # Only occupied bins are indexed, so nothing is sized by the span.
        with np.errstate(over="ignore"):
            cell = np.floor((s - s[0]) / h)
        # A cell too far from the first sample to number (inf) would merge
        # samples of any distance; each such sample gets a bin of its own.
        new = (cell[1:] != cell[:-1]) | np.isinf(cell[1:])
        start = np.concatenate(([0], np.flatnonzero(new) + 1, [s.size]))
        rank = np.concatenate(([0], np.cumsum(new)))
        # Halves first: the sum of two finite samples may overflow.
        centre = 0.5 * s[start[:-1]] + 0.5 * s[start[1:] - 1]
        t = (s - centre[rank]) / h
        t1 = np.concatenate(([0.0], np.cumsum(t)))
        t2 = np.concatenate(([0.0], np.cumsum(t * t)))
        return _BinSums(rank, start, centre, t1, t2)

    def _window(self, pts: NDArray[np.float64]) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
        """Per point, the index range [lo, hi) of the samples within its kernel.

        Membership is the direct sum's own test, |(x - X_i) / h| <= sqrt(5),
        and z falls along the sorted samples. A search for x -+ sqrt(5) h
        finds each end up to rounding; an end then steps over runs of equal
        samples until the samples on either side of it pass and fail the
        test, and rarely moves at all.
        """
        s, h = self.samples, self.bandwidth
        ends = np.searchsorted(s, pts[:, None] + _REACH * h)
        while True:
            # Under a subnormal bandwidth a far sample's z overflows to inf,
            # which fails the test as it should.
            with np.errstate(over="ignore"):
                below = (pts[:, None] - s.take(ends - 1, mode="clip")) / h
                above = (pts[:, None] - s.take(ends, mode="clip")) / h
            down = (ends > 0) & (below <= _EDGE)
            up = (ends < s.size) & (above > _EDGE)
            if not (down | up).any():
                return ends[:, 0], ends[:, 1]
            ends = np.where(down, np.searchsorted(s, s.take(ends - 1, mode="clip"), side="left"), ends)
            ends = np.where(up, np.searchsorted(s, s.take(ends, mode="clip"), side="right"), ends)

    def evaluate(self, x):
        """Density at `x`: a float for a scalar, else an array of `x`'s shape."""
        arr = np.asarray(x, dtype=np.float64)
        pts = arr.ravel()
        h, bins = self.bandwidth, self._bin_sums
        lo, hi = self._window(pts)
        first = bins.rank.take(lo, mode="clip")
        n_bins = np.where(hi > lo, bins.rank.take(hi - 1, mode="clip") - first + 1, 0)
        # One column per bin the windows touch; columns past a point's last
        # bin add exact zeros, so a point sums alike alone or among others.
        off = np.arange(n_bins.max(initial=0))
        b = first[:, None] + off
        a = np.maximum(lo[:, None], bins.start.take(b, mode="clip"))
        e = np.minimum(hi[:, None], bins.start.take(b + 1, mode="clip"))
        k = e - a
        # Within a window |v| stays below sqrt(5) + 1; only the columns masked
        # out below can overflow, under a subnormal bandwidth.
        with np.errstate(over="ignore", invalid="ignore"):
            v = (pts[:, None] - bins.centre.take(b, mode="clip")) / h
            part = k - (k * v * v - 2.0 * v * (bins.t1[e] - bins.t1[a]) + (bins.t2[e] - bins.t2[a])) / 5.0
        part = np.where(off < n_bins[:, None], part, 0.0)
        total = np.zeros(pts.shape)
        for col in part.T:
            total += col
        # The polynomial form can round a vanishing sum to just below zero.
        dens = np.where(total > 0.0, total * (_EPA_C / (self.n * h)), 0.0)
        dens[np.isnan(pts)] = np.nan
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
    return KdeModel(samples=x, bandwidth=silverman_bandwidth(x) if bandwidth is None else bandwidth)


@dataclass(frozen=True)
class Crossing:
    """A point where two densities meet; `density` is their common value."""

    x: float
    density: float


def find_crossings(f_pos: KdeModel, f_neg: KdeModel) -> list[Crossing]:
    """All crossings of two densities in [0, 1].

    The difference is scanned at the points of `GRID`; every sign change is
    refined by bisection to 1e-6, all of them in lockstep with one array
    evaluation per step, and a midpoint where the densities are equal closes
    its bracket there. Crossings come back sorted by x. Points where both
    densities vanish are skipped - equality only counts where there is
    density to balance.

    Raises:
        ValueError: Densities equal at every grid point (degenerate), or no
            crossing found.
    """
    dens_pos = f_pos.on_grid
    g = dens_pos - f_neg.on_grid

    if not np.any(g):
        raise ValueError("densities are identical across the search interval; no isolated crossing")

    at = np.flatnonzero(g[:-1] * g[1:] < 0.0)
    lo, hi, g_lo = GRID[at], GRID[at + 1], g[at]
    while (step := np.flatnonzero(hi - lo > _BISECT_TOL)).size:
        mid = 0.5 * (lo[step] + hi[step])
        g_mid = f_pos.evaluate(mid) - f_neg.evaluate(mid)
        left = (g_lo[step] < 0.0) != (g_mid < 0.0)  # the sign changes in [lo, mid]
        zero = g_mid == 0.0
        hi[step] = np.where(left | zero, mid, hi[step])
        lo[step] = np.where(left & ~zero, lo[step], mid)
        g_lo[step] = np.where(left, g_lo[step], g_mid)

    roots = GRID[(g == 0.0) & (dens_pos > 0.0)].tolist() + (0.5 * (lo + hi)).tolist()
    if not roots:
        raise ValueError("densities do not cross in [0.0, 1.0]")

    xs = _dedupe(roots)
    at_x = np.array(xs)
    density = 0.5 * (f_pos.evaluate(at_x) + f_neg.evaluate(at_x))
    return [Crossing(x=x, density=d) for x, d in zip(xs, density.tolist())]


def density_intersection(f_pos: KdeModel, f_neg: KdeModel) -> float:
    """The crossing point of two densities - the balance threshold.

    With several crossings, returns `balance_point` of them; `find_crossings`
    lists all.
    """
    return balance_point(find_crossings(f_pos, f_neg)).x


def balance_point(crossings: Sequence[Crossing]) -> Crossing:
    """The crossing with the largest joint density, ties toward the smaller x.

    `crossings` must be sorted by x, as `find_crossings` returns them.
    Densities within a relative 1e-9 of the largest count as tied: far above
    the rounding of a density and far below what six printed digits show, so
    a mathematically exact tie, such as mirror-image samples give, goes to the
    smaller x whatever the last bit says.
    """
    top = max(c.density for c in crossings)
    return next(c for c in crossings if top - c.density <= _TIE_RTOL * top)


def _dedupe(roots: list[float], tol: float = 10 * _BISECT_TOL) -> list[float]:
    """Merge refined roots that collapsed onto the same point."""
    roots = sorted(roots)
    kept = [roots[0]]
    for r in roots[1:]:
        if r - kept[-1] > tol:
            kept.append(r)
    return kept
