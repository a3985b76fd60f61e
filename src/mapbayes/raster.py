"""Plain-text raster grids and conversions to binary / score layers.

The on-disk format is the classic six-line ASCII grid header (ncols, nrows,
xllcorner, yllcorner, cellsize, NODATA_value) followed by one line of
space-separated values per row, top row first. Files written here use at most
six significant digits and newline endings, and reload byte-identically.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
from numpy.typing import NDArray

log = logging.getLogger(__name__)

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int8]

#: Cell marker for "outside the assessed region" in binary / score layers.
EXCLUDED = -1

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

#: Header values with a constraint beyond being a number: key -> (rule, test).
_HEADER_RULES = {
    "ncols": ("a positive integer", lambda v: v.is_integer() and v >= 1),
    "nrows": ("a positive integer", lambda v: v.is_integer() and v >= 1),
    "cellsize": ("positive and finite", lambda v: 0.0 < v < math.inf),
}


class GridFormatError(ValueError):
    """Malformed grid file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _format_value(x: float) -> str:
    """Canonical text form of a value: up to 6 significant digits."""
    return f"{float(x):.6g}"


# ---------------------------------------------------------------------------
# Grid containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Grid:
    """A rectangular raster of real values with a nodata sentinel.

    Attributes:
        values: 2-D float array, shape (rows, cols), row-major, top row first.
        cell_size: Edge length of one square cell, in map units.
        origin_x: X coordinate of the lower-left corner.
        origin_y: Y coordinate of the lower-left corner.
        nodata: Sentinel marking cells with no value.
    """

    values: FloatArray
    cell_size: float = 30.0
    origin_x: float = 0.0
    origin_y: float = 0.0
    nodata: float = -9999.0

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"grid values must be a non-empty 2-D array, got shape {arr.shape}")
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError(f"cell_size must be positive and finite, got {self.cell_size}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def nodata_mask(self) -> NDArray[np.bool_]:
        """Boolean array, True where the cell holds the nodata sentinel (NaN matches NaN)."""
        if math.isnan(self.nodata):
            return np.isnan(self.values)
        return self.values == self.nodata


@dataclass(frozen=True, eq=False)
class BinaryGrid:
    """A classified raster: 1 (event), 0 (non-event), or EXCLUDED per cell."""

    values: IntArray
    cell_size: float = 30.0
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.int8)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"binary grid must be a non-empty 2-D array, got shape {arr.shape}")
        bad = ~np.isin(arr, (0, 1, EXCLUDED))
        if bad.any():
            idx = int(np.flatnonzero(bad)[0])
            raise ValueError(f"binary grid holds a value other than 0/1/excluded at flat index {idx}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def n_ones(self) -> int:
        return int(np.count_nonzero(self.values == 1))

    @property
    def n_zeros(self) -> int:
        return int(np.count_nonzero(self.values == 0))

    @property
    def n_excluded(self) -> int:
        return int(np.count_nonzero(self.values == EXCLUDED))

    def classified_mask(self) -> NDArray[np.bool_]:
        return self.values != EXCLUDED

    def as_grid(self, nodata: float = -9999.0) -> Grid:
        """View as a value grid, excluded cells mapped to nodata."""
        vals = self.values.astype(np.float64)
        vals[self.values == EXCLUDED] = nodata
        return Grid(vals, self.cell_size, self.origin_x, self.origin_y, nodata)


@dataclass(frozen=True, eq=False)
class ScoreGrid:
    """A raster of scores in [0, 1] with an exclusion mask."""

    values: FloatArray
    excluded: NDArray[np.bool_] = field(repr=False, default=None)  # type: ignore[assignment]
    cell_size: float = 30.0
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"score grid must be a non-empty 2-D array, got shape {arr.shape}")
        if self.excluded is None:
            mask = np.zeros(arr.shape, dtype=bool)
        else:
            mask = np.array(self.excluded, dtype=bool)
        if mask.shape != arr.shape:
            raise ValueError(f"exclusion mask shape {mask.shape} != score shape {arr.shape}")
        live = arr[~mask]
        if live.size:
            lo = np.min(live)  # NaN if any live score is NaN
            if math.isnan(lo):
                raise ValueError("NaN scores on non-excluded cells")
            if lo < 0.0 or np.max(live) > 1.0:
                raise ValueError("scores outside [0, 1] on non-excluded cells")
        arr.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "excluded", mask)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def as_grid(self, nodata: float = -9999.0) -> Grid:
        vals = self.values.copy()
        vals[self.excluded] = nodata
        return Grid(vals, self.cell_size, self.origin_x, self.origin_y, nodata)


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


def load_grid(path: str | Path, format: str = "ascii_grid") -> Grid:
    """Read a raster from disk.

    Args:
        path: File to read.
        format: Only "ascii_grid" is supported.

    Returns:
        The parsed Grid.

    Raises:
        GridFormatError: Malformed header (ncols and nrows must be positive
            integers, cellsize positive and finite), bad row length, or a
            non-numeric token; the message names the 1-based line number.
    """
    if format != "ascii_grid":
        raise ValueError(f"unsupported raster format: {format!r}")
    path = Path(path)
    with path.open("r", encoding="ascii") as fh:
        lines = fh.read().split("\n")

    header: dict[str, float] = {}
    for i, key in enumerate(_HEADER_KEYS):
        if i >= len(lines):
            raise GridFormatError("missing header line", line=i + 1)
        parts = lines[i].split()
        if len(parts) != 2 or parts[0].lower() != key:
            raise GridFormatError(f"expected '{key} <value>', got {lines[i]!r}", line=i + 1)
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise GridFormatError(f"non-numeric {key}: {parts[1]!r}", line=i + 1) from None
        if key in _HEADER_RULES:
            rule, ok = _HEADER_RULES[key]
            if not ok(header[key]):
                raise GridFormatError(f"{key} must be {rule}, got {parts[1]!r}", line=i + 1)

    ncols, nrows = int(header["ncols"]), int(header["nrows"])

    body = lines[len(_HEADER_KEYS):]
    # Tolerate one trailing newline (canonical files end with "\n").
    while body and body[-1] == "":
        body.pop()
    if len(body) != nrows:
        raise GridFormatError(
            f"expected {nrows} rows of values, found {len(body)}", line=len(_HEADER_KEYS) + len(body) + 1
        )

    return Grid(
        _parse_body(body, ncols),
        cell_size=header["cellsize"],
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        nodata=header["nodata_value"],
    )


def _parse_body(body: list[str], ncols: int) -> FloatArray:
    """Values of the body rows, one row per line.

    Well-formed rows go through numpy's C reader. Anything else goes through
    the per-line loop, which raises on the first bad line and also takes the
    tokens that `float` accepts and numpy does not (such as "1_0").
    """
    # loadtxt skips blank lines (the shape check catches those) and warns
    # when none is left, so an all-blank body goes straight to the loop.
    if body[0].strip():
        try:
            values = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(body), ncols):
                return values

    rows = []
    for r, line in enumerate(body):
        lineno = len(_HEADER_KEYS) + r + 1
        tokens = line.split()
        # Checked before anything is allocated: the header's ncols may be huge.
        if len(tokens) != ncols:
            raise GridFormatError(f"expected {ncols} values, found {len(tokens)}", line=lineno)
        try:
            rows.append([float(t) for t in tokens])
        except ValueError:
            bad = next(t for t in tokens if not _is_number(t))
            raise GridFormatError(f"non-numeric value {bad!r}", line=lineno) from None
    return np.array(rows, dtype=np.float64)


def write_grid(grid: Grid | BinaryGrid | ScoreGrid, path: str | Path) -> None:
    """Write a raster as an ASCII grid (canonical form, 6 significant digits)."""
    if isinstance(grid, (BinaryGrid, ScoreGrid)):
        grid = grid.as_grid()
    path = Path(path)
    out = [
        f"ncols {grid.cols}",
        f"nrows {grid.rows}",
        f"xllcorner {_format_value(grid.origin_x)}",
        f"yllcorner {_format_value(grid.origin_y)}",
        f"cellsize {_format_value(grid.cell_size)}",
        f"NODATA_value {_format_value(grid.nodata)}",
    ]
    for row in grid.values:
        out.append(" ".join(["%.6g" % v for v in row.tolist()]))
    path.write_text("\n".join(out) + "\n", encoding="ascii")


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def to_binary(
    grid: Grid,
    one_value: float,
    zero_value: float,
    exclusion: Grid | None = None,
) -> BinaryGrid:
    """Classify a value grid into a BinaryGrid.

    Cells that are nodata in `grid`, or nonzero in `exclusion` (its nodata
    cells count as exclusionary: suitability there is unknown), become
    EXCLUDED. Every remaining cell must hold exactly `one_value` or
    `zero_value`.

    Raises:
        ValueError: Shape mismatch with the exclusion grid, or an unexpected
            value outside the exclusion (message names the flat cell index).
    """
    excluded = grid.nodata_mask()
    if exclusion is not None:
        if exclusion.shape != grid.shape:
            raise ValueError(f"exclusion shape {exclusion.shape} != grid shape {grid.shape}")
        excluded = excluded | (exclusion.values != 0.0)

    out = np.full(grid.shape, EXCLUDED, dtype=np.int8)
    live = ~excluded
    ones = live & (grid.values == one_value)
    zeros = live & (grid.values == zero_value)
    out[ones] = 1
    out[zeros] = 0
    stray = live & ~ones & ~zeros
    if stray.any():
        idx = int(np.flatnonzero(stray)[0])
        val = grid.values.ravel()[idx]
        raise ValueError(
            f"unexpected value {val!r} at flat index {idx}: not {one_value!r}/{zero_value!r} and not excluded"
        )
    return BinaryGrid(out, grid.cell_size, grid.origin_x, grid.origin_y)


def to_scores(grid: Grid, exclusion: Grid | None = None) -> ScoreGrid:
    """Interpret a value grid as scores in [0, 1] with exclusions."""
    excluded = grid.nodata_mask()
    if exclusion is not None:
        if exclusion.shape != grid.shape:
            raise ValueError(f"exclusion shape {exclusion.shape} != grid shape {grid.shape}")
        excluded = excluded | (exclusion.values != 0.0)
    vals = grid.values.copy()
    vals[excluded] = 0.0
    return ScoreGrid(vals, excluded, grid.cell_size, grid.origin_x, grid.origin_y)


def threshold_scores(
    scores: ScoreGrid,
    *,
    value: float | None = None,
    quantity: int | None = None,
) -> BinaryGrid:
    """Binarize a score grid by fixed threshold or by target count.

    Exactly one of the keywords must be given.

    Args:
        scores: Input score grid; excluded cells stay excluded.
        value: Cell becomes 1 iff score >= value.
        quantity: Exactly this many cells become 1 - the highest scores among
            non-excluded cells, ties broken by row-major cell index (lower
            index wins). Matches the practice of pinning the predicted amount
            of change to a known quantity.

    Raises:
        ValueError: Both or neither mode given, or quantity exceeds the
            number of non-excluded cells.
    """
    if (value is None) == (quantity is None):
        raise ValueError("give exactly one of value= or quantity=")

    live = ~scores.excluded
    out = np.full(scores.shape, EXCLUDED, dtype=np.int8)

    if value is not None:
        out[live] = (scores.values[live] >= value).astype(np.int8)
        return BinaryGrid(out, scores.cell_size, scores.origin_x, scores.origin_y)

    n_live = int(np.count_nonzero(live))
    if quantity < 0 or quantity > n_live:
        raise ValueError(f"quantity {quantity} outside [0, {n_live}] non-excluded cells")
    out[live] = 0
    if quantity:
        flat_idx = np.flatnonzero(live.ravel())
        flat_scores = scores.values.ravel()[flat_idx]
        # Stable sort on descending score keeps row-major order within ties.
        order = np.argsort(-flat_scores, kind="stable")[:quantity]
        chosen = flat_idx[order]
        flat_out = out.ravel()
        flat_out[chosen] = 1
        out = flat_out.reshape(scores.shape)
    return BinaryGrid(out, scores.cell_size, scores.origin_x, scores.origin_y)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
