"""Plain-text raster grids and conversions to binary / score layers.

The on-disk format is the classic six-line ASCII grid header (ncols, nrows,
xllcorner, yllcorner, cellsize, NODATA_value) followed by one line of
space-separated values per row, top row first. Files written here hold body
values of at most six significant digits, an exact origin and cell size, and
newline endings, and they reload byte-identically.
"""

from __future__ import annotations

import functools
import io
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.typing import NDArray

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


def format_floats(values: Iterable[float | None]) -> list[str]:
    """Canonical text of each value: up to 6 significant digits, '' for None.

    Every float that mapbayes writes is this text, bar a raster header's
    origin and cell size (see `write_grid`). `write_grid` builds the same
    bytes from integer digits for most cells, without a call per cell. Give
    a numpy column as `.tolist()`: formatting Python floats is faster.
    """
    return ["" if v is None else "%.6g" % v for v in values]


def format_float(x: float | None) -> str:
    """Canonical text of one value (see `format_floats`)."""
    return format_floats((x,))[0]


def _read_only(values: Any, dtype: type) -> NDArray[Any]:
    """`values` as a read-only array of `dtype`, for a container to keep.

    An array of that dtype that owns its memory and is already read-only is
    kept as it is: that is how `load_grid` hands over the array it has just
    parsed, without a copy. Anything else, a caller's writable array or a
    read-only view of one in particular, is copied, so the container neither
    aliases nor freezes it.

    Raises:
        ValueError: Casting to `dtype` changes a value (257 or 0.5 to int8,
            0.5 to bool); the message names the first such flat index.
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    src = np.asarray(values)
    with np.errstate(invalid="ignore", over="ignore"):  # a lossy cast is caught below
        arr = src.astype(dtype)
    if src.dtype != dtype:
        # arr == arr is False only at a NaN, which a float cast keeps.
        lost = np.flatnonzero((arr != src) & (arr == arr))
        if lost.size:
            idx = int(lost[0])
            raise ValueError(f"value {_plain(src.flat[idx])!r} at flat index {idx} changes when cast to {arr.dtype}")
    arr.setflags(write=False)
    return arr


def _plain(x: Any) -> Any:
    """`x` as a Python value, so that a message shows 0.5, not np.float64(0.5)."""
    return x.item() if isinstance(x, np.generic) else x


def check_unit(name: str, x: Any) -> float:
    """`x` if it is a real number in [0, 1], not a bool: a rate, a prevalence or an offset."""
    # A float skips the slower isinstance test: `unit_value` calls this once per CSV cell.
    if (type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))) and 0.0 <= x <= 1.0:
        return x
    raise ValueError(f"{name} must be in [0, 1], got {_plain(x)!r}")


def check_positive(name: str, x: Any) -> float:
    """`x` if it is a positive, finite real number, not a bool: a cell size, a bandwidth or a scale."""
    if (type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))) and 0.0 < x < math.inf:
        return x
    raise ValueError(f"{name} must be positive and finite, got {_plain(x)!r}")


def check_nonnegative(name: str, x: Any) -> float:
    """`x` if it is a non-negative, finite real number, not a bool: a box share or a synthetic fraction."""
    if (type(x) is float or (isinstance(x, numbers.Real) and not isinstance(x, bool))) and 0.0 <= x < math.inf:
        return x
    raise ValueError(f"{name} must be non-negative and finite, got {_plain(x)!r}")


def check_count(name: str, n: Any, least: int = 0) -> int:
    """`n` if it is an integer of at least `least`, 0 or 1, not a bool: a seed, a quantity or a box count."""
    if (type(n) is int or (isinstance(n, numbers.Integral) and not isinstance(n, bool))) and n >= least:
        return n
    rule = "must be a positive integer" if least else "must be a non-negative integer"
    raise ValueError(f"{name} {rule}, got {_plain(n)!r}")


# ---------------------------------------------------------------------------
# Grid containers
# ---------------------------------------------------------------------------


class _Raster:
    """What the three grid containers share: the shape, and one construction step."""

    values: NDArray[Any]
    cell_size: float

    def _keep_values(self, dtype: type) -> NDArray[Any]:
        """Check the cell size, then keep `values` as a read-only array of `dtype`.

        Raises:
            ValueError: A cell size that is not positive and finite, a lossy
                cast (see `_read_only`), or values that are not a non-empty
                2-D array.
        """
        check_positive("cell_size", self.cell_size)
        arr = _read_only(self.values, dtype)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"{type(self).__name__} values must be a non-empty 2-D array, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)
        return arr

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class Grid(_Raster):
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
        self._keep_values(np.float64)

    def nodata_mask(self) -> NDArray[np.bool_]:
        """Boolean array, True where the cell holds the nodata sentinel (NaN matches NaN)."""
        return _nodata_mask(self.values, self.nodata)


@dataclass(frozen=True, eq=False)
class BinaryGrid(_Raster):
    """A classified raster: 1 (event), 0 (non-event), or EXCLUDED per cell."""

    values: IntArray
    cell_size: float = 30.0
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        arr = self._keep_values(np.int8)
        # An int8 array holds only EXCLUDED, 0 and 1 exactly when its range
        # does; the slower isin only names the first bad cell.
        if arr.min() < EXCLUDED or arr.max() > 1:
            idx = int(np.flatnonzero(~np.isin(arr, (0, 1, EXCLUDED)))[0])
            raise ValueError(f"binary grid holds a value other than 0/1/excluded at flat index {idx}")

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

    def as_grid(self) -> Grid:
        """View as a value grid, excluded cells mapped to `Grid`'s default nodata."""
        vals = self.values.astype(np.float64)
        vals[self.values == EXCLUDED] = Grid.nodata
        return Grid(vals, self.cell_size, self.origin_x, self.origin_y)


@dataclass(frozen=True, eq=False)
class ScoreGrid(_Raster):
    """A raster of scores in [0, 1] with an exclusion mask."""

    values: FloatArray
    excluded: NDArray[np.bool_] = field(repr=False, default=None)  # type: ignore[assignment]
    cell_size: float = 30.0
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        arr = self._keep_values(np.float64)
        if self.excluded is None:
            mask = np.zeros(arr.shape, dtype=bool)
            mask.setflags(write=False)
        else:
            mask = _read_only(self.excluded, np.bool_)
        if mask.shape != arr.shape:
            raise ValueError(f"exclusion mask shape {mask.shape} != score shape {arr.shape}")
        # Every cell is checked first, as `to_scores` stores 0.0 under the
        # excluded ones; only if one fails are the live cells checked alone,
        # without copying them (inf and -inf when there are none).
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # a NaN fails min
            live = ~mask
            lo = arr.min(where=live, initial=np.inf)  # NaN if any live score is NaN
            if math.isnan(lo):
                raise ValueError("NaN scores on non-excluded cells")
            if lo < 0.0 or arr.max(where=live, initial=-np.inf) > 1.0:
                raise ValueError("scores outside [0, 1] on non-excluded cells")
        object.__setattr__(self, "excluded", mask)

    def as_grid(self) -> Grid:
        """View as a value grid, excluded cells mapped to `Grid`'s default nodata."""
        vals = self.values.copy()
        vals[self.excluded] = Grid.nodata
        return Grid(vals, self.cell_size, self.origin_x, self.origin_y)


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------


class _Header(NamedTuple):
    """What a raster file's header says: its shape, placement and nodata sentinel."""

    shape: tuple[int, int]
    cell_size: float
    origin_x: float
    origin_y: float
    nodata: float


def load_grid(path: str | Path) -> Grid:
    """Read an ASCII grid raster from disk.

    A body in canonical single-digit form is decoded by stride (see
    `_stride_body`); any other body goes through `_parse_body`. Both give
    the same values for every file that the stride decode takes.

    Raises:
        GridFormatError: A byte that is not ASCII, malformed header (ncols
            and nrows must be positive integers, cellsize positive and
            finite), bad row count or length, or a non-numeric token; the
            message names the path and the 1-based line number (`.line`).
    """
    head, body, marks = _read_raster(path)
    return _grid(head, _float_values(head, body, marks))


def load_binary(path: str | Path, exclusion: Grid | BinaryGrid | None = None) -> BinaryGrid:
    """Read an ASCII grid raster from disk as `to_binary(load_grid(path), exclusion)` classifies it.

    A body that the stride decode takes is classified from its digits, and
    no float copy of it is made; any other body from the float values of
    `load_grid`'s general route. Values, header fields and errors are those
    of the composed form.

    Raises:
        GridFormatError: As `load_grid` raises it.
        ValueError: As `to_binary` raises it.
    """
    head, body, marks = _read_raster(path)
    nodata = _nodata_mask(body, head.nodata)  # a digit equal to the sentinel is nodata too
    if marks is not None:
        nodata |= marks
    del marks
    return _binary(body, _excluded_cells(nodata, head, exclusion), head)


def load_scores(path: str | Path, exclusion: Grid | BinaryGrid | None = None) -> ScoreGrid:
    """Read an ASCII grid raster from disk as `to_scores(load_grid(path), exclusion)` interprets it.

    The parsed values are classified in place, so that no second float copy
    of them is made. Values, mask, header fields and errors are those of the
    composed form.

    Raises:
        GridFormatError: As `load_grid` raises it.
        ValueError: As `to_scores` raises it.
    """
    head, body, marks = _read_raster(path)
    values = _float_values(head, body, marks)
    del body, marks
    return _scores(values, _excluded_cells(_nodata_mask(values, head.nodata), head, exclusion), head)


def _read_raster(path: str | Path) -> tuple[_Header, NDArray[Any], NDArray[np.bool_] | None]:
    """The header of the ASCII grid at `path`, and its body decoded.

    A body in canonical single-digit form comes back as `_stride_body`
    gives it: uint16 digits and the nodata marks (None without any). Any
    other body comes back as the float64 values of `_parse_body`, with None
    for the marks. Either array is owned and writable.

    Raises:
        GridFormatError: See `load_grid`.
    """
    try:
        data = Path(path).read_bytes()
        if b"\r" in data:  # "\r\n" and "\r" end a line too
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not data.isascii():
            pos = int(np.argmax(np.frombuffer(data, np.uint8) >= 0x80))
            raise GridFormatError(f"non-ASCII byte {data[pos]:#04x}", line=data.count(b"\n", 0, pos) + 1)

        header: dict[str, float] = {}
        start = 0  # of the next line; past the end when the last line has been read
        for i, key in enumerate(_HEADER_KEYS):
            if start > len(data):
                raise GridFormatError("missing header line", line=i + 1)
            end = data.find(b"\n", start)
            if end < 0:
                end = len(data)
            line = data[start:end].decode("ascii")
            start = end + 1
            parts = line.split()
            if len(parts) != 2 or parts[0].lower() != key:
                raise GridFormatError(f"expected '{key} <value>', got {line!r}", line=i + 1)
            try:
                header[key] = float(parts[1])
            except ValueError:
                raise GridFormatError(f"non-numeric {key}: {parts[1]!r}", line=i + 1) from None
            if key in _HEADER_RULES:
                rule, ok = _HEADER_RULES[key]
                if not ok(header[key]):
                    raise GridFormatError(f"{key} must be {rule}, got {parts[1]!r}", line=i + 1)
        nodata_text = parts[1]  # the last header line's value, as written

        ncols, nrows = int(header["ncols"]), int(header["nrows"])
        head = _Header(
            (nrows, ncols), header["cellsize"], header["xllcorner"], header["yllcorner"], header["nodata_value"]
        )

        # Tolerate trailing newlines (canonical files end with one "\n").
        end = len(data)
        while end > start and data[end - 1] == ord("\n"):
            end -= 1

        # A body that the stride decode takes has exactly nrows rows.
        strided = _stride_body(data, start, end, nrows, ncols, nodata_text)
        if strided is not None:
            return head, *strided
        # Counted first: the parse reads no more than nrows rows.
        found = data.count(b"\n", start, end) + 1 if end > start else 0
        if found != nrows:
            raise GridFormatError(f"expected {nrows} rows of values, found {found}", line=len(_HEADER_KEYS) + found + 1)
        return head, _parse_body(data, start, end, nrows, ncols), None
    except GridFormatError as exc:
        exc.args = (f"{path}: {exc}",)  # the line number stays in exc.line
        raise


def _float_values(head: _Header, body: NDArray[Any], marks: NDArray[np.bool_] | None) -> FloatArray:
    """The float64 values of a body that `_read_raster` gave: the digits cast, each mark the nodata sentinel."""
    if body.dtype == np.float64:
        return body
    values = body.astype(np.float64)
    if marks is not None:
        np.putmask(values, marks, head.nodata)
    return values


def _grid(head: _Header, values: FloatArray) -> Grid:
    """A `Grid` of freshly parsed `values`, which it keeps uncopied."""
    values.setflags(write=False)
    return Grid(values, head.cell_size, head.origin_x, head.origin_y, head.nodata)


def _stride_body(
    data: bytes, start: int, end: int, nrows: int, ncols: int, nodata_text: str
) -> tuple[NDArray[np.uint16], NDArray[np.bool_] | None] | None:
    """The digits and nodata marks of the body `data[start:end]`, or None unless it has the single-digit layout.

    The layout: every token is one decimal digit or exactly `nodata_text`,
    tokens are separated by single spaces, and every row, the last included,
    ends in "\n". Each nodata token longer than one byte is first replaced
    by the byte 0x80, which ASCII text cannot hold, so no other token can
    pass for it. Then cell k of row r is the two bytes at 2 * (r * ncols + k)
    of the body, its digit and its separator, and nothing needs splitting.

    The digits are a uint16 array of shape (nrows, ncols), 0 at a nodata
    token; the marks are True at the nodata tokens, and None when the body
    holds none longer than one byte (a one-byte one is a digit).
    """
    if end == len(data):  # the last row has no "\n"
        return None
    n = nrows * ncols
    # Each nodata token is len(nodata_text) - 1 bytes longer than a digit.
    # Checked before anything is allocated: the header's shape may be huge.
    excess, shrink = end + 1 - start - 2 * n, len(nodata_text) - 1
    if excess and (excess < 0 or not shrink or excess % shrink or excess // shrink > n):
        return None
    if excess:
        token = nodata_text.encode("ascii")
        # The first row is checked alone before the whole text is counted
        # and copied: it is 2 * ncols bytes plus `shrink` per nodata token.
        row_end = data.find(b"\n", start) + 1  # found: the body ends in "\n"
        if row_end - start != 2 * ncols + data.count(token, start, row_end) * shrink:
            return None
        start -= data.count(token, 0, start) * shrink  # no token spans the newline before the body
        tail = len(data) - end  # only newlines, so the same after the replace
        data = data.replace(token, b"\x80")
        if len(data) - tail + 1 - start != 2 * n:
            return None
    # Read as a little-endian word, a cell less the word of "0" and its
    # separator is its digit when both bytes are right, 0x80 - ord("0") at a
    # nodata mark, and above 9 otherwise (208 or more for a wrong separator).
    cells = np.frombuffer(data, "<u2", count=n, offset=start).reshape(nrows, ncols)
    zero = np.full(ncols, ord(" ") << 8 | ord("0"), "<u2")
    zero[-1] = ord("\n") << 8 | ord("0")
    digits = cells - zero
    del cells, data  # freeing the marked copy of the text, if one was made
    marks = None
    if excess:
        marks = digits == 0x80 - ord("0")
        np.putmask(digits, marks, 0)
    if digits.max() > 9:
        return None
    return digits, marks


def _parse_body(data: bytes, start: int, end: int, nrows: int, ncols: int) -> FloatArray:
    """Values of the body `data[start:end]`: nrows lines of ncols values each.

    Well-formed rows go through numpy's C reader, straight from the bytes
    and into one array of nrows rows. Anything else goes through the
    per-line loop, which raises on the first bad line and also takes the
    tokens that `float` accepts and numpy does not (such as "1_0").
    """
    fh = io.BytesIO(data)  # shares the bytes
    fh.seek(start)
    try:
        values = np.loadtxt(_unblank_lines(fh), dtype=np.float64, comments=None, max_rows=nrows, ndmin=2)
    except ValueError:
        pass
    else:
        if values.shape == (nrows, ncols):
            return values

    rows = []
    for r, line in enumerate(str(memoryview(data)[start:end], "ascii").split("\n")):
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


def _unblank_lines(lines: Iterable[bytes]) -> Iterator[bytes]:
    """Yield `lines`, and raise ValueError at the first blank one.

    Under `max_rows`, loadtxt would skip a blank line with a warning; the
    per-line loop names it instead.
    """
    for line in lines:
        if line.decode("ascii").isspace():  # as loadtxt reads whitespace, "\x1c" included
            raise ValueError("blank line")
        yield line


#: Cells in one block that `write_grid` writes, `build_confusion` tallies or
#: `_nth_largest` bins at a time, so that the working arrays stay small next
#: to the grid.
_BLOCK_CELLS = 1 << 16

#: The text byte of each `BinaryGrid` code, indexed by the code: EXCLUDED (-1) picks the gap mark.
_CODE_BYTES = np.array([ord("0"), ord("1"), 0x80], np.uint8)


def write_grid(grid: Grid | BinaryGrid | ScoreGrid, path: str | Path) -> None:
    """Write a raster as an ASCII grid (canonical form).

    Every body value is written as `format_floats` writes it, in blocks of
    whole rows of about `_BLOCK_CELLS` cells. A `BinaryGrid` block goes by
    stride from its codes (`_stride_text`), and a `ScoreGrid` block in digit
    slots (`_slot_text`), which never read the value under an excluded cell.
    A `Grid` block goes by stride if it holds only the integers 0 to 9, and
    in slots otherwise. Both routes write an excluded cell as the byte 0x80,
    which ASCII text cannot hold, and each block's marks are then replaced
    by the `NODATA_value` text, the inverse of `_stride_body`'s marking.

    The header's `NODATA_value` is `format_floats`' text of `nodata`, or of
    `Grid.nodata` for the classified containers. Its origin and cell size are
    written by `format_floats` when that text reads back as the same float,
    and by `repr` otherwise, so a reloaded grid lines up with its source.
    """
    token = format_float(grid.nodata if isinstance(grid, Grid) else Grid.nodata)
    x, y, size = (_exact_text(v) for v in (grid.origin_x, grid.origin_y, grid.cell_size))
    head = [f"ncols {grid.cols}", f"nrows {grid.rows}", f"xllcorner {x}", f"yllcorner {y}"]
    head += [f"cellsize {size}", f"NODATA_value {token}"]
    step = max(1, _BLOCK_CELLS // grid.cols)
    with Path(path).open("wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("ascii"))
        for r in range(0, grid.rows, step):
            block = grid.values[r : r + step]
            gap = grid.excluded[r : r + step] if isinstance(grid, ScoreGrid) else None
            text = _stride_text(block) if gap is None else None
            text = _slot_text(block, gap) if text is None else text
            fh.write(text.tobytes().replace(b"\x80", token.encode("ascii")))


def _exact_text(x: float) -> str:
    """`format_float(x)` if it reads back as `x` (NaN as NaN), else the shortest text that does."""
    text = format_float(x)
    return text if float(text) == x or x != x else repr(float(x))


def _stride_text(values: FloatArray | IntArray) -> NDArray[np.uint8] | None:
    """The body text of `values` as bytes, or None unless every value is an integer from 0 to 9.

    `BinaryGrid` codes (int8) always take it, an excluded cell as the gap
    mark. -0.0 prints as "-0" and NaN as "nan", so both go to `_slot_text`.
    """
    if values.dtype == np.int8:
        digits = _CODE_BYTES[values]
    elif not (values.min() >= 0.0 and values.max() <= 9.0) or np.signbit(values).any():  # a NaN fails min
        return None
    else:
        digits = values.astype(np.uint8)
        if not (digits == values).all():
            return None
        digits += np.uint8(ord("0"))
    text = np.full((values.shape[0], 2 * values.shape[1]), ord(" "), dtype=np.uint8)
    text[:, ::2] = digits
    text[:, -1] = ord("\n")
    return text


@functools.cache
def _digit_words() -> tuple[NDArray[np.uint64], NDArray[np.uint64]]:
    """The text of a fixed-point cell k = 1000 * hi + lo (0 <= k <= 1e6), as little-endian words.

    `head[2 * hi + (lo == 0)]` holds text bytes 0-4: "0." and the three
    digits of hi, or "0" and "1" alone for k = 0 and k = 1e6. `tail[lo]`
    holds bytes 5-7, the three digits of lo. Trailing zeros are NUL bytes,
    and so is every byte past the text; OR-ing the two words gives the text.
    """
    head = []
    for hi in range(1001):
        digits = f"{hi // 1000}.{hi % 1000:03d}"
        head += [digits, digits.rstrip("0").rstrip(".")]
    tail = [b"\0" * 5 + f"{lo:03d}".rstrip("0").encode("ascii") for lo in range(1000)]
    words = np.array(head, "S8").view("<u8"), np.array(tail, "S8").view("<u8")
    for table in words:
        table.setflags(write=False)  # shared by every call
    return words


def _slot_text(values: FloatArray, gap: NDArray[np.bool_] | None = None) -> NDArray[np.uint8]:
    """The body text of `values` as bytes, built in fixed-width slots.

    A fixed-point cell is +0.0, or a value v in [1e-4, 1] equal to k / 1e6
    for k = rint(v * 1e6); `format_floats` writes it as the integer digits
    of k after "0.", trailing zeros dropped, or as "0" or "1". Each cell
    gets a slot of the same width: its text, NUL bytes, and its separator in
    the last byte. A fixed-point cell's text comes from `_digit_words`, and a
    `gap` cell's is the byte 0x80 whatever it holds; every other value (a
    nodata sentinel, -0.0, NaN, inf, a score below 1e-4, an unrounded score,
    an integer above 1) is formatted once per distinct value and gathered
    into its slots. Dropping the NUL bytes then leaves the body.
    """
    flat = values.ravel()
    live = np.True_ if gap is None else ~gap.ravel()
    near = (flat >= 1e-4) & (flat <= 1.0)  # False at NaN
    k = np.rint(np.where(near, flat, 0.0) * 1e6).astype(np.int32)  # no NaN or inf reaches the cast
    rest = ((k / 1e6 != flat) | (np.signbit(flat) & ~near)) & live  # -0.0 is not fixed-point
    np.putmask(k, rest, 0)  # so that a rest cell's digits widen no slot
    n = flat.size
    head, tail = _digit_words()
    hi, lo = np.divmod(k, 1000)
    words = (head[2 * hi + (lo == 0)] | tail[lo]).astype("<u8", copy=False)
    del k, hi, lo  # the slots below are the largest array
    if gap is not None:
        words[gap.ravel()] = 0x80
    others = np.flatnonzero(rest)
    distinct, inverse = np.unique(flat[others], return_inverse=True)
    texts = format_floats(distinct.tolist())
    fixed_width = (int(words.max()).bit_length() + 7) // 8
    width = max([fixed_width, *map(len, texts)]) + 1

    slots = np.zeros((n, width), np.uint8)
    slots[:, :fixed_width] = words.view(np.uint8).reshape(n, 8)[:, :fixed_width]
    if texts:
        table = np.array(texts, f"S{width - 1}").view(np.uint8).reshape(-1, width - 1)
        slots[others, :-1] = table[inverse]
    ends = slots.reshape(*values.shape, width)[:, :, -1]
    ends[:] = ord(" ")
    ends[:, -1] = ord("\n")
    text = slots.ravel()
    return text[text != 0]


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def check_aligned(
    a: Grid | BinaryGrid | ScoreGrid, a_role: str, b: Grid | BinaryGrid | ScoreGrid, b_role: str
) -> None:
    """Raise unless two grids cover the same cells.

    Shapes must be equal, and cell sizes and lower-left origins equal within
    a relative 1e-9 of the cell size (a header from another writer may round
    them; a NaN matches a NaN).

    Raises:
        ValueError: Naming the first field that differs, both values and
            both roles.
    """
    if a.shape != b.shape:
        raise ValueError(f"{a_role} shape {a.shape} != {b_role} shape {b.shape}")
    tol = 1e-9 * max(a.cell_size, b.cell_size)
    for name in ("cell_size", "origin_x", "origin_y"):
        x, y = _plain(getattr(a, name)), _plain(getattr(b, name))
        if not (abs(x - y) <= tol or x == y or (math.isnan(x) and math.isnan(y))):
            raise ValueError(f"{a_role} {name} {x!r} != {b_role} {name} {y!r}: the rasters do not line up")


def _nodata_mask(values: NDArray[Any], nodata: float) -> NDArray[np.bool_]:
    """True where `values` holds `nodata` (NaN matches NaN)."""
    return np.isnan(values) if math.isnan(nodata) else values == nodata


def _excluded_cells(
    nodata: NDArray[np.bool_], grid: Grid | _Header, exclusion: Grid | BinaryGrid | None
) -> NDArray[np.bool_]:
    """`nodata`, the nodata cells of `grid`, with the cells nonzero (NaN included) in `exclusion` added."""
    if exclusion is not None:
        check_aligned(exclusion, "exclusion", grid, "grid")
        nodata |= exclusion.values != 0
    return nodata


def to_binary(grid: Grid, exclusion: Grid | BinaryGrid | None = None) -> BinaryGrid:
    """Classify a grid of 1.0 (event) and 0.0 (non-event) cells into a BinaryGrid.

    Cells that are nodata in `grid`, or nonzero in `exclusion`, become
    EXCLUDED. The exclusion rule reads only the values: a NaN cell is
    nonzero, so a NaN nodata sentinel excludes its cells, while a nodata
    sentinel of 0 is zero and leaves its cells live. Every remaining cell
    must hold exactly 1.0 or 0.0.

    Raises:
        ValueError: An exclusion grid that does not line up (see
            `check_aligned`), or an unexpected value outside the exclusion
            (message names the flat cell index).
    """
    return _binary(grid.values, _excluded_cells(grid.nodata_mask(), grid, exclusion), grid)


def _binary(values: NDArray[Any], excluded: NDArray[np.bool_], grid: Grid | _Header) -> BinaryGrid:
    """The `BinaryGrid` of `values` (floats, or `_stride_body`'s digits) on `grid`'s cells, by `to_binary`'s rule."""
    out = np.empty(values.shape, np.int8)
    np.equal(values, 1, out=out)  # 1 at an event cell, 0 elsewhere
    known = values == 0
    known |= excluded
    known |= out.view(np.bool_)
    if not known.all():
        idx = int(np.argmin(known))
        value = float(values.flat[idx])
        raise ValueError(f"unexpected value {value!r} at flat index {idx}: not 1.0/0.0 and not excluded")
    del known
    np.putmask(out, excluded, EXCLUDED)
    out.setflags(write=False)  # handed over to the BinaryGrid, which keeps it uncopied
    return BinaryGrid(out, grid.cell_size, grid.origin_x, grid.origin_y)


def to_scores(grid: Grid, exclusion: Grid | BinaryGrid | None = None) -> ScoreGrid:
    """Interpret a value grid as scores in [0, 1] with exclusions (stored as 0.0)."""
    return _scores(grid.values.copy(), _excluded_cells(grid.nodata_mask(), grid, exclusion), grid)


def _scores(values: FloatArray, excluded: NDArray[np.bool_], grid: Grid | _Header) -> ScoreGrid:
    """The `ScoreGrid` of `values` on `grid`'s cells, `values` zeroed in place where `excluded`.

    Both arrays are handed over to the ScoreGrid uncopied.
    """
    np.putmask(values, excluded, 0.0)
    values.setflags(write=False)
    excluded.setflags(write=False)
    return ScoreGrid(values, excluded, grid.cell_size, grid.origin_x, grid.origin_y)


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
            of change to a known quantity. The selection is linear: the cut
            is the quantity-th largest live score (`_nth_largest`); every
            live cell above the cut becomes 1, and then the lowest-indexed
            live cells equal to it fill the count (-0.0 equals 0.0).

    Raises:
        ValueError: Both or neither mode given, value refused by
            `check_unit`, quantity refused by `check_count`, or quantity
            above the number of non-excluded cells.
    """
    if (value is None) == (quantity is None):
        raise ValueError("give exactly one of value= or quantity=")

    vals = scores.values
    if value is not None:
        out = (vals >= check_unit("value", value)).astype(np.int8)
    else:
        check_count("quantity", quantity)
        live = ~scores.excluded
        n_live = int(np.count_nonzero(live))
        if quantity > n_live:
            raise ValueError(f"quantity {quantity} outside [0, {n_live}] non-excluded cells")
        cut = _nth_largest(vals, live, quantity) if quantity else np.inf  # no score reaches inf
        out = np.empty(vals.shape, np.int8)
        above = out.view(np.bool_)
        np.greater(vals, cut, out=above)
        above &= live
        need = quantity - int(np.count_nonzero(above))
        flat, flat_live, flat_out = vals.ravel(), live.ravel(), out.ravel()
        for i in range(0, flat.size, _BLOCK_CELLS):  # the lowest-indexed ties, a block at a time, until the count
            if not need:
                break
            ties = np.flatnonzero((flat[i : i + _BLOCK_CELLS] == cut) & flat_live[i : i + _BLOCK_CELLS])[:need]
            flat_out[i + ties] = 1
            need -= ties.size
    np.putmask(out, scores.excluded, EXCLUDED)
    out.setflags(write=False)  # handed over to the BinaryGrid, which keeps it uncopied
    return BinaryGrid(out, scores.cell_size, scores.origin_x, scores.origin_y)


#: Bins of `_nth_largest` at each level: at the first, a live score v falls in
#: bin int(v * _SCORE_BINS), so 1.0 has a bin of its own.
_SCORE_BINS = 256

#: Levels of `_nth_largest`'s bins at most: the finest are 256**-6 = 2**-48 wide.
_SCORE_LEVELS = 6


def _nth_largest(vals: FloatArray, live: NDArray[np.bool_], n: int) -> float:
    """The n-th largest of the scores `vals` at `live` (1 <= n <= live cells), without a copy of them.

    The live scores, all in [0, 1], are counted into `_SCORE_BINS` bins, a
    block of `_BLOCK_CELLS` cells at a time. When the bin that holds the n-th
    largest holds more than a block of scores, they are checked for a single
    value, which is then the answer; if they hold more than one, that bin is
    split into bins of its own and counted again, for at most
    `_SCORE_LEVELS` levels. Only the scores of the last bin are gathered and
    partitioned. Bin b of a level holds exactly the scores in
    [lo + b / scale, lo + (b + 1) / scale): lo is a sum of powers of two,
    either 0 or at least as wide as the level's range, so for a score v in
    the range, v * scale - lo * scale is exact.
    """
    flat, flat_live = vals.ravel(), live.ravel()
    lo, scale = 0.0, float(_SCORE_BINS)
    for level in range(_SCORE_LEVELS):
        counts = np.zeros(_SCORE_BINS + 2, np.intp)
        for i in range(0, flat.size, _BLOCK_CELLS):
            bins = flat[i : i + _BLOCK_CELLS] * scale
            dump = ~flat_live[i : i + _BLOCK_CELLS]  # an excluded cell may hold NaN or 5.0
            if level:  # the first level's range, [0, 1], holds every live score; a finer one may not
                bins -= lo * scale
                np.minimum(bins, _SCORE_BINS, out=bins)  # every score above the range shares its top bin
                dump |= bins < 0
            np.putmask(bins, dump, _SCORE_BINS + 1)
            counts += np.bincount(bins.astype(np.intp), minlength=_SCORE_BINS + 2)
        at_or_above = np.cumsum(counts[_SCORE_BINS::-1])[::-1]  # live scores in bin b or higher, at b
        b = int(np.flatnonzero(at_or_above >= n)[-1])
        lo, hi = lo + b / scale, lo + (b + 1) / scale
        if counts[b] <= _BLOCK_CELLS or level == _SCORE_LEVELS - 1:
            break
        least, most = np.inf, -np.inf
        for block, here in _in_range(flat, flat_live, lo, hi):
            least = min(least, np.min(block, where=here, initial=np.inf))
            most = max(most, np.max(block, where=here, initial=-np.inf))
        if least == most:
            return float(least)
        scale *= _SCORE_BINS
    rank = n - int(at_or_above[b] - counts[b])  # of the n-th largest among the scores in bin b
    members = np.empty(int(counts[b]), np.float64)
    filled = 0
    for block, here in _in_range(flat, flat_live, lo, hi):
        found = block[here]
        members[filled : filled + found.size] = found
        filled += found.size
    members.partition(members.size - rank)
    return float(members[members.size - rank])


def _in_range(
    flat: FloatArray, flat_live: NDArray[np.bool_], lo: float, hi: float
) -> Iterator[tuple[FloatArray, NDArray[np.bool_]]]:
    """Each block of `_BLOCK_CELLS` scores of `flat`, with its live cells in [lo, hi)."""
    for i in range(0, flat.size, _BLOCK_CELLS):
        block = flat[i : i + _BLOCK_CELLS]
        yield block, (block >= lo) & (block < hi) & flat_live[i : i + _BLOCK_CELLS]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
