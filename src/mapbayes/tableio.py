"""Tables: one column table class, CSV read and written one way, UTF-8 text, stable JSON.

`ColumnTable` is the base of `RunTable` and `BoxTable`. Every CSV input is
read by `read_csv`, which takes one parser per column (`unit_value` and
`int64_id` are shared), and every CSV output is written by `write_csv`;
`column_rows` turns whole columns into rows, floats through
`raster.format_floats`. `write_json` writes floats with the same six
significant digits, so byte-identical reruns hash identically. The module
needs only `raster`, so a subcommand loads no analysis module for a table.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping, TypeVar

import numpy as np
from numpy.typing import DTypeLike, NDArray

from .raster import check_unit, format_float, format_floats

#: Rows that `column_rows` formats at a time.
_BLOCK_ROWS = 4096

_Table = TypeVar("_Table", bound="ColumnTable")


class ColumnTable:
    """Read-only columns of one length, one row per item: the base of the frozen dataclass tables.

    A subclass's init fields, named with their dtypes in `_dtypes`, are each
    copied into a read-only array of that dtype; its `__post_init__` checks
    the rows and sets its derived fields with `_set`, once. A boolean mask or
    an array of row positions selects a sub-table by slicing every column,
    with nothing checked or derived again, and `group_by` splits the rows by
    one column's values, keeping their order. Rows are not iterated.
    """

    #: The table's name in its messages, and its argument columns with their dtypes.
    _name: ClassVar[str]
    _dtypes: ClassVar[Mapping[str, DTypeLike]]
    __iter__ = None

    def __post_init__(self) -> None:
        for name, dtype in self._dtypes.items():
            try:
                self._set(name, np.array(getattr(self, name), dtype=dtype))
            except (OverflowError, TypeError) as exc:
                raise ValueError(f"{self._name} column {name!r}: {exc}") from None
        shapes = {getattr(self, name).shape for name in self._dtypes}
        if len(shapes) != 1 or len(min(shapes)) != 1:
            raise ValueError(f"{self._name} columns must be 1-D and of one length, got shapes {sorted(shapes)}")

    def _set(self, name: str, column: NDArray[Any]) -> None:
        column.setflags(write=False)
        object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return getattr(self, next(iter(self._dtypes))).size

    def __getitem__(self: _Table, rows: NDArray[np.bool_] | NDArray[np.intp]) -> _Table:
        sub = object.__new__(type(self))
        for f in fields(self):
            sub._set(f.name, getattr(self, f.name)[rows])
        return sub

    def group_by(self: _Table, column: str) -> Iterator[tuple[Any, _Table]]:
        """(value, sub-table of its rows) per distinct `column` value, ascending, each sliced when reached."""
        order = np.argsort(getattr(self, column), kind="stable")
        ordered = getattr(self, column)[order]
        # Where each value's run of rows starts; the cut to `ordered.size` leaves none in an empty table.
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]][: ordered.size])
        for key, rows in zip(ordered[starts].tolist(), np.split(order, starts[1:])):
            yield key, self[rows]


def unit_value(text: str) -> float:
    """The number `text` spells if it lies in [0, 1]: a predictive value or a KDE sample."""
    return check_unit("value", float(text))


def int64_id(text: str) -> int:
    """The integer `text` spells if it fits in int64: a box id or a cycle."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"id must fit in a 64-bit integer, got {text!r}")
    return value


def read_csv(path: str | Path, columns: Mapping[str, Callable[[str], Any]]) -> tuple[list[Any], ...]:
    """The requested columns of a CSV file with a header line, parsed.

    `columns` maps each column to read to its parser, which holds the
    column's rules and refuses a value by raising `ValueError`; the columns
    come back as lists in that order. Fields are stripped and blank lines
    skipped; other columns, and any column order, are accepted. Each row is
    parsed as it is read, so the first fault in the file is the one raised.

    Raises:
        ValueError: Naming the path: a non-UTF-8 byte (with its line, and
            before any other fault), a missing column, a column that the
            header names more than once (one of them would be read
            silently), a row whose field
            count differs from the header's (with its line), a value its
            parser refuses (with its line and column), or no rows at all.
    """
    read_utf8(path)  # the text reader decodes ahead of the rows, so a bad byte is sought first
    out: tuple[list[Any], ...] = tuple([] for _ in columns)
    header = None
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not "".join(row).strip():
                continue
            if header is None:
                header = [f.strip() for f in row]
                missing = [name for name in columns if name not in header]
                if missing:
                    raise ValueError(f"{path}: missing columns {missing}; needs columns {list(columns)}")
                twice = [name for name in columns if header.count(name) > 1]
                if twice:
                    raise ValueError(f"{path}: the header names column {twice[0]!r} more than once")
                spec = [(col, name, header.index(name), parse) for col, (name, parse) in zip(out, columns.items())]
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, the header has {len(header)}")
            for col, name, i, parse in spec:
                try:
                    col.append(parse(row[i].strip()))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {reader.line_num}, column {name!r}: {exc}") from None
    if not (out and out[0]):
        raise ValueError(f"{path} lists no inputs")
    return out


def read_utf8(path: str | Path) -> str:
    """The text of a UTF-8 file; a byte that is not UTF-8 is refused, naming the path and its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable[Any]]) -> Path:
    """Write a header line and rows as UTF-8 CSV with newline line endings; returns `path`."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def column_rows(*columns: NDArray[Any]) -> Iterator[tuple[Any, ...]]:
    """The rows of equal-length columns, a block at a time, float columns through `format_floats`."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[start : start + _BLOCK_ROWS].tolist() for col in columns]
        yield from zip(*(format_floats(b) if col.dtype.kind == "f" else b for col, b in zip(columns, block)))


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
