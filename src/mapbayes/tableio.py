"""Table I/O: CSV tables read and written one way, UTF-8 text, stable JSON.

Every CSV input is read by `read_csv`, which takes one parser per column,
and every CSV output is written by `write_csv`; `column_rows` turns whole
columns into rows, floats through `raster.format_floats`. `write_json`
writes floats with the same six significant digits, so byte-identical
reruns hash identically. The module needs only `raster`, so a subcommand
that reads or writes a table loads no analysis module for it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from numpy.typing import NDArray

from .raster import format_float, format_floats

#: Rows that `column_rows` formats at a time.
_BLOCK_ROWS = 4096


def read_csv(path: str | Path, columns: Mapping[str, Callable[[str], Any]]) -> tuple[list[Any], ...]:
    """The requested columns of a CSV file with a header line, parsed.

    `columns` maps each column to read to its parser, which holds the
    column's rules and refuses a value by raising `ValueError`; the columns
    come back as lists in that order. Fields are stripped and blank lines
    skipped; other columns, and any column order, are accepted. Each row is
    parsed as it is read, so the first fault in the file is the one raised.

    Raises:
        ValueError: Naming the path: a non-UTF-8 byte (with its line, and
            before any other fault), a missing column, a row whose field
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
