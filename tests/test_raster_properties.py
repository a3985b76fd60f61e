"""Property tests for the input formats, the classify stage and the tally.

`load_grid` decodes single-digit bodies by stride, parses other well-formed
bodies with numpy's C reader and falls back to a per-line loop for everything
else. These tests pin it, over generated files, to the plain per-token parser
it replaced, pin the stride decode to the general path over generated digit
grids and their near misses, and pin the writer's round trip. The writer's
two routes, stride and digit slots, are pinned byte for byte to per-value
`.6g` text: over digit grids, over mostly fixed-point grids with values one
ulp off the form, on its bounds and outside it, and over grids of mostly
unrounded, extreme, negative and large values. A `BinaryGrid` or `ScoreGrid`
is written as its `as_grid()` value grid is, whatever its excluded cells hold.
`tableio.read_csv` parses each CSV row as it reads it; it is pinned to the
row-by-row reference reader in conftest.py. The classify tests pin the linear
top-n selection to a stable argsort, `to_binary` to a per-cell rule, and the
tally to the cells live in both maps. `load_binary` and `load_scores` are
pinned to `to_binary` and `to_scores` after `load_grid`, value, mask, header
and error alike, over stride and general bodies, one-byte and NaN nodata,
and exclusion grids that line up, cover every cell or do not line up, and
an exclusion map kept as a one-byte mask classifies as the map does.
Tracemalloc guards hold what they, the general parse, the stride check, the
`quantity` cut and the blocked tally save on a 1000x1000 map. `ScoreGrid`
refuses a NaN or out-of-range live score as a copy of its live cells would. The predictive values of any tally lie in
[0, 1] or are undefined, and the two conventions agree at s = t = 1/2.
"""

import csv
import functools
import io
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapbayes import (
    EXCLUDED,
    BinaryGrid,
    ConfusionMatrix,
    Convention,
    Grid,
    GridFormatError,
    ScoreGrid,
    agreement_rates,
    build_confusion,
    likelihood_ratios,
    load_binary,
    load_grid,
    load_scores,
    predictive_values,
    threshold_scores,
    to_binary,
    to_scores,
    write_grid,
)
from mapbayes import raster, report, tableio
from mapbayes.confusion import AgreementRates

from conftest import reference_read_csv

HEADER_LINES = 6


def _is_number(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def reference_load_values(path, ncols, nrows):
    """The body parser before numpy's reader: one `float` per token."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    body = lines[HEADER_LINES:]
    while body and body[-1] == "":
        body.pop()
    if len(body) != nrows:
        raise GridFormatError(f"expected {nrows} rows of values, found {len(body)}", line=HEADER_LINES + len(body) + 1)
    values = np.empty((nrows, ncols), dtype=np.float64)
    for r, line in enumerate(body):
        lineno = HEADER_LINES + r + 1
        tokens = line.split()
        if len(tokens) != ncols:
            raise GridFormatError(f"expected {ncols} values, found {len(tokens)}", line=lineno)
        try:
            values[r] = [float(t) for t in tokens]
        except ValueError:
            bad = next(t for t in tokens if not _is_number(t))
            raise GridFormatError(f"non-numeric value {bad!r}", line=lineno) from None
    return values


@pytest.fixture(scope="module")
def grid_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "g.asc"


# ---------------------------------------------------------------------------
# Parser against the per-token reference
# ---------------------------------------------------------------------------

#: Tokens that the two number parsers could read differently, or that no
#: parser accepts.
ODD_TOKENS = [
    "1_0", "-2_5.0_1", "_1", "#", "#1", "nan", "-nan", "NaN", "inf", "-Infinity", "+inf", "1e400",
    "-1e-400", "-0", "+.5", "1.", ".", "e5", "1e", "0x10", "1,2", "--1", "x", "1d5", '"1"', "'1'", "\x00",
]

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = finite.map(repr) | finite.map("{:.6g}".format) | st.integers(-10**6, 10**6).map(str)
tokens = numbers | st.sampled_from(ODD_TOKENS)
separators = st.sampled_from([" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1f"])
endings = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def grid_texts(draw):
    """A valid header, then body lines near the declared shape with odd
    tokens, blank and whitespace-only lines and mixed line endings."""
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 4))
    n_lines = draw(st.integers(max(0, nrows - 1), nrows + 1))
    body = []
    for _ in range(n_lines):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "ragged", "blank", "space"]))
        if kind == "blank":
            line = ""
        elif kind == "space":
            line = draw(separators)
        else:
            width = ncols if kind == "row" else draw(st.integers(0, ncols + 1))
            sep = draw(separators)
            line = sep.join(draw(st.lists(tokens, min_size=width, max_size=width)))
            line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\t"]))
        body.append(line + draw(endings))
    tail = draw(st.sampled_from(["", "", "\n", "\n\n"]))
    header = f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value -9999\n"
    return ncols, nrows, header + "".join(body) + tail


@settings(max_examples=400, deadline=None)
@given(grid_texts())
def test_load_grid_matches_per_token_reference(grid_path, case):
    ncols, nrows, text = case
    grid_path.write_bytes(text.encode("ascii"))
    try:
        expected = reference_load_values(grid_path, ncols, nrows)
    except GridFormatError as exc:
        with pytest.raises(GridFormatError) as err:
            load_grid(grid_path)
        assert str(err.value) == f"{grid_path}: {exc}"
        assert err.value.line == exc.line
    else:
        got = load_grid(grid_path).values
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bitwise, NaN payloads and -0.0 included


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_well_formed_bodies_parse_bitwise_equal(grid_path, data):
    """Every row well formed, so numpy's reader does all the work."""
    ncols = data.draw(st.integers(1, 6))
    nrows = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.lists(numbers, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    header = f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value -9999\n"
    grid_path.write_text(header + "".join(" ".join(r) + "\n" for r in rows))
    expected = reference_load_values(grid_path, ncols, nrows)
    assert load_grid(grid_path).values.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Stride decode and encode against the general path
# ---------------------------------------------------------------------------


def general_outcome(path, ncols, nrows):
    """What the general path gives for the body: `_parse_body`'s values, or its error named as `load_grid` names it."""
    data = path.read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = 0
    for _ in range(HEADER_LINES):
        start = data.index(b"\n", start) + 1
    end = len(data.rstrip(b"\n"))
    try:
        found = len(data[start:end].split(b"\n")) if end > start else 0
        if found != nrows:
            raise GridFormatError(f"expected {nrows} rows of values, found {found}", line=HEADER_LINES + found + 1)
        return raster._parse_body(data, start, end, nrows, ncols)
    except GridFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        return exc


def load_outcome(path):
    """`load_grid`'s values or its error, and whether the stride decode took the body."""
    strided = []

    def stride(*args):
        strided.append(stride_body(*args))
        return strided[-1]

    stride_body = raster._stride_body
    with mock.patch.object(raster, "_stride_body", stride):
        try:
            got = load_grid(path).values
        except GridFormatError as exc:
            got = exc
    return got, bool(strided) and strided[0] is not None


def assert_same_outcome(got, expected):
    if isinstance(expected, GridFormatError):
        assert isinstance(got, GridFormatError), got
        assert (str(got), got.line) == (str(expected), expected.line)
    else:
        assert isinstance(got, np.ndarray), got
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bitwise, NaN payloads included


#: Nodata texts: the usual sentinel, short and long ones, one that is a digit,
#: one inside which a digit token could hide, and NaN spellings.
NODATA_TEXTS = ["-9999", "-1", "255", "5", "10", "nan", "-nan", "NaN", "1e3", "-0"]

digit_shapes = st.sampled_from([(1, 1), (1, 7), (7, 1)]) | st.tuples(st.integers(1, 6), st.integers(1, 6))


@st.composite
def digit_grids(draw):
    """Single-digit tokens in canonical layout, some of them the nodata text."""
    nrows, ncols = draw(digit_shapes)
    nodata = draw(st.sampled_from(NODATA_TEXTS))
    with_nodata = draw(st.booleans())
    cell = st.integers(0, 9).map(str) | (st.just(nodata) if with_nodata else st.nothing())
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    return nrows, ncols, nodata, rows


def grid_text(nrows, ncols, nodata, body):
    return f"ncols {ncols}\nnrows {nrows}\nxllcorner 0\nyllcorner 0\ncellsize 30\nNODATA_value {nodata}\n" + body


@settings(max_examples=300, deadline=None)
@given(digit_grids())
def test_digit_grids_load_by_stride_bit_equal_to_the_general_path(grid_path, case):
    nrows, ncols, nodata, rows = case
    grid_path.write_text(grid_text(nrows, ncols, nodata, "".join(" ".join(r) + "\n" for r in rows)))
    got, strided = load_outcome(grid_path)
    assert strided
    assert_same_outcome(got, general_outcome(grid_path, ncols, nrows))


@settings(max_examples=200, deadline=None)
@given(digit_grids())
def test_digit_grids_round_trip_byte_stable(grid_path, case):
    nrows, ncols, nodata, rows = case
    values = np.array([[float(t) for t in r] for r in rows])
    first, second = grid_path, grid_path.with_name("h.asc")
    write_grid(Grid(values, nodata=float(nodata)), first)
    write_grid(load_grid(first), second)
    assert second.read_bytes() == first.read_bytes()
    body = first.read_text().split("\n")[HEADER_LINES:-1]
    assert [line.split(" ") for line in body] == [[f"{v:.6g}" for v in row] for row in values.tolist()]


def reference_body(values):
    """The body text of `values`, one `.6g` token per value."""
    return "".join(" ".join(f"{v:.6g}" for v in row) + "\n" for row in values.tolist()).encode("ascii")


#: Values next to the digits 0-9 that must not be written by stride.
NOT_DIGITS = [-0.0, math.nan, math.inf, 0.5, 9.5, 10.0, -1.0, 1e-300, 8.999999999999998]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, digit_shapes, elements=st.integers(0, 9).map(float) | st.sampled_from(NOT_DIGITS)))
def test_stride_text_is_format_floats_or_declines(values):
    text = raster._stride_text(values)
    if all(v in range(10) and math.copysign(1.0, v) > 0 for v in values.ravel().tolist()):
        assert text is not None
        assert text.tobytes() == reference_body(values)
    else:
        assert text is None


def _ulp_step(k):
    return st.sampled_from([-math.inf, math.inf]).map(lambda to: math.nextafter(k / 1e6, to))


#: Fixed-point values, k / 1e6 for k in [0, 1e6], then the values that miss
#: the fixed form by one ulp or sit on its bounds, and the values that never
#: take it.
fixed_points = st.integers(0, 10**6).map(lambda k: k / 1e6) | st.sampled_from([0.5, 0.25, 0.000123, 0.01, 1e-4, 1.0])
near_misses = (
    st.integers(100, 10**6).flatmap(_ulp_step)
    | st.sampled_from([1e-4, 9.9999e-05, 8.3e-05, 1.0, math.nextafter(1.0, 2.0), 0.1234565])
)
off_form = st.integers(0, 9).map(float) | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, -9999.0, 12345678.0])
cell_shapes = st.tuples(st.integers(1, 8), st.integers(1, 8))


@st.composite
def mostly_fixed_grids(draw):
    """A grid of fixed-point values with up to a quarter of its cells, at least one, redrawn off the form."""
    values = draw(arrays(np.float64, cell_shapes, elements=fixed_points))
    for _ in range(draw(st.integers(0, max(1, values.size // 4)))):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(near_misses | off_form)
    return values


#: Nodata sentinels: the usual one, NaN, -inf, and two that are fixed-point, one of which -0.0 equals.
sentinels = st.sampled_from([-9999.0, math.nan, -math.inf, 0.0, 0.5])


#: Values that are not fixed-point: unrounded scores and noise, the float
#: extremes, signed zeros and infinities, negatives and integers above 9.
rest_values = (
    st.floats(0.0, 1.0)
    | st.floats(-1e6, 1e6)
    | st.integers(10, 10**9).map(float)
    | st.integers(-(10**9), -1).map(float)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308])
)


@st.composite
def rest_heavy_grids(draw):
    """A grid whose cells are mostly not fixed-point: uniform or normal draws, left unrounded, and odd values."""
    shape = draw(cell_shapes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(shape) if draw(st.booleans()) else rng.normal(0.5, draw(st.sampled_from([0.3, 1e3])), shape)
    for _ in range(draw(st.integers(0, values.size))):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(rest_values | fixed_points)
    return values


@settings(max_examples=500, deadline=None)
@given(mostly_fixed_grids() | rest_heavy_grids(), sentinels, st.sampled_from([1, 5, 16, raster._BLOCK_CELLS]))
def test_write_grid_body_is_the_per_value_reference(grid_path, values, nodata, block_cells):
    # Small blocks of rows mix the routes within one grid.
    with warnings.catch_warnings(), mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        warnings.simplefilter("error")  # a NaN or inf cast to integers would warn
        write_grid(Grid(values, nodata=nodata), grid_path)
    body = grid_path.read_bytes().split(b"\n", HEADER_LINES)[HEADER_LINES]
    assert body == reference_body(values)


@settings(max_examples=300, deadline=None)
@given(mostly_fixed_grids() | rest_heavy_grids())
def test_slot_text_is_the_reference_for_every_grid(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = raster._slot_text(values)
    assert text.tobytes() == reference_body(values)


#: What an excluded score cell may hold: `write_grid` must never read it.
hidden_values = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5.0, -9999.0, 0.0, 1.0, 0.5])
live_scores = fixed_points | st.floats(0.0, 1.0) | st.just(-0.0)
classified_shapes = st.sampled_from([(1, 1), (1, 9), (9, 1)]) | cell_shapes


@st.composite
def classified_grids(draw):
    """A `BinaryGrid` or a `ScoreGrid` with some, none or all of its cells excluded, and its exclusion mask."""
    shape = draw(classified_shapes)
    mask = draw(st.sampled_from(["some", "some", "none", "all"]))
    mask = draw(arrays(np.bool_, shape)) if mask == "some" else np.full(shape, mask == "all")
    if draw(st.booleans()):
        codes = draw(arrays(np.int8, shape, elements=st.integers(0, 1)))
        return BinaryGrid(np.where(mask, EXCLUDED, codes)), mask
    scores = draw(arrays(np.float64, shape, elements=live_scores))
    return ScoreGrid(np.where(mask, draw(arrays(np.float64, shape, elements=hidden_values)), scores), mask), mask


def assert_written_as_its_value_grid(grid, mask, path):
    """`write_grid(grid)` gives the bytes of `write_grid(grid.as_grid())`, and the file's nodata cells are the mask."""
    reference = path.with_name("as_grid.asc")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a hidden NaN or inf that reaches a cast would warn
        write_grid(grid, path)
        write_grid(grid.as_grid(), reference)
    assert path.read_bytes() == reference.read_bytes()
    reloaded = load_grid(path)
    assert np.array_equal(reloaded.nodata_mask(), mask)
    if isinstance(grid, BinaryGrid):
        assert np.array_equal(to_binary(reloaded).values, grid.values)


@settings(max_examples=400, deadline=None)
@given(classified_grids(), st.sampled_from([1, 5, 16, raster._BLOCK_CELLS]))
def test_classified_grids_write_as_their_value_grids(grid_path, case, block_cells):
    # Small blocks of rows split a grid into several, and make its rows wider than a block.
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        assert_written_as_its_value_grid(*case, grid_path)


@pytest.mark.parametrize("kind", ["binary", "score"])
@pytest.mark.parametrize(
    "shape", [(1, raster._BLOCK_CELLS + 3), (3, raster._BLOCK_CELLS + 1), (3 * raster._BLOCK_CELLS // 250 + 7, 250)]
)
def test_classified_grids_past_one_block_write_as_their_value_grids(grid_path, kind, shape):
    rng = np.random.default_rng(shape)
    mask = rng.random(shape) < 0.2
    if kind == "binary":
        grid = BinaryGrid(np.where(mask, EXCLUDED, rng.integers(0, 2, shape)))
    else:
        hidden = rng.choice([math.nan, math.inf, -math.inf, -0.0, 5.0, -9999.0], shape)
        scores = rng.random(shape)
        scores = np.where(rng.random(shape) < 0.8, np.round(scores, 6), scores)  # fixed-point and unrounded
        grid = ScoreGrid(np.where(mask, hidden, scores), mask)
    assert_written_as_its_value_grid(grid, mask, grid_path)


#: One mutation of the body "1 0 1\n0 -9999 0\n" (nodata -9999) per case.
NEAR_MISSES = {
    "double-space": "1  0 1\n0 -9999 0\n",
    "trailing-space": "1 0 1 \n0 -9999 0\n",
    "crlf": "1 0 1\r\n0 -9999 0\r\n",
    "tab": "1\t0 1\n0 -9999 0\n",
    "leading-space": " 1 0 1\n0 -9999 0\n",
    "no-final-newline": "1 0 1\n0 -9999 0",
    "blank-lines-after": "1 0 1\n0 -9999 0\n\n\n",
    "stray-n": "1 n 1\n0 -9999 0\n",
    "stray-n-no-nodata": "1 n 1\n0 1 0\n",
    "stray-dash": "1 - 1\n0 -9999 0\n",
    "stray-x": "1 0 x\n0 -9999 0\n",
    "byte-after-9": "1 : 1\n0 -9999 0\n",
    "byte-before-0": "1 / 1\n0 -9999 0\n",
    "two-digits": "1 01 1\n0 -9999 0\n",
    "minus-zero": "1 -0 1\n0 -9999 0\n",
    "nodata-spelled-otherwise": "1 0 1\n0 -9999.0 0\n",
    "nodata-inside-a-token": "1 0 1\n0 -99990 0\n",
    "nodata-twice-in-a-token": "1 0 1\n0 -9999-9999 0\n",
    "long-row": "1 0 1 1\n0 -9999 0\n",
    "short-row": "1 0\n0 -9999 0\n",
    "missing-row": "1 0 1\n",
    "extra-row": "1 0 1\n0 -9999 0\n1 1 1\n",
    "blank-row": "1 0 1\n\n0 -9999 0\n",
}


@pytest.mark.parametrize("body", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_near_misses_give_the_general_outcome(grid_path, body):
    grid_path.write_bytes(grid_text(2, 3, "-9999", body).encode("ascii"))
    assert_same_outcome(load_outcome(grid_path)[0], general_outcome(grid_path, 3, 2))


@pytest.mark.parametrize(
    "nodata, body",
    [("-9999", "0 n\n"), ("-9999", "n -9999\n"), ("nan", "0 nan\n"), ("nan", "n 0\n"), ("-9999", "0 -9999.0\n")],
)
def test_nodata_marking_hides_no_token(grid_path, nodata, body):
    # A body "0 n" must say 'n' is not a number, nodata text or not.
    grid_path.write_text(grid_text(1, 2, nodata, body))
    expected = general_outcome(grid_path, 2, 1)
    assert_same_outcome(load_outcome(grid_path)[0], expected)
    if "n" in body.split():
        assert str(expected) == f"{grid_path}: line 7: non-numeric value 'n'"


@settings(max_examples=300, deadline=None)
@given(digit_grids(), st.data())
def test_mutated_digit_grids_give_the_general_outcome(grid_path, case, data):
    nrows, ncols, nodata, rows = case
    text = "".join(" ".join(r) + "\n" for r in rows)
    at = data.draw(st.integers(0, len(text)))
    edit = data.draw(st.sampled_from([" ", "\t", "\r", "\n", "n", "-", "x", "0", ":", "/", ".", "e", "", nodata]))
    cut = data.draw(st.integers(0, 2))
    grid_path.write_bytes(grid_text(nrows, ncols, nodata, text[:at] + edit + text[at + cut:]).encode("ascii"))
    assert_same_outcome(load_outcome(grid_path)[0], general_outcome(grid_path, ncols, nrows))


# ---------------------------------------------------------------------------
# Writer round trip
# ---------------------------------------------------------------------------

#: Values at the edges of the six-significant-digit text form.
EDGE_VALUES = [
    -0.0, 0.0, math.nan, math.inf, -math.inf, 999999.5, 9999995.0, 0.1234565, 1e16, 1e-5, 1e-4, 123456.5, -9999.0,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
]
values = st.floats() | st.sampled_from(EDGE_VALUES)


@settings(max_examples=200, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=values),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    values,
    values,
    values,
)
def test_write_load_write_is_byte_stable(grid_path, vals, cell_size, origin_x, origin_y, nodata):
    first, second = grid_path, grid_path.with_name("h.asc")
    write_grid(Grid(vals, cell_size=cell_size, origin_x=origin_x, origin_y=origin_y, nodata=nodata), first)
    body = first.read_text().split("\n")[HEADER_LINES:-1]
    assert [line.split(" ") for line in body] == [[f"{v:.6g}" for v in row] for row in vals.tolist()]
    reloaded = load_grid(first)
    for got, wrote in ((reloaded.cell_size, cell_size), (reloaded.origin_x, origin_x), (reloaded.origin_y, origin_y)):
        assert got == wrote or (math.isnan(got) and math.isnan(wrote))
    write_grid(reloaded, second)
    assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# Classify stage
# ---------------------------------------------------------------------------


def reference_top_n(scores, excluded, n):
    """The reference selection: a stable argsort on descending score, so
    ties go to the lower row-major index."""
    out = np.full(scores.shape, EXCLUDED, dtype=np.int8)
    out[~excluded] = 0
    live_idx = np.flatnonzero(~excluded.ravel())
    order = np.argsort(-scores.ravel()[live_idx], kind="stable")[:n]
    out.ravel()[live_idx[order]] = 1
    return out


@st.composite
def score_cases(draw):
    """Scores rounded to 0-3 decimals so ties are common, with -0.0 among
    them, fully excluded rows, odd values under the exclusion, and a count
    that is often 0 or every live cell."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    decimals = draw(st.integers(0, 3))
    live_score = st.floats(0.0, 1.0).map(lambda x: round(x, decimals)) | st.just(-0.0)
    scores = draw(arrays(np.float64, (rows, cols), elements=live_score))
    excluded = draw(arrays(np.bool_, (rows, cols), elements=st.booleans() | st.just(False)))
    excluded[sorted(draw(st.sets(st.integers(0, rows - 1), max_size=rows)))] = True
    odd = draw(arrays(np.float64, (rows, cols), elements=st.sampled_from([0.0, 1.0, 5.0, -1.0, math.nan])))
    scores[excluded] = odd[excluded]
    n_live = int(np.count_nonzero(~excluded))
    n = draw(st.just(0) | st.just(n_live) | st.integers(0, n_live))
    return scores, excluded, n


@settings(max_examples=400, deadline=None)
@given(score_cases(), st.sampled_from([1, 5, 16, raster._BLOCK_CELLS]), st.sampled_from([1, 2, raster._SCORE_BINS]))
def test_top_n_selection_matches_stable_argsort(case, block_cells, bins):
    # Small blocks split a grid into several; few bins put many scores in the cut's bin.
    scores, excluded, n = case
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells), mock.patch.object(raster, "_SCORE_BINS", bins):
        got = threshold_scores(ScoreGrid(scores, excluded), quantity=n).values
    assert got.tolist() == reference_top_n(scores, excluded, n).tolist()


@pytest.mark.parametrize("share", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("pattern", ["two-decimals", "unrounded", "ones", "signed-zeros"])
def test_top_n_selection_past_one_block_matches_stable_argsort(pattern, share):
    # 90,000 cells, two blocks: each two-decimal score is tied across both.
    rng = np.random.default_rng(len(pattern))
    shape = (300, 300)
    live = {
        "two-decimals": np.round(rng.random(shape), 2),
        "unrounded": rng.random(shape),
        "ones": np.ones(shape),
        "signed-zeros": rng.choice([0.0, -0.0], shape),
    }[pattern]
    excluded = rng.random(shape) < 0.2
    scores = np.where(excluded, rng.choice([math.nan, 5.0], shape), live)
    n = round(share * np.count_nonzero(~excluded))
    got = threshold_scores(ScoreGrid(scores, excluded), quantity=n).values
    assert got.tolist() == reference_top_n(scores, excluded, n).tolist()


@settings(max_examples=200, deadline=None)
@given(score_cases())
def test_quantity_n_yields_exactly_n_ones(case):
    scores, excluded, n = case
    b = threshold_scores(ScoreGrid(scores, excluded), quantity=n)
    assert b.n_ones == n
    assert b.n_zeros == np.count_nonzero(~excluded) - n
    assert (b.values == EXCLUDED).tolist() == excluded.tolist()


CELL_VALUES = [0.0, -0.0, 1.0, 2.0, 0.5, -9999.0, math.nan]


def reference_to_binary(values, nodata, exclusion):
    """Per-cell classification; returns the codes or the first stray flat index."""
    out = []
    for idx, (v, e) in enumerate(zip(values.ravel().tolist(), exclusion.ravel().tolist())):
        if (math.isnan(v) if math.isnan(nodata) else v == nodata) or e != 0.0:
            out.append(EXCLUDED)
        elif v == 1.0:
            out.append(1)
        elif v == 0.0:
            out.append(0)
        else:
            return idx
    return np.array(out, dtype=np.int8).reshape(values.shape)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=st.sampled_from(CELL_VALUES)),
            arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, -9999.0, math.nan])),
        )
    ),
    st.sampled_from([-9999.0, math.nan, 2.0, 1.0, 0.0]),
)
def test_to_binary_matches_per_cell_reference(layers, nodata):
    values, exclusion = layers
    grid = Grid(values, nodata=nodata)
    expected = reference_to_binary(values, nodata, exclusion)
    if isinstance(expected, int):
        with pytest.raises(ValueError, match=f"at flat index {expected}: not 1.0/0.0 and not excluded"):
            to_binary(grid, exclusion=Grid(exclusion))
    else:
        assert to_binary(grid, exclusion=Grid(exclusion)).values.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# Loaders that classify as they parse, against their composed forms
# ---------------------------------------------------------------------------

#: Nodata texts of classified maps: the usual sentinel, NaN, one-byte texts
#: that are digits (their cells must come back excluded), and texts that
#: equal a digit's value.
CLASSIFIED_NODATA = ["-9999", "nan", "0", "1", "5", "1.0", "-0", "-1"]
#: Tokens that only the general route reads.
GENERAL_TOKENS = ["1.0", "0.0", "-0", "0.5", "1e0", "0.25"]
#: How the body is laid out. "\r\n" endings read as "\n", so the first two
#: are the single-digit layout; the others are, only when they happen not
#: to double a space or not to hold a general token.
LAYOUTS = ["stride", "crlf", "double-space", "general-tokens"]
#: The exclusion grid: none, on the same cells, covering every cell, or not lining up.
EXCLUSIONS = ["none", "aligned", "all-excluded", "wrong-shape", "shifted"]


@st.composite
def classified_maps(draw):
    """A raster file's text (digits 0-9, nodata tokens, some general tokens) and an exclusion grid."""
    nrows, ncols = draw(digit_shapes)
    nodata = draw(st.sampled_from(CLASSIFIED_NODATA))
    layout = draw(st.sampled_from(LAYOUTS))
    cell = st.sampled_from("0011") | st.integers(0, 9).map(str) | st.just(nodata)
    if layout == "general-tokens":
        cell = cell | st.sampled_from(GENERAL_TOKENS)
    if draw(st.integers(0, 9)):
        rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    else:  # every cell nodata
        rows = [[nodata] * ncols] * nrows
    sep = "  " if layout == "double-space" else " "
    end = "\r\n" if layout == "crlf" else "\n"
    text = grid_text(nrows, ncols, nodata, "".join(sep.join(r) + end for r in rows))
    kind = draw(st.sampled_from(EXCLUSIONS))
    if kind == "none":
        return text, layout, None
    shape = (nrows, ncols + 1) if kind == "wrong-shape" else (nrows, ncols)
    if kind == "all-excluded":
        values = np.ones(shape)
    else:
        excluding = st.sampled_from([0.0, 0.0, 0.0, -0.0, 1.0, 3.0, -9999.0, math.nan])
        values = draw(arrays(np.float64, shape, elements=excluding))
    return text, layout, Grid(values, origin_x=30.0 if kind == "shifted" else 0.0)


def composed_binary(path, exclusion):
    return to_binary(load_grid(path), exclusion)


def composed_scores(path, exclusion):
    return to_scores(load_grid(path), exclusion)


def classify_outcome(load, path, exclusion):
    """What `load` gives or raises, and whether the stride decode took the body."""
    strided = []

    def stride(*args):
        strided.append(stride_body(*args))
        return strided[-1]

    stride_body = raster._stride_body
    with mock.patch.object(raster, "_stride_body", stride):
        try:
            got = load(path, exclusion)
        except ValueError as exc:  # GridFormatError included
            got = exc
    return got, bool(strided) and strided[0] is not None


def assert_same_container(got, expected):
    assert type(got) is type(expected), got
    if isinstance(expected, Exception):
        assert str(got) == str(expected)
        assert getattr(got, "line", None) == getattr(expected, "line", None)
        return
    assert got.values.dtype == expected.values.dtype
    assert got.values.shape == expected.values.shape
    assert got.values.tobytes() == expected.values.tobytes()  # bitwise, -0.0 included
    assert not got.values.flags.writeable
    if isinstance(expected, ScoreGrid):
        assert got.excluded.tolist() == expected.excluded.tolist()
    fields = ("cell_size", "origin_x", "origin_y")
    assert [repr(getattr(got, f)) for f in fields] == [repr(getattr(expected, f)) for f in fields]


@settings(max_examples=500, deadline=None)
@given(classified_maps())
def test_classifying_loaders_match_their_composed_forms(grid_path, case):
    text, layout, exclusion = case
    grid_path.write_bytes(text.encode("ascii"))
    got, strided = classify_outcome(load_binary, grid_path, exclusion)
    assert strided or layout not in ("stride", "crlf")
    assert_same_container(got, classify_outcome(composed_binary, grid_path, exclusion)[0])
    got, strided = classify_outcome(load_scores, grid_path, exclusion)
    assert_same_container(got, classify_outcome(composed_scores, grid_path, exclusion)[0])


@settings(max_examples=300, deadline=None)
@given(classified_maps(), st.sampled_from([-9999.0, math.nan, 0.0]))
def test_an_exclusion_mask_classifies_as_its_map(grid_path, case, nodata):
    # `report.load_observed` keeps an exclusion map as a one-byte mask.
    text, _, exclusion = case
    if exclusion is None:
        return
    grid_path.write_bytes(text.encode("ascii"))
    excl_path, obs_path = grid_path.with_name("excl.asc"), grid_path.with_name("obs.asc")
    write_grid(Grid(exclusion.values, origin_x=exclusion.origin_x, nodata=nodata), excl_path)
    write_grid(BinaryGrid(np.zeros(exclusion.shape), origin_x=exclusion.origin_x), obs_path)
    excl = load_grid(excl_path)
    mask = report.load_observed(obs_path, excl_path)[0]
    assert mask.values.dtype == np.int8
    assert mask.values.tolist() == (excl.values != 0.0).tolist()
    for load in (load_binary, load_scores, composed_binary, composed_scores):
        got, _ = classify_outcome(load, grid_path, mask)
        assert_same_container(got, classify_outcome(load, grid_path, excl)[0])


@pytest.mark.parametrize(
    "exclusion, expected",
    [
        (None, "unexpected value 7.0 at flat index 1: not 1.0/0.0 and not excluded"),
        ([[0.0, 1.0, 0.0]], [[1, EXCLUDED, 0]]),
        ([[0.0, math.nan, 0.0]], [[1, EXCLUDED, 0]]),
    ],
    ids=["live", "excluded", "nodata-in-exclusion"],
)
def test_load_binary_takes_a_digit_above_one_only_where_excluded(grid_path, exclusion, expected):
    grid_path.write_text(grid_text(1, 3, "-9999", "1 7 0\n"))
    excl = None if exclusion is None else Grid(np.array(exclusion))
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{expected}$"):
            load_binary(grid_path, excl)
    else:
        assert load_binary(grid_path, excl).values.tolist() == expected


@pytest.mark.parametrize(
    "nodata, codes",
    [("0", [[EXCLUDED, 1], [1, EXCLUDED]]), ("1", [[0, EXCLUDED], [EXCLUDED, 0]])],
)
def test_one_byte_nodata_tokens_come_back_excluded(grid_path, nodata, codes):
    grid_path.write_text(grid_text(2, 2, nodata, "0 1\n1 0\n"))
    assert load_binary(grid_path).values.tolist() == codes
    scores = load_scores(grid_path)
    assert scores.excluded.tolist() == (np.array(codes) == EXCLUDED).tolist()
    assert scores.values.tolist() == np.where(scores.excluded, 0.0, [[0.0, 1.0], [1.0, 0.0]]).tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.5, 2.0, math.nan, math.inf])),
            arrays(np.bool_, shape),
        )
    )
)
def test_score_grid_checks_its_live_cells_as_a_copy_of_them_would(case):
    values, excluded = case
    live = values[~excluded]
    if np.isnan(live).any():
        expected = "NaN scores on non-excluded cells"
    elif ((live < 0.0) | (live > 1.0)).any():
        expected = "scores outside [0, 1] on non-excluded cells"
    else:
        ScoreGrid(values, excluded)
        return
    with pytest.raises(ValueError, match=re.escape(expected)):
        ScoreGrid(values, excluded)


# The guards below hold what classifying on load saves on a 1000x1000 map.
# The composed forms, and a tally over a per-cell cast, break each of them.

CELLS = 1000 * 1000
FLOAT_COPY = 8 * CELLS  # bytes of one float64 array of the grid


@pytest.fixture(scope="module")
def large_maps(tmp_path_factory):
    """A 1000x1000 binary map with 15% nodata cells, and six-decimal scores on the same cells."""
    rng = np.random.default_rng(5)
    excluded = rng.random((1000, 1000)) < 0.15
    root = tmp_path_factory.mktemp("large")
    write_grid(BinaryGrid(np.where(excluded, EXCLUDED, rng.integers(0, 2, excluded.shape))), root / "b.asc")
    write_grid(ScoreGrid(np.round(rng.random(excluded.shape), 6), excluded), root / "s.asc")
    return root


def traced_peak(fn, *args):
    """The peak of traced allocations while `fn(*args)` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_binary_builds_no_float_copy(large_maps):
    assert traced_peak(load_binary, large_maps / "b.asc") < FLOAT_COPY


def test_load_scores_holds_no_more_than_the_parse_does(large_maps):
    path = large_maps / "s.asc"
    assert traced_peak(load_scores, path) < traced_peak(load_grid, path) + FLOAT_COPY // 4


def test_general_route_holds_the_text_and_one_float_copy(large_maps):
    path = large_maps / "s.asc"  # six-decimal scores: outside the stride layout
    assert traced_peak(load_grid, path) < path.stat().st_size + 1.06 * FLOAT_COPY


def test_quantity_cut_copies_no_live_score(large_maps):
    scores = load_scores(large_maps / "s.asc")
    quantity = load_binary(large_maps / "b.asc").n_ones
    assert traced_peak(functools.partial(threshold_scores, scores, quantity=quantity)) < 5 * CELLS


def test_stride_check_refuses_a_body_from_its_first_row():
    # Ten "-9999" and 990 "0.5" a row: the body's length passes the
    # whole-body arithmetic, as a score file's may, and its first row does not.
    data = grid_text(1000, 1000, "-9999", ("-9999 " * 10 + "0.5 " * 989 + "0.5\n") * 1000).encode("ascii")
    args = (data, data.index(b"-9999 "), len(data) - 1, 1000, 1000, "-9999")
    assert raster._stride_body(*args) is None
    assert traced_peak(raster._stride_body, *args) < CELLS // 100  # no copy of the text


def test_tally_casts_no_per_cell_code(large_maps):
    obs = load_binary(large_maps / "b.asc")
    sim = BinaryGrid(np.random.default_rng(6).integers(0, 2, obs.shape))
    assert traced_peak(build_confusion, sim, obs) < CELLS  # under one byte a cell


@st.composite
def code_pairs(draw):
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    codes = st.sampled_from([EXCLUDED, 0, 1])
    return draw(arrays(np.int8, shape, elements=codes)), draw(arrays(np.int8, shape, elements=codes))


@settings(max_examples=300, deadline=None)
@given(code_pairs())
def test_tally_sums_to_the_cells_live_in_both(pair):
    sim, obs = pair
    both_live = int(np.count_nonzero((sim != EXCLUDED) & (obs != EXCLUDED)))
    if both_live == 0:
        with pytest.raises(ValueError, match="no jointly non-excluded cells"):
            build_confusion(BinaryGrid(sim), BinaryGrid(obs))
    else:
        m = build_confusion(BinaryGrid(sim), BinaryGrid(obs))
        assert m.tp + m.fp + m.fn + m.tn == both_live


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


CSV_COLUMNS = {"box_id": int, "group": str, "ppv": float}
_padding = st.sampled_from(["", " ", "  ", "\t"])
_labels = st.text(alphabet='AB ,"\n', max_size=4)
_blank_lines = st.sampled_from(["", "   ", ",", " , ,", "\t"])


@st.composite
def csv_texts(draw):
    """Header and rows with blank lines, quoting, padding, extra, reordered and
    repeated columns, up to two bad values, short or long rows, or a missing
    column."""
    names = list(CSV_COLUMNS) + draw(st.lists(st.sampled_from(["note", "x", "cycle"]), unique=True))
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(names)))
    names = draw(st.permutations(names))
    if draw(st.integers(0, 9)) == 0:
        names.remove(draw(st.sampled_from(list(CSV_COLUMNS))))
    good = {
        "box_id": st.integers(-(10**6), 10**6).map(str),
        "group": _labels,
        "ppv": st.floats(allow_nan=False).map(repr),
        "note": _labels,
        "x": st.sampled_from(["", "1", "q"]),
        "cycle": st.integers(0, 12).map(str),
    }
    n_rows = draw(st.integers(0, 12))
    rows = [[draw(_padding) + draw(good[n]) + draw(_padding) for n in names] for _ in range(n_rows)]
    # Up to two faults, so that which one comes first in the file matters.
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["value", "short", "long"]))
        # A row cut short by an earlier fault has lost its last column.
        present = sorted(n for n in set(CSV_COLUMNS) & set(names) if names.index(n) < len(rows[row]))
        if kind == "value" and present:
            col = names.index(draw(st.sampled_from(present)))
            rows[row][col] = draw(st.sampled_from(["", "x", "1.5.2", " - "]))
        elif kind == "short":
            rows[row] = rows[row][:-1]
        elif kind == "long":
            rows[row] = rows[row] + ["extra"]
    out = io.StringIO()
    for record in [[draw(_padding) + n + draw(_padding) for n in names]] + rows:
        for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
            out.write(draw(_blank_lines) + "\n")
        quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
        csv.writer(out, quoting=quoting, lineterminator="\n").writerow(record)
    return out.getvalue()


def outcome(read, path):
    try:
        return read(path, CSV_COLUMNS)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_read_csv_matches_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_text(text, encoding="utf-8")
    expected = outcome(reference_read_csv, path)
    got = outcome(tableio.read_csv, path)
    assert got == expected
    if isinstance(got, tuple):
        # Not only equal: the same types, so -0.0 stays a float and 1 an int.
        assert [[type(v) for v in col] for col in got] == [[type(v) for v in col] for col in expected]


# ---------------------------------------------------------------------------
# Predictive values
# ---------------------------------------------------------------------------

counts = st.integers(0, 10**6)


@settings(max_examples=500, deadline=None)
@given(counts, counts, counts, counts, st.sampled_from(list(Convention)))
def test_predictive_values_of_a_tally_are_in_unit_range_or_undefined(tp, fp, fn, tn, convention):
    m = ConfusionMatrix(tp, fp, fn, tn)
    if m.grand_total == 0:
        with pytest.raises(ValueError, match="empty confusion matrix"):
            agreement_rates(m)
        return
    rates = agreement_rates(m)
    if rates.sensitivity is None or rates.tn_rate is None:
        with pytest.raises(ValueError, match="must both be defined"):
            predictive_values(rates, rates.prevalence_observed, convention)
        return
    pv = predictive_values(rates, rates.prevalence_observed, convention)
    for v in (pv.ppv, pv.npv):
        assert v is None or 0.0 <= v <= 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0))
def test_conventions_agree_at_half_sensitivity_and_tn_rate(prevalence):
    rates = AgreementRates(sensitivity=0.5, tn_rate=0.5, prevalence_observed=prevalence, pcm=0.5)
    paper = predictive_values(rates, prevalence, Convention.PAPER)
    standard = predictive_values(rates, prevalence, Convention.STANDARD)
    assert (paper.ppv, paper.npv) == (standard.ppv, standard.npv)
    lr_paper, lr_standard = likelihood_ratios(rates, Convention.PAPER), likelihood_ratios(rates, Convention.STANDARD)
    assert (lr_paper.lr_pos, lr_paper.lr_neg) == (lr_standard.lr_pos, lr_standard.lr_neg) == (1.0, 1.0)
