"""Property tests for the ASCII grid text format.

`load_grid` parses well-formed bodies with numpy's C reader and falls back to
a per-line loop for everything else. These tests pin it, over generated
files, to the plain per-token parser it replaced, and pin the writer's round
trip.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mapbayes import Grid, GridFormatError, load_grid, write_grid

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
        assert str(err.value) == str(exc)
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
    write_grid(load_grid(first), second)
    assert second.read_bytes() == first.read_bytes()
