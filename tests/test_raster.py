"""Tests for ASCII grid I/O, binary/score conversion, and thresholding."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from mapbayes import raster
from mapbayes import (
    EXCLUDED,
    BinaryGrid,
    Grid,
    GridFormatError,
    ScoreGrid,
    check_aligned,
    load_grid,
    threshold_scores,
    to_binary,
    to_scores,
    write_grid,
)

CANONICAL = """ncols 3
nrows 2
xllcorner 100
yllcorner -50.5
cellsize 30
NODATA_value -9999
1 0 -9999
0.25 1 0
"""


class TestGridContainers:
    def test_grid_shape_properties(self):
        g = Grid(np.zeros((4, 7)))
        assert (g.rows, g.cols) == (4, 7)
        assert g.shape == (4, 7)

    def test_grid_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Grid(np.zeros(5))
        for make in (Grid, BinaryGrid, ScoreGrid):
            message = f"{make.__name__} values must be a non-empty 2-D array, got shape \\(0, 3\\)"
            with pytest.raises(ValueError, match=message):
                make(np.zeros((0, 3)))

    def test_grid_rejects_bad_cell_size(self):
        for bad in (0, -30.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="cell_size must be positive and finite"):
                Grid(np.zeros((2, 2)), cell_size=bad)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf], ids=["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "make",
        [lambda size: BinaryGrid(np.zeros((2, 2)), cell_size=size),
         lambda size: ScoreGrid(np.zeros((2, 2)), None, size)],
        ids=["BinaryGrid", "ScoreGrid"],
    )
    def test_classified_grids_refuse_a_bad_cell_size_when_built(self, make, bad):
        # Not later, when the grid is written or compared with another.
        with pytest.raises(ValueError, match=f"cell_size must be positive and finite, got {bad}"):
            make(bad)

    def test_grid_values_are_read_only(self):
        g = Grid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    @pytest.mark.parametrize(
        "make, kept, dtype",
        [
            (Grid, lambda g: g.values, np.float64),
            (BinaryGrid, lambda g: g.values, np.int8),
            (ScoreGrid, lambda g: g.values, np.float64),
            (lambda a: ScoreGrid(np.zeros(a.shape), a), lambda g: g.excluded, np.bool_),
        ],
        ids=["Grid", "BinaryGrid", "ScoreGrid", "ScoreGrid-mask"],
    )
    def test_callers_array_is_copied_not_frozen_or_aliased(self, make, kept, dtype):
        writable = np.zeros((2, 3), dtype=dtype)
        # A read-only view does not own its memory: its base may still change.
        view = writable.view()
        view.setflags(write=False)
        for given in (writable, view):
            held = kept(make(given))
            assert not np.shares_memory(held, writable)
            assert not held.flags.writeable
        assert writable.flags.writeable
        writable[0, 0] = 1
        assert held[0, 0] == 0

    @pytest.mark.parametrize(
        "make, idx",
        [
            (lambda: BinaryGrid(np.array([[257, 255, 0]])), 0),
            (lambda: BinaryGrid(np.array([[0.5, 1.7]])), 0),
            (lambda: BinaryGrid(np.array([[1.0, np.nan]])), 1),
            (lambda: BinaryGrid([[0, 1, 300]]), 2),
            (lambda: ScoreGrid(np.zeros((1, 2)), excluded=np.array([[0.5, 0]])), 0),
            (lambda: ScoreGrid(np.zeros((1, 2)), excluded=np.array([[0, 2]])), 1),
        ],
        ids=["int-wraps", "float-truncates", "nan", "int-list", "mask-from-float", "mask-from-int"],
    )
    def test_lossy_cast_is_refused(self, make, idx):
        with pytest.raises(ValueError, match=f"at flat index {idx} changes when cast"):
            make()

    def test_exact_casts_are_accepted(self):
        for given in (np.array([[1.0, 0.0, -1.0]]), [[1, 0, -1]], np.array([[1, 0, -1]], dtype=np.int64)):
            np.testing.assert_array_equal(BinaryGrid(given).values, [[1, 0, EXCLUDED]])
        s = ScoreGrid(np.zeros((1, 3)), excluded=np.array([[1.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(s.excluded, [[True, False, True]])
        g = Grid(np.array([[np.nan, 0.25]], dtype=np.float32))
        assert np.isnan(g.values[0, 0]) and g.values[0, 1] == 0.25

    def test_owned_read_only_array_is_kept_uncopied(self):
        values = np.zeros((2, 3))
        values.setflags(write=False)
        assert Grid(values).values is values

    def test_conversions_hand_over_their_arrays_uncopied(self, monkeypatch):
        scores = Grid(np.array([[0.2, -9999.0, 0.8], [0.0, 0.5, 1.0]]))
        classes = Grid(np.array([[1.0, -9999.0, 0.0], [0.0, 1.0, 1.0]]))
        exclusion = Grid(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
        copied = []
        read_only = raster._read_only

        def spy(values, dtype):
            out = read_only(values, dtype)
            if out is not values:
                copied.append(np.dtype(dtype).name)
            return out

        monkeypatch.setattr(raster, "_read_only", spy)
        s = to_scores(scores, exclusion=exclusion)
        held = [
            to_binary(classes, exclusion=exclusion).values,
            s.values,
            s.excluded,
            threshold_scores(s, value=0.5).values,
            threshold_scores(s, quantity=2).values,
        ]
        assert copied == []
        for arr in held:
            assert arr.flags.owndata
            assert not arr.flags.writeable

    def test_nodata_mask(self):
        g = Grid(np.array([[1.0, -9999.0], [0.0, 2.0]]))
        assert g.nodata_mask().tolist() == [[False, True], [False, False]]

    def test_binary_grid_counts(self):
        b = BinaryGrid(np.array([[1, 0, -1], [1, 1, 0]], dtype=np.int8))
        assert b.n_ones == 3
        assert b.n_zeros == 2
        assert b.n_excluded == 1
        assert b.classified_mask().sum() == 5

    def test_binary_grid_rejects_stray_values(self):
        with pytest.raises(ValueError, match="flat index 2"):
            BinaryGrid(np.array([[0, 1, 2]], dtype=np.int8))

    @pytest.mark.parametrize("stray", [2, -2, 127, -128])
    def test_binary_grid_range_check_names_the_first_stray_cell(self, stray):
        values = np.array([[1, 0, -1], [0, stray, stray]], dtype=np.int8)
        with pytest.raises(ValueError, match="at flat index 4$"):
            BinaryGrid(values)

    def test_score_grid_validates_range_on_live_cells_only(self):
        # An out-of-range value on an excluded cell is never read, so it passes.
        ScoreGrid(np.array([[5.0, 0.5]]), excluded=np.array([[True, False]]))
        with pytest.raises(ValueError, match="outside"):
            ScoreGrid(np.array([[5.0, 0.5]]), excluded=np.array([[False, False]]))

    def test_score_grid_rejects_nan_on_live_cells(self):
        # NaN on an excluded cell is never read; on a live cell it would pass
        # both range checks and then threshold to 0.
        ScoreGrid(np.array([[np.nan, 0.5]]), excluded=np.array([[True, False]]))
        for vals in ([[np.nan, 0.5]], [[0.5, np.nan]], [[np.nan, np.nan]]):
            with pytest.raises(ValueError, match="NaN scores on non-excluded cells"):
                ScoreGrid(np.array(vals))

    def test_score_grid_default_mask_is_all_live(self):
        s = ScoreGrid(np.array([[0.1, 0.9]]))
        assert not s.excluded.any()

    def test_score_grid_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask shape"):
            ScoreGrid(np.zeros((2, 2)), excluded=np.zeros((2, 3), dtype=bool))


class TestLoadGrid:
    def test_parses_canonical_file(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL)
        g = load_grid(p)
        assert g.shape == (2, 3)
        assert g.origin_x == 100.0
        assert g.origin_y == -50.5
        assert g.cell_size == 30.0
        assert g.nodata == -9999.0
        assert g.values.tolist() == [[1.0, 0.0, -9999.0], [0.25, 1.0, 0.0]]

    @pytest.mark.parametrize(
        "body, step",
        [
            ("1 0 -9999\n0 1 0\n", "_float_values"),  # the stride decode's digits, cast
            ("1 0 -9999\n0.25 1 0\n", "_parse_body"),
            ("1 0 -9999\n0.25 1 1_0\n", "_parse_body"),
        ],
        ids=["stride", "numpy", "loop"],
    )
    def test_parsed_array_is_handed_over_uncopied(self, tmp_path, monkeypatch, body, step):
        parsed = []

        def keep(*args):
            parsed.append(parse(*args))
            return parsed[-1]

        parse = getattr(raster, step)
        monkeypatch.setattr(raster, step, keep)
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.split("1 0 -9999")[0] + body)
        g = load_grid(p)
        assert g.values is parsed[0]
        assert not g.values.flags.writeable

    def test_round_trip_is_byte_identical(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL)
        g = load_grid(p)
        q = tmp_path / "h.asc"
        write_grid(g, q)
        assert q.read_bytes() == p.read_bytes()

    def test_write_load_write_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(7)
        for rep in range(10):
            vals = np.round(rng.uniform(-5, 5, size=(6, 4)), 4)
            g = Grid(vals, cell_size=25.0, origin_x=1.5, origin_y=-2.25)
            p1 = tmp_path / f"a{rep}.asc"
            p2 = tmp_path / f"b{rep}.asc"
            write_grid(g, p1)
            reloaded = load_grid(p1)
            write_grid(reloaded, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_missing_header_line_reports_line_number(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text("ncols 2\nnrows 1\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert err.value.line == 3

    def test_wrong_header_key_reports_line_number(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("cellsize", "cellsz"))
        with pytest.raises(GridFormatError, match="line 5"):
            load_grid(p)

    def test_non_numeric_header_value(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("ncols 3", "ncols three"))
        with pytest.raises(GridFormatError, match="non-numeric ncols"):
            load_grid(p)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL + "0 0 0\n")
        with pytest.raises(GridFormatError, match="expected 2 rows, found 3|expected 2 rows of values, found 3"):
            load_grid(p)

    def test_short_row_reports_line_number(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("0.25 1 0", "0.25 1"))
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert err.value.line == 8
        assert "expected 3 values, found 2" in str(err.value)

    def test_non_numeric_cell_reports_token(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("0.25", "x.25"))
        with pytest.raises(GridFormatError, match="'x.25'"):
            load_grid(p)

    @pytest.mark.parametrize(
        "body, message",
        [
            # loadtxt skips blank and whitespace-only lines; each must still
            # be counted as a row and named.
            ("1 0 -9999\n\n0.25 1 0\n", "line 10: expected 2 rows of values, found 3"),
            ("1 0 -9999\n \t\n", "line 8: expected 3 values, found 0"),
            (" \n\t\n", "line 7: expected 3 values, found 0"),
            ("1 0 -9999\n0.25 1\n", "line 8: expected 3 values, found 2"),
            ("1 0 -9999\n0.25 1 0 7\n", "line 8: expected 3 values, found 4"),
            ("1 0 #\n0.25 1 0\n", "line 7: non-numeric value '#'"),
            ("1 0 -9999\n0.25 1 1,0\n", "line 8: non-numeric value '1,0'"),
        ],
    )
    def test_malformed_body_names_its_line(self, tmp_path, body, message):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL[: CANONICAL.index("1 0 -9999")] + body)
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert str(err.value) == f"{p}: {message}"

    @pytest.mark.parametrize(
        "body, newline, expected",
        [
            # numpy's reader stops at nrows rows, so a row past them must be counted first.
            ("1 0 -9999\n0.25 1 0\n0 0 0\n", "\n", ("expected 2 rows of values, found 3", 10)),
            ("1 0 -9999\n0.25 1 0\n0 0\n", "\n", ("expected 2 rows of values, found 3", 10)),
            ("1 0 -9999\n0.25 1 0\n0 0 0\n", "\r", ("expected 2 rows of values, found 3", 10)),
            ("1 0 -9999\n", "\n", ("expected 2 rows of values, found 1", 8)),
            ("0.25 1 0", "\n", ("expected 2 rows of values, found 1", 8)),
            ("", "\n", ("expected 2 rows of values, found 0", 7)),
            # It would skip a blank line too, which the row count then misses.
            ("\n0.25 1 0\n", "\n", ("expected 3 values, found 0", 7)),
            ("0.25 1 0\n \n", "\n", ("expected 3 values, found 0", 8)),
            ("0.25 1 0\n\x1c\n", "\n", ("expected 3 values, found 0", 8)),
            ("1 0 -9999\n\n0.25 1 0\n", "\n", ("expected 2 rows of values, found 3", 10)),
            (" \n\t\n", "\n", ("expected 3 values, found 0", 7)),
            ("1 0 -9999\n0.25 1 0\n\n\n", "\n", [[1.0, 0.0, -9999.0], [0.25, 1.0, 0.0]]),
            ("1 0 -9999\n0.25 1 0", "\n", [[1.0, 0.0, -9999.0], [0.25, 1.0, 0.0]]),
            ("1 0 -9999\n0.25 1\n", "\n", ("expected 3 values, found 2", 8)),
            ("1 0 -9999\n0.25 1\n", "\r\n", ("expected 3 values, found 2", 8)),
            ("1 0 -9999\n0.25 x 0\n", "\n", ("non-numeric value 'x'", 8)),
            ("1 0 -9999\n0.25 1_0 0\n", "\n", [[1.0, 0.0, -9999.0], [0.25, 10.0, 0.0]]),
            ("1 0 -9999\n0.25 1 0\n", "\r\n", [[1.0, 0.0, -9999.0], [0.25, 1.0, 0.0]]),
            ("1 0 -9999\n0.25 1 0\n", "\r", [[1.0, 0.0, -9999.0], [0.25, 1.0, 0.0]]),
        ],
        ids=[
            "extra-row", "extra-short-row", "extra-row-cr", "missing-row", "one-unended-row", "no-body",
            "blank-first", "blank-last", "unit-separator-last", "blank-counted", "all-blank", "trailing-newlines",
            "unended", "short-row", "short-row-crlf", "non-numeric", "underscore", "crlf", "cr",
        ],
    )
    def test_general_route_outcomes(self, tmp_path, body, newline, expected):
        # Bodies outside the stride layout (0.25 is no digit), each with the
        # values or the message and line that the row-string parser gave.
        p = tmp_path / "g.asc"
        p.write_bytes((CANONICAL[: CANONICAL.index("1 0 -9999")] + body).replace("\n", newline).encode("ascii"))
        if isinstance(expected, list):
            assert load_grid(p).values.tolist() == expected
        else:
            with pytest.raises(GridFormatError) as err:
                load_grid(p)
            assert (str(err.value), err.value.line) == (f"{p}: line {expected[1]}: {expected[0]}", expected[1])

    @pytest.mark.parametrize(
        "text, message",
        [
            (CANONICAL.replace("1 0 -9999", "0 \u00e9 -9999"), "line 7: non-ASCII byte 0xc3"),
            (CANONICAL.replace("xllcorner 100", "xllcorner 1\u00b700"), "line 3: non-ASCII byte 0xc2"),
            ("\r\n".join(CANONICAL.split("\n")).replace("0.25", "\u00bd"), "line 8: non-ASCII byte 0xc2"),
        ],
        ids=["body", "header", "crlf"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, text, message):
        p = tmp_path / "g.asc"
        p.write_bytes(text.encode("utf-8"))
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert str(err.value) == f"{p}: {message}"

    def test_overstated_ncols_is_a_format_error(self, tmp_path):
        # The row is checked against ncols before any array is allocated.
        p = tmp_path / "g.asc"
        lines = CANONICAL.split("\n")
        lines[:2] = ["ncols 1000000000000", "nrows 1"]
        p.write_text("\n".join(lines[:7]) + "\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert str(err.value) == f"{p}: line 7: expected 1000000000000 values, found 3"

    def test_tabs_crlf_and_underscore_digits_parse(self, tmp_path):
        p = tmp_path / "g.asc"
        text = CANONICAL.replace("1 0 -9999", "1\t0\t-99_99").replace("\n", "\r\n")
        p.write_bytes(text.encode("ascii"))
        g = load_grid(p)
        assert g.values.tolist() == [[1.0, 0.0, -9999.0], [0.25, 1.0, 0.0]]

    def test_non_positive_dimensions(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("ncols 3", "ncols 0"))
        with pytest.raises(GridFormatError, match="positive"):
            load_grid(p)

    @pytest.mark.parametrize(
        "line, text",
        [
            (1, "ncols 2.5"),
            (1, "ncols nan"),
            (1, "ncols inf"),
            (2, "nrows 1.5"),
            (2, "nrows -inf"),
            (2, "nrows 0"),
        ],
    )
    def test_dimensions_must_be_positive_integers(self, tmp_path, line, text):
        p = tmp_path / "g.asc"
        lines = CANONICAL.split("\n")
        lines[line - 1] = text
        p.write_text("\n".join(lines))
        key, value = text.split()
        message = f"{p}: line {line}: {key} must be a positive integer, got '{value}'"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(p)

    @pytest.mark.parametrize("value", ["-30", "0", "nan", "inf"])
    def test_cellsize_must_be_positive_and_finite(self, tmp_path, value):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("cellsize 30", f"cellsize {value}"))
        message = f"{p}: line 5: cellsize must be positive and finite, got '{value}'"
        with pytest.raises(GridFormatError, match=f"^{re.escape(message)}$"):
            load_grid(p)

    def test_nan_nodata_sentinel_matches_nan_cells(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("NODATA_value -9999", "NODATA_value nan").replace("-9999", "nan"))
        g = load_grid(p)
        assert np.isnan(g.nodata)
        assert g.nodata_mask().tolist() == [[False, False, True], [False, False, False]]
        assert to_scores(g).excluded.tolist() == [[False, False, True], [False, False, False]]


class TestWriteGrid:
    def test_writes_six_significant_digits(self, tmp_path):
        g = Grid(np.array([[0.123456789, 1234567.0]]))
        p = tmp_path / "g.asc"
        write_grid(g, p)
        body = p.read_text().splitlines()[6]
        assert body == "0.123457 1.23457e+06"

    def test_header_origin_and_cell_size_read_back_exactly(self, tmp_path):
        # Six digits would write 412346 and 4.71234e+06, and the reload would not line up with its source.
        g = Grid(np.array([[0.5, 1.0]]), cell_size=30.000001, origin_x=412345.5, origin_y=4712345.0)
        p = tmp_path / "g.asc"
        write_grid(g, p)
        assert p.read_text().splitlines()[2:5] == ["xllcorner 412345.5", "yllcorner 4712345.0", "cellsize 30.000001"]
        reloaded = load_grid(p)
        check_aligned(reloaded, "reloaded", g, "source")
        assert (reloaded.origin_x, reloaded.origin_y, reloaded.cell_size) == (412345.5, 4712345.0, 30.000001)

    def test_header_values_that_six_digits_hold_keep_their_text(self, tmp_path):
        g = Grid(np.array([[0.5, -9999.0]]), cell_size=0.25, origin_x=-1.5e-07, origin_y=123456.0, nodata=-9999.0)
        p = tmp_path / "g.asc"
        write_grid(g, p)
        assert p.read_text().splitlines()[2:6] == [
            "xllcorner -1.5e-07", "yllcorner 123456", "cellsize 0.25", "NODATA_value -9999",
        ]

    def test_accepts_binary_and_score_grids(self, tmp_path):
        b = BinaryGrid(np.array([[1, 0], [-1, 1]], dtype=np.int8))
        write_grid(b, tmp_path / "b.asc")
        g = load_grid(tmp_path / "b.asc")
        assert g.values.tolist() == [[1.0, 0.0], [-9999.0, 1.0]]

        s = ScoreGrid(np.array([[0.5, 0.25]]), excluded=np.array([[False, True]]))
        write_grid(s, tmp_path / "s.asc")
        g2 = load_grid(tmp_path / "s.asc")
        assert g2.values.tolist() == [[0.5, -9999.0]]

    @pytest.mark.parametrize("kind", ["binary", "score"])
    def test_classified_grids_are_written_without_a_float_copy(self, tmp_path, kind):
        rng = np.random.default_rng(5)
        excluded = rng.random((1000, 1000)) < 0.15
        if kind == "binary":
            grid = BinaryGrid(np.where(excluded, EXCLUDED, rng.integers(0, 2, excluded.shape)))
        else:
            grid = ScoreGrid(np.round(rng.random(excluded.shape), 6), excluded)
        tracemalloc.start()
        try:
            write_grid(grid, tmp_path / "g.asc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8 // 2  # half of one float64 copy of the grid


class TestToBinary:
    def test_basic_classification(self):
        g = Grid(np.array([[1.0, 0.0], [-9999.0, 1.0]]))
        b = to_binary(g)
        assert b.values.tolist() == [[1, 0], [EXCLUDED, 1]]

    def test_exclusion_grid_nonzero_and_nodata_both_exclude(self):
        g = Grid(np.array([[1.0, 0.0, 1.0]]))
        # Exclusion: cell 0 flagged, cell 2 is nodata in the exclusion layer
        # (unknown suitability counts as exclusionary), cell 1 stays live.
        excl = Grid(np.array([[1.0, 0.0, -9999.0]]))
        b = to_binary(g, exclusion=excl)
        assert b.values.tolist() == [[EXCLUDED, 0, EXCLUDED]]

    def test_stray_value_reports_flat_index(self):
        g = Grid(np.array([[1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="0.5.* at flat index 2: not 1.0/0.0 and not excluded$"):
            to_binary(g)

    def test_stray_value_under_exclusion_is_fine(self):
        g = Grid(np.array([[1.0, 0.5]]))
        excl = Grid(np.array([[0.0, 1.0]]))
        b = to_binary(g, exclusion=excl)
        assert b.values.tolist() == [[1, EXCLUDED]]

    def test_shape_mismatch(self):
        g = Grid(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="exclusion shape"):
            to_binary(g, exclusion=Grid(np.zeros((2, 3))))


class TestToScores:
    def test_scores_keep_values_and_mask(self):
        g = Grid(np.array([[0.2, -9999.0, 0.8]]))
        s = to_scores(g)
        assert s.excluded.tolist() == [[False, True, False]]
        assert s.values[0, 0] == 0.2
        # Excluded cells are zeroed so no out-of-range sentinel leaks through.
        assert s.values[0, 1] == 0.0

    def test_out_of_range_live_score_rejected(self):
        g = Grid(np.array([[1.5, 0.5]]))
        with pytest.raises(ValueError, match="outside"):
            to_scores(g)


class TestThresholdScores:
    def test_exactly_one_mode_required(self):
        s = ScoreGrid(np.array([[0.5]]))
        with pytest.raises(ValueError, match="exactly one"):
            threshold_scores(s)
        with pytest.raises(ValueError, match="exactly one"):
            threshold_scores(s, value=0.5, quantity=1)

    def test_value_mode_is_inclusive(self):
        s = ScoreGrid(np.array([[0.2, 0.5, 0.8]]))
        b = threshold_scores(s, value=0.5)
        assert b.values.tolist() == [[0, 1, 1]]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -5.0, True], ids=repr)
    def test_value_outside_the_unit_interval_is_refused(self, value):
        # Such a cut would give an all-0 or all-1 map without a word.
        s = ScoreGrid(np.array([[0.2, 0.9]]))
        with pytest.raises(ValueError, match=re.escape(f"value must be in [0, 1], got {value!r}")):
            threshold_scores(s, value=value)

    def test_value_mode_keeps_exclusions(self):
        s = ScoreGrid(np.array([[0.9, 0.9]]), excluded=np.array([[True, False]]))
        b = threshold_scores(s, value=0.5)
        assert b.values.tolist() == [[EXCLUDED, 1]]

    def test_quantity_mode_marks_exact_count(self):
        rng = np.random.default_rng(11)
        s = ScoreGrid(rng.uniform(size=(9, 9)))
        for q in (0, 1, 40, 81):
            b = threshold_scores(s, quantity=q)
            assert b.n_ones == q
            assert b.n_zeros == 81 - q

    def test_quantity_mode_picks_highest_scores(self):
        s = ScoreGrid(np.array([[0.1, 0.9], [0.8, 0.3]]))
        b = threshold_scores(s, quantity=2)
        assert b.values.tolist() == [[0, 1], [1, 0]]

    def test_quantity_ties_break_by_row_major_index(self):
        s = ScoreGrid(np.array([[0.5, 0.9, 0.5], [0.5, 0.1, 0.2]]))
        b = threshold_scores(s, quantity=2)
        # 0.9 wins outright; among the three tied 0.5s the lowest flat index
        # (row 0, col 0) takes the one remaining slot.
        assert b.values.tolist() == [[1, 1, 0], [0, 0, 0]]
        b3 = threshold_scores(s, quantity=3)
        assert b3.values.tolist() == [[1, 1, 1], [0, 0, 0]]

    def test_quantity_skips_excluded_cells(self):
        s = ScoreGrid(
            np.array([[0.99, 0.5], [0.4, 0.3]]),
            excluded=np.array([[True, False], [False, False]]),
        )
        b = threshold_scores(s, quantity=1)
        assert b.values.tolist() == [[EXCLUDED, 1], [0, 0]]

    def test_quantity_beyond_live_cells_rejected(self):
        s = ScoreGrid(np.array([[0.5, 0.5]]), excluded=np.array([[False, True]]))
        with pytest.raises(ValueError, match="quantity 2 outside"):
            threshold_scores(s, quantity=2)
        with pytest.raises(ValueError, match="quantity must be a non-negative integer, got -1"):
            threshold_scores(s, quantity=-1)

    @pytest.mark.parametrize(
        "quantity", [2.0, 2.5, np.float64(2.0), True, "2", np.inf], ids=["2.0", "2.5", "np2.0", "True", "str", "inf"]
    )
    def test_quantity_must_be_an_integer(self, quantity):
        s = ScoreGrid(np.array([[0.5, 0.7, 0.1]]))
        with pytest.raises(ValueError, match="quantity must be a non-negative integer"):
            threshold_scores(s, quantity=quantity)

    def test_numpy_integer_quantity_accepted(self):
        s = ScoreGrid(np.array([[0.5, 0.7, 0.1]]))
        assert threshold_scores(s, quantity=np.int64(2)).values.tolist() == [[1, 1, 0]]

    def test_quantity_ties_at_signed_zero_break_by_index(self):
        # -0.0 == 0.0: the cut at zero takes the lowest-indexed zeros of either sign.
        s = ScoreGrid(np.array([[0.0, 0.3, -0.0, 0.0]]))
        assert threshold_scores(s, quantity=2).values.tolist() == [[1, 1, 0, 0]]
        s = ScoreGrid(np.array([[0.0, 0.3, -0.0, 0.0]]), excluded=np.array([[True, False, False, False]]))
        assert threshold_scores(s, quantity=2).values.tolist() == [[EXCLUDED, 1, 1, 0]]

    def test_value_and_quantity_agree_on_distinct_scores(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            vals = rng.permutation(100) / 100.0
            s = ScoreGrid(vals.reshape(10, 10))
            k = int(rng.integers(1, 100))
            cut = float(np.sort(vals)[::-1][k - 1])
            assert (
                threshold_scores(s, quantity=k).values.tolist()
                == threshold_scores(s, value=cut).values.tolist()
            )


class TestCheckAligned:
    FIELDS = [("cell_size", 90.0, 30.0), ("origin_x", 5000.0, 0.0), ("origin_y", -30.0, 0.0)]

    @pytest.mark.parametrize("field, off, base", FIELDS)
    @pytest.mark.parametrize(
        "convert",
        [lambda g, e: to_binary(g, exclusion=e), lambda g, e: to_scores(g, exclusion=e)],
        ids=["to_binary", "to_scores"],
    )
    def test_misaligned_exclusion_is_named(self, convert, field, off, base):
        grid = Grid(np.zeros((2, 2)))
        exclusion = Grid(np.zeros((2, 2)), **{field: off})
        message = f"exclusion {field} {off!r} != grid {field} {base!r}: the rasters do not line up"
        with pytest.raises(ValueError) as err:
            convert(grid, exclusion)
        assert str(err.value) == message

    def test_tolerance_is_relative_to_the_cell_size(self):
        base = Grid(np.zeros((1, 1)), cell_size=30.0, origin_x=0.3, origin_y=1e6)
        # 0.1 + 0.2 != 0.3, and 20 nm on a 30 m cell are both within 1e-9 x 30.
        check_aligned(base, "a", Grid(np.zeros((1, 1)), cell_size=30.0, origin_x=0.1 + 0.2, origin_y=1e6 + 2e-8), "b")
        with pytest.raises(ValueError, match="origin_y"):
            check_aligned(base, "a", Grid(np.zeros((1, 1)), cell_size=30.0, origin_x=0.3, origin_y=1e6 + 1e-7), "b")

    def test_nan_origin_matches_nan(self):
        a = Grid(np.zeros((1, 1)), origin_x=np.nan)
        check_aligned(a, "a", Grid(np.zeros((1, 1)), origin_x=np.nan), "b")
        with pytest.raises(ValueError, match="origin_x nan != b origin_x 0.0"):
            check_aligned(a, "a", Grid(np.zeros((1, 1))), "b")


class TestDomainRules:
    @pytest.mark.parametrize(
        "rule, value",
        [
            (raster.check_unit, 0.0),
            (raster.check_unit, 1),
            (raster.check_unit, np.float32(0.25)),
            (raster.check_positive, 5e-324),
            (raster.check_positive, 3),
            (raster.check_positive, np.float64(1e308)),
            (raster.check_count, 0),
            (raster.check_count, np.int64(7)),
        ],
        ids=repr,
    )
    def test_a_value_in_the_domain_comes_back_as_it_is(self, rule, value):
        assert rule("x", value) is value

    @pytest.mark.parametrize("value", [True, np.True_, math.nan, "0.5", None], ids=repr)
    @pytest.mark.parametrize("rule", [raster.check_unit, raster.check_positive, raster.check_count])
    def test_bools_nan_and_non_numbers_are_refused(self, rule, value):
        with pytest.raises(ValueError, match=r"^x must be .*, got "):
            rule("x", value)

    def test_a_count_of_at_least_one_is_a_positive_integer(self):
        assert raster.check_count("n", 1, least=1) == 1
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got 0$"):
            raster.check_count("n", 0, least=1)
        with pytest.raises(ValueError, match=r"^n must be a non-negative integer, got -1$"):
            raster.check_count("n", -1)


class TestMessagesShowPythonValues:
    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: to_binary(Grid(np.array([[0.5]]))), "unexpected value 0.5 at flat index 0"),
            (lambda: BinaryGrid(np.array([[0.5]])), "value 0.5 at flat index 0 changes when cast to int8"),
            (
                lambda: check_aligned(
                    Grid(np.zeros((1, 1)), cell_size=np.float64(30.0)), "a",
                    Grid(np.zeros((1, 1)), cell_size=np.float32(90.0)), "b",
                ),
                "a cell_size 30.0 != b cell_size 90.0",
            ),
            (lambda: raster.check_unit("x", np.float64(1.5)), "x must be in [0, 1], got 1.5"),
            (lambda: raster.check_positive("x", np.float32(-1.0)), "x must be positive and finite, got -1.0"),
            (lambda: raster.check_count("x", np.float64(2.0)), "x must be a non-negative integer, got 2.0"),
            (lambda: raster.check_count("x", np.int8(-3)), "x must be a non-negative integer, got -3"),
        ],
        ids=["to_binary", "lossy-cast", "check_aligned", "check_unit", "check_positive", "float-count", "int8-count"],
    )
    def test_a_numpy_scalar_prints_as_a_python_value(self, call, shown):
        # Not np.float64(0.5): the message reaches report failure rows and the CLI's error line.
        with pytest.raises(ValueError) as err:
            call()
        assert shown in str(err.value)
        assert "np." not in str(err.value)
