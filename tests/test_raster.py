"""Tests for ASCII grid I/O, binary/score conversion, and thresholding."""

import numpy as np
import pytest

from mapbayes import (
    EXCLUDED,
    BinaryGrid,
    Grid,
    GridFormatError,
    ScoreGrid,
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
        with pytest.raises(ValueError, match="2-D"):
            Grid(np.zeros((0, 3)))

    def test_grid_rejects_bad_cell_size(self):
        for bad in (0, -30.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="cell_size must be positive and finite"):
                Grid(np.zeros((2, 2)), cell_size=bad)

    def test_grid_values_are_read_only(self):
        g = Grid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

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

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL)
        with pytest.raises(ValueError, match="unsupported raster format"):
            load_grid(p, format="geotiff")

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
        assert str(err.value) == message

    def test_overstated_ncols_is_a_format_error(self, tmp_path):
        # The row is checked against ncols before any array is allocated.
        p = tmp_path / "g.asc"
        lines = CANONICAL.split("\n")
        lines[:2] = ["ncols 1000000000000", "nrows 1"]
        p.write_text("\n".join(lines[:7]) + "\n")
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert str(err.value) == "line 7: expected 1000000000000 values, found 3"

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
        with pytest.raises(GridFormatError, match=f"^line {line}: {key} must be a positive integer, got '{value}'$"):
            load_grid(p)

    @pytest.mark.parametrize("value", ["-30", "0", "nan", "inf"])
    def test_cellsize_must_be_positive_and_finite(self, tmp_path, value):
        p = tmp_path / "g.asc"
        p.write_text(CANONICAL.replace("cellsize 30", f"cellsize {value}"))
        with pytest.raises(GridFormatError, match=f"^line 5: cellsize must be positive and finite, got '{value}'$"):
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

    def test_accepts_binary_and_score_grids(self, tmp_path):
        b = BinaryGrid(np.array([[1, 0], [-1, 1]], dtype=np.int8))
        write_grid(b, tmp_path / "b.asc")
        g = load_grid(tmp_path / "b.asc")
        assert g.values.tolist() == [[1.0, 0.0], [-9999.0, 1.0]]

        s = ScoreGrid(np.array([[0.5, 0.25]]), excluded=np.array([[False, True]]))
        write_grid(s, tmp_path / "s.asc")
        g2 = load_grid(tmp_path / "s.asc")
        assert g2.values.tolist() == [[0.5, -9999.0]]


class TestToBinary:
    def test_basic_classification(self):
        g = Grid(np.array([[1.0, 0.0], [-9999.0, 1.0]]))
        b = to_binary(g, one_value=1.0, zero_value=0.0)
        assert b.values.tolist() == [[1, 0], [EXCLUDED, 1]]

    def test_exclusion_grid_nonzero_and_nodata_both_exclude(self):
        g = Grid(np.array([[1.0, 0.0, 1.0]]))
        # Exclusion: cell 0 flagged, cell 2 is nodata in the exclusion layer
        # (unknown suitability counts as exclusionary), cell 1 stays live.
        excl = Grid(np.array([[1.0, 0.0, -9999.0]]))
        b = to_binary(g, one_value=1.0, zero_value=0.0, exclusion=excl)
        assert b.values.tolist() == [[EXCLUDED, 0, EXCLUDED]]

    def test_stray_value_reports_flat_index(self):
        g = Grid(np.array([[1.0, 0.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="flat index 2"):
            to_binary(g, one_value=1.0, zero_value=0.0)

    def test_stray_value_under_exclusion_is_fine(self):
        g = Grid(np.array([[1.0, 0.5]]))
        excl = Grid(np.array([[0.0, 1.0]]))
        b = to_binary(g, one_value=1.0, zero_value=0.0, exclusion=excl)
        assert b.values.tolist() == [[1, EXCLUDED]]

    def test_custom_class_values(self):
        g = Grid(np.array([[2.0, 7.0]]))
        b = to_binary(g, one_value=7.0, zero_value=2.0)
        assert b.values.tolist() == [[0, 1]]

    def test_shape_mismatch(self):
        g = Grid(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="exclusion shape"):
            to_binary(g, 1.0, 0.0, exclusion=Grid(np.zeros((2, 3))))


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
        with pytest.raises(ValueError, match="outside"):
            threshold_scores(s, quantity=-1)

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
