"""Tests for `tableio.ColumnTable`, the one column table under `RunTable` and `BoxTable`.

A sub-table, taken by mask or by positions, must equal the table rebuilt
from the sliced argument columns bit for bit, derived columns included,
without checking or deriving anything again; grouping must split the rows
into parts by ascending key, each in table order.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapbayes import BoxTable, RunTable, sampling
from mapbayes.tableio import ColumnTable

SHARES = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


def run_rows(n):
    return st.tuples(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
        st.lists(st.sampled_from(["A", "B", "b", "A\x00", "Ä"]), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
    )


def box_rows(n):
    return st.tuples(
        st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(SHARES, min_size=n, max_size=n),
        st.lists(SHARES, min_size=n, max_size=n),
    )


#: (table class, its argument columns), 0 to 12 rows.
tables = st.integers(0, 12).flatmap(
    lambda n: st.one_of(st.tuples(st.just(RunTable), run_rows(n)), st.tuples(st.just(BoxTable), box_rows(n)))
)


@st.composite
def selections(draw):
    """A table's class, its argument columns, and rows to select: a boolean mask or a position array."""
    cls, columns = draw(tables)
    n = len(columns[0])
    if draw(st.booleans()):
        rows = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        rows = np.array(draw(st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([])), dtype=np.intp)
    return cls, columns, rows


def assert_same_table(got, expected):
    """Every column, derived ones too, of one dtype and equal bit for bit; each read-only."""
    assert type(got) is type(expected)
    for f in fields(expected):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        assert a.dtype == b.dtype, f.name
        if a.dtype == object:
            assert a.tolist() == b.tolist() and [type(v) for v in a.tolist()] == [type(v) for v in b.tolist()]
        else:
            assert a.tobytes() == b.tobytes(), f.name
        assert not a.flags.writeable, f.name


@settings(max_examples=200, deadline=None)
@given(selections())
def test_a_sub_table_equals_the_table_of_the_sliced_columns(selection):
    cls, columns, rows = selection
    table = cls(*columns)
    sliced = [np.array(col, dtype=dtype)[rows] for col, dtype in zip(columns, cls._dtypes.values())]
    assert_same_table(table[rows], cls(*sliced))
    assert len(table[rows]) == len(sliced[0])


@settings(max_examples=100, deadline=None)
@given(tables, st.data())
def test_grouping_splits_the_rows_by_ascending_key_in_table_order(drawn, data):
    cls, columns = drawn
    table = cls(*columns)
    column = data.draw(st.sampled_from(["group", "cycle"] if cls is RunTable else ["row0", "col0"]))
    values = getattr(table, column)
    parts = dict(table.group_by(column))
    assert list(parts) == sorted(set(values.tolist()))
    assert sum(map(len, parts.values())) == len(table)
    for key, part in parts.items():
        # Compared as Python objects: numpy would read the key "A\x00" as "A".
        assert_same_table(part, table[np.array([v == key for v in values.tolist()], dtype=bool)])


def test_a_run_table_groups_by_label_and_cycle():
    runs = RunTable([5, 6, 7, 8], ["B", "A", "B", "A"], [2, 1, 1, 2], [0.5, 0.25, 1.0, 0.0], [0.5, 0.5, 0.0, 1.0])
    by_group = dict(runs.group_by("group"))
    assert {g: t.box_id.tolist() for g, t in by_group.items()} == {"A": [6, 8], "B": [5, 7]}
    assert by_group["B"].diff.tolist() == [0.0, 1.0]
    assert [(c, t.box_id.tolist()) for c, t in runs.group_by("cycle")] == [(1, [6, 7]), (2, [5, 8])]
    assert list(runs[np.zeros(4, dtype=bool)].group_by("cycle")) == []


def test_selecting_boxes_derives_no_index_again(monkeypatch):
    calls = []
    index = sampling.change_exclusion_index
    monkeypatch.setattr(sampling, "change_exclusion_index", lambda *a: calls.append(1) or index(*a))
    boxes = BoxTable(np.arange(6), np.zeros(6), np.zeros(6), [0.1, 0.2, 0.0, 0.4, 0.5, 0.6], [0.2] * 6)
    assert len(calls) == 1
    boxes[boxes.index >= 1.0]
    boxes[np.array([5, 0, 0])]
    list(boxes.group_by("row0"))
    pools = sampling.classify_pools(boxes)
    sampling.draw_quantile_sample(pools["A"], 3, seed=1, label="A")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "cls, columns, name",
    [
        (RunTable, ([10**20], ["A"], [1], [0.5], [0.5]), "run table column 'box_id'"),
        (BoxTable, ([0], [0], [10**20], [0.5], [0.5]), "box table column 'col0'"),
    ],
)
def test_a_column_that_will_not_cast_is_named(cls, columns, name):
    with pytest.raises(ValueError, match=f"^{name}: "):
        cls(*columns)


@pytest.mark.parametrize("cls, name", [(RunTable, "run table"), (BoxTable, "box table")])
def test_columns_of_unequal_length_are_refused_by_name(cls, name):
    with pytest.raises(ValueError, match=f"^{name} columns must be 1-D and of one length, got shapes "):
        cls([0, 1], [0, 0], [0, 0], [0.5, 0.5], [0.5])


@pytest.mark.parametrize("table", [RunTable([1], ["A"], [1], [0.5], [0.5]), BoxTable([1], [0], [0], [0.5], [0.5])])
def test_both_tables_count_rows_and_refuse_iteration(table):
    assert isinstance(table, ColumnTable)
    assert len(table) == 1
    with pytest.raises(TypeError):
        iter(table)
