"""Self-tests of the span recorder, the wrappers and the self-time arithmetic."""

import json
import sys
import types
from pathlib import Path

import pytest

import spans


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_times_subtract_nested_children():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    rec = spans.Recorder(FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    root = rec.open("startup.process")
    a = rec.open("report.run_job")
    b = rec.open("raster.load_grid")
    rec.close(b)
    rec.close(a)
    c = rec.open("kde.evaluate")
    rec.close(c)
    rec.close(root)

    selfs = spans.self_times(rec.spans)
    assert selfs["startup"] == pytest.approx(10 - 3 - 4)
    assert selfs["report"] == pytest.approx(3 - 1)
    assert selfs["raster"] == pytest.approx(1)
    assert selfs["kde"] == pytest.approx(4)
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert [s.parent for s in rec.spans] == [None, root.id, a.id, root.id]


def test_spans_round_trip_through_json():
    rec = spans.Recorder(FakeClock([0.0, 1.5]))
    s = rec.open("raster.load_grid")
    s.counts["cells"] = 7
    s.key = "a.asc"
    rec.close(s)
    back = spans.Span.from_json(json.loads(json.dumps(s.to_json())))
    assert (back.name, back.start, back.end, back.counts, back.key) == ("raster.load_grid", 0.0, 1.5, {"cells": 7}, "a.asc")


@pytest.fixture
def fakepkg(monkeypatch):
    mod = types.ModuleType("fakepkg_for_spans")

    def work(n):
        return helper(n) + 1

    def helper(n):
        if n < 0:
            raise ValueError("negative")
        return n * 2

    mod.work = work
    mod.helper = helper
    monkeypatch.setitem(sys.modules, "fakepkg_for_spans", mod)
    return mod


def test_install_wraps_counts_and_restores(fakepkg):
    targets = (
        spans.Target("report.work", ("fakepkg_for_spans.work",)),
        spans.Target("raster.gone", ("fakepkg_for_spans.removed_in_a_later_version",)),
    )
    original = fakepkg.work
    rec = spans.Recorder()
    inst = spans.install(rec, targets)
    try:
        assert fakepkg.work(3) == 7
        with pytest.raises(ValueError):
            fakepkg.work(-1)
    finally:
        spans.uninstall(inst)
    assert fakepkg.work is original
    assert inst.absent_stems(targets) == {"raster.gone"}
    assert inst.missing == ["fakepkg_for_spans.removed_in_a_later_version"]
    totals = spans.stem_totals(rec.spans)
    assert totals["report.work"]["calls"] == 2
    assert totals["report.work"]["failed"] == 1


def test_same_stem_nesting_counts_once(fakepkg):
    # A caller-side alias that calls the defining module's name is one call.
    fakepkg.outer = lambda n: fakepkg.work(n)
    targets = (spans.Target("report.work", ("fakepkg_for_spans.outer", "fakepkg_for_spans.work")),)
    rec = spans.Recorder()
    inst = spans.install(rec, targets)
    try:
        fakepkg.outer(1)
    finally:
        spans.uninstall(inst)
    assert [s.name for s in rec.spans] == ["report.work"]


def _write_runs(path: Path) -> None:
    from mapbayes import SynthConfig, generate_run_table
    from mapbayes.report import write_runs_csv

    write_runs_csv(path, generate_run_table(SynthConfig(seed=1, planted_offset=0.5), n_boxes=30))


def _traced_cli(argv, targets=spans.TARGETS):
    import mapbayes.cli

    rec = spans.Recorder()
    root = rec.open(spans.ROOT)
    inst = spans.install(rec, targets)
    try:
        assert mapbayes.cli.main(argv) == 0
    finally:
        spans.uninstall(inst)
        rec.close(root)
    return rec, inst


def test_deleted_name_gives_absent_metric_and_the_run_finishes(tmp_path, monkeypatch):
    import mapbayes.cli

    monkeypatch.delattr(mapbayes.cli, "tile_region")
    runs = tmp_path / "runs.csv"
    _write_runs(runs)
    rec, inst = _traced_cli(["converge", "--runs", str(runs), "--out", str(tmp_path / "out")])

    assert "mapbayes.cli.tile_region" in inst.missing
    metrics = spans.command_metrics(rec.spans, inst.absent_stems())
    assert "sampling.tile_region.s" not in metrics
    assert "sampling.tile_region.boxes" not in metrics
    assert metrics["sampling.classify_pools.s"] == 0.0
    assert metrics["kde.evaluate.calls"] > 0
    assert metrics["kde.find_crossings.calls"] == 2 * 4  # twice per scope: all, A, B, C
    assert sum(metrics[n] for n in spans.SELF_METRICS) == pytest.approx(metrics["trace.job_s"], abs=1e-9)


def test_per_layer_metrics_match_the_benchmark_file():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == spans.PER_LAYER_UNITS
