"""The benchmark's span targets still name functions of the library.

`perfbench/spans.py` wraps library functions by dotted name, such as
`mapbayes.cli.tile_region`, and reports a name that no longer resolves as an
absent metric rather than failing. So a function moved or renamed in
`src/` would silently blank a span; this test fails instead. So does a
published per-layer metric whose stem has no target left that resolves. The
file is read as text, never imported or edited.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

#: Targets that no longer resolve; the next change to the benchmark drops or
#: retargets them. The first three functions are gone. `report` and `cli`
#: read classified maps with `load_binary` and `load_scores`, which classify
#: as they parse, so they no longer import `to_binary`, `to_scores`, or, in
#: `cli`, `load_grid`.
DROPPED = {
    "mapbayes.report.density_intersection",
    "mapbayes.cli.density_intersection",
    "mapbayes.report.factor_values",
    "mapbayes.report.to_binary",
    "mapbayes.report.to_scores",
    "mapbayes.cli.load_grid",
    "mapbayes.cli.to_binary",
}


def table(name):
    """The value assigned to the module-level `name` in spans.py, as a syntax tree."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and any(
            isinstance(t, ast.Name) and t.id == name
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    ]
    return value


def target_names():
    """Every dotted `mapbayes.` name in the `TARGETS` table of spans.py."""
    return {
        node.value
        for node in ast.walk(table("TARGETS"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("mapbayes.")
    }


def targets_by_stem():
    """The dotted names of each `Target(stem, names, ...)` in the `TARGETS` table, by stem."""
    out = {}
    for node in ast.walk(table("TARGETS")):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Target":
            stem, names = node.args[:2]
            out.setdefault(stem.value, []).extend(name.value for name in names.elts)
    return out


def metric_stems():
    """The stem that each metric of `COMMAND_METRICS` and `SETUP_METRICS` reads.

    An entry is either `**_stem_metrics(stem, ...)` or `name: (unit, stem, key)`.
    """
    stems = set()
    for name in ("COMMAND_METRICS", "SETUP_METRICS"):
        node = table(name)
        for key, value in zip(node.keys, node.values):
            stems.add((value.args[0] if key is None else value.elts[1]).value)
    return stems


def resolves(dotted):
    """Whether the longest importable prefix of `dotted` holds the rest as attributes."""
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True
    return False


def test_the_targets_table_is_found():
    names = target_names()
    assert "mapbayes.report.assess_pair" in names and len(names) > 20


def test_every_span_target_resolves_but_the_dropped_ones():
    assert {name for name in target_names() if not resolves(name)} == DROPPED


def test_the_metric_tables_are_found():
    stems = metric_stems()
    assert {"raster.load_grid", "bayes.ratios", "report.run_job", "synth.generate_run_table"} <= stems
    assert len(stems) > 20


def test_every_published_metric_keeps_a_target_that_resolves():
    # A stem whose every name is missing is left out of a traced run's metrics.
    targets = targets_by_stem()
    assert {stem for stem in metric_stems() if not any(map(resolves, targets.get(stem, ())))} == set()
