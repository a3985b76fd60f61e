"""The benchmark's span targets still name functions of the library.

`perfbench/spans.py` wraps library functions by dotted name, such as
`mapbayes.cli.tile_region`, and reports a name that no longer resolves as an
absent metric rather than failing. So a function moved or renamed in
`src/` would silently blank a span; this test fails instead. The file is
read as text, never imported or edited.
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


def target_names():
    """Every dotted `mapbayes.` name in the `TARGETS` table of spans.py."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and any(
            isinstance(t, ast.Name) and t.id == "TARGETS"
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
        )
    ]
    return {
        node.value
        for node in ast.walk(table)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("mapbayes.")
    }


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
