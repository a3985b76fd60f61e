"""The import boundary: a command loads only the mapbayes modules it calls.

`import mapbayes` loads no submodule; `sample` loads only `cli`, `raster`,
`sampling` and `tableio`, `kde` only `cli`, `raster`, `tableio` and `kde`,
and `converge` no `sampling`. Each boundary is checked in a fresh
interpreter, since this one has loaded every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mapbayes
from mapbayes import BinaryGrid, RunTable, write_grid
from mapbayes.report import write_runs_csv

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules that `sample` never calls.
ANALYSIS = {"mapbayes.report", "mapbayes.kde", "mapbayes.convergence", "mapbayes.bayes", "mapbayes.confusion",
            "mapbayes.synth"}


def run_fresh(code):
    """The last line that `code` prints, run in a fresh interpreter that imports mapbayes from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def modules_after(code):
    """The mapbayes modules that a fresh interpreter holds after running `code`."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'mapbayes')))"
    return set(json.loads(run_fresh(probe)))


def test_importing_the_package_loads_no_submodule():
    assert modules_after("import mapbayes") == {"mapbayes"}


def test_sample_loads_no_analysis_module(tmp_path):
    rng = np.random.default_rng(3)
    for name in ("change", "excl"):
        write_grid(BinaryGrid((rng.random((12, 12)) < 0.3).astype(np.int8)), tmp_path / f"{name}.asc")
    argv = ["sample", "--change", str(tmp_path / "change.asc"), "--exclusion", str(tmp_path / "excl.asc"),
            "--box-cells", "9", "--n-quantiles", "2", "--out", str(tmp_path / "out")]
    loaded = modules_after(f"import mapbayes.cli\nassert mapbayes.cli.main({argv!r}) == 0")
    assert (tmp_path / "out" / "sample.csv").is_file()
    assert not loaded & ANALYSIS
    assert loaded == {"mapbayes", "mapbayes.cli", "mapbayes.raster", "mapbayes.sampling", "mapbayes.tableio"}


def test_kde_loads_only_the_density_module(tmp_path):
    samples = tmp_path / "samples.csv"
    rng = np.random.default_rng(5)
    rows = [f"pos,{v}" for v in rng.uniform(0.4, 1.0, 40)] + [f"neg,{v}" for v in rng.uniform(0.0, 0.6, 40)]
    samples.write_text("label,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    argv = ["kde", "--samples", str(samples), "--out", str(tmp_path / "out")]
    loaded = modules_after(f"import mapbayes.cli\nassert mapbayes.cli.main({argv!r}) == 0")
    assert (tmp_path / "out" / "kde.csv").is_file()
    assert loaded == {"mapbayes", "mapbayes.cli", "mapbayes.raster", "mapbayes.tableio", "mapbayes.kde"}


def test_converge_loads_no_sampling(tmp_path):
    rng = np.random.default_rng(6)
    n = 60
    runs = RunTable(np.arange(n), ["AB"[i % 2] for i in range(n)], np.arange(n) % 3 + 1, rng.uniform(0, 1, n),
                    rng.uniform(0, 1, n))
    argv = ["converge", "--runs", str(write_runs_csv(tmp_path / "runs.csv", runs)), "--out", str(tmp_path / "out")]
    loaded = modules_after(f"import mapbayes.cli\nassert mapbayes.cli.main({argv!r}) == 0")
    assert (tmp_path / "out" / "summary.json").is_file()
    assert "mapbayes.convergence" in loaded and "mapbayes.sampling" not in loaded


def test_a_wrapper_set_before_its_module_loads_is_the_function_called(tmp_path):
    # perfbench wraps `mapbayes.cli.<name>` before any command runs, while the
    # name's module is not loaded yet; the command must call the wrapper.
    code = (
        "import mapbayes.cli as cli\n"
        "calls = []\n"
        "real = cli.generate_run_table\n"
        "cli.generate_run_table = lambda *a, **k: calls.append(1) or real(*a, **k)\n"
        f"assert cli.main(['synth', '--out', {str(tmp_path / 'out')!r}, '--rows', '8', '--cols', '8']) == 0\n"
        "print(len(calls), cli.generate_run_table is not real)\n"
    )
    assert run_fresh(code) == "1 True"


def test_every_public_name_resolves_and_is_listed():
    listed = set(dir(mapbayes))
    for name in mapbayes.__all__:
        assert getattr(mapbayes, name) is not None, name
        assert name in listed, name
    assert len(set(mapbayes.__all__)) == len(mapbayes.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'SampleBox'"):
        mapbayes.SampleBox
