"""The import boundary: a command loads only the modules it calls.

`import mapbayes` loads no submodule; `sample` loads only `cli`, `raster`,
`sampling` and `tableio`, `kde` only `cli`, `raster`, `tableio` and `kde`,
and `converge` no `sampling`. No command loads `logging`, and `sample` and
`kde`, which hash no output tree, load no `hashlib`. Each boundary is
checked in a fresh interpreter, since this one has loaded every module
already.
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

from conftest import build_job_tree, write_input_files

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules that `sample` never calls.
ANALYSIS = {"mapbayes.report", "mapbayes.kde", "mapbayes.convergence", "mapbayes.bayes", "mapbayes.confusion",
            "mapbayes.synth"}

#: Standard-library modules watched at the boundary: mapbayes logs nothing,
#: and only `report` and `converge` hash the files of their output tree.
LOGGING, HASHING = {"logging"}, {"hashlib", "_hashlib"}


def run_fresh(code):
    """The last line that `code` prints, run in a fresh interpreter that imports mapbayes from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def modules_after(code, watched=()):
    """The mapbayes modules, and those of `watched`, that a fresh interpreter holds after running `code`."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'mapbayes' or m in {set(watched)!r})))"
    )
    return set(json.loads(run_fresh(probe)))


def command_argv(command, tmp_path):
    """The arguments of a small run of `command`, its inputs written under `tmp_path` and its output in `out`."""
    out = ["--out", str(tmp_path / "out")]
    rng = np.random.default_rng({"sample": 3, "kde": 5, "converge": 6}.get(command))
    if command == "sample":
        for name in ("change", "excl"):
            write_grid(BinaryGrid((rng.random((12, 12)) < 0.3).astype(np.int8)), tmp_path / f"{name}.asc")
        return ["sample", "--change", str(tmp_path / "change.asc"), "--exclusion", str(tmp_path / "excl.asc"),
                "--box-cells", "9", "--n-quantiles", "2", *out]
    if command == "kde":
        samples = tmp_path / "samples.csv"
        rows = [f"pos,{v}" for v in rng.uniform(0.4, 1.0, 40)] + [f"neg,{v}" for v in rng.uniform(0.0, 0.6, 40)]
        samples.write_text("label,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return ["kde", "--samples", str(samples), *out]
    if command == "converge":
        n = 60
        runs = RunTable(np.arange(n), ["AB"[i % 2] for i in range(n)], np.arange(n) % 3 + 1, rng.uniform(0, 1, n),
                        rng.uniform(0, 1, n))
        return ["converge", "--runs", str(write_runs_csv(tmp_path / "runs.csv", runs)), *out]
    if command in ("assess", "sweep"):
        row = write_input_files(tmp_path, box_id=0, cycle=1, kind="binary", seed=5)
        return [command, "--sim", str(tmp_path / row["sim"]), "--obs", str(tmp_path / row["obs"]), *out]
    if command == "report":
        config, _ = build_job_tree(tmp_path)
        return ["report", "--config", str(config), *out]
    return ["synth", "--rows", "8", "--cols", "8", *out]


def run_command(argv, watched=()):
    """The mapbayes modules, and those of `watched`, that a fresh interpreter holds after `cli.main(argv)`."""
    return modules_after(f"import mapbayes.cli\nassert mapbayes.cli.main({argv!r}) == 0", watched)


def test_importing_the_package_loads_no_submodule():
    assert modules_after("import mapbayes") == {"mapbayes"}


def test_sample_loads_no_analysis_module(tmp_path):
    loaded = run_command(command_argv("sample", tmp_path))
    assert (tmp_path / "out" / "sample.csv").is_file()
    assert not loaded & ANALYSIS
    assert loaded == {"mapbayes", "mapbayes.cli", "mapbayes.raster", "mapbayes.sampling", "mapbayes.tableio"}


def test_kde_loads_only_the_density_module(tmp_path):
    loaded = run_command(command_argv("kde", tmp_path))
    assert (tmp_path / "out" / "kde.csv").is_file()
    assert loaded == {"mapbayes", "mapbayes.cli", "mapbayes.raster", "mapbayes.tableio", "mapbayes.kde"}


def test_converge_loads_no_sampling(tmp_path):
    loaded = run_command(command_argv("converge", tmp_path))
    assert (tmp_path / "out" / "summary.json").is_file()
    assert "mapbayes.convergence" in loaded and "mapbayes.sampling" not in loaded


@pytest.mark.parametrize("command", ["assess", "sweep", "kde", "converge", "sample", "synth", "report"])
def test_no_command_loads_logging(tmp_path, command):
    loaded = run_command(command_argv(command, tmp_path), LOGGING)
    assert (tmp_path / "out").is_dir()
    assert not loaded & LOGGING


@pytest.mark.parametrize("command", ["sample", "kde"])
def test_a_command_that_hashes_no_tree_loads_no_hashlib(tmp_path, command):
    # numpy.random loads hashlib (through `secrets`) at its first draw, so
    # `sample` asks for more quantiles than any pool holds and draws nothing.
    argv = command_argv(command, tmp_path)
    if command == "sample":
        argv[argv.index("--n-quantiles") + 1] = "1000"
    loaded = run_command(argv, HASHING)
    assert (tmp_path / "out").is_dir()
    assert not loaded & HASHING


def test_the_tree_writers_hash_their_files(tmp_path):
    # The check above would pass if the watched names were misspelt; `converge` shows they are not.
    assert HASHING <= run_command(command_argv("converge", tmp_path), HASHING)


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
