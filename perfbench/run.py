#!/usr/bin/env python3
"""End-to-end benchmark of the mapbayes CLI, with a layer-traced mode.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload paper_report --seed 3 --seconds 10 --trace 0

Each workload is a closed loop with one client: it generates its inputs from
the seed, then runs one `mapbayes` command at a time, each in a fresh
interpreter, until --seconds have passed, and checks the outputs. The last
line of standard output is one JSON object with the run's result. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up runs at least this often, and often enough that this much time goes
#: into it, so that a set-up of a fraction of a second still gives a steady median.
SETUP_REPEATS, SETUP_MIN_S = 3, 2.0
MIN_COMMANDS = 3
COMMAND_TIMEOUT_S = 150
LOOP_LIMIT_S = 120
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {"job_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples above it.

    Returns (percentile, value) by the nearest-rank rule, or None when the
    run holds too few samples for any rung.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, -(-int(p * n) // 100))  # ceil(p n / 100)
        value = ordered[rank - 1]
        if sum(x > value for x in ordered) >= TAIL_MIN_BEYOND:
            best = (p, value)
    return best


def environment() -> str:
    import numpy

    compiled = sorted(p.name for p in (SRC / "mapbayes").rglob("*") if p.suffix in (".so", ".pyd"))
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"tree=src compiled_extensions={','.join(compiled) or 'none'}"
    )


def run_command(argv: list[str], result: Path, trace: bool, stderr_path: Path) -> dict:
    """One CLI command in a fresh interpreter; returns the child's result."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result), "1" if trace else "0", "--", *argv]
    with stderr_path.open("wb") as err:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=err, timeout=COMMAND_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not result.is_file():
        tail = stderr_path.read_text(errors="replace")[-2000:]
        return {"exit_code": proc.returncode or 1, "job_s": None, "rss_kb": None, "stderr": tail}
    return json.loads(result.read_text(encoding="utf-8"))


def _manifest_failures(out: Path) -> int:
    path = out / "manifest.json"
    return len(json.loads(path.read_text(encoding="utf-8"))["failures"]) if path.is_file() else 0


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    failures: list[str] = []
    layer: dict[str, float] = {}

    # Set-up 0 makes the inputs the commands use. The other set-ups redo the
    # same work only to time it. They are spread over the timed window, and
    # their own time does not count towards it, so set-up times sample the
    # same stretch of a drifting machine as the commands do.
    setup_times, digests = [], []

    def setup(k: int) -> workloads.Prepared:
        d = work / f"inputs{k}"
        d.mkdir(parents=True)
        rec = inst = None
        if trace and k == 0:
            rec = spans.Recorder()
            inst = spans.install(rec, spans.SETUP_TARGETS)
        t0 = time.perf_counter()
        try:
            p = wl.setup(seed, d)
        finally:
            setup_times.append(time.perf_counter() - t0)
            if inst is not None:
                spans.uninstall(inst)
        if rec is not None:
            absent = inst.absent_stems(spans.SETUP_TARGETS)
            layer.update(spans.command_metrics(rec.spans, absent, spans.SETUP_METRICS))
        digests.append(checks.tree_digest(d))
        if k > 0:
            shutil.rmtree(d)
        return p

    prepared = setup(0)
    n_setups = max(SETUP_REPEATS, math.ceil(SETUP_MIN_S / max(setup_times[0], 1e-3)))

    # Closed loop: one command at a time. Command 0 warms the caches and is
    # checked in full but not timed; the timed commands follow it until the
    # time is up, and each must give command 0's output tree.
    untraced, traced, rss = [], [], []
    per_command: list[dict[str, float]] = []
    unwrapped: set[str] = set()
    failed_items, commands, first_digest = 0, 0, None
    min_commands = 1 + (2 * MIN_COMMANDS if trace else MIN_COMMANDS)
    start, paused = None, 0.0
    while commands < min_commands or time.perf_counter() - start - paused < seconds:
        timed = commands > 0
        traced_cmd = trace and commands % 2 == 0 and timed
        out = work / f"out{commands}"
        res = run_command(prepared.argv(out), work / f"result{commands}.json", traced_cmd,
                          work / f"stderr{commands}.txt")
        if res["exit_code"] != 0:
            failures.append(f"command {commands} exited {res['exit_code']}: {res.get('stderr', '')[-300:]}")
            failed_items += prepared.items
        else:
            failed_items += _manifest_failures(out)
            if timed:
                (traced if traced_cmd else untraced).append(res["job_s"])
                if not traced_cmd:
                    rss.append(res["rss_kb"] / 1024.0)
            if traced_cmd:
                recorded = [spans.Span.from_json(s) for s in res["spans"]]
                m = spans.command_metrics(recorded, set(res["absent"]))
                if abs(sum(m[n] for n in spans.SELF_METRICS) - m["trace.job_s"]) > 1e-6:
                    failures.append(f"command {commands}: layer self times do not add up to job_s")
                per_command.append(m)
                unwrapped.update(res["unwrapped"])
        digest = checks.tree_digest(out) if out.is_dir() else None
        if commands == 0:
            first_digest = digest
            try:
                failures += prepared.check(out)
            except (OSError, ValueError, KeyError) as exc:
                failures.append(f"output check could not read the output: {exc!r}")
            kde_err, conv_err = checks.scope_errors(out / "summary.json")
            layer["kde.scope_errors"] = kde_err
            layer["convergence.scope_errors"] = conv_err
            start = time.perf_counter()
        elif digest != first_digest:
            failures.append(f"command {commands}: output tree differs from the first command's")
        if commands > 0 and out.is_dir():
            shutil.rmtree(out)
        commands += 1
        # Set-up k is due once k / n_setups of the window has passed.
        t_pause = time.perf_counter()
        while (len(setup_times) < n_setups
               and t_pause - start - paused >= seconds * len(setup_times) / n_setups):
            setup(len(setup_times))
        paused += time.perf_counter() - t_pause
        if time.perf_counter() - start > LOOP_LIMIT_S:
            break
    while len(setup_times) < n_setups:
        setup(len(setup_times))
    if len(set(digests)) != 1:
        failures.append("inputs differ between identical set-ups")

    attempted = prepared.items * commands
    metrics: dict[str, float] = {}
    if untraced:
        job = statistics.fmean(untraced)
        metrics = {
            "job_s": job,
            "items_per_s": prepared.items / job,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(rss),
        }
    if trace and per_command:
        for key in per_command[0]:
            layer[key] = statistics.median(m[key] for m in per_command)
        if untraced:
            layer["trace_overhead"] = statistics.fmean(traced) / statistics.fmean(untraced)
    return {
        "workload": name,
        "item": wl.item,
        "items": prepared.items,
        "commands": commands,
        "untraced": untraced,
        "setup_times": setup_times,
        "input_digest": digests[0],
        "attempted": attempted,
        "failed": failed_items + len(failures),
        "failures": failures,
        "metrics": metrics,
        "layer": layer,
        "unwrapped": sorted(unwrapped),
    }


def report(r: dict, trace: bool) -> None:
    """Human-readable lines for one workload (the JSON line comes last)."""
    print(f"workload {r['workload']}: {r['items']} items ({r['item']}) per command, {r['commands']} commands, "
          f"inputs sha256 {r['input_digest'][:16]}")
    m = r["metrics"]
    if m:
        tail = tail_percentile(r["untraced"])
        tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                     else f"no percentile has {TAIL_MIN_BEYOND} samples beyond it")
        print(f"  job_s        {m['job_s']:.4f} s   mean of {len(r['untraced'])} timed commands; "
              f"median {statistics.median(r['untraced']):.4f} s; tail: {tail_text}")
        print(f"  items_per_s  {m['items_per_s']:.2f} 1/s")
        print(f"  setup_s      {m['setup_s']:.4f} s   median of {len(r['setup_times'])} set-ups")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
    print(f"  error_rate   {r['failed'] / r['attempted']:.4g} ratio   {r['failed']} failed of {r['attempted']}")
    for f in r["failures"][:10]:
        print(f"  FAILED {f}")
    if trace:
        for key in sorted(r["layer"]):
            print(f"  {key:<42} {r['layer'][key]:.6g}")
        for name in r["unwrapped"]:
            print(f"  not wrapped (gone from this version): {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mapbayes" / "__init__.py").is_file():
        print(f"error: no mapbayes source tree at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    print(environment())
    results = []
    for name in names:
        work = HERE / ".work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(results[-1], bool(args.trace))
    try:
        (HERE / ".work").rmdir()
    except OSError:  # not empty: another run is using it
        pass

    def metric_block(r: dict) -> dict:
        if args.trace:
            return {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]} for k, v in r["layer"].items()}
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in r["metrics"].items()}

    if len(results) == 1:
        metrics = metric_block(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metric_block(r).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
