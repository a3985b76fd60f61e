"""Run one mapbayes CLI command in this (fresh) interpreter and time it.

    python3 perfbench/child.py RESULT.json TRACE -- <mapbayes arguments>

job_s runs from this file's first statement, so it includes importing
mapbayes and numpy, to the return of `mapbayes.cli.main`. With TRACE 1 the
spans are kept in memory and written to RESULT.json with the timing.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_kb() -> int:
    """This process's own peak resident set, in KiB.

    `ru_maxrss` is not used where /proc is there: after a spawn it also
    holds the parent's peak resident set, which here is the benchmark's.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import mapbayes.cli

    t_import = time.perf_counter()
    rec = inst = root = None
    if trace:
        import spans

        rec = spans.Recorder()
        root = rec.open(spans.ROOT, start=T0)
        rec.add(spans.IMPORT, T0, t_import)
        inst = spans.install(rec)
    try:
        code = mapbayes.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t_end = time.perf_counter()
    result = {
        "job_s": t_end - T0,
        "exit_code": code,
        "rss_kb": peak_rss_kb(),
    }
    if trace:
        rec.close(root, t_end)
        result["spans"] = [s.to_json() for s in rec.spans]
        result["absent"] = sorted(inst.absent_stems())
        result["unwrapped"] = inst.missing
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
