"""Put the benchmark's modules and the mapbayes source tree on the path."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for p in (BENCH, BENCH.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))
