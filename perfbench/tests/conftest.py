"""Put the program (``src/``) and the benchmark modules on the path.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
