"""End-to-end and per-layer benchmark for the socaut package.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
The benchmark imports socaut from the working tree's ``src`` directory and
never installs it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


class SourceTreeMissing(RuntimeError):
    """The checkout holds no ``src/socaut`` package to benchmark."""


def use_source_tree() -> None:
    """Put the working tree's ``src`` first on ``sys.path`` so socaut loads from it."""
    if not (SRC / "socaut" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no socaut package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
