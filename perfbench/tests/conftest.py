"""Run with ``python3 -m pytest perfbench/tests`` from the repository root."""

from perfbench import use_source_tree

use_source_tree()
