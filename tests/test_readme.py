"""The README's Python examples run, in order, against the source tree."""

from __future__ import annotations

import re

from conftest import ROOT

#: The body of each fenced ``python`` block.
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_one_namespace():
    blocks = BLOCK.findall((ROOT / "README.md").read_text())
    assert len(blocks) >= 2  # the library quickstart and the spin-algebra layer
    namespace: dict = {}
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"), namespace)
