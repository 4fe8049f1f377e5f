"""The README's Python examples run, in order, against the source tree, and
its list of command-line flags is the parser's."""

from __future__ import annotations

import argparse
import re

from socaut.cli import build_parser

from conftest import ROOT

#: The body of each fenced ``python`` block.
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
#: The README paragraph that lists the flags, up to the next blank line.
FLAGS = re.compile(r"^Flags: (.*?)\n\n", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_one_namespace():
    blocks = BLOCK.findall((ROOT / "README.md").read_text())
    assert len(blocks) >= 2  # the library quickstart and the spin-algebra layer
    namespace: dict = {}
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"), namespace)


def test_readme_flags_are_the_long_options_of_every_subcommand():
    (paragraph,) = FLAGS.findall((ROOT / "README.md").read_text())
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        option
        for sub in subcommands.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert defined
    assert documented == defined
