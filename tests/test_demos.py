"""Every demo script runs to completion against the source tree."""

from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    # TMPDIR points the pipeline demo's temporary directory into tmp_path,
    # where the test can see that the demo removed it.
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=src_env(TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("socaut_demo_*"))
