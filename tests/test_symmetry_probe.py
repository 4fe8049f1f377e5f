"""tools/symmetry_probe.py: its transformations are exact, and it runs."""

from __future__ import annotations

import importlib.util
import subprocess
import sys

import numpy as np
from numpy.testing import assert_array_equal

from socaut import check_automorphism, sample_automorphism

from conftest import ROOT

TOOL = ROOT / "tools" / "symmetry_probe.py"
_spec = importlib.util.spec_from_file_location("symmetry_probe", TOOL)
probe_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe_tool)


def test_the_transformations_are_exact_and_invertible():
    rng = np.random.default_rng(3)
    for S in probe_tool.recipe(50, sample_automorphism):
        m = len(S) - 1
        k = int(rng.integers(-600, 601))
        big = probe_tool.scaled(S, k)
        assert big is not None and np.ldexp(big, -k).tobytes() == S.tobytes()
        perm, signs = rng.permutation(m), rng.choice([-1.0, 1.0], size=m)
        twin = probe_tool.conjugated(S, perm, signs)
        Q = np.eye(m + 1)
        Q[1:, 1:] = signs[:, np.newaxis] * np.eye(m)[perm]
        assert_array_equal(twin, Q @ S @ Q.T)
        assert sorted(np.abs(twin).ravel()) == sorted(np.abs(S).ravel())


def test_scaling_that_would_round_is_skipped():
    S = np.array([[1.0, 1e-300], [0.0, 1.0]])
    assert probe_tool.scaled(S, 100) is not None
    assert probe_tool.scaled(S, -100) is None  # 1e-300 * 2^-100 is subnormal
    assert probe_tool.scaled(S, 1024) is None  # 1.0 * 2^1024 overflows


def test_counts_on_fifty_members():
    counts = probe_tool.probe(50, check_automorphism, sample_automorphism)
    assert counts["members"] == 50
    assert counts["scale"] + counts["scale_skipped"] <= 50
    assert max(counts["transpose"], counts["signed_permutation"]) <= 50
    # A prefix of the recipe is the recipe: the script's own run agrees.
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--members", "50"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "members 50",
        f"accepted {counts['accepted']} at tol 1e-09",
        f"flips scale {counts['scale']} (skipped {counts['scale_skipped']})",
        f"flips transpose {counts['transpose']}",
        f"flips signed_permutation {counts['signed_permutation']}",
    ]
