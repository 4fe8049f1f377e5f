"""tools/symmetry_probe.py: its transformations are exact, it runs, and the
CLI gives the library's verdict on the matrices they make."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import subprocess
import sys

import numpy as np
from numpy.testing import assert_array_equal

from socaut import (
    NotAutomorphismError,
    automorphism,
    check_automorphism,
    factor,
    sample_automorphism,
)
from socaut.automorphism import _verify
from socaut.cli import main
from socaut.fileio import dumps_matrix, format_float, parse_factorization

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


def fresh(call, *args):
    """``call(*args)`` with an empty check/factor memo, so that it decides afresh."""
    automorphism._memo = None
    return call(*args)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` in this process, from an empty memo: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fresh(main, argv)
    return code, out.getvalue(), err.getvalue()


def report(pairs) -> str:
    return "".join(
        f"{key} {str(value).lower() if isinstance(value, bool) else format_float(value)}\n"
        for key, value in pairs
    )


def test_the_cli_gives_the_librarys_verdict_under_exact_symmetries(tmp_path):
    rng = np.random.default_rng(2)  # drawn in the probe's order
    transformed = []
    for S in probe_tool.recipe(40, sample_automorphism):
        m = len(S) - 1
        k = int(rng.integers(-600, 601))
        perm, signs = rng.permutation(m), rng.choice([-1.0, 1.0], size=m)
        big = probe_tool.scaled(S, k)
        transformed += [] if big is None else [big]
        transformed += [S.T, probe_tool.conjugated(S, perm, signs)]
    doc = tmp_path / "m.json"
    for X in transformed:
        X = np.ascontiguousarray(X)  # S.T as the C-ordered array a document parses to
        doc.write_text(dumps_matrix(X))

        check = fresh(check_automorphism, X, 1e-9)
        assert run_cli(["check", str(doc)]) == (
            0 if check.is_automorphism else 1, report(vars(check).items()), ""
        )

        try:
            result, props, ok = fresh(_verify, X, 1e-9)
        except NotAutomorphismError as exc:
            assert run_cli(["verify", str(doc)]) == (1, "", f"error: {exc}\n")
        else:
            values = [
                ("mu", result.mu),
                ("residual_congruence", result.residual_congruence),
                ("residual_A2", props.residual_A2),
                ("residual_A3", props.residual_A3),
                ("cone_slack_bound", props.cone_slack_bound),
                ("all_within_tol", ok),
            ]
            assert run_cli(["verify", str(doc)]) == (0 if ok else 1, report(values), "")

        code, out, err = run_cli(["factor", str(doc)])
        try:
            f = fresh(factor, X, 1e-9)
        except NotAutomorphismError as exc:
            assert str(exc).startswith("cannot factor: ")
            assert (code, out, err) == (1, "", f"error: {exc}\n")
        else:
            assert (code, err) == (0, "")
            loaded, _ = parse_factorization(out)
            assert loaded.nu == f.nu
            assert loaded.c.tobytes() == f.c.tobytes()
            assert loaded.U.tobytes() == f.U.tobytes()
