"""Command-line surface: subcommands, exit codes, files, reports."""

from __future__ import annotations

import dataclasses
import importlib.util
import io
import json
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from socaut import (
    automorphism,
    boost_matrix,
    check_automorphism,
    compose,
    factor,
    kernels,
    property_report,
    sample_automorphism,
)
from socaut.cli import main
from socaut.fileio import dumps_matrix, parse_factorization, parse_matrix
from socaut.automorphism import Factorization, PropertyReport

from conftest import ROOT, canonical_document, rel_fro, run_socaut


REPORT_FIELDS = [field.name for field in dataclasses.fields(PropertyReport)]
IDENTITY_RESIDUALS = [name for name in REPORT_FIELDS if name.startswith("residual_")]
#: What verify prints, in order: the check's scale and residual, the
#: identity residuals (no A1: S / nu makes it hold by construction), the
#: certificate, the verdict; no sampled statistics.
VERIFY_KEYS = [
    "mu",
    "residual_congruence",
    "residual_A2",
    "residual_A3",
    "cone_slack_bound",
    "all_within_tol",
]

#: A tiny first column beside a huge D: D / nu overflows.
OVERFLOWING = dumps_matrix(np.array([[1e-150, 0.0], [0.0, 1e300]]))
#: diag(1, 2): accepted by no tol, though it keeps the cone.
STRETCHED = dumps_matrix(np.diag([1.0, 2.0]))
#: What a file that is not a JSON document reads on standard error.
NOT_A_DOCUMENT = (
    "error: not a matrix document: a matrix document is a JSON object "
    "with the fields 'n' and 'data'\n"
)


def parse_report(text: str) -> dict:
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split(" ", 1)
        out[key] = value
    return out


@pytest.fixture
def boost_file(tmp_path):
    path = tmp_path / "boost.json"
    path.write_text(dumps_matrix(boost_matrix(1.0, 3)))
    return path


class TestCheck:
    def test_accepts_identity(self, tmp_path, capsys):
        p = tmp_path / "eye.json"
        p.write_text(dumps_matrix(np.eye(4)))
        assert main(["check", str(p)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["is_automorphism"] == "true"
        assert report["mu"] == "1"
        assert report["cone_forward"] == "true"

    def test_overflowing_recovery_reports_inf_without_warnings(self, tmp_path, capsys):
        p = tmp_path / "tiny.json"
        p.write_text(OVERFLOWING)
        assert main(["check", str(p)]) == 1  # warnings are errors in this suite
        report = parse_report(capsys.readouterr().out)
        assert report["residual_congruence"] == "inf"
        assert report["is_automorphism"] == "false"

    def test_infinite_mu_reports_without_a_traceback(self, tmp_path, capsys):
        # mu = inf (the head's square overflows), and tol * m overflows too.
        p = tmp_path / "inf.json"
        p.write_text(dumps_matrix([[2e154, 0, 0], [1e154, 1e308, 1e308], [0, 1e308, 1e308]]))
        assert main(["check", str(p), "--tol", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        report = parse_report(captured.out)
        assert report["is_automorphism"] == "false"
        assert report["mu"] == report["residual_congruence"] == "inf"

    def test_rejects_diagonal_stretch(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        p.write_text(STRETCHED)
        assert main(["check", str(p)]) == 1
        report = parse_report(capsys.readouterr().out)
        assert report["is_automorphism"] == "false"
        assert float(report["residual_congruence"]) == 3.0  # ||U^T U - I||_F / m, U = [[2]]

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 4, "data": [[1,0,0,0],[0,1,0],[0,0,1,0],[0,0,0,1]]}')
        assert main(["check", str(p)]) == 2
        err = capsys.readouterr().err
        assert "row 1" in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("1 0 0 1_0\n", NOT_A_DOCUMENT),
            ('{"n": 2, "n": 2, "data": [[1, 0], [0, 1]]}', "duplicate field 'n'"),
        ],
    )
    def test_bare_grid_or_duplicate_field_exits_2(self, text, message, tmp_path, capsys):
        p = tmp_path / "m.txt"
        p.write_text(text)
        assert main(["check", str(p)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "factor", "verify"])
    def test_a_bare_grid_is_refused_before_any_output(self, command, tmp_path, capsys):
        # The grid of the identity, which each subcommand accepts as a document.
        p = tmp_path / "eye.txt"
        p.write_text("1 0\n0 1\n")
        assert main([command, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == NOT_A_DOCUMENT

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_stdin_input(self, boost_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(boost_file.read_text()))
        assert main(["check", "-"]) == 0
        assert "is_automorphism true" in capsys.readouterr().out

    def test_output_file_and_quiet(self, boost_file, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["check", str(boost_file), "--output", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert parse_report(out.read_text())["is_automorphism"] == "true"

    def test_quiet_alone_still_exits_with_code(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        p.write_text(STRETCHED)
        assert main(["check", str(p), "--quiet"]) == 1
        assert capsys.readouterr().out == ""


class TestFactorCompose:
    def test_round_trip_through_files(self, tmp_path, capsys):
        S = sample_automorphism(5, alpha_max=4.0, nu_range=(0.5, 2.0), seed=99)
        src = tmp_path / "m.json"
        src.write_text(dumps_matrix(S))
        fact = tmp_path / "f.json"
        assert main(["factor", str(src), "--output", str(fact)]) == 0
        f, tol = parse_factorization(fact.read_text())
        doc = fact.read_text()
        assert '"form": "compact"' in doc
        assert "reconstruction_residual" in doc
        out = tmp_path / "rt.json"
        assert main(["compose", str(fact), "--output", str(out)]) == 0
        M = parse_matrix(out.read_text())
        assert np.linalg.norm(M - S) / np.linalg.norm(S) <= 1e-8

    def test_cli_matches_the_gated_library_compose(self, tmp_path):
        # socaut compose is the public compose at the document's tol, bit for bit,
        # and factor records the residual of the factors it found relative to
        # ||S||_F.
        member = sample_automorphism(6, alpha_max=50.0, nu_range=(0.5, 2.0), seed=31)
        for scale in (1.0, 2.0**-10):  # 2^-10 takes ||S||_F below 1
            S = scale * member
            src = tmp_path / "m.json"
            src.write_text(dumps_matrix(S))
            fact = tmp_path / "f.json"
            assert main(["factor", str(src), "--output", str(fact)]) == 0
            f, tol = parse_factorization(fact.read_text())
            recorded = json.loads(fact.read_text())["reconstruction_residual"]
            assert recorded == rel_fro(compose(factor(S)), S)
            out = tmp_path / "out.json"
            assert main(["compose", str(fact), "--output", str(out)]) == 0
            assert_array_equal(parse_matrix(out.read_text()), compose(f, tol))

    def test_reconstruction_residual_is_scale_invariant(self, tmp_path):
        # Scaling by 2^-10 is exact and takes ||S||_F below 1.
        S = sample_automorphism(6, alpha_max=3.0, nu_range=(1.0, 1.0), seed=5)
        recorded = []
        for scale in (1.0, 2.0**-10):
            src = tmp_path / "m.json"
            src.write_text(dumps_matrix(scale * S))
            fact = tmp_path / "f.json"
            assert main(["factor", str(src), "--output", str(fact)]) == 0
            recorded.append(json.loads(fact.read_text())["reconstruction_residual"])
        assert np.linalg.norm(2.0**-10 * S) < 1.0
        assert recorded[0] > 0.0
        assert recorded[1] == recorded[0]

    def test_reconstruction_residual_of_a_member_whose_squared_norm_overflows(self, tmp_path):
        # ||S||_F^2 overflows once ||S||_F is above about 1.3e154; the scaling
        # by 2^508 is exact and leaves every entry below 2.6e153.
        S = sample_automorphism(300, 3.0, seed=1)
        recorded = []
        for scale in (1.0, 2.0**508):
            src = tmp_path / "m.json"
            src.write_text(dumps_matrix(scale * S))
            fact = tmp_path / "f.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["factor", str(src), "--output", str(fact)]) == 0
            recorded.append(json.loads(fact.read_text())["reconstruction_residual"])
        assert np.linalg.norm(S) * 2.0**508 > np.sqrt(np.finfo(float).max)
        assert recorded[1] > 0.0
        assert abs(recorded[1] - recorded[0]) <= 4.0 * np.finfo(float).eps * recorded[0]

    def test_factor_has_no_form_option(self, tmp_path, capsys):
        src = tmp_path / "m.json"
        src.write_text(dumps_matrix(sample_automorphism(4, seed=3)))
        assert main(["factor", str(src), "--form", "compact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --form compact" in captured.err

    def test_factor_rejects_non_automorphism(self, tmp_path, capsys):
        p = tmp_path / "d.json"
        p.write_text(STRETCHED)
        assert main(["factor", str(p)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_factor_reports_boost_factors(self, boost_file, capsys):
        assert main(["factor", str(boost_file)]) == 0
        f, _ = parse_factorization(capsys.readouterr().out)
        assert f.nu == pytest.approx(1.0, abs=1e-12)
        assert f.alpha == pytest.approx(1.0, rel=1e-12)

    def test_compose_hand_case(self, tmp_path, capsys):
        doc = '{"form": "compact", "nu": 2, "c": [1, 0], "U": [[1, 0], [0, 1]]}'
        p = tmp_path / "f.json"
        p.write_text(doc)
        assert main(["compose", str(p)]) == 0
        M = parse_matrix(capsys.readouterr().out)
        assert_array_equal(M, 2.0 * boost_matrix(1.0, 3))

    def test_compose_invariant_violation_exits_1(self, tmp_path, capsys):
        doc = '{"form": "compact", "nu": 1, "c": [0, 0], "U": [[1, 0], [0, 2]]}'
        p = tmp_path / "f.json"
        p.write_text(doc)
        assert main(["compose", str(p)]) == 1
        assert "orthogonal" in capsys.readouterr().err

    def test_compose_u_whose_gram_overflows_exits_1_at_the_largest_tol(self, tmp_path, capsys):
        # U^T U overflows, so U's residual is inf; tol * m overflows too at
        # tol = 1e308, and the load's gate must still refuse.
        doc = '{"form": "compact", "nu": 1, "c": [0, 0], "U": [[1e200, 0], [0, 1]], "tol": 1e308}'
        p = tmp_path / "f.json"
        p.write_text(doc)
        assert main(["compose", str(p), "--tol", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: U is not orthogonal within tolerance: residual inf > inf\n"

    def test_compose_refuses_a_composed_non_member_naming_the_gate(self, tmp_path, capsys):
        # U is orthogonal to the document's tol 1e-3, not to the default --tol
        # that the composed matrix is checked at: the recovered U decides.
        doc = {"form": "compact", "nu": 2.0, "c": [0.75, 0.0], "U": [[0, 1.0001], [1, 0]]}
        p = tmp_path / "f.json"
        p.write_text(json.dumps({**doc, "tol": 1e-3}))
        assert main(["compose", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: composed matrix fails the membership test: recovered U is not "
            "orthogonal within tolerance: residual 2.000e-04 > 2.000e-09\n"
        )

    def test_compose_malformed_exits_2(self, tmp_path, capsys):
        p = tmp_path / "f.json"
        p.write_text('{"form": "compact", "nu": 1}')
        assert main(["compose", str(p)]) == 2

    def test_compose_duplicate_field_exits_2(self, tmp_path, capsys):
        p = tmp_path / "f.json"
        p.write_text('{"form": "compact", "nu": 1, "c": [0], "U": [[1]], "U": [[1]]}')
        assert main(["compose", str(p)]) == 2
        assert "duplicate field 'U'" in capsys.readouterr().err


class TestSample:
    def test_writes_count_files_deterministically(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        args = ["sample", "3", "5", "--seed", "11", "--alpha-max", "2"]
        assert main(args + ["--output", str(d1)]) == 0
        assert main(args + ["--output", str(d2)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == [f"automorphism_{i:04d}.json" for i in range(5)]
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_sampled_matrices_pass_check(self, tmp_path):
        d = tmp_path / "out"
        assert main(["sample", "4", "3", "--seed", "2", "--output", str(d)]) == 0
        for p in sorted(d.iterdir()):
            assert main(["check", str(p), "--quiet"]) == 0

    def test_stdout_stream_one_per_line(self, capsys):
        assert main(["sample", "3", "4", "--seed", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            M = parse_matrix(line)
            assert M.shape == (3, 3)

    def test_nu_range_flags(self, capsys):
        assert main(["sample", "3", "1", "--nu-min", "2", "--nu-max", "2", "--alpha-max", "0"]) == 0
        M = parse_matrix(capsys.readouterr().out)
        assert M[0, 0] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            ["sample", "1", "3"],
            ["sample", "4", "0"],
            ["sample", "4", "3", "--alpha-max", "-1"],
            ["sample", "4", "3", "--nu-min", "0"],
            ["sample", "4", "3", "--nu-min", "3", "--nu-max", "2"],
            ["sample", "4", "3", "--seed", "-1"],
        ],
    )
    def test_bad_ranges_exit_2(self, args, capsys):
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_boost_passes(self, boost_file, capsys):
        assert main(["verify", str(boost_file)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["all_within_tol"] == "true"
        for key in IDENTITY_RESIDUALS:
            assert float(report[key]) <= 1e-12

    def test_prints_exactly_six_keys_in_order(self, boost_file, capsys):
        assert main(["verify", str(boost_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == VERIFY_KEYS

    def test_perturbed_corner_fails_with_reported_residual(self, tmp_path, capsys):
        S = boost_matrix(1.0, 3)
        S[0, 0] += 1e-3
        p = tmp_path / "p.json"
        p.write_text(dumps_matrix(S))
        assert main(["verify", str(p)]) == 1
        report = parse_report(capsys.readouterr().out)
        assert float(report["residual_A2"]) >= 1e-4  # A1 is 0 once S is divided by nu
        assert report["all_within_tol"] == "false"

    def test_exact_member_near_nu_one_passes(self):
        # nu = 1.02 with alpha = 0: an exact member, divided by nu like any other.
        sample = run_socaut(
            "sample", "4", "1", "--alpha-max", "0", "--nu-min", "1.02", "--nu-max", "1.02"
        )
        assert sample.returncode == 0
        verify = run_socaut("verify", "-", input=sample.stdout)
        assert verify.returncode == 0, verify.stdout + verify.stderr
        report = parse_report(verify.stdout)
        assert report["all_within_tol"] == "true"
        # The rounding floors test_automorphism's exact_report proves for a
        # stored member: 4 n eps a^2 for the residuals, 8 n eps a^2 for the
        # certificate (seeds 0-19 read at most a quarter of each).  The
        # near-one defect this test guards read residuals of about 4e-2.
        S = parse_matrix(sample.stdout)
        unit = len(S) * np.finfo(float).eps * S[0, 0] ** 2 / float(report["mu"])
        assert max(float(report[key]) for key in IDENTITY_RESIDUALS) <= 4.0 * unit
        assert float(report["cone_slack_bound"]) <= 8.0 * unit

    def test_gross_rejection_exits_1_before_report(self, tmp_path, capsys):
        p = tmp_path / "r.json"
        p.write_text(dumps_matrix(np.diag([-1.0, 1.0])))
        assert main(["verify", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot certify: cone-reversing: (S e)_0 <= 0\n"
        # First column (0.1, 1): mu = 0.01 - 1 < 0.
        p.write_text(dumps_matrix([[0.1, 1], [1, 0.1]]))
        assert main(["verify", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot certify: congruence scale mu=-0.99 <= tol 1e-09\n"
        p.write_text(dumps_matrix(1e200 * np.eye(3)))  # mu = inf: positive, not finite
        assert main(["verify", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot certify: no finite factors at mu=inf\n"
        p.write_text(dumps_matrix(np.array([[1e200, 0.0], [1e200, 1.0]])))  # mu = inf - inf
        assert main(["verify", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot certify: congruence scale mu=nan: "
            "S[0,0]^2 and ||S[1:,0]||^2 both overflow\n"
        )

    def test_overflowing_normalization_exits_1_before_report(self, tmp_path, capsys):
        p = tmp_path / "tiny.json"
        p.write_text(OVERFLOWING)
        assert main(["verify", str(p)]) == 1  # warnings are errors in this suite
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot certify: congruence scale mu=1e-300 <= tol 1e-09; "
            "no finite factors at mu=1e-300\n"
        )

    def test_bad_tol_exits_2(self, boost_file, capsys):
        assert main(["verify", str(boost_file), "--tol", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tol must be a finite non-negative number, got -1.0" in captured.err

    @pytest.mark.parametrize(
        "args", [["--samples", "10"], ["--seed", "1"], ["--samples", "-1"], ["--seed", "-1"]]
    )
    def test_sampling_options_are_usage_errors(self, args, boost_file, sampled, capsys):
        assert main(["verify", str(boost_file), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: socaut")
        assert f"error: unrecognized arguments: {' '.join(args)}" in captured.err
        assert sampled == []

    @pytest.fixture
    def sampled(self, monkeypatch):
        calls = []
        sample = automorphism._sample_cone_points

        def counting(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(automorphism, "_sample_cone_points", counting)
        return calls

    def test_default_flags_certify_without_sampling(self, boost_file, sampled, capsys):
        assert main(["verify", str(boost_file)]) == 0
        assert sampled == []
        report = parse_report(capsys.readouterr().out)
        assert float(report["cone_slack_bound"]) <= 1e-14
        assert list(report)[-2:] == ["cone_slack_bound", "all_within_tol"]

    def test_default_flags_reject_perturbed_corner(self, tmp_path, capsys):
        S = boost_matrix(1.0, 3)
        S[0, 0] += 1e-3
        p = tmp_path / "p.json"
        p.write_text(dumps_matrix(S))
        assert main(["verify", str(p)]) == 1
        report = parse_report(capsys.readouterr().out)
        assert float(report["cone_slack_bound"]) >= 1e-4
        assert report["all_within_tol"] == "false"

    def test_default_flags_accept_n300_member(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(dumps_matrix(sample_automorphism(300, seed=7)))
        assert main(["verify", str(p)]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["cone_slack_bound"]) <= 1e-12
        assert report["all_within_tol"] == "true"

    def test_cone_slack_bound_gates_on_its_own(self, tmp_path, capsys):
        # At alpha = 1.5e3 check accepts this member and each identity
        # residual stays within tol (A2 2.7e-10, A3 3.7e-10).  The
        # certificate is 2 ||E||_F over a^2 - ||b||^2 = 1, and E's blocks add
        # up (E is symmetric, so A2 counts twice; its corner reads 0 here) to
        # ||E||_F = 7.1e-10: the certificate, 1.4e-9, alone crosses tol.
        # U comes from a local Gaussian QR, so the sampler's stream cannot move these numbers.
        rng = np.random.default_rng(3)
        direction = rng.standard_normal(49)
        c = 1.5e3 * direction / np.linalg.norm(direction)
        Q, R = np.linalg.qr(rng.standard_normal((49, 49)))
        signs = np.sign(np.diagonal(R))
        signs[signs == 0.0] = 1.0
        S = compose(Factorization(1.0, c, Q * signs))
        rep = property_report(S)
        assert check_automorphism(S).is_automorphism
        assert rep.max_identity_residual() <= 1e-9 < rep.cone_slack_bound
        p = tmp_path / "wide.json"
        p.write_text(dumps_matrix(S))
        assert main(["verify", str(p)]) == 1
        assert parse_report(capsys.readouterr().out)["all_within_tol"] == "false"


class TestGateSites:
    """Each orthogonal factor is measured once, where it enters the program:
    a loaded one as parse_factorization gates it, a recovered U by the
    membership test."""

    @pytest.fixture
    def gates(self, monkeypatch):
        calls = []

        def counting(site, residual):
            def wrapped(M):
                calls.append(site)
                return residual(M)

            return wrapped

        # The public orthogonality_residual measures through kernels' Gram helper.
        public = counting("loaded", kernels._gram_defect)
        check = counting("recovered", automorphism._gram_defect)
        monkeypatch.setattr(kernels, "_gram_defect", public)
        monkeypatch.setattr(automorphism, "_gram_defect", check)
        return calls

    def test_sample_runs_no_gate(self, gates):
        assert main(["sample", "5", "3", "--quiet"]) == 0
        assert gates == []

    def test_factor_gates_u_and_compose_gates_each_loaded_factor(self, gates, tmp_path):
        src = tmp_path / "m.json"
        src.write_text(dumps_matrix(sample_automorphism(5, seed=3)))
        fact = tmp_path / "f.json"
        assert main(["factor", str(src), "--output", str(fact)]) == 0
        assert gates == ["recovered"]
        gates.clear()
        assert main(["compose", str(fact), "--quiet"]) == 0
        # U measured once in parse_factorization (compose reuses that number);
        # then the product's membership test.
        assert gates == ["loaded", "recovered"]


class TestProcessLevel:
    def test_console_help(self):
        proc = run_socaut("--help")
        assert proc.returncode == 0
        for sub in ("check", "factor", "compose", "sample", "verify"):
            assert sub in proc.stdout

    def test_no_command_exits_2(self):
        proc = run_socaut()
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("check", '{"n": 2, "data": [[1, 0], [0, 1%s]]}' % ("0" * 400)),
            ("compose", '{"form": "compact", "nu": 1%s, "c": [0], "U": [[1]]}' % ("0" * 400)),
        ],
        ids=["check", "compose"],
    )
    def test_huge_integer_exits_2_without_traceback(self, command, doc, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(doc)
        proc = run_socaut(command, str(p))
        assert proc.returncode == 2
        assert "is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_alpha_max_whose_square_overflows_exits_2_without_warnings(self):
        proc = run_socaut("sample", "4", "1", "--alpha-max", "1e200")
        assert proc.returncode == 2
        assert "alpha_max must be a finite non-negative number" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""

    def test_compose_c_whose_square_overflows_exits_2_without_warnings(self, tmp_path):
        doc = tmp_path / "f.json"
        doc.write_text('{"form": "compact", "nu": 1, "c": [1e200], "U": [[1]]}')
        proc = run_socaut("compose", str(doc))
        assert proc.returncode == 2
        assert "c must have a finite squared norm" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("form", ['["compact"]', '{"compact": 1}'], ids=["list", "object"])
    def test_non_string_form_exits_2_without_traceback(self, form):
        doc = '{"form": %s, "nu": 1, "c": [1], "U": [[1]]}' % form
        proc = run_socaut("compose", "-", input=doc)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: field 'form' must be \"compact\", got ")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_compose_refuses_a_canonical_document_without_traceback(self, tmp_path):
        S = sample_automorphism(6, alpha_max=10.0, nu_range=(0.5, 2.0), seed=31)
        doc = tmp_path / "f.json"
        doc.write_text(canonical_document(factor(S), 1e-9, 3e-16))
        proc = run_socaut("compose", str(doc))
        assert proc.returncode == 2
        assert proc.stderr == "error: field 'form' must be \"compact\", got 'canonical'\n"
        assert proc.stdout == ""

    def test_compose_product_that_overflows_exits_2_without_warnings(self, tmp_path):
        doc = tmp_path / "f.json"
        doc.write_text('{"form": "compact", "nu": 1e300, "c": [1e10, 0], "U": [[1, 0], [0, 1]]}')
        proc = run_socaut("compose", str(doc))
        assert proc.returncode == 2
        assert proc.stderr == "error: the product overflows at nu=1e+300, ||c||=1e+10\n"
        assert proc.stdout == ""

    def test_compose_u_whose_gram_overflows_exits_1_without_warnings(self, tmp_path):
        doc = tmp_path / "f.json"
        doc.write_text('{"form": "compact", "nu": 1, "c": [1], "U": [[1e200]]}')
        proc = run_socaut("compose", str(doc))
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: U is not orthogonal within tolerance: residual inf > 1.000e-09\n"
        )
        assert proc.stdout == ""

    def test_sample_ranges_whose_entries_overflow_exit_2_without_warnings(self):
        proc = run_socaut(
            "sample", "3", "1", "--alpha-max", "1e150", "--nu-min", "1e200", "--nu-max", "1e200"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: nu_range and alpha_max must keep the entries finite")
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""

    def test_cli_corpus_records_61_commands(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "cli_corpus.py"), str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        results = tmp_path / "results"
        labels = {p.stem for p in results.iterdir()}
        assert len(labels) == 61
        for label in labels:
            assert int((results / f"{label}.exit").read_text()) in (0, 1, 2)
            assert (results / f"{label}.stdout").is_file()
            assert (results / f"{label}.stderr").is_file()

    def test_cli_corpus_reads_inputs_from_another_run(self, tmp_path):
        tool = ROOT / "tools" / "cli_corpus.py"
        spec = importlib.util.spec_from_file_location("cli_corpus", tool)
        corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
        inputs = tmp_path / "inputs"
        argv = [sys.executable, str(tool), str(tmp_path / "out"), "--inputs", str(inputs)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "missing input document(s)" in proc.stderr
        corpus.write_inputs(inputs)
        # A member where the written input is a non-member shows the run read DIR.
        corpus.input_paths(inputs)["gaussian"].write_text(dumps_matrix(np.eye(3)))
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "out" / "inputs").exists()
        results = tmp_path / "out" / "results"
        assert len({p.stem for p in results.iterdir()}) == 61
        assert (results / "check_gaussian.exit").read_text() == "0\n"

    def test_cli_corpus_against_another_tree_lists_each_differing_file(self, tmp_path):
        # The other tree exits 3 where this one exits 2: only those .exit files differ.
        other = tmp_path / "other"
        shutil.copytree(ROOT / "src" / "socaut", other / "socaut")
        cli_py = other / "socaut" / "cli.py"
        cli_py.write_text(cli_py.read_text().replace("EXIT_MALFORMED = 2", "EXIT_MALFORMED = 3"))
        out = tmp_path / "out"
        argv = [sys.executable, str(ROOT / "tools" / "cli_corpus.py"), str(out)]
        proc = subprocess.run([*argv, "--against", str(other)], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        listed = [line.strip() for line in proc.stdout.splitlines() if line.startswith("  ")]
        malformed = {
            p.name for p in (out / "against" / "results").glob("*.exit") if p.read_text() == "3\n"
        }
        assert malformed and set(listed) == malformed
        assert f"{len(malformed)} result file(s) differ" in proc.stdout
        assert not (out / "against" / "inputs").exists()  # the second run read out/inputs

    def test_pipe_sample_to_check(self, tmp_path):
        sample = run_socaut("sample", "3", "1", "--seed", "4")
        assert sample.returncode == 0
        check = run_socaut("check", "-", input=sample.stdout)
        assert check.returncode == 0
        assert "is_automorphism true" in check.stdout
