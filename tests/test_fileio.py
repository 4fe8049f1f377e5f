"""Matrix and factorization documents: parsing, serialization, byte stability."""

from __future__ import annotations

import copy
import io
import json
import math
import pickle
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from socaut import (
    DEFAULT_TOL,
    Factorization,
    boost_matrix,
    compose,
    factor,
    householder_to_direction,
    orthogonality_residual,
    sample_automorphism,
    sample_haar_orthogonal,
)
from socaut.fileio import (
    FileFormatError,
    InvalidFactorizationError,
    dumps_factorization,
    dumps_matrix,
    format_float,
    load_factorization,
    load_matrix,
    parse_factorization,
    parse_matrix,
)

from conftest import canonical_document, document_field, random_automorphisms, stretched_haar


EPS = float(np.finfo(float).eps)
#: An integer literal beyond the double range (float() raises OverflowError).
HUGE = "1" + "0" * 400
#: An integer literal beyond int()'s 4300-digit string conversion limit.
LONG = "1" * 5001
#: The one refusal of text that is not a JSON document.
NOT_A_DOCUMENT = (
    "not a matrix document: a matrix document is a JSON object with the fields 'n' and 'data'"
)


class TestFloatFormat:
    @pytest.mark.parametrize(
        "x", [0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, np.pi, 1e-300, 1e300, 123456789.123456789]
    )
    def test_round_trips_exactly(self, x):
        assert float(format_float(x)) == x

    def test_negative_zero_keeps_sign(self):
        assert format_float(-0.0) == "-0"
        assert np.signbit(float(format_float(-0.0)))

    def test_integral_values_are_short(self):
        assert format_float(1.0) == "1"
        assert format_float(-2.0) == "-2"


class TestMatrixDocuments:
    def test_known_layout(self):
        doc = dumps_matrix(np.eye(2))
        assert doc == '{\n  "n": 2,\n  "data": [\n    [1, 0],\n    [0, 1]\n  ]\n}\n'

    def test_byte_stable(self):
        S = sample_automorphism(4, seed=13)
        doc = dumps_matrix(S)
        M = parse_matrix(doc)
        assert_array_equal(M, S)
        assert dumps_matrix(M) == doc

    def test_compact_layout_parses_identically(self):
        S = boost_matrix(1.0, 3)
        assert_array_equal(parse_matrix(dumps_matrix(S, compact=True)), S)

    @pytest.mark.parametrize(
        "text",
        [
            "1 0\n0 1",
            "1\xa00\u30000 1",
            "  1 2 3 4 5 6 7 8 9 ",
            "1 2 3",
            "5",
            "1 0 0 x",
            "1 1_0 0 1",
            "1 1e5_0 0 1",
            "1 \uff11 0 1",
            "1 0 0 nan",
            "1 0 0 1e400",
        ],
    )
    def test_text_that_is_not_json_is_refused(self, text):
        # A bare numeric grid, well-formed or not, is not a matrix document.
        with pytest.raises(FileFormatError, match=f"^{re.escape(NOT_A_DOCUMENT)}$"):
            parse_matrix(text)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ('{"n": 2, "n": 2, "data": [[1, 0], [0, 1]]}', "^duplicate field 'n'$"),
            ('{"n": 2}', "missing"),
            ('{"n": 2, "data": [[1, 0], [0, 1]], "extra": 1}', "unexpected"),
            ('{"n": "2", "data": [[1, 0], [0, 1]]}', "integer"),
            ('{"n": 1, "data": [[1]]}', ">= 2"),
            ('{"n": 2, "data": [[1, 0]]}', "1 rows"),
            ('{"n": 2, "data": [[1, 0], [0]]}', "row 1 has 1 entries"),
            ('{"n": 2, "data": [[1, 0], [0, "a"]]}', "not a number"),
            ('{"n": 2, "data": [[1, 0], [0, true]]}', "not a number"),
            ('{"n": 2, "data": [[1, 0], [0, Infinity]]}', "Infinity"),
            ('{"n": 2, "data": [[1, 0], [0, NaN]]}', "^non-finite constant 'NaN'"),
            ('{"n": 2, "data": [[1, 0], [0, 1e400]]}', r"data\[1\]\[1\] is not finite"),
            pytest.param(
                '{"n": 2, "data": [[1, 0], [0, %s]]}' % HUGE,
                r"data\[1\]\[1\] is not finite",
                id="huge-int-entry",
            ),
            pytest.param(
                '{"n": 2, "data": [[1, 0], [0, %s]]}' % LONG,
                "invalid document: .*digits",
                id="5001-digit-entry",
            ),
            ('{"n": 2, "data": [[1, 0], [0, [1]]]}', r"data\[1\]\[1\] is not a number"),
            ('{"n": 2, "data": [[1, 0], 1]}', "row 1 is not an array"),
            ("[1, 2]", "root"),
            ('{"n": 2 "data"', "invalid document"),
        ],
    )
    def test_malformed_documents(self, text, fragment):
        with pytest.raises(FileFormatError, match=fragment):
            parse_matrix(text)

    def test_dumps_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            dumps_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            dumps_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_dumps_refuses_what_parse_refuses_a_1x1_matrix(self):
        with pytest.raises(FileFormatError, match="matrix size n must be >= 2, got 1"):
            parse_matrix('{"n": 1, "data": [[1]]}')
        with pytest.raises(ValueError, match="matrix must be at least 2x2, got 1x1"):
            dumps_matrix(np.eye(1))


class TestLoad:
    """load_matrix and load_factorization read a path, or standard input for "-"."""

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_load_matrix(self, source, tmp_path, monkeypatch):
        S = sample_automorphism(4, seed=2)
        text = dumps_matrix(S)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            path = "-"
        else:
            path = tmp_path / "S.json"
            path.write_text(text)
        assert load_matrix(path).tobytes() == parse_matrix(text).tobytes() == S.tobytes()

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_load_factorization(self, source, tmp_path, monkeypatch):
        f = Factorization(2.0, [0.75, 0.0], np.eye(2))
        text = dumps_factorization(f, tol=1e-6)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            path = "-"
        else:
            path = str(tmp_path / "f.json")
            Path(path).write_text(text)
        f, tol = load_factorization(path)
        assert tol == 1e-6
        assert dumps_factorization(f, tol=tol) == text


class TestFactorizationDocuments:
    @pytest.mark.parametrize(
        "name,value,match",
        [
            ("tol", math.inf, "tol must be a finite non-negative number"),
            ("tol", math.nan, "tol must be a finite non-negative number"),
            ("tol", -1.0, "tol must be a finite non-negative number"),
            ("reconstruction_residual", math.nan, "reconstruction_residual must be finite"),
            ("reconstruction_residual", -math.inf, "reconstruction_residual must be finite"),
        ],
    )
    def test_writer_refuses_what_the_reader_refuses(self, name, value, match):
        f = Factorization(nu=1.0, c=np.array([0.5]), U=np.eye(1))
        with pytest.raises(ValueError, match=match):
            dumps_factorization(f, **{name: value})
        # The document an unchecked writer would emit:
        extra = ',\n  "%s": %s\n}' % (name, format_float(value))
        doc = dumps_factorization(f).replace("\n}", extra)
        with pytest.raises(FileFormatError):
            parse_factorization(doc)

    def test_compact_round_trip(self):
        f = Factorization(nu=0.75, c=np.array([1.0, -2.0]), U=sample_haar_orthogonal(2, seed=3))
        doc = dumps_factorization(f)
        g, tol = parse_factorization(doc)
        assert g.nu == f.nu
        assert_array_equal(g.c, f.c)
        assert_array_equal(g.U, f.U)
        assert tol == 1e-9  # default when the file declares none
        assert dumps_factorization(g) == doc  # written back byte for byte

    def test_a_canonical_document_is_refused(self):
        # The document socaut factor wrote by default before the compact one
        # became the only factorization document.
        S = sample_automorphism(6, alpha_max=10.0, nu_range=(0.5, 2.0), seed=31)
        f = factor(S)
        text = canonical_document(f, DEFAULT_TOL, 3e-16)
        with pytest.raises(FileFormatError) as exc:
            parse_factorization(text)
        assert str(exc.value) == "field 'form' must be \"compact\", got 'canonical'"
        # Its c = alpha V[:, 0] is the compact document's c to V's rounding.
        doc = json.loads(text)
        c = doc["alpha"] * np.array(doc["V"])[:, 0]
        assert np.linalg.norm(c - f.c) <= 4.0 * EPS * f.alpha

    def test_declared_tol_governs_orthogonality(self):
        U = np.eye(2)
        U[0, 0] += 1e-6
        body = (
            '{"form": "compact", "nu": 1, "c": [0, 0], '
            '"U": [[%s, 0], [0, 1]]%s}'
        )
        loose = body % (format_float(U[0, 0]), ', "tol": 1e-3')
        f, tol = parse_factorization(loose)
        assert tol == 1e-3
        strict = body % (format_float(U[0, 0]), "")
        with pytest.raises(InvalidFactorizationError, match="orthogonal"):
            parse_factorization(strict)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "form"),
            ('{"form": "sideways", "nu": 1}', "form"),
            # A non-string form is unhashable for the form table; it must not leak a TypeError.
            pytest.param(
                '{"form": ["compact"], "nu": 1, "c": [1], "U": [[1]]}',
                r"^field 'form' must be \"compact\", got \['compact'\]$",
                id="form-list",
            ),
            pytest.param(
                '{"form": {"compact": 1}, "nu": 1, "c": [1], "U": [[1]]}',
                r"^field 'form' must be \"compact\", got \{'compact': 1\}$",
                id="form-object",
            ),
            ('{"form": "compact", "nu": 1, "U": [[1]]}', "missing"),
            ('{"form": "compact", "nu": 1, "c": [0], "U": [[1]], "alpha": 0}', "unexpected"),
            ('{"form": "compact", "nu": "x", "c": [0], "U": [[1]]}', "nu"),
            ('{"form": "compact", "nu": 1, "c": [0, 0], "U": [[1]]}', "length 2"),
            ('{"form": "compact", "nu": 1, "c": [0], "U": [[1, 0]]}', "row 0 has 2"),
            ('{"form": "compact", "nu": 1, "c": [], "U": [[1]]}', "non-empty"),
            (
                '{"form": "compact", "nu": 1, "c": [0, true], "U": [[1, 0], [0, 1]]}',
                r"c\[1\] is not a number",
            ),
            (
                '{"form": "compact", "nu": 1, "c": [0, "a"], "U": [[1, 0], [0, 1]]}',
                r"c\[1\] is not a number",
            ),
            pytest.param(
                '{"form": "compact", "nu": 1, "c": [0, %s], "U": [[1, 0], [0, 1]]}' % HUGE,
                r"c\[1\] is not finite",
                id="huge-int-c",
            ),
            pytest.param(
                '{"form": "compact", "nu": %s, "c": [0], "U": [[1]]}' % HUGE,
                "field 'nu' is not finite",
                id="huge-int-nu",
            ),
            pytest.param(
                '{"form": "compact", "nu": %s, "c": [0], "U": [[1]]}' % LONG,
                "invalid document: .*digits",
                id="5001-digit-nu",
            ),
            pytest.param(
                '{"form": "compact", "nu": 1, "c": [0], "U": [[%s]]}' % HUGE,
                r"U\[0\]\[0\] is not finite",
                id="huge-int-U",
            ),
            ('{"form": "compact", "nu": 1, "c": [0], "U": [[1]], "tol": -1}', "tol"),
            ('{"form": "compact", "nu": 0, "nu": 2, "c": [0], "U": [[1]]}', "^duplicate field 'nu'$"),
        ],
    )
    def test_malformed_documents(self, text, fragment):
        with pytest.raises(FileFormatError, match=fragment):
            parse_factorization(text)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ('{"form": "compact", "nu": 0, "c": [0], "U": [[1]]}', "nu"),
            ('{"form": "compact", "nu": -1, "c": [0], "U": [[1]]}', "nu"),
            ('{"form": "compact", "nu": 1, "c": [0], "U": [[2]]}', "orthogonal"),
            # U^T U overflows: the residual is inf, without a warning.
            pytest.param(
                '{"form": "compact", "nu": 1, "c": [1], "U": [[1e200]]}',
                r"^U is not orthogonal within tolerance: residual inf > 1\.000e-09$",
                id="U-gram-overflows",
            ),
            pytest.param(
                '{"form": "compact", "nu": 1, "c": [0, 0], "U": [[1e200, 0], [0, 1]], '
                '"tol": 1e308}',
                r"^U is not orthogonal within tolerance: residual inf > inf$",
                id="U-gram-overflows-at-the-largest-tol",
            ),
        ],
    )
    def test_invariant_violations(self, text, fragment):
        with pytest.raises(InvalidFactorizationError, match=fragment):
            parse_factorization(text)

    def test_dumps_rejects_other_types(self):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            dumps_factorization(np.eye(2))

    def test_dumps_takes_no_form(self):
        with pytest.raises(TypeError, match="form"):
            dumps_factorization(Factorization(1.0, [0.5], np.eye(1)), form="compact")

    @pytest.mark.parametrize("n", [2, 3, 6, 10, 100])
    def test_a_written_factorization_reloads_bit_for_bit(self, n):
        # The document stores nu, c and U exactly, so it writes back unchanged.
        for S in random_automorphisms(3, n, seed0=1200 + n):
            f = factor(S)
            text = dumps_factorization(f)
            g, _ = parse_factorization(text)
            assert compose(g).tobytes() == compose(f).tobytes()
            assert dumps_factorization(g) == text

    @pytest.mark.parametrize("big", [9007199254740993, 2**63 + 1])
    def test_integers_beyond_2_53_round_like_float(self, big):
        doc = '{"form": "compact", "nu": %d, "c": [%d], "U": [[1]]}' % (big, big)
        f, _ = parse_factorization(doc)
        assert f.nu == float(big)
        assert f.c[0] == float(big)
        M = parse_matrix('{"n": 2, "data": [[%d, 0.5], [1, %d]]}' % (big, big))
        assert M[0, 0] == M[1, 1] == float(big)


def _compact_document(c, U, tol: float | None = None) -> str:
    """A compact document over a caller's c and U, which need not be orthogonal."""
    doc = {"form": "compact", "nu": 2.0, "c": np.asarray(c).tolist(), "U": np.asarray(U).tolist()}
    return json.dumps(doc if tol is None else {**doc, "tol": tol})


class TestLoadedFactorizations:
    """A loaded U is measured once, where it is read, and the factorization
    keeps that residual."""

    def test_a_loaded_c_gives_the_canonical_alpha_and_v(self, measured):
        c, U = np.array([0.5, -1.5, 0.25, 2.0]), stretched_haar(4, seed=6)
        text = _compact_document(c, U, tol=1e-5)
        measured.clear()
        f, tol = parse_factorization(text)
        assert tol == 1e-5
        assert f.c.tobytes() == c.tobytes()
        # The library's view of the canonical factors is derived from c alone.
        assert f.alpha == float(np.linalg.norm(c))
        assert f.V.tobytes() == householder_to_direction(c).tobytes()
        assert [M.tobytes() for M in measured] == [U.tobytes()]
        assert vars(f)["_residual"] == orthogonality_residual(U)

    def test_u_is_gated_at_the_documents_tol(self, measured):
        m = 4
        c, U = np.full(m, 0.75), stretched_haar(m, seed=4)
        fresh = orthogonality_residual(U)
        assert fresh > DEFAULT_TOL * m
        for tol in (0.0, DEFAULT_TOL):
            measured.clear()
            with pytest.raises(InvalidFactorizationError) as exc:
                parse_factorization(_compact_document(c, U, tol))
            assert str(exc.value) == (
                f"U is not orthogonal within tolerance: residual {fresh:.3e} > {tol * m:.3e}"
            )
            assert len(measured) == 1
        f, tol = parse_factorization(_compact_document(c, U, 1e-3))
        assert_array_equal(compose(f, tol), compose(Factorization(2.0, c, U), tol))

    @pytest.mark.parametrize("c", [[1e200], [1e200, 0.0]], ids=["1x1", "2x2"])
    def test_a_c_whose_square_overflows_loads_and_compose_refuses_it(self, c, measured):
        # ||c|| is finite, so the document is well formed; only the product
        # needs ||c||^2, and compose refuses it as a plain ValueError.
        f, tol = parse_factorization(_compact_document(c, np.eye(len(c))))
        assert f.alpha == 1e200
        assert len(measured) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^c must have a finite squared norm") as exc:
                compose(f, tol)
        assert type(exc.value) is ValueError
        assert len(measured) == 1

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_a_loaded_factorization_keep_u_s_residual(self, copier, measured):
        U = stretched_haar(4, seed=3)
        doc = {"form": "compact", "nu": 2.0, "c": [0.75, 0.0, 0.0, 0.0], "U": U.tolist()}
        f, tol = parse_factorization(json.dumps({**doc, "tol": 1e-5}))
        g = copier(f)
        assert type(g) is Factorization
        assert vars(g)["_residual"] == vars(f)["_residual"] == orthogonality_residual(U)
        measured.clear()
        assert_array_equal(compose(g, tol), compose(f, tol))
        for h in (g, f):
            with pytest.raises(ValueError, match="^U is not orthogonal"):
                compose(h, DEFAULT_TOL)
        assert measured == []


def _oracle_rows(M) -> list[str]:
    """Rows of M formatted entry by entry with format(x, ".17g")."""
    return ["[" + ", ".join(format(float(x), ".17g") for x in row) + "]" for row in M]


def _wide_matrix(m: int, seed: int) -> np.ndarray:
    """Random m x m entries with decimal exponents from -300 to 300."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-300.0, 300.0, (m, m))
    M[0, 0] = -0.0
    M[-1, -1] = 5e-324
    return M


class TestByteIdentity:
    """The serializer writes the same bytes as an entry-by-entry oracle."""

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_matrix_documents(self, n):
        M = _wide_matrix(n, seed=n)
        rows = _oracle_rows(M)
        indented = '{\n  "n": %d,\n  "data": [\n    %s\n  ]\n}\n' % (
            n,
            ",\n    ".join(rows),
        )
        compact = '{"n": %d, "data": [%s]}' % (n, ", ".join(rows))
        assert dumps_matrix(M) == indented
        assert dumps_matrix(M, compact=True) == compact
        for doc in (indented, compact):
            assert parse_matrix(doc).tobytes() == M.tobytes()

    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_factorization_documents(self, m):
        U = _wide_matrix(m, seed=m + 100)
        c = _wide_matrix(m, seed=m + 200)[-1]
        nu, tol, residual = 5e-324, 1e-9, 3e-16
        fields = [("nu", nu), ("c", c), ("U", U), ("tol", tol)]
        lines = ['  "form": "compact"'] + [document_field(*f) for f in fields]
        lines.append(document_field("reconstruction_residual", residual))
        oracle = "{\n" + ",\n".join(lines) + "\n}\n"
        assert dumps_factorization(Factorization(nu=nu, c=c, U=U), tol, residual) == oracle
