"""Matrix and factorization documents: parsing, serialization, byte stability."""

from __future__ import annotations

import copy
import io
import json
import math
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from socaut import (
    DEFAULT_TOL,
    CanonicalFactorization,
    CompactFactorization,
    boost_matrix,
    compose_canonical,
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

from conftest import canonical, stretched_haar


#: An integer literal beyond the double range (float() raises OverflowError).
HUGE = "1" + "0" * 400
#: An integer literal beyond int()'s 4300-digit string conversion limit.
LONG = "1" * 5001


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

    def test_grid_fallback(self):
        assert_array_equal(parse_matrix("1 0\n0 1"), np.eye(2))
        assert_array_equal(parse_matrix("1\xa00\u30000 1"), np.eye(2))  # Unicode spaces split
        assert_array_equal(parse_matrix("  1 2 3 4 5 6 7 8 9 "), np.arange(1.0, 10.0).reshape(3, 3))

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "empty"),
            ("1 2 3", "k*k"),
            ("5", "k*k"),
            ("1 0 0 x", "token 4"),
            # float() reads these three tokens as 10, 1e50 and 1.
            ("1 1_0 0 1", r"^grid token 2 \('1_0'\) is not a number$"),
            ("1 1e5_0 0 1", r"^grid token 2 \('1e5_0'\) is not a number$"),
            ("1 \uff11 0 1", r"^grid token 2 \('\uff11'\) is not a number$"),
            ('{"n": 2, "n": 2, "data": [[1, 0], [0, 1]]}', "^duplicate field 'n'$"),
            ("1 0 0 nan", "not finite"),
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
            ("1 0 0 1e400", "token 4 is not finite"),
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
        text = dumps_factorization(CompactFactorization(2.0, [0.75, 0.0], np.eye(2)), tol=1e-6)
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
        f = CompactFactorization(nu=1.0, c=np.array([0.5]), U=np.eye(1))
        with pytest.raises(ValueError, match=match):
            dumps_factorization(f, **{name: value})
        # The document an unchecked writer would emit:
        extra = ',\n  "%s": %s\n}' % (name, format_float(value))
        doc = dumps_factorization(f).replace("\n}", extra)
        with pytest.raises(FileFormatError):
            parse_factorization(doc)

    def test_canonical_round_trip(self):
        V = sample_haar_orthogonal(3, seed=1)
        f = canonical(2.5, 1.25, V, sample_haar_orthogonal(3, seed=2))
        doc = dumps_factorization(f, tol=1e-9, reconstruction_residual=3e-16)
        g, tol = parse_factorization(doc)
        assert isinstance(g, CanonicalFactorization)
        assert g.nu == f.nu
        assert_array_equal(g.U, f.U)
        assert tol == 1e-9
        # A loaded V is reduced to c = alpha V e1 and reads back as c's
        # reflector, so the document's alpha and V are kept only to rounding.
        assert g.c.tobytes() == (f.alpha * f.V[:, 0]).tobytes()
        assert g.alpha == pytest.approx(1.25, rel=1e-15)
        assert np.abs(g.V - f.V).max() <= 1e-15
        assert np.abs(g.V[:, 0] - V[:, 0]).max() <= 1e-15
        assert np.linalg.norm(g.c - f.c) <= 4e-16 * 1.25

    def test_compact_round_trip(self):
        f = CompactFactorization(
            nu=0.75, c=np.array([1.0, -2.0]), U=sample_haar_orthogonal(2, seed=3)
        )
        doc = dumps_factorization(f)
        g, tol = parse_factorization(doc)
        assert isinstance(g, CompactFactorization)
        assert g.nu == f.nu
        assert_array_equal(g.c, f.c)
        assert_array_equal(g.U, f.U)
        assert tol == 1e-9  # default when the file declares none

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
                r"^field 'form' must be \"canonical\" or \"compact\", got \['compact'\]$",
                id="form-list",
            ),
            pytest.param(
                '{"form": {"compact": 1}, "nu": 1, "c": [1], "U": [[1]]}',
                r"^field 'form' must be \"canonical\" or \"compact\", got \{'compact': 1\}$",
                id="form-object",
            ),
            ('{"form": "compact", "nu": 1, "U": [[1]]}', "missing"),
            ('{"form": "compact", "nu": 1, "c": [0], "U": [[1]], "alpha": 0}', "unexpected"),
            (
                '{"form": "canonical", "nu": 1, "alpha": 0, "c": [0], '
                '"V": [[1]], "U": [[1]]}',
                "unexpected",
            ),
            ('{"form": "compact", "nu": "x", "c": [0], "U": [[1]]}', "nu"),
            ('{"form": "compact", "nu": 1, "c": [0, 0], "U": [[1]]}', "length 2"),
            (
                '{"form": "canonical", "nu": 1, "alpha": 0, "V": [[1, 0], [0, 1]], '
                '"U": [[1]]}',
                "must match",
            ),
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
            (
                '{"form": "canonical", "nu": 1, "alpha": 0, "V": [[1], [0, 1]], '
                '"U": [[1, 0], [0, 1]]}',
                "V row 0 has 1 entries",
            ),
            pytest.param(
                '{"form": "canonical", "nu": 1, "alpha": %s, "V": [[1]], "U": [[1]]}' % HUGE,
                "field 'alpha' is not finite",
                id="huge-int-alpha",
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
            (
                '{"form": "canonical", "nu": 1, "alpha": -0.5, "V": [[1]], "U": [[1]]}',
                "alpha",
            ),
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
            pytest.param(
                '{"form": "canonical", "nu": 1, "alpha": 0, "V": [[1e200, 0], [0, 1]], '
                '"U": [[1, 0], [0, 1]], "tol": 1e308}',
                r"^V is not orthogonal within tolerance: residual inf > inf$",
                id="V-gram-overflows-at-the-largest-tol",
            ),
            (
                '{"form": "canonical", "nu": 1, "alpha": 1, "V": [[0.5]], "U": [[1]]}',
                "V is not orthogonal",
            ),
        ],
    )
    def test_invariant_violations(self, text, fragment):
        with pytest.raises(InvalidFactorizationError, match=fragment):
            parse_factorization(text)

    def test_dumps_rejects_other_types(self):
        with pytest.raises(TypeError):
            dumps_factorization(np.eye(2))

    @pytest.mark.parametrize("big", [9007199254740993, 2**63 + 1])
    def test_integers_beyond_2_53_round_like_float(self, big):
        doc = '{"form": "compact", "nu": %d, "c": [%d], "U": [[1]]}' % (big, big)
        f, _ = parse_factorization(doc)
        assert f.nu == float(big)
        assert f.c[0] == float(big)
        M = parse_matrix('{"n": 2, "data": [[%d, 0.5], [1, %d]]}' % (big, big))
        assert M[0, 0] == M[1, 1] == float(big)


def _canonical_document(alpha: float, V, U, tol: float | None = None) -> str:
    """A canonical document over a caller's V and U, which need not be orthogonal."""
    doc = {"form": "canonical", "nu": 2.0, "alpha": alpha, "V": np.asarray(V).tolist()}
    doc["U"] = np.asarray(U).tolist()
    return json.dumps(doc if tol is None else {**doc, "tol": tol})


class TestCanonicalDocuments:
    """A canonical document's V is handled where it is read, and only there:
    measured once, reduced to ``c = alpha V[:, 0]`` and gated at the
    document's tol before U."""

    def test_a_loaded_v_is_reduced_to_c(self, measured):
        V, U = stretched_haar(4, seed=5), sample_haar_orthogonal(4, seed=6)
        text = _canonical_document(3.0, V, U, tol=1e-5)
        V, U = (np.array(json.loads(text)[name]) for name in ("V", "U"))
        measured.clear()
        f, tol = parse_factorization(text)
        assert (type(f), tol) == (CanonicalFactorization, 1e-5)
        assert f.c.tobytes() == (3.0 * V[:, 0]).tobytes()
        assert f.alpha == float(np.linalg.norm(f.c))
        assert f.V.tobytes() == householder_to_direction(f.c).tobytes()
        # V, then U, each measured once; the factorization keeps U's residual only.
        assert [M.tobytes() for M in measured] == [V.tobytes(), U.tobytes()]
        assert vars(f)["_residual"] == orthogonality_residual(U)

    def test_v_is_gated_at_the_documents_tol_before_u(self, measured):
        # V and U both fail their gate, U by more: V's message comes first
        # until the tol lets V through.
        m = 4
        V, U = stretched_haar(m, seed=4), sample_haar_orthogonal(m, seed=3)
        U[:, 0] *= 1.0 + 1e-5
        fresh = {"V": orthogonality_residual(V), "U": orthogonality_residual(U)}
        between = fresh["V"] / m * 2.0
        assert fresh["V"] <= between * m < fresh["U"]
        for tol, name in ((0.0, "V"), (DEFAULT_TOL, "V"), (between, "U")):
            measured.clear()
            with pytest.raises(InvalidFactorizationError) as exc:
                parse_factorization(_canonical_document(0.75, V, U, tol))
            assert str(exc.value) == (
                f"{name} is not orthogonal within tolerance: residual {fresh[name]:.3e} "
                f"> {tol * m:.3e}"
            )
            assert len(measured) == (1 if name == "V" else 2)
        f, tol = parse_factorization(_canonical_document(0.75, V, U, 1e-3))
        expected = compose_canonical(canonical(2.0, 0.75, V, U), tol)
        assert_array_equal(compose_canonical(f, tol), expected)

    @pytest.mark.parametrize("V", [[[1e10]], [[1e10, 0.0], [0.0, 1.0]]], ids=["1x1", "2x2"])
    def test_an_overflowing_c_is_refused_before_v_is_gated(self, V, measured):
        # Only a V with an entry above 1 takes alpha V e1 past the double range,
        # and such a V is not orthogonal: the overflow decides, as a plain ValueError.
        message = r"^c = alpha V e1 must be finite, got alpha=1e\+300$"
        with pytest.raises(ValueError, match=message) as exc:
            parse_factorization(_canonical_document(1e300, V, np.eye(len(V))))
        assert type(exc.value) is ValueError
        assert measured == []

    @pytest.mark.parametrize(
        "copier",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_of_a_loaded_factorization_keep_u_s_residual(self, copier, measured):
        V, U = stretched_haar(4, seed=4), stretched_haar(4, seed=3)
        f, tol = parse_factorization(_canonical_document(0.75, V, U, tol=1e-5))
        g = copier(f)
        assert type(g) is CanonicalFactorization
        assert vars(g)["_residual"] == vars(f)["_residual"] == orthogonality_residual(U)
        measured.clear()
        assert_array_equal(compose_canonical(g, tol), compose_canonical(f, tol))
        for h in (g, f):
            with pytest.raises(ValueError, match="^U is not orthogonal"):
                compose_canonical(h, DEFAULT_TOL)
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
        nu, alpha, tol, residual = 5e-324, 1e300, 1e-9, 3e-16

        def field(name, value):
            if np.ndim(value) == 0:
                return '  "%s": %s' % (name, format(value, ".17g"))
            if np.ndim(value) == 1:
                return '  "%s": %s' % (name, _oracle_rows([value])[0])
            return '  "%s": [\n%s\n  ]' % (
                name,
                ",\n".join("    " + row for row in _oracle_rows(value)),
            )

        def oracle(form, *fields):
            lines = ['  "form": "%s"' % form] + [field(*f) for f in fields]
            lines += [field("U", U), field("tol", tol), field("reconstruction_residual", residual)]
            return "{\n" + ",\n".join(lines) + "\n}\n"

        # A canonical factorization writes the alpha and V it derives from its
        # c; a reflector's entries are at most 1, so alpha carries the range.
        built = canonical(nu, alpha, sample_haar_orthogonal(m, seed=m), U)
        compact = CompactFactorization(nu=nu, c=c, U=U)
        assert dumps_factorization(built, tol, residual) == oracle(
            "canonical", ("nu", nu), ("alpha", built.alpha), ("V", built.V)
        )
        assert dumps_factorization(compact, tol, residual) == oracle(
            "compact", ("nu", nu), ("c", c)
        )
