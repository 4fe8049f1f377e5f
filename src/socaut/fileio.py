"""Reading and writing the matrix and factorization documents used by the CLI.

Matrix document: JSON text with fields ``n`` (integer) and ``data`` (n rows
of n numbers).  Every number is serialized with 17 significant decimal
digits, which round-trips doubles exactly, so parse -> emit is byte-stable.
A bare whitespace-separated k x k numeric grid (k inferred) is also accepted
on input; its tokens are ASCII numbers without digit-group underscores.

Factorization document: JSON text with ``form`` ("canonical" or "compact"),
``nu``, the form's own fields (``alpha``/``V`` or ``c``), ``U``, and two
optional bookkeeping fields: ``tol`` (the tolerance the factors were
validated at; also applied when loading) and ``reconstruction_residual``.
The writer and the parser read each form's fields from one table, ``_FORMS``.

Every array field (``data``, ``V``, ``U``, ``c``) goes through one codec:
``_parse_array`` checks shape and entry types row by row, then converts the
field with one ``np.array`` call; ``_rows`` writes it through one ``%.17g``
row template.  Entries are walked one by one only on the error path, to name
the offender.

A canonical document's ``V`` is handled here and nowhere else: it is
measured once, reduced to ``c = alpha V[:, 0]``, and gated at the
document's ``tol`` before U.  The loaded factorization is built from and
stores only the compact factors, and writes back ``||c||`` and the
reflector of c, which match the document's alpha and V to rounding, not to
the byte.

Structural problems (bad syntax, duplicate, missing or mismatched fields,
non-numbers, non-finite numbers, wrong shapes) raise FileFormatError.  Well-formed
documents whose payload breaks a mathematical invariant (``nu <= 0``,
``alpha < 0``, orthogonality residual beyond the declared tolerance) raise
InvalidFactorizationError — the CLI maps the former to exit 2 and the latter
to exit 1.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from ._validate import DEFAULT_TOL, as_float, as_nonnegative_float, as_square_matrix
from .automorphism import CanonicalFactorization, CompactFactorization
from .kernels import _require_orthogonal, orthogonality_residual

__all__ = [
    "FileFormatError",
    "InvalidFactorizationError",
    "format_float",
    "dumps_matrix",
    "parse_matrix",
    "load_matrix",
    "dumps_factorization",
    "parse_factorization",
    "load_factorization",
]


class FileFormatError(ValueError):
    """Structurally malformed matrix or factorization document."""


class InvalidFactorizationError(ValueError):
    """Well-formed factorization document violating a mathematical invariant."""


#: 17 significant digits round-trip every double exactly.
_FLOAT_FORMAT = "%.17g"
_NUMBER_TYPES = {int, float}


def format_float(x: float) -> str:
    """Serialize a double with 17 significant digits (exact round-trip)."""
    return _FLOAT_FORMAT % float(x)


def _reject_constant(token: str):
    raise FileFormatError(f"non-finite constant {token!r} is not allowed")


def _parse_int(token: str):
    # format_float writes -0.0 as "-0"; int() would drop its sign.
    return -0.0 if token == "-0" else int(token)


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FileFormatError(f"{where} is not a number")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the double range
        out = math.inf
    if not math.isfinite(out):
        raise FileFormatError(f"{where} is not finite")
    return out


def _unique_fields(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FileFormatError(f"duplicate field {key!r}")
        obj[key] = value
    return obj


def _loads(text: str) -> dict:
    try:
        obj = json.loads(
            text,
            parse_constant=_reject_constant,
            parse_int=_parse_int,
            object_pairs_hook=_unique_fields,
        )
    except FileFormatError:
        raise
    except ValueError as exc:  # bad syntax, or an integer beyond int()'s digit limit
        raise FileFormatError(f"invalid document: {exc}") from None
    if not isinstance(obj, dict):
        raise FileFormatError(
            f"document root must be an object, got {type(obj).__name__}"
        )
    return obj


def _check_keys(obj: dict, required: set[str], optional: set[str], what: str) -> None:
    keys = set(obj)
    missing = sorted(required - keys)
    if missing:
        raise FileFormatError(f"{what} is missing field(s): {', '.join(missing)}")
    unknown = sorted(keys - required - optional)
    if unknown:
        raise FileFormatError(f"{what} has unexpected field(s): {', '.join(unknown)}")


def _parse_array(value, name: str, square: bool) -> np.ndarray:
    """Parse an array field: a square matrix of rows, or a vector of numbers."""
    if not isinstance(value, list) or not value:
        kind = "rows" if square else "numbers"
        raise FileFormatError(f"field {name!r} must be a non-empty array of {kind}")
    rows = value if square else [value]
    m = len(value)
    numeric = True
    for i, row in enumerate(rows):
        if square and (not isinstance(row, list) or len(row) != m):
            got = f"has {len(row)} entries" if isinstance(row, list) else "is not an array"
            raise FileFormatError(f"{name} row {i} {got}, expected {m} entries")
        numeric = numeric and set(map(type, row)) <= _NUMBER_TYPES
    if numeric:
        try:
            out = np.array(value, dtype=float)
        except OverflowError:
            pass
        else:
            if np.isfinite(out).all():
                return out
    # Error path only: walk the entries to name the first offender.
    for i, row in enumerate(rows):
        for k, v in enumerate(row):
            _require_number(v, f"{name}[{i}][{k}]" if square else f"{name}[{k}]")
    raise AssertionError(f"no offending entry found in {name}")  # unreachable


def _rows(M: np.ndarray, indent: str | None) -> str:
    """JSON rows of ``M``: one line per row behind ``indent``, or one line."""
    row = "[" + ", ".join([_FLOAT_FORMAT] * M.shape[1]) + "]"
    sep = ", " if indent is None else ",\n" + indent
    return (indent or "") + sep.join([row % tuple(r.tolist()) for r in M])


# -- matrix documents --------------------------------------------------------


def dumps_matrix(M, compact: bool = False) -> str:
    """Serialize a square matrix as a matrix document.

    ``compact=True`` emits a single line (used for streaming one matrix per
    line); the default is an indented, row-per-line layout.  Both parse back
    identically.  M must be at least 2 x 2, as parse_matrix requires.
    """
    M = as_square_matrix(M, "matrix", min_n=2)
    n = M.shape[0]
    if compact:
        return '{"n": %d, "data": [%s]}' % (n, _rows(M, None))
    return '{\n  "n": %d,\n  "data": [\n%s\n  ]\n}\n' % (n, _rows(M, "    "))


def parse_matrix(text: str) -> np.ndarray:
    """Parse a matrix document or a bare numeric grid into an ndarray.

    Raises FileFormatError with a diagnostic naming the offending row,
    column, or token.
    """
    stripped = text.strip()
    if not stripped:
        raise FileFormatError("empty input")
    if stripped.startswith(("{", "[")):
        return _parse_matrix_json(stripped)
    return _parse_matrix_grid(stripped)


def _parse_matrix_json(text: str) -> np.ndarray:
    obj = _loads(text)
    _check_keys(obj, {"n", "data"}, set(), "matrix document")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise FileFormatError("field 'n' must be an integer")
    if n < 2:
        raise FileFormatError(f"matrix size n must be >= 2, got {n}")
    data = obj["data"]
    if isinstance(data, list) and len(data) != n:
        raise FileFormatError(f"data has {len(data)} rows, expected n = {n}")
    return _parse_array(data, "data", square=True)


def _grid_number(token: str) -> float:
    # float() also reads "1_0" as 10 and non-ASCII digits such as "\uff11".
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return float(token)


def _parse_matrix_grid(text: str) -> np.ndarray:
    tokens = text.split()
    try:
        # Checked once for the whole grid; tokens hold no whitespace, so an
        # underscore in the text is an underscore in some token.
        if "_" in text or not "".join(tokens).isascii():
            raise ValueError(text)
        values = np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        # Error path only: find the token that is not a plain number.
        for idx, token in enumerate(tokens):
            try:
                _grid_number(token)
            except ValueError:
                raise FileFormatError(
                    f"grid token {idx + 1} ({token!r}) is not a number"
                ) from None
        raise
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise FileFormatError(f"grid token {bad + 1} is not finite")
    k = math.isqrt(len(tokens))
    if k * k != len(tokens) or k < 2:
        raise FileFormatError(
            f"grid must contain k*k numbers for some k >= 2, got {len(tokens)}"
        )
    return values.reshape(k, k)


def _read(path) -> str:
    """The text at ``path``, or standard input when ``path`` is ``"-"``."""
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def load_matrix(path) -> np.ndarray:
    """Read and parse a matrix document from ``path``, or ``"-"`` for standard input."""
    return parse_matrix(_read(path))


# -- factorization documents -------------------------------------------------


#: form -> (factorization type, {field: ndim} in document order).
_FORMS = {
    "canonical": (CanonicalFactorization, {"nu": 0, "alpha": 0, "V": 2, "U": 2}),
    "compact": (CompactFactorization, {"nu": 0, "c": 1, "U": 2}),
}
#: ndim -> the message for a field whose size does not match U's.
_SIZE_MISMATCH = {
    1: "{name} has length {k} but U is {m}x{m}",
    2: "{name} is {k}x{k} but U is {m}x{m}; sizes must match",
}


def _field(name: str, value) -> str:
    """One document line: a number, a vector on one line, or a matrix of rows."""
    if np.ndim(value) == 0:
        return f'  "{name}": {format_float(value)}'
    if np.ndim(value) == 1:
        return f'  "{name}": {_rows(value[np.newaxis], None)}'
    return '  "%s": [\n%s\n  ]' % (name, _rows(value, "    "))


def dumps_factorization(
    f,
    tol: float | None = None,
    reconstruction_residual: float | None = None,
) -> str:
    """Serialize a CompactFactorization or CanonicalFactorization.

    ``tol`` records the tolerance the orthogonal factors were validated at
    (and governs re-validation on load); ``reconstruction_residual`` records
    the achieved factor-then-compose residual.  Both are omitted when None;
    a negative or non-finite ``tol`` and a non-finite residual raise
    ValueError, as parse_factorization would refuse them.
    """
    form = next((form for form, (kind, _) in _FORMS.items() if isinstance(f, kind)), None)
    if form is None:
        raise TypeError(f"cannot serialize {type(f).__name__} as a factorization")
    extras = [] if tol is None else [("tol", as_nonnegative_float(tol, "tol"))]
    if reconstruction_residual is not None:
        if not math.isfinite(residual := as_float(reconstruction_residual)):
            raise ValueError(
                f"reconstruction_residual must be finite, got {reconstruction_residual!r}"
            )
        extras.append(("reconstruction_residual", residual))
    fields = [(name, getattr(f, name)) for name in _FORMS[form][1]]
    lines = [f'  "form": "{form}"'] + [_field(*pair) for pair in fields + extras]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def parse_factorization(text: str):
    """Parse a factorization document.

    Returns ``(factorization, tol)`` where ``tol`` is the file-declared
    tolerance (DEFAULT_TOL when absent).  Structural problems raise
    FileFormatError, the first in document order; mathematical invariant
    violations (nu <= 0, alpha < 0, a factor whose residual over m exceeds
    ``tol``, V before U) raise InvalidFactorizationError; a canonical
    document whose ``c = alpha V[:, 0]`` overflows raises ValueError before
    V is gated.  Each orthogonal factor is measured once, here: V is
    reduced to c, and the factorization keeps U's residual, which compose_*
    gates at its own tol.
    """
    obj = _loads(text.strip() or "{}")
    form = obj.get("form")
    if not isinstance(form, str) or form not in _FORMS:
        raise FileFormatError(
            f"field 'form' must be \"canonical\" or \"compact\", got {form!r}"
        )
    kind, fields = _FORMS[form]
    _check_keys(obj, {"form", *fields}, {"tol", "reconstruction_residual"}, f"{form} document")
    values = {
        name: _parse_array(obj[name], name, ndim == 2)
        if ndim else _require_number(obj[name], f"field {name!r}")
        for name, ndim in fields.items()
    }
    tol = _require_number(obj.get("tol", DEFAULT_TOL), "field 'tol'")
    if tol < 0.0:
        raise FileFormatError("field 'tol' must be >= 0")
    if "reconstruction_residual" in obj:
        _require_number(obj["reconstruction_residual"], "field 'reconstruction_residual'")
    m = len(values["U"])
    for name, ndim in fields.items():
        if ndim and (k := len(values[name])) != m:
            raise FileFormatError(_SIZE_MISMATCH[ndim].format(name=name, k=k, m=m))
    if values["nu"] <= 0.0:
        raise InvalidFactorizationError(f"nu must be > 0, got {format_float(values['nu'])}")
    V = values.pop("V", None)
    if V is not None:
        alpha = values.pop("alpha")
        if alpha < 0.0:
            raise InvalidFactorizationError(f"alpha must be >= 0, got {format_float(alpha)}")
        with np.errstate(over="ignore"):
            values["c"] = alpha * V[:, 0]
        if not np.isfinite(values["c"]).all():
            raise ValueError(f"c = alpha V e1 must be finite, got alpha={alpha!r}")
        _require_orthogonal(orthogonality_residual(V), m, "V", tol, InvalidFactorizationError)
    f = kind(**values)
    f._gate(tol, InvalidFactorizationError)  # U measured here once; compose_* reuses it
    return f, tol


def load_factorization(path):
    """Read and parse a factorization document from ``path``, or ``"-"`` for stdin."""
    return parse_factorization(_read(path))
