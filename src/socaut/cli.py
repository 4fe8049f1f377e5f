"""Command-line front end: check, factor, compose, sample, verify.

Exit codes form a strict contract: 0 = success/accepted, 1 = mathematical
rejection (not an automorphism, or a factorization file whose payload breaks
an invariant), 2 = malformed input (unparsable documents, bad shapes, bad
argument ranges).  Reports go to standard output as one ``key value`` pair
per line; ``main`` writes every diagnostic to standard error.  ``--output``
redirects the payload (report, document, or sample directory); ``--quiet``
suppresses the standard-output copy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from ._validate import DEFAULT_TOL, as_nonnegative_float
from .automorphism import (
    CanonicalFactorization,
    NotAutomorphismError,
    _assemble,
    _check,
    _norms,
    _verify,
    check_automorphism,
    compose_canonical,
    compose_compact,
    factor_canonical,
    factor_compact,
    sample_automorphism,
)
from .fileio import (
    InvalidFactorizationError,
    dumps_factorization,
    dumps_matrix,
    format_float,
    load_factorization,
    load_matrix,
)

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_MALFORMED = 2


def _emit(text: str, output: str | None, quiet: bool) -> None:
    """Write payload text to --output (if given) and/or standard output."""
    if output is not None:
        Path(output).write_text(text)
    elif not quiet:
        sys.stdout.write(text)


def _report(pairs) -> str:
    """One ``key value`` line per pair: bools as true/false, numbers via format_float."""
    return "".join(
        f"{key} {str(value).lower() if isinstance(value, bool) else format_float(value)}\n"
        for key, value in pairs
    )


def _relative_residual(A: np.ndarray, B: np.ndarray) -> float:
    """``||A - B||_F / ||B||_F``, without overflow where ``||B||_F^2`` would;
    B is an accepted matrix, so its norm is positive."""
    difference, norm = _norms(A - B, B)
    return difference / norm


def _cmd_check(args: argparse.Namespace) -> int:
    S = load_matrix(args.input)
    result = check_automorphism(S, args.tol)
    _emit(_report(vars(result).items()), args.output, args.quiet)
    return EXIT_OK if result.is_automorphism else EXIT_REJECTED


def _cmd_factor(args: argparse.Namespace) -> int:
    S = load_matrix(args.input)
    factor = factor_canonical if args.form == "canonical" else factor_compact
    f = factor(S, args.tol)  # gates U; the canonical form builds no V
    residual = _relative_residual(_assemble(f.nu, f.c, f.U), S)
    doc = dumps_factorization(f, tol=args.tol, reconstruction_residual=residual)
    _emit(doc, args.output, args.quiet)
    return EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> int:
    f, tol = load_factorization(args.input)  # gates the orthogonal factors
    compose = compose_canonical if isinstance(f, CanonicalFactorization) else compose_compact
    S = compose(f, tol)  # gates the residuals the load kept, at the same tol
    result, _, reasons = _check(S, as_nonnegative_float(args.tol, "tol"))
    if not result.is_automorphism:
        raise NotAutomorphismError("composed matrix fails the membership test: " + reasons, result)
    _emit(dumps_matrix(S), args.output, args.quiet)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"COUNT must be >= 1, got {args.count}")
    out_dir = None if args.output is None else Path(args.output)
    for i in range(args.count):
        S = sample_automorphism(
            args.n,
            alpha_max=args.alpha_max,
            nu_range=(args.nu_min, args.nu_max),
            seed=args.seed + i,
        )
        if out_dir is not None:
            # Made after a draw, so arguments the sampler refuses leave no directory.
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"automorphism_{i:04d}.json").write_text(dumps_matrix(S))
        elif not args.quiet:
            sys.stdout.write(dumps_matrix(S, compact=True) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    S = load_matrix(args.input)
    result, report, ok = _verify(S, as_nonnegative_float(args.tol, "tol"))
    pairs = [
        ("mu", result.mu),
        ("residual_congruence", result.residual_congruence),
        ("residual_A2", report.residual_A2),
        ("residual_A3", report.residual_A3),
        ("cone_slack_bound", report.cone_slack_bound),
        ("all_within_tol", ok),
    ]
    _emit(_report(pairs), args.output, args.quiet)
    return EXIT_OK if ok else EXIT_REJECTED


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help=f"acceptance tolerance (default {DEFAULT_TOL:g})",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the payload here instead of standard output",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the standard-output copy of the payload",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socaut",
        description=(
            "Test, factor, compose, sample, and verify automorphisms of the "
            "second-order (Lorentz) cone."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="membership test for a matrix document")
    p.add_argument("input", help="matrix document path, or - for standard input")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("factor", help="factor an automorphism into a document")
    p.add_argument("input", help="matrix document path, or - for standard input")
    p.add_argument(
        "--form",
        choices=("canonical", "compact"),
        default="canonical",
        help="factorization form (default canonical)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("compose", help="multiply a factorization document back out")
    p.add_argument("input", help="factorization document path, or - for standard input")
    _add_common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("sample", help="draw seeded random automorphisms")
    p.add_argument("n", type=int, help="ambient dimension (>= 2)")
    p.add_argument("count", type=int, help="number of matrices to draw (>= 1)")
    p.add_argument("--alpha-max", type=float, default=10.0, help="boost range (default 10)")
    p.add_argument("--nu-min", type=float, default=1.0, help="scale lower bound (default 1)")
    p.add_argument("--nu-max", type=float, default=1.0, help="scale upper bound (default 1)")
    p.add_argument("--seed", type=int, default=0, help="base seed; file i uses seed+i")
    p.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="write automorphism_<index>.json files here instead of one-per-line output",
    )
    p.add_argument(
        "--quiet", action="store_true", help="suppress the standard-output copy"
    )
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="identity residuals and a cone certificate")
    p.add_argument("input", help="matrix document path, or - for standard input")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NotAutomorphismError, InvalidFactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (OSError, ValueError) as exc:  # FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


def entrypoint() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())
