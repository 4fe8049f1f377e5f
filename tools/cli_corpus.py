"""Run a fixed corpus of 72 socaut commands and record what each one prints.

    python tools/cli_corpus.py OUTDIR [--src SRC] [--inputs DIR] [--against OTHER]

Every command runs through ``socaut.cli.main`` in this one process, with
socaut imported from SRC (default: this checkout's ``src``).  The input
documents go to ``OUTDIR/inputs``; each command writes its exit code,
standard output and standard error to ``OUTDIR/results/LABEL.exit``,
``LABEL.stdout`` and ``LABEL.stderr``.  An exception that escapes
``cli.main`` is recorded as that command's result, the way a process would
end: exit code 1 and the traceback on standard error.

``--against OTHER`` compares two trees: after the run above, the corpus runs
again, in a fresh process, on the socaut imported from OTHER (another tree's
``src``), reading the same input documents and writing its results to
``OUTDIR/against/results``.  The script then lists every result file that
differs between the two runs, or is missing from one, and exits 1 if there
is any; it exits 0 when all are byte-identical, and 2 when the second run
fails.  A recorded traceback names its own tree's files, so a command whose
exception escapes differs between any two checkouts.

The member matrices come from ``sample_automorphism``, so a tree whose
sampler rounds differently writes different inputs, and every output derived
from them differs too.  ``--inputs DIR`` reads the input documents from DIR
(for instance another run's ``OUTDIR/inputs``) instead of writing them.  The
second run of ``--against`` reads the first run's inputs this way, so only
the ``sample_*`` commands depend on each tree's sampler.

The corpus: ``check``, ``factor`` (both forms) and ``verify`` on five
matrices (an n = 300 member, its 1e-7-perturbed copy, a 50 x 50 Gaussian,
an n = 300 member with nu = 1.03, and the n = 6 boost with its corner
raised by 1e-3); ``compose`` of the four factor documents of the two
members; ``check``, ``factor`` and ``verify`` with ``--tol 1e-12`` on the
two members; ``check`` and ``factor`` on two matrices that a two-sided
congruence test accepts and whose recovered U is not orthogonal
(``DISAGREEMENTS``: the alpha = 40 boost, n = 3, with entry (2, 2) raised
by 1e-3 at ``--tol 1e-4``, and the alpha = 1e4 boost, n = 6); ``check``
and ``verify`` on ``[[1e-150, 0], [0, 1e300]]``, whose D / nu overflows
(``tiny_column``); ``factor --form compact`` on an n = 6 member scaled by
2^-10, so that ||S||_F < 1 (``scaled``); three ``sample`` draws; ten calls
with bad arguments (two pass ``verify`` the sampling options it does not
have), the last a ``sample`` range whose entries overflow; ``compose`` on
nineteen hand-written factorization documents (``FACTORIZATIONS``): seven
malformed (one with a list as its ``form``), five that break an invariant
(one a U whose U^T U overflows), one (alpha = 1e8) whose product the
membership test refuses (mu cancels to 0), one whose ``||c||^2``
overflows, one whose product overflows while ``||c||^2`` does not
(nu = 1e300, ||c|| = 1e10), and four with two faults each (one whose
``c = alpha V e1`` overflows with a V that is not orthogonal, one whose V
and U are both sheared, where V must be named); ``compose --tol 1e-3`` on
a document that declares ``tol`` 1e-3 and whose U is orthogonal
only to that tolerance (``LOOSE``), which a compose gating at the default
tol would refuse, and ``compose`` on it at the default ``--tol``, whose
re-check of the composed matrix refuses it on the recovered U; and
``compose`` on its canonical twin, whose V is
orthogonal only to the declared tol (``LOOSE_CANONICAL``), which passes
only if V is gated at the document's tol.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

MATRICES = ("member", "perturbed", "gaussian", "near_one", "corner")
MEMBERS = ("member", "near_one")
#: name -> the ``--tol`` that ``check`` and ``factor`` run at on that matrix.
DISAGREEMENTS = {"stretched": "1e-4", "wide": "1e-9"}

_ROT = [[0.6, 0.8], [-0.8, 0.6]]
_SWAP = [[0, 1], [1, 0]]
_SHEAR = [[1, 0.1], [0, 1]]
_CANONICAL = {"form": "canonical", "nu": 2.0, "alpha": 0.75, "V": _ROT, "U": _SWAP}
_COMPACT = {"form": "compact", "nu": 2.0, "c": [0.75, 0.0], "U": _SWAP}

#: label -> a factorization document that ``compose`` refuses.
FACTORIZATIONS = {
    "missing_field": {k: v for k, v in _COMPACT.items() if k != "U"},
    "unexpected_field": {**_CANONICAL, "extra": 1},
    "bad_form": {**_COMPACT, "form": "polar"},
    "form_list": {**_COMPACT, "form": ["compact"]},
    "v_u_size": {**_CANONICAL, "V": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    "c_u_length": {**_COMPACT, "c": [0.75, 0.0, 0.0]},
    "non_number": {**_COMPACT, "U": [[0, "1"], [1, 0]]},
    "nu_zero": {**_COMPACT, "nu": 0},
    "alpha_negative": {**_CANONICAL, "alpha": -0.5},
    "u_not_orthogonal": {**_COMPACT, "U": _SHEAR},
    "v_not_orthogonal": {**_CANONICAL, "V": _SHEAR},
    "u_gram_overflow": {"form": "compact", "nu": 1, "c": [1], "U": [[1e200]]},
    "alpha_wide": {**_CANONICAL, "alpha": 1e8},
    "alpha_overflow": {**_CANONICAL, "alpha": 1e200},
    "product_overflow": {**_COMPACT, "nu": 1e300, "c": [1e10, 0], "U": [[1, 0], [0, 1]]},
    "nu_zero_c_u_length": {**_COMPACT, "nu": 0, "c": [0.75]},
    "alpha_not_number_u_ragged": {**_CANONICAL, "alpha": "x", "U": [[0, 1], [1]]},
    "c_overflow_v_not_orthogonal": {**_CANONICAL, "alpha": 1e300, "V": [[1e10, 0], [0, 1]]},
    "v_u_not_orthogonal": {**_CANONICAL, "V": _SHEAR, "U": _SHEAR},
}
#: A document that ``compose --tol 1e-3`` accepts only at its declared tol:
#: U's residual is about 2e-4, within 1e-3 * 2 but not 1e-9 * 2.
LOOSE = {**_COMPACT, "U": [[0, 1.0001], [1, 0]], "tol": 1e-3}
#: LOOSE's canonical twin, with V the loose factor: V enters the product only
#: as c, so ``compose`` at the default ``--tol`` accepts it if and only if
#: the load gates V at the declared tol.
LOOSE_CANONICAL = {**_CANONICAL, "V": [[0, 1.0001], [1, 0]], "tol": 1e-3}


def input_paths(inputs: Path) -> dict[str, Path]:
    """The input documents' paths in ``inputs`` by name: the nine matrices,
    then the factorization documents under ``doc_LABEL``."""
    names = [
        *MATRICES,
        *DISAGREEMENTS,
        "tiny_column",
        "scaled",
        *(f"doc_{label}" for label in FACTORIZATIONS),
        "doc_loose",
        "doc_loose_canonical",
    ]
    return {name: inputs / f"{name}.json" for name in names}


def write_inputs(inputs: Path) -> dict[str, Path]:
    """Write the input documents into ``inputs``; return ``input_paths(inputs)``."""
    from socaut import boost_matrix, sample_automorphism
    from socaut.fileio import dumps_matrix

    member = sample_automorphism(300, seed=7)
    corner = boost_matrix(1.0, 6)
    corner[0, 0] += 1e-3
    stretched = boost_matrix(40.0, 3)
    stretched[2, 2] += 1e-3
    matrices = {
        "member": member,
        "perturbed": member + 1e-7 * np.random.default_rng(1).standard_normal(member.shape),
        "gaussian": np.random.default_rng(2).standard_normal((50, 50)),
        "near_one": sample_automorphism(300, nu_range=(1.03, 1.03), seed=8),
        "corner": corner,
        "stretched": stretched,
        "wide": boost_matrix(1e4, 6),
        "tiny_column": np.array([[1e-150, 0.0], [0.0, 1e300]]),
        "scaled": 2.0**-10 * sample_automorphism(6, 3.0, (1.0, 1.0), 5),
    }
    inputs.mkdir(parents=True, exist_ok=True)
    paths = input_paths(inputs)
    for name, S in matrices.items():
        paths[name].write_text(dumps_matrix(S))
    loose = {"loose": LOOSE, "loose_canonical": LOOSE_CANONICAL}
    for label, doc in {**FACTORIZATIONS, **loose}.items():
        paths[f"doc_{label}"].write_text(json.dumps(doc, indent=2) + "\n")
    return paths


def commands(paths: dict[str, Path], results: Path) -> list[tuple[str, list[str]]]:
    """The corpus as ``(label, argv)`` pairs, in the order they run.  Each
    compose reads the standard output its factor command left in ``results``."""
    cmds = []
    for name in MATRICES:
        m = str(paths[name])
        cmds += [
            (f"check_{name}", ["check", m]),
            (f"factor_canonical_{name}", ["factor", m]),
            (f"factor_compact_{name}", ["factor", m, "--form", "compact"]),
            (f"verify_{name}", ["verify", m]),
        ]
    for name in MEMBERS:
        for form in ("canonical", "compact"):
            doc = results / f"factor_{form}_{name}.stdout"
            cmds.append((f"compose_{form}_{name}", ["compose", str(doc)]))
    for name in MEMBERS:
        m = str(paths[name])
        cmds += [
            (f"check_tol12_{name}", ["check", m, "--tol", "1e-12"]),
            (f"factor_tol12_{name}", ["factor", m, "--tol", "1e-12"]),
            (f"verify_tol12_{name}", ["verify", m, "--tol", "1e-12"]),
        ]
    for name, tol in DISAGREEMENTS.items():
        m = str(paths[name])
        cmds += [
            (f"check_{name}", ["check", m, "--tol", tol]),
            (f"factor_{name}", ["factor", m, "--tol", tol]),
        ]
    tiny = str(paths["tiny_column"])
    cmds += [
        ("check_tiny_column", ["check", tiny]),
        ("verify_tiny_column", ["verify", tiny]),
        ("factor_compact_scaled", ["factor", str(paths["scaled"]), "--form", "compact"]),
    ]
    ranges = ["--alpha-max", "100", "--nu-min", "0.5", "--nu-max", "2"]
    cmds += [
        ("sample_member", ["sample", "300", "1", "--seed", "7"]),
        ("sample_stream", ["sample", "4", "20", "--seed", "11"]),
        ("sample_ranges", ["sample", "5", "3", "--seed", "2", *ranges]),
    ]
    member = str(paths["member"])
    bad = [
        ["sample", "1", "3"],
        ["sample", "4", "0"],
        ["sample", "4", "3", "--alpha-max", "-1"],
        ["sample", "4", "3", "--nu-min", "0"],
        ["sample", "4", "3", "--nu-min", "3", "--nu-max", "2"],
        ["sample", "4", "3", "--seed", "-1"],
        ["verify", member, "--tol", "-1"],
        ["verify", member, "--samples", "-1"],
        ["verify", member, "--seed", "-1"],
        ["sample", "3", "1", "--alpha-max", "1e150", "--nu-min", "1e200", "--nu-max", "1e200"],
    ]
    cmds += [(f"bad_{i}", argv) for i, argv in enumerate(bad)]
    cmds += [
        (f"compose_doc_{label}", ["compose", str(paths[f"doc_{label}"])])
        for label in FACTORIZATIONS
    ]
    cmds.append(("compose_doc_loose", ["compose", str(paths["doc_loose"]), "--tol", "1e-3"]))
    cmds.append(("compose_doc_loose_default_tol", ["compose", str(paths["doc_loose"])]))
    cmds.append(("compose_doc_loose_canonical", ["compose", str(paths["doc_loose_canonical"])]))
    return cmds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path, help="directory for inputs and results")
    parser.add_argument(
        "--src", type=Path, default=ROOT / "src", help="directory socaut is imported from"
    )
    parser.add_argument(
        "--inputs",
        type=Path,
        help="read the input documents from this directory (another run's OUTDIR/inputs) "
        "instead of writing them",
    )
    parser.add_argument(
        "--against",
        type=Path,
        help="also run the corpus on the socaut imported from this directory, on the same "
        "inputs, and list every result file that differs (exit 1 if any)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from socaut import cli

    inputs = args.outdir / "inputs" if args.inputs is None else args.inputs
    if args.inputs is None:
        paths = write_inputs(inputs)
    else:
        paths = input_paths(inputs)
        missing = [str(p) for p in paths.values() if not p.is_file()]
        if missing:
            parser.error(f"missing input document(s): {', '.join(missing)}")
    results = args.outdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    corpus = commands(paths, results)
    for label, cmd in corpus:
        out, err = io.StringIO(), io.StringIO()
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("always")  # every command shows its own warnings
            try:
                code = cli.main(cmd)
            except Exception:
                traceback.print_exc()
                code = 1
        (results / f"{label}.exit").write_text(f"{code}\n")
        (results / f"{label}.stdout").write_text(out.getvalue())
        (results / f"{label}.stderr").write_text(err.getvalue())
    print(f"{len(corpus)} commands run; results in {results}")
    if args.against is None:
        return 0
    other = args.outdir / "against"
    rerun = [sys.executable, __file__, str(other), "--src", str(args.against)]
    if subprocess.run([*rerun, "--inputs", str(inputs)]).returncode != 0:
        print(f"error: the corpus run under {args.against} failed", file=sys.stderr)
        return 2
    differ = differing(results, other / "results")
    if not differ:
        print(f"no differences: every result file is byte-identical under {args.against}")
        return 0
    print(f"{len(differ)} result file(s) differ under {args.against}:")
    for name in differ:
        print(f"  {name}")
    return 1


def differing(left: Path, right: Path) -> list[str]:
    """Names of the files in either directory that the other lacks or holds
    with other bytes, sorted."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    return [
        name
        for name in names
        if not ((left / name).is_file() and (right / name).is_file())
        or (left / name).read_bytes() != (right / name).read_bytes()
    ]


if __name__ == "__main__":
    raise SystemExit(main())
