"""The layers of socaut the traced run measures, and what each should move.

Each layer is one module of ``src/socaut``; ``socaut._validate`` reports as
``validate`` because metric names must start with a letter or a digit.  The
traced run wraps every function listed in ``TRACED`` at its module attribute
and at every name another socaut module imported it under, so nested calls
(kernels under ``automorphism.factor_compact``, fileio under ``cli.main``)
get a parent span and a self time.

``MOVES`` records, before any optimisation is attempted, which end-to-end
metric on which workload each layer's metrics should move; on every other
workload the prediction is no change.
"""

from __future__ import annotations

#: layer -> (module, functions wrapped); ``Class.method`` is patched on the class.
TRACED = {
    "validate": (
        "socaut._validate",
        ("as_vector", "as_square_matrix", "as_positive_float", "as_nonnegative_float", "as_index"),
    ),
    "spin": (
        "socaut.spin",
        (
            "SpinVector.__post_init__",
            "SpinVector.from_array",
            "SpinVector.to_array",
            "jordan_product",
            "unit",
            "cone_classify",
            "signature_matrix",
        ),
    ),
    "kernels": (
        "socaut.kernels",
        (
            "RankOneSqrt.from_vector",
            "RankOneSqrt.matrix",
            "RankOneSqrt.inverse_matrix",
            "sqrt_rank_one",
            "inv_sqrt_rank_one",
            "householder_to_direction",
            "orthogonality_residual",
            "haar_orthogonal",
            "sample_haar_orthogonal",
            "boost_matrix",
        ),
    ),
    "automorphism": (
        "socaut.automorphism",
        (
            "split_blocks",
            "check_automorphism",
            "normalize",
            "factor_compact",
            "factor_canonical",
            "compose_compact",
            "compose_canonical",
            "sample_automorphism",
            "property_report",
            "apply",
            "algebra_automorphism",
        ),
    ),
    "fileio": (
        "socaut.fileio",
        (
            "parse_matrix",
            "dumps_matrix",
            "parse_factorization",
            "dumps_factorization",
            "load_matrix",
            "load_factorization",
        ),
    ),
    "cli": ("socaut.cli", ("main",)),
}

#: Functions reported one by one; the rest count only in their layer's rollup.
REPORTED = {
    "kernels": (
        "householder_to_direction",
        "orthogonality_residual",
        "haar_orthogonal",
        "RankOneSqrt.from_vector",
        "boost_matrix",
    ),
    "automorphism": (
        "check_automorphism",
        "factor_compact",
        "factor_canonical",
        "compose_compact",
        "compose_canonical",
        "sample_automorphism",
        "property_report",
        "normalize",
        "split_blocks",
        "apply",
    ),
    "fileio": ("parse_matrix", "dumps_matrix", "parse_factorization", "dumps_factorization"),
}

#: Functions whose text argument (parse) or result (dumps) is counted in bytes.
BYTES_IN = ("parse_matrix", "parse_factorization")
BYTES_OUT = ("dumps_matrix", "dumps_factorization")

SUBCOMMANDS = ("sample", "check", "factor", "compose", "verify")

#: Layer metric prefix -> [(end-to-end metric, workload), ...] it should move.
MOVES = {
    "validate": [("ops_per_s", "small_batch")],
    "spin": [("ops_per_s", "small_batch")],
    "kernels": [("op_p50_ms", "dense_n1000"), ("ops_per_s", "small_batch")],
    "automorphism": [("op_p50_ms", "dense_n1000"), ("ops_per_s", "small_batch")],
    "automorphism.property_report": [("cli.verify_ms", "cli_files")],
    "fileio.parse_matrix": [
        ("cli.check_ms", "cli_files"),
        ("cli.verify_ms", "cli_files"),
        ("cli.factor_ms", "cli_files"),
    ],
    "fileio.dumps_factorization": [("cli.factor_ms", "cli_files")],
    "fileio.parse_factorization": [("cli.compose_ms", "cli_files")],
    "fileio.dumps_matrix": [("cli.compose_ms", "cli_files")],
    "cli": [(f"cli.{sub}_ms", "cli_files") for sub in SUBCOMMANDS],
}

LAYERS = tuple(TRACED)

#: Known defects measured apart from the timed ops (``SmallBatch.defect_probes``).
DEFECT_PROBES = (
    "automorphism.defect.wide_refused",
    "automorphism.defect.near_one_rejected",
    "automorphism.defect.tiny_gaussian_accepted",
    "kernels.defect.householder_e1",
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for layer in LAYERS:
        if layer in ("validate", "spin"):
            add(f"{layer}.calls", "count/op")
        for fn in REPORTED.get(layer, ()):
            add(f"{layer}.{fn}.calls", "count/op")
            add(f"{layer}.{fn}.self_ms", "ms/op")
            if layer == "fileio":
                add(f"{layer}.{fn}.bytes", "B/op")
                add(f"{layer}.{fn}.MBps", "MB/s", "higher")
        add(f"{layer}.self_ms", "ms/op")
        add(f"{layer}.share", "ratio")
    for name in DEFECT_PROBES:
        add(name, "ratio")
    add("cli.interpreter_ms", "ms")
    add("cli.import_ms", "ms")
    for sub in SUBCOMMANDS:
        add(f"cli.main.{sub}.self_ms", "ms/op")
    for sub in SUBCOMMANDS:
        add(f"cli.{sub}_ms", "ms")
    add("trace.accounted", "ratio", "higher")
    add("trace.overhead", "ratio")
    return out
