"""Tracing through socaut's imported names, and failure counting."""

import dataclasses

import numpy as np
import pytest
import socaut.automorphism as au
import socaut.kernels

from perfbench import run
from perfbench.tracer import BENCH_KEY, Tracer, instrument
from perfbench.workloads import DenseN1000, SmallBatch


def test_nested_calls_get_parent_spans_and_self_times():
    original = au.check_automorphism
    from_vector = socaut.kernels.RankOneSqrt.__dict__["from_vector"]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert au.check_automorphism is not original
        S = au.sample_automorphism(6, seed=3)  # outside an op: not recorded
        assert tracer.ops == 0 and not tracer.calls
        with tracer.op():
            au.factor_canonical(S)
    finally:
        restore()
    assert au.check_automorphism is original
    assert socaut.kernels.RankOneSqrt.__dict__["from_vector"] is from_vector
    calls = tracer.calls
    # factor_canonical -> factor_compact -> check_automorphism, all through imported names
    assert calls[("automorphism", "factor_canonical")] == 1
    assert calls[("automorphism", "factor_compact")] == 1
    assert calls[("automorphism", "check_automorphism")] == 1
    assert calls[("kernels", "householder_to_direction")] == 1
    assert calls[("kernels", "RankOneSqrt.from_vector")] == 1
    assert calls[("validate", "as_square_matrix")] >= 3
    assert calls[BENCH_KEY] == 1
    assert all(v >= 0.0 for v in tracer.self_s.values())
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.op_wall, rel=1e-9)


@pytest.fixture
def small(tmp_path):
    return SmallBatch(seed=7, workdir=tmp_path)


def clean_op(workload):
    for i in range(100):
        inp = workload.inputs(i)
        out = workload.run(inp)
        if not workload.check(inp, out):
            return inp, out
    raise AssertionError("no op without failures in the first 100")


def test_a_wrong_verdict_counts_as_a_failed_op(small):
    inp, out = clean_op(small)
    tally = run.Tally()
    assert run.record(small, tally, inp, out) == set()
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (1, 0, 0.0)

    wrong = dict(out, check=dataclasses.replace(out["check"], is_automorphism=False))
    assert "rejected" in run.record(small, tally, inp, wrong)
    assert (tally.attempted, tally.failed, tally.failed_ratio) == (2, 1, 0.5)

    fooled = dict(out, nm_check=dataclasses.replace(out["nm_check"], is_automorphism=True))
    assert run.record(small, tally, inp, fooled) == {"nonmember_accepted"}
    assert (tally.failed, tally.kinds["nonmember_accepted"]) == (2, 1)


def test_timed_inputs_pass_and_defect_probes_find_the_known_defects(small):
    for i in range(40):
        inp = small.inputs(i)
        assert small.check(inp, small.run(inp)) == set()
    probes = small.defect_probes()
    assert probes["automorphism.defect.wide_refused"] > 0.0
    assert probes["automorphism.defect.near_one_rejected"] > 0.5
    assert probes["automorphism.defect.tiny_gaussian_accepted"] == 1.0
    assert probes["kernels.defect.householder_e1"] > 1.0


def test_a_composition_off_s_is_a_residual_failure(small):
    inp, out = clean_op(small)
    off = out["compose_compact"].copy()
    off[0, 0] *= 1.0 + 1e-6
    assert small.check(inp, dict(out, compose_compact=off)) == {"residual"}


def test_a_refused_member_is_raised(tmp_path):
    dense = DenseN1000(seed=1, workdir=tmp_path)
    dense.N = 6  # the same checks on a small member
    inp = dense.inputs(0)
    out = dense.run(inp)
    assert dense.check(inp, out) == set()
    refused = dict(out, factor_compact=au.NotAutomorphismError("refused"))
    assert dense.check(inp, refused) == {"raised"}


def test_inputs_depend_only_on_seed_and_index(tmp_path):
    a = SmallBatch(seed=5, workdir=tmp_path).inputs(9)
    b = SmallBatch(seed=5, workdir=tmp_path).inputs(9)
    c = SmallBatch(seed=6, workdir=tmp_path).inputs(9)
    assert np.array_equal(a["B"], b["B"]) and a["sample_seed"] == b["sample_seed"]
    assert a["sample_seed"] != c["sample_seed"]
