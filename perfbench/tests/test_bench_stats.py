"""The benchmark's own arithmetic: tail selection, self time, metric lists."""

import json

import pytest

from perfbench import ROOT, layers, stats


@pytest.mark.parametrize(
    "n, rank",
    [
        (1000, 990),  # p99: exactly ten samples beyond
        (100, 90),  # p90
        (25, 15),  # p60
        (21, 11),  # the last n where the rule stays at or above the median
        (20, 10),  # would be rank 10 either way
        (15, 8),  # the rule gives rank 5, below the median: median rank instead
        (1, 1),
    ],
)
def test_tail_rank_keeps_ten_samples_beyond(n, rank):
    values = [float(v) for v in range(1, n + 1)]  # value k has rank k
    value, pct, count = stats.tail(list(reversed(values)))
    assert value == rank
    assert pct == pytest.approx(100.0 * rank / n)
    assert count == n
    if n >= 2 * stats.TAIL_BEYOND + 1:
        assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_tail_counts_ties_by_position():
    value, pct, _ = stats.tail([5.0] * 30 + [9.0] * 3)
    assert value == 5.0 and pct == pytest.approx(100.0 * 23 / 33)


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.tail([])


@pytest.mark.parametrize(
    "children, expected",
    [
        ([], 10.0),
        ([(1.0, 3.0), (4.0, 5.0)], 7.0),  # disjoint children
        ([(1.0, 4.0), (3.0, 6.0)], 5.0),  # overlap counted once
        ([(2.0, 3.0), (2.5, 2.8)], 9.0),  # nested child inside a child
        ([(-5.0, 1.0), (9.0, 20.0)], 8.0),  # clipped to the parent interval
        ([(11.0, 12.0)], 10.0),  # outside the parent: not covered
        ([(0.0, 10.0)], 0.0),
    ],
)
def test_self_time_subtracts_covered_child_intervals(children, expected):
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(expected)


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == (
        layers.per_layer_metrics()
    )
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_block_tail_is_the_median_of_per_block_tails():
    # three blocks of 100; each block's p90 (ten beyond) is 90 + its offset
    values = [float(k % 100 + 1 + 1000 * (k // 100)) for k in range(300)] + [1e9] * 5
    value, pct, count, blocks = stats.block_tail(values, block=100)
    assert (value, pct, count, blocks) == (1090.0, 90.0, 305, 3)  # the partial block is left out
    assert stats.block_tail(values[:50], block=100)[:2] == stats.tail(values[:50])[:2]


class FakeWorkload:
    reference_s = 2.0

    def __init__(self, calibrations):
        self.calibrations = iter(calibrations)

    def calibrate(self):
        return next(self.calibrations)


def test_speed_scale_divides_by_recent_calibrations(monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run, "CALIBRATE_EVERY", 0.0)
    monkeypatch.setattr(run, "CALIBRATIONS_KEPT", 2)
    scale = run.SpeedScale(FakeWorkload([1.0, 1.0, 4.0, 4.0]))
    for t in (1.0, 2.0, 3.0):
        scale.add(t)
    # factors: 2 / median(1, 1), 2 / median(1, 4), 2 / median(4, 4)
    assert scale.scaled == pytest.approx([2.0, 1.6, 1.5])
    assert scale.raw == [1.0, 2.0, 3.0]

