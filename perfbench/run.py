"""Run one socaut benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small_batch --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off.
With ``--trace 1`` it replays each op untraced and traced, in alternating
order, and reports the per-layer metrics and the tracing overhead.  Either
way every op's outputs are checked.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every end-to-end time is scaled to the reference host speed (``SpeedScale``);
raw values are printed beside the scaled ones.

``failed`` counts ops with any failed check, and ``correct`` is true only
when none failed: the timed inputs avoid socaut's known defects.  Those are
measured apart on every run by ``SmallBatch.defect_probes`` and printed; the
traced run reports them as per-layer metrics.

Exit codes: 0 with a result printed, 2 when the checkout holds no socaut
sources or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import WORK, SourceTreeMissing, envinfo, layers, stats, use_source_tree  # noqa: E402
from perfbench.tracer import Tracer, instrument  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    INTERPRETER_REFERENCE_S,
    WORKLOADS,
    SmallBatch,
    calibrate_all_cpus,
    cli_env,
    run_child,
)

#: Set-ups timed per run, each in a fresh interpreter; setup_s is their median.
SETUP_REPEATS = 5
#: Fresh interpreters timed for cli.interpreter_ms and cli.import_ms.
STARTUP_REPEATS = 5
CALIBRATE_EVERY = 0.5
CALIBRATIONS_KEPT = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="do the workload's set-up and exit; the parent run times this",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Tally:
    """Failure bookkeeping over the ops of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.kinds: Counter[str] = Counter()  # ops failing each check

    def add(self, kinds: set[str]) -> None:
        self.attempted += 1
        if kinds:
            self.failed += 1
            self.kinds.update(kinds)

    @property
    def failed_ratio(self) -> float:
        return stats.ratio(self.failed, self.attempted)


def record(workload, tally: Tally, inp: dict, out: dict) -> set[str]:
    """Check one op's outputs and count its failures; returns the failure kinds."""
    kinds = workload.check(inp, out)
    tally.add(kinds)
    return kinds


def time_setup(args) -> tuple[list[float], list[float]]:
    """Raw and reference-speed wall times of the set-up in fresh interpreters.

    Each raw time is scaled like a CLI call, by the mean of the host
    calibrations taken just before and just after it.
    """
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    raw, scaled = [], []
    before = calibrate_all_cpus()
    for _ in range(SETUP_REPEATS):
        call = run_child(argv, cli_env(), WORK)
        if call.code != 0:
            raise RuntimeError(f"set-up exited {call.code}")
        after = calibrate_all_cpus()
        raw.append(call.wall_s)
        scaled.append(call.wall_s * INTERPRETER_REFERENCE_S / ((before + after) / 2.0))
        before = after
    return raw, scaled


class SpeedScale:
    """Op times rescaled to the reference host speed.

    A shared 2-vCPU host can run single-threaded code up to twice as slow for
    tens of seconds at a time.  A fixed calibration kernel, timed
    between ops at least every ``CALIBRATE_EVERY`` seconds, tracks that speed:
    each op time is multiplied by ``reference_s`` over the median of the last
    ``CALIBRATIONS_KEPT`` calibrations, the newest taken just after the op.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self._window: list[float] = []
        self._calibrations = [workload.calibrate()]
        self._due = perf_counter() + CALIBRATE_EVERY

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self._window.append(seconds)
        if perf_counter() >= self._due:
            self.flush()

    def flush(self) -> None:
        if not self._window:
            return
        self._calibrations.append(self.workload.calibrate())
        recent = self._calibrations[-CALIBRATIONS_KEPT:]
        factor = self.workload.reference_s / stats.median(recent)
        self.scaled.extend(t * factor for t in self._window)
        self.factors.append(factor)
        self._window = []
        self._due = perf_counter() + CALIBRATE_EVERY


def measure(workload, seconds: float):
    """Closed loop with tracing off: op latencies and failure tally."""
    tally, times = Tally(), SpeedScale(workload)
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        inp = workload.inputs(i)
        t0 = perf_counter()
        out = workload.run(inp)
        times.add(perf_counter() - t0)
        record(workload, tally, inp, out)
        i += 1
    times.flush()
    return tally, times


def measure_traced(workload, seconds: float):
    """Each op untraced then traced (order alternating); returns tracer and totals."""
    tracer = Tracer()
    restore = instrument(tracer)
    tally = Tally()
    walls = {False: 0.0, True: 0.0}
    replay = workload.run if workload.in_process else workload.unit
    try:
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            inp = workload.inputs(i)
            out = None if workload.in_process else workload.run(inp)
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                t0 = perf_counter()
                if traced:
                    with tracer.op():
                        result = replay(inp)
                else:
                    result = replay(inp)
                walls[traced] += perf_counter() - t0
                if out is None and not traced:
                    out = result
            if not workload.in_process:
                out = {**out, "unit": result}
            record(workload, tally, inp, out)
            i += 1
    finally:
        restore()
    return tracer, tally, walls


def startup_times(env) -> tuple[float, float]:
    """Median wall ms of ``python -c pass`` and of importing socaut.cli on top of it."""
    def median_ms(code):
        walls = [
            run_child([sys.executable, "-c", code], env, WORK).wall_s
            for _ in range(STARTUP_REPEATS)
        ]
        return 1e3 * stats.median(walls)

    interpreter = median_ms("pass")
    return interpreter, median_ms("import socaut.cli") - interpreter


def layer_metrics(tracer, walls, call_ms, startup, probes) -> dict:
    ops = max(tracer.ops, 1)
    values: dict[str, float] = {}

    def total(table, layer, fn=None):
        return sum(
            v for (lay, name), v in table.items()
            if lay == layer and (fn is None or name == fn)
        )

    for name, _, _ in layers.per_layer_metrics():
        head, _, field = name.rpartition(".")
        layer, _, fn = head.partition(".")
        if layer in layers.TRACED and field in ("calls", "self_ms", "share", "bytes", "MBps"):
            fn = fn or None
            self_s = total(tracer.self_s, layer, fn)
            values[name] = {
                "calls": total(tracer.calls, layer, fn) / ops,
                "self_ms": 1e3 * self_s / ops,
                "share": stats.ratio(self_s, tracer.op_wall),
                "bytes": total(tracer.nbytes, layer, fn) / ops,
                "MBps": stats.ratio(total(tracer.nbytes, layer, fn), self_s) / 1e6,
            }[field]
    values.update(probes)
    values["cli.interpreter_ms"], values["cli.import_ms"] = startup
    for sub in layers.SUBCOMMANDS:
        values[f"cli.{sub}_ms"] = call_ms.get(sub, 0.0)
    layer_self = sum(total(tracer.self_s, layer) for layer in layers.LAYERS)
    values["trace.accounted"] = stats.ratio(layer_self, tracer.op_wall)
    values["trace.overhead"] = stats.ratio(walls[True], walls[False]) - 1.0
    return values


def call_ms(workload) -> dict[str, float]:
    return {} if workload.in_process else workload.call_medians_ms()


def emit(metrics: dict, units: dict, tally: Tally) -> None:
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_source_tree()
    except SourceTreeMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir).setup()
            return 0
        setup = None if args.trace else time_setup(args)
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
        print("env " + json.dumps(envinfo.record(args.seed), sort_keys=True))
        probes = SmallBatch(args.seed, workdir).defect_probes()
        print("known defects " + json.dumps(probes))
        if args.trace:
            startup = (0.0, 0.0)
            if not workload.in_process:
                startup = startup_times(cli_env())
            tracer, tally, walls = measure_traced(workload, args.seconds)
            values = layer_metrics(tracer, walls, call_ms(workload), startup, probes)
            metrics = {name: values[name] for name, _, _ in layers.per_layer_metrics()}
            units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
            print(f"traced ops {tracer.ops}; untraced {walls[False]:.3f} s, "
                  f"traced {walls[True]:.3f} s")
            print("moves " + json.dumps(layers.MOVES))
        else:
            tally, times = measure(workload, args.seconds)
            latencies = times.scaled
            value, pct, count, blocks = stats.block_tail(latencies)
            print(f"setup_s samples {[round(t, 4) for t in setup[1]]}, raw "
                  f"{[round(t, 4) for t in setup[0]]}")
            print(f"op_tail_ms is the median over {blocks} block(s) of each block's "
                  f"p{pct:.4g}; {count} ops")
            print(f"op times scaled to reference speed: factor median "
                  f"{stats.median(times.factors):.4g}, range {min(times.factors):.4g}"
                  f"..{max(times.factors):.4g}; raw op_p50_ms "
                  f"{1e3 * stats.median(times.raw):.6g}, raw op_tail_ms "
                  f"{1e3 * stats.block_tail(times.raw)[0]:.6g}, raw ops_per_s "
                  f"{len(times.raw) / sum(times.raw):.6g}")
            metrics = {
                "setup_s": stats.median(setup[1]),
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": 1e3 * stats.median(latencies),
                "op_tail_ms": 1e3 * value,
                "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
            }
            units = dict(layers.END_TO_END)
            print(f"failed_ratio {tally.failed_ratio:.6g} ({tally.failed} of {tally.attempted} ops)")
            for sub, ms in call_ms(workload).items():
                print(f"cli.{sub}_ms {ms:.6g} ms (median per call)")
        print("failures " + json.dumps(dict(sorted(tally.kinds.items()))))
        emit(metrics, units, tally)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
