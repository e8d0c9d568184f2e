"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload {pingpong,bulk,fleet} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` reports the end-to-end metrics with tracing off:
``ops_per_s`` (operations per host second of the timed repetitions:
the geometric mean of their tenth-percentile and fastest rates),
``setup_s`` (median over fresh interpreters), ``peak_rss_mb`` and
``table1_p95_err_pct``.  ``--trace 1`` runs one fixed input three
times -- plain, under the layer profiler, and with model counters and
memory-call counting -- and reports the per-layer metrics; its spans
go to ``perfbench/out/`` as Chrome trace-event JSON.

Every run checks the program's outputs, re-runs an input to check that
the simulation is deterministic, and counts every failure.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  Run from the repository root; the program is imported
from ``src/`` of the same tree.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, "perfbench", "out")

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 7
#: Packets per Table I cell of the accuracy pass.  Over ten seeds the
#: error's quartile distance was 0.12-0.15 of its median at 1200 packets
#: and 0.03-0.06 at 2000; 1800 packets take 10-15 s.
TABLE1_PACKETS = 1800
#: Seeded payloads per Table I size in the pingpong echo check.
ECHO_PER_SIZE = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def prepare_program() -> None:
    """Put this tree's ``src/`` first on the path, with no ``REPRO_*``
    knobs from the caller's environment."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program source at {os.path.join(SRC, 'repro')}")
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # Timed repetitions each use their own seed, so boot snapshots never
    # apply to them.  Switching the layer off makes the passes that do
    # repeat an input (the determinism re-run, the traced passes) boot
    # cold in this process instead of forking a child per cell.
    os.environ["REPRO_SNAPSHOT_BOOT"] = "0"
    sys.path[:0] = [SRC, ROOT]
    import repro

    package = os.path.realpath(os.path.dirname(repro.__file__))
    if not package.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"imported repro from {package}, not from {SRC}")


class Tally:
    """Attempted and failed operations over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, outcome: Any) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed

    def check_repeat(self, what: str, first: Any, again: Any) -> None:
        """A re-run of the same input must reproduce the simulation."""
        same = first.digest == again.digest and (
            first.counters is None or again.counters is None
            or first.counters == again.counters
        )
        if not same:
            print(f"perfbench: {what}: re-run of the same input diverged", file=sys.stderr)
            self.failed += 1


def setup_seconds(name: str, seed: int, quick: bool) -> float:
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    cmd = [sys.executable, probe, name, str(seed)] + (["--quick"] if quick else [])
    times = []
    for _ in range(1 if quick else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr[-4000:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def repetition_rate(rates: List[float]) -> float:
    """The geometric mean of the contended and the uncontended rate.

    The program's work per repetition is fixed by its input, but the
    shared host's speed moves between a contended and an uncontended
    level about 1.8x apart, and the share of a run spent at each
    changes from run to run.  A mean or median of the repetitions
    follows that share.  The tenth percentile measures the contended
    level but jumps when a run is almost wholly uncontended; the fastest
    repetition measures the uncontended level but drops when a run is
    almost wholly contended.  Their geometric mean moves half as far
    as either when one of them fails.
    """
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return math.sqrt(statistics.quantiles(rates, n=10)[0] * max(rates))


def check_echo(workload: Any, seed: int, tally: Tally, spans: Any) -> None:
    from perfbench.workloads import Pingpong, echo_check

    if isinstance(workload, Pingpong):
        attempted, failed = echo_check(seed, ECHO_PER_SIZE, spans)
        tally.attempted += attempted
        tally.failed += failed


def run_untraced(workload: Any, seed: int, seconds: float, quick: bool,
                 tally: Tally, spans: Any) -> Dict[str, float]:
    from perfbench.workloads import table1_pass

    setup_s = setup_seconds(workload.name, seed, quick)
    check_echo(workload, seed, tally, spans)

    def repetition(key: int) -> Any:
        # Each repetition starts from a collected heap, so neither its
        # time nor the peak memory depends on how many ran before it.
        gc.collect()
        outcome = workload.timed(workload.make_input(seed, key), spans)
        tally.add(outcome)
        return outcome

    # Repetition 0 warms the interpreter and is the input re-run at the
    # end to check determinism; it is not timed.
    first = repetition(0)
    timed: List[Any] = []
    started = time.perf_counter()
    while not timed or time.perf_counter() - started < seconds:
        timed.append(repetition(len(timed) + 1))
    again = repetition(0)
    tally.check_repeat("repetition 0", first, again)
    rates = [o.ops / o.wall_s for o in timed if o.wall_s > 0]
    print(f"perfbench: {workload.name}: {len(timed)} repetitions in "
          f"{time.perf_counter() - started:.2f} s, ops/s per repetition: "
          f"{json.dumps([round(rate, 1) for rate in rates])}", file=sys.stderr)
    # Read before the accuracy pass, whose long cells would otherwise
    # set every workload's peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accuracy, table1_err = table1_pass(seed, 10 if quick else TABLE1_PACKETS, spans)
    tally.add(accuracy)
    return {
        "ops_per_s": repetition_rate(rates),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "table1_p95_err_pct": table1_err,
    }


def run_traced(workload: Any, seed: int, quick: bool, tally: Tally,
               spans: Any) -> Dict[str, float]:
    import repro
    from perfbench.metrics import ALL_LAYERS, PER_LAYER
    from perfbench.trace import LayerProfile
    from perfbench.workloads import counter_metrics

    check_echo(workload, seed, tally, spans)
    inp = workload.make_input(seed, "traced", traced=True)
    gc.collect()
    with spans.span("pass.plain", "bench"):
        plain = workload.timed(inp, spans)
    gc.collect()
    with spans.span("pass.profiled", "bench"):
        with LayerProfile(os.path.dirname(repro.__file__)) as profile:
            profiled = workload.timed(inp, spans)
    gc.collect()
    with spans.span("pass.counted", "bench"):
        counted, memory = workload.counted(inp, spans)
    for outcome in (plain, profiled, counted):
        tally.add(outcome)
    tally.check_repeat("profiled pass", plain, profiled)
    tally.check_repeat("counted pass", plain, counted)

    ops = max(plain.ops, 1)
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    totals = profile.totals()
    self_total = sum(self_s for self_s, _calls in totals.values()) or 1.0
    for layer in ALL_LAYERS:
        self_s, calls = totals[layer]
        metrics[f"{layer}.self_share"] = self_s / self_total
        metrics[f"{layer}.calls_per_op"] = calls / ops
    metrics.update(counter_metrics(counted.counters, ops))
    metrics["sim.events_per_op"] = plain.events / ops
    metrics["sim.events_per_s"] = plain.events / plain.wall_s if plain.wall_s > 0 else 0.0
    metrics["mem.copies_per_op"] = memory.counts["read"] / ops
    metrics["mem.views_per_op"] = memory.counts["view"] / ops
    metrics.update(plain.sim)
    metrics["trace.overhead_x"] = profiled.wall_s / plain.wall_s if plain.wall_s > 0 else 0.0
    return metrics


def result_line(values: Dict[str, float], trace: bool, tally: Tally) -> str:
    from perfbench.metrics import END_TO_END, PER_LAYER

    metrics = {}
    finite = True
    for metric in PER_LAYER if trace else END_TO_END:
        value = float(values[metric.name])
        if not math.isfinite(value):
            print(f"perfbench: {metric.name} is {value}", file=sys.stderr)
            finite, value = False, 0.0
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps({
        "correct": tally.failed == 0 and finite and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pingpong", "bulk", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one setup probe (smoke test)")
    args = parser.parse_args(argv)

    try:
        prepare_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench.trace import Spans
    from perfbench.workloads import WORKLOAD_TYPES

    workload = WORKLOAD_TYPES[args.workload](quick=args.quick)
    spans = Spans(enabled=bool(args.trace))
    tally = Tally()
    try:
        if args.trace:
            values = run_traced(workload, args.seed, args.quick, tally, spans)
        else:
            values = run_untraced(workload, args.seed, args.seconds, args.quick, tally, spans)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.trace:
            spans.write(os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.seed}.json"))
    print(result_line(values, bool(args.trace), tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
