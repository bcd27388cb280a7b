"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oracle-replay --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run sets the workload up several times (``setup_s`` is the median),
replays it in rounds for ``--seconds`` seconds with tracing off, and
checks every simulated output: against the outputs recorded in
``expected.json`` when the seed has a record, against the workload's own
invariants always, and against the first round on every later round.
With ``--trace 1`` one extra traced pass follows; its outputs must equal
the untraced ones, and its per-layer numbers replace the end-to-end
metrics in the result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A JSON record
with the environment block, the per-round numbers and the check results
is printed on the line before it.  ``--workload all`` runs every workload
in a fresh process and prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SCRATCH = ROOT / ".perfbench-tmp"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Every run replays at least this many rounds, however long they take.
MIN_ROUNDS = 3



def import_program():
    """Import ``repro`` from this checkout's ``src``; exit 2 if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from {SRC}: {error}",
              file=sys.stderr)
        raise SystemExit(2)
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return repro


class Ledger:
    """Counts attempted and failed ops and keeps the reference outputs."""

    def __init__(self, workload, expected) -> None:
        self.workload = workload
        self.expected = expected or {}
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, where: str, problem: str, ops: int) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(f"{where}: {problem}")

    def check(self, outcome, where: str) -> None:
        """Check one output; the first seen per key becomes the reference."""
        from workloads import canonical

        self.attempted += outcome.ops
        text = canonical(outcome.record)
        problem = self.workload.check(outcome)
        if problem is None and outcome.key in self.expected:
            if canonical(self.expected[outcome.key]) != text:
                problem = "differs from the recorded output"
        if problem is None and outcome.key in self.reference:
            if self.reference[outcome.key] != text:
                problem = "differs from the first untraced output"
        self.reference.setdefault(outcome.key, text)
        if problem is not None:
            self.fail(f"{where}/{outcome.key}", problem, outcome.ops)

    def run_step(self, step, where: str):
        """Call one step, timed; returns ``(elapsed_s, outcomes)``.

        ``outcomes`` is None when the step raised: it did not do its work.
        """
        start = time.perf_counter()
        try:
            outcomes = step.call()
        except Exception:
            elapsed = time.perf_counter() - start
            self.attempted += step.ops
            self.fail(f"{where}/{step.label}", "raised", step.ops)
            traceback.print_exc(file=sys.stderr)
            return elapsed, None
        elapsed = time.perf_counter() - start
        for outcome in outcomes:
            self.check(outcome, where)
        return elapsed, outcomes


def measure_rounds(workload, ledger, seconds: float) -> dict:
    """Replay rounds untraced for ``seconds``; the host-time numbers.

    Each round replays every step once; its rate is the round's simulated
    requests over the host time of its public-API calls.  The run reports
    the median round rate, so one round caught in a slow phase of a
    shared machine does not move it.  A round in which a step raised did
    not replay its requests and has no rate; its ops count as failed.
    """
    step_times = {}
    round_rates = []
    rounds = 0
    started = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds += 1
        round_time = 0.0
        round_requests = 0
        completed = True
        for step in workload.steps():
            elapsed, outcomes = ledger.run_step(step, f"round{rounds}")
            completed = completed and outcomes is not None
            round_time += elapsed
            round_requests += step.requests
            step_times.setdefault(step.label, []).append(elapsed)
        if completed:
            round_rates.append(round_requests / round_time)
    return {
        "requests_per_s": statistics.median(round_rates) if round_rates else 0.0,
        "round_requests_per_s": round_rates,
        "step_s": step_times,
    }


def build_tracer(tracer_cls):
    """Register the public entry points of every layer."""
    from repro.analysis import parallel
    from repro.core.policies.base import CachePolicy
    from repro.network.measurement import PassiveEstimator
    from repro.obs.timeline import MetricsTimeline
    from repro.sim import simulator
    from repro.sim.events import AuxiliarySchedule, ReactiveRekeyer
    from repro.sim.faults import FaultInjector
    from repro.sim.hierarchy import HierarchyEngine
    from repro.sim.metrics import MetricsCollector
    from repro.sim.streaming import StreamingDeliveryEngine
    from repro.trace import ingest
    from repro.workload.gismo import GismoWorkloadGenerator

    tracer = tracer_cls()
    # Coarse boundaries: spans.
    tracer.add(GismoWorkloadGenerator, "generate", "workload.generate", span=True)
    tracer.add(ingest, "ingest_access_log", "trace.ingest", span=True)
    tracer.add(simulator.ProxyCacheSimulator, "build_topology", "network.topology",
               span=True)
    tracer.add(simulator.ProxyCacheSimulator, "run", "kernel.run", span=True)
    tracer.add(simulator, "build_context", "kernel.build_context", span=True)
    tracer.add(simulator, "serve_batch", "kernel.serve_batch", span=True)
    tracer.add(parallel, "run_simulation_jobs", "parallel.pool", span=True)
    tracer.add(parallel, "publish_trace", "trace.shm_publish", span=True)
    # Per-request boundaries: counts and self time.
    tracer.add(CachePolicy, "on_request", "policy.on_request")
    tracer.add(PassiveEstimator, "estimate", "network.estimator")
    tracer.add(PassiveEstimator, "observe", "network.estimator")
    tracer.add(AuxiliarySchedule, "fire_before", "events.fire")
    tracer.add(ReactiveRekeyer, "observe_request", "reactive.observe_request")
    tracer.add(FaultInjector, "intercept", "faults.intercept")
    tracer.add(HierarchyEngine, "serve", "hierarchy.serve")
    tracer.add(StreamingDeliveryEngine, "serve", "streaming.serve")
    tracer.add(MetricsTimeline, "close", "timeline.close")
    tracer.add(MetricsCollector, "finalize", "metrics.finalize")
    return tracer


def traced_pass(workload, ledger, seed: int):
    """Set up and replay once with the tracer installed."""
    from tracer import Tracer
    from workloads import IngestCompare

    tracer = build_tracer(Tracer)
    steps_run = []
    outcomes = []
    with tracer.installed():
        with tracer.span("setup"):
            workload.setup(seed)
        if isinstance(workload, IngestCompare):
            ledger.check(workload.ingest_outcome(), "traced")
        steps = workload.steps()
        if isinstance(workload, IngestCompare):
            steps.append(workload.serial_step())
        for step in steps:
            elapsed, step_outcomes = ledger.run_step(step, "traced")
            steps_run.append((step, elapsed))
            outcomes.extend(step_outcomes or [])
    return tracer, steps_run, outcomes


def layer_metrics(workload, tracer, steps_run, outcomes, untraced_rate, serial_s,
                  pooled_s):
    """The per-layer metrics of a traced pass."""
    from workloads import IngestCompare, result_counts

    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s

    def count(name):
        return calls.get(name, 0)

    def own(name):
        return self_s.get(name, 0.0)

    def total(name):
        return total_s.get(name, 0.0)

    chunks = count("kernel.serve_batch")
    in_process = sum(step.requests for step, _ in steps_run if step.in_process)
    round_steps = [(s, e) for s, e in steps_run if s.label != "compare-serial"]
    traced_rate = (
        sum(s.requests for s, _ in round_steps) / sum(e for _, e in round_steps)
    )
    policy_calls = count("policy.on_request")
    ingest = isinstance(workload, IngestCompare)
    lines = workload.ingested.summary.lines_total if ingest else 0
    metrics = {
        "policy.calls": policy_calls,
        "policy.self_s": own("policy.on_request"),
        "policy.us_per_call": (
            1e6 * own("policy.on_request") / policy_calls if policy_calls else 0.0
        ),
        "kernel.build_context_s": total("kernel.build_context"),
        "kernel.chunks": chunks,
        "kernel.requests_per_chunk": in_process / chunks if chunks else 0.0,
        "kernel.serve_s": total("kernel.serve_batch"),
        "kernel.self_s": own("kernel.serve_batch"),
        "kernel.driver_s": own("kernel.run"),
        "events.fire_s": total("events.fire"),
        "reactive.self_s": own("reactive.observe_request"),
        "network.topology_s": total("network.topology"),
        "network.estimator_calls": count("network.estimator"),
        "network.estimator_self_s": own("network.estimator"),
        "streaming.serve_calls": count("streaming.serve"),
        "streaming.self_s": own("streaming.serve"),
        "timeline.close_calls": count("timeline.close"),
        "timeline.self_s": own("timeline.close"),
        "metrics.finalize_s": total("metrics.finalize"),
        "hierarchy.serve_calls": count("hierarchy.serve"),
        "hierarchy.self_s": own("hierarchy.serve"),
        "faults.intercept_calls": count("faults.intercept"),
        "faults.self_s": own("faults.intercept"),
        "workload.generate_s": total("workload.generate"),
        "trace.ingest_s": total("trace.ingest"),
        "trace.ingest_lines_per_s": (
            lines / total("trace.ingest") if ingest else 0.0
        ),
        "trace.lines_malformed": (
            workload.ingested.summary.lines_malformed if ingest else 0
        ),
        "trace.shm_publish_s": total("trace.shm_publish"),
        "parallel.jobs": sum(s.ops for s, _ in steps_run if not s.in_process),
        "parallel.pool_s": total("parallel.pool"),
        "parallel.speedup_vs_serial": serial_s / pooled_s if pooled_s else 0.0,
        "tracing.overhead": untraced_rate / traced_rate,
    }
    metrics.update(result_counts(outcomes))
    return metrics


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped worker (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(seed, sizes) -> dict:
    """Machine, interpreter, code version and inputs of this result."""
    import numpy

    commit, dirty = None, None
    try:
        toplevel, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
        # A checkout that is not itself a repository may sit inside one.
        if Path(toplevel).resolve() == ROOT:
            commit = head
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        pass  # not a git checkout: the source digest still names the code
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(),
        "seed": seed,
        "sizes": sizes,
    }


def source_digest() -> str:
    """SHA-256 over the simulator's source files, in path order."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def own_shm_segments() -> list:
    """Shared-memory trace segments this process published and left behind."""
    from repro.trace.shm import SHM_NAME_PREFIX, _SHM_DIR

    prefix = f"{SHM_NAME_PREFIX}{os.getpid()}-"
    if not _SHM_DIR.is_dir():
        return []
    return sorted(p.name for p in _SHM_DIR.iterdir() if p.name.startswith(prefix))


def stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory starts, if any."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    from workloads import IngestCompare, make_workload

    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    workload = make_workload(name, SCRATCH)
    ledger = Ledger(workload, expected.get(name, {}).get(str(seed)))
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "recorded_seed": str(seed) in expected.get(name, {})}
    try:
        workload.make_inputs(seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(seed)
            setup_times.append(time.perf_counter() - start)
        if isinstance(workload, IngestCompare):
            ledger.check(workload.ingest_outcome(), "setup")
        rounds = measure_rounds(workload, ledger, seconds)
        serial_s = pooled_s = 0.0
        if isinstance(workload, IngestCompare):
            serial_s, _ = ledger.run_step(workload.serial_step(), "serial")
            pooled_s = statistics.median(rounds["step_s"]["compare"])
        record["end_to_end"] = {
            "requests_per_s": rounds["requests_per_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        record["rounds"] = dict(rounds, setup_s=setup_times)
        if trace:
            tracer, steps_run, outcomes = traced_pass(workload, ledger, seed)
            record["per_layer"] = layer_metrics(
                workload, tracer, steps_run, outcomes,
                record["end_to_end"]["requests_per_s"], serial_s, pooled_s,
            )
            record["spans"] = span_summary(tracer)
        record["environment"] = environment(seed, workload.sizes())
    finally:
        try:
            workload.close()
            # Look before the resource tracker stops: stopping it unlinks
            # every segment still registered, and so would hide a leak.
            leaked = own_shm_segments()
            if leaked:
                ledger.fail("shm", f"segments left behind: {leaked}", 1)
        finally:
            stop_resource_tracker()
    record["attempted"] = ledger.attempted
    record["failed"] = ledger.failed
    record["problems"] = ledger.problems
    return record


def span_summary(tracer) -> dict:
    """Per span name: count, total and self seconds, and the parent names."""
    names = {span.span_id: span.name for span in tracer.spans}
    summary = {}
    for span in tracer.spans:
        entry = summary.setdefault(
            span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "parents": []}
        )
        entry["count"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += span.self_s
        parent = names.get(span.parent)
        if parent not in entry["parents"]:
            entry["parents"].append(parent)
    return summary


def result_line(record: dict, trace: bool, units: dict) -> dict:
    """The contract's last line: correctness and the chosen metrics."""
    values = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }


def declared() -> dict:
    """The benchmark's declaration, ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(trace: bool) -> dict:
    """Metric name to unit, as declared in ``BENCHMARK.json``."""
    section = declared()["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; a table of every metric."""
    from workloads import WORKLOAD_NAMES

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not completed.stdout.strip():
            print(f"{name}: exited with {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"{metric:32s} {entry['value']:>16.6g} {entry['unit']}")
            totals["metrics"][f"{name}.{metric}"] = entry
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    units = metric_units(bool(args.trace))
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    for name, unit in units.items():
        values = record["per_layer"] if args.trace else record["end_to_end"]
        print(f"{name}: {values[name]!r} {unit}")
    if record["problems"]:
        print("problems: " + "; ".join(record["problems"]))
    print(json.dumps(record, default=str))
    print(json.dumps(result_line(record, bool(args.trace), units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
