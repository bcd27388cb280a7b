"""The four benchmark workloads, driven through the simulator's public API.

Each workload turns a seed into inputs (:meth:`setup`), then replays them
through a fixed list of :class:`Step` objects — one public-API call each
(``ProxyCacheSimulator.run`` or ``compare_policies``).  Every step returns
one output record per simulated result; the runner checks the records
against the recorded outputs and against the invariants below, and times
only the calls themselves.

Simulated statistics cover the post-warm-up half of each trace (the
paper's protocol, ``warmup_fraction=0.5``); host time covers the whole
replay.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    BandwidthKnowledge,
    CacheTier,
    ClientCloudConfig,
    FaultConfig,
    HierarchyConfig,
    NLANRBandwidthDistribution,
    NLANRRatioVariability,
    ObservabilityConfig,
    ProxyCacheSimulator,
    RemeasurementConfig,
    SimulationConfig,
    StreamingConfig,
    compare_policies,
    make_policy,
)
from repro.analysis import experiments
from repro.core.policies import PolicySpec
from repro.trace import ingest as ingest_module

from accesslog import AccessLogSpec, write_access_log

CLIENTS = 256
CLIENT_GROUPS = 64


@dataclass
class Outcome:
    """One checked output of a step: a simulation result or pool result."""

    key: str
    record: dict
    ops: int


@dataclass
class Step:
    """One timed public-API call of a round."""

    label: str
    call: Callable[[], List[Outcome]]
    ops: int
    requests: int
    #: False when the replays run in pool workers the tracer cannot see.
    in_process: bool = True


def canonical(record) -> str:
    """Canonical text of a record; equal text means bit-equal outputs."""
    return json.dumps(record, sort_keys=True, default=_plain)


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"unserialisable {type(value).__name__}")


def result_record(result) -> dict:
    """The simulated outputs of one ``ProxyCacheSimulator.run`` result."""
    record = {
        "metrics": result.metrics.as_dict(),
        "warmup_requests": result.warmup_requests,
        "final_cache_occupancy": result.final_cache_occupancy,
        "final_cached_objects": result.final_cached_objects,
        "auxiliary_events_fired": result.auxiliary_events_fired,
        "reactive_shifts": result.reactive_shifts,
        "reactive_rekeys": result.reactive_rekeys,
        "heap": result.heap_statistics,
        "faults": result.fault_report.as_dict() if result.fault_report else None,
        "streaming": (
            result.streaming_report.as_dict() if result.streaming_report else None
        ),
        "hierarchy": (
            result.hierarchy_report.as_dict() if result.hierarchy_report else None
        ),
    }
    if result.timeline is not None:
        record["timeline"] = {
            "windows": result.timeline.num_windows,
            "totals": result.timeline.totals(),
        }
    return record


class BenchWorkload:
    """Base class: a named input generator plus the steps of one round."""

    name = ""

    def make_inputs(self, seed: int) -> None:
        """Write the files the program reads for ``seed``; never timed."""

    def setup(self, seed: int) -> None:
        """Build the inputs for ``seed``; timed as ``setup_s``."""
        raise NotImplementedError

    def steps(self) -> List[Step]:
        """The public-API calls of one round, in order."""
        raise NotImplementedError

    def check(self, outcome: Outcome) -> Optional[str]:
        """An invariant that needs no recorded value; the problem or None."""
        return None

    def sizes(self) -> Dict[str, object]:
        """Input sizes for the environment block."""
        return {}

    def close(self) -> None:
        """Release temporary files."""


def result_counts(outcomes: List[Outcome]) -> Dict[str, float]:
    """Per-layer counts read off the simulated results of a pass."""
    counts = {
        "events.fired": 0,
        "reactive.shifts": 0,
        "reactive.rekeys": 0,
        "faults.retries": 0,
        "faults.failed_requests": 0,
        "faults.stale_served": 0,
        "timeline.windows": 0,
        "policy.heap_peak": 0,
        "policy.heap_compactions": 0,
    }
    origin = client = 0.0
    for outcome in outcomes:
        record = outcome.record
        counts["events.fired"] += record.get("auxiliary_events_fired", 0)
        counts["reactive.shifts"] += record.get("reactive_shifts", 0)
        counts["reactive.rekeys"] += record.get("reactive_rekeys", 0)
        heap = record.get("heap")
        if heap:
            counts["policy.heap_peak"] = max(
                counts["policy.heap_peak"], heap["peak_size"]
            )
            counts["policy.heap_compactions"] += heap["compactions"]
        faults = record.get("faults")
        if faults:
            counts["faults.retries"] += int(faults["total_retries"])
            counts["faults.failed_requests"] += int(faults["failed_requests"])
            counts["faults.stale_served"] += int(faults["stale_serves"])
        timeline = record.get("timeline")
        if timeline:
            counts["timeline.windows"] += timeline["windows"]
        hierarchy = record.get("hierarchy")
        if hierarchy:
            origin += hierarchy["origin_bytes_kb"]
            client += hierarchy["client_bytes_kb"]
    counts["hierarchy.origin_byte_share"] = origin / client if client else 0.0
    return counts


def _replay_step(simulator, topology, policy: str, label: str = "") -> Step:
    """One ``ProxyCacheSimulator.run``; ``label`` keys its output."""
    label = label or policy

    def call() -> List[Outcome]:
        result = simulator.run(make_policy(policy), topology=topology)
        return [Outcome(label, result_record(result), 1)]

    return Step(label, call, 1, len(simulator.workload.trace))


class OracleReplay(BenchWorkload):
    """PB, IB, LRU and GDSP on the Table 1 trace under ORACLE knowledge."""

    name = "oracle-replay"
    policies = ("PB", "IB", "LRU", "GDSP")
    cache_fraction = 0.1
    #: Half the paper's Table 1 volume (1.0 is 100k requests over 5k
    #: objects), so one round of four replays stays near one second.
    scale = 0.5

    def setup(self, seed: int) -> None:
        self.workload = experiments.build_workload(scale=self.scale, seed=seed)
        cache_gb = self.cache_fraction * self.workload.catalog.total_size_gb
        self.config = SimulationConfig(
            cache_size_gb=cache_gb, variability=NLANRRatioVariability(), seed=seed
        )
        self.simulator = ProxyCacheSimulator(self.workload, self.config)
        self.topology = self.simulator.build_topology(np.random.default_rng(seed))

    def steps(self) -> List[Step]:
        return [
            _replay_step(self.simulator, self.topology, policy)
            for policy in self.policies
        ]

    def check(self, outcome: Outcome) -> Optional[str]:
        expected = len(self.workload.trace) - outcome.record["warmup_requests"]
        if outcome.record["metrics"]["requests"] != expected:
            return "measured requests are not the post-warm-up half"
        return None

    def sizes(self) -> Dict[str, object]:
        return {
            "requests": len(self.workload.trace),
            "objects": len(self.workload.catalog),
            "cache_gb": self.config.cache_size_gb,
        }


class PassiveStream(BenchWorkload):
    """PB under PASSIVE knowledge with events, reactivity, clients, streams."""

    name = "passive-stream"
    cache_fraction = 0.1
    #: One re-measurement event per this many requests.
    requests_per_event = 10
    windows = 200
    stream_fraction = 0.5
    #: The full Table 1 volume, drawn twice per run (seeds ``2n`` and
    #: ``2n + 1`` for ``--seed n``).  Which objects are streams, and how
    #: popular they are, moves the work per request from draw to draw;
    #: two 100k-request draws keep that spread near 4%.
    scale = 1.0
    draws = 2

    def setup(self, seed: int) -> None:
        self.replays = [
            self._setup_draw(draw_seed)
            for draw_seed in range(self.draws * seed, self.draws * (seed + 1))
        ]

    def _setup_draw(self, seed: int) -> tuple:
        workload = experiments.build_workload(
            scale=self.scale, seed=seed, num_clients=CLIENTS
        )
        trace = workload.trace
        servers = sorted({obj.server_id for obj in workload.catalog})
        interval = max(
            trace.duration * len(servers) * self.requests_per_event / len(trace), 1.0
        )
        # Real probes are not synchronised: spreading the per-path cadence
        # over [0.75, 1.25] x interval keeps the paths out of phase, so
        # events split the trace into many short chunks instead of firing
        # in bursts at a few shared instants.
        per_path = {
            server: interval * (0.75 + 0.5 * ((server * 0.6180339887) % 1.0))
            for server in servers
        }
        config = SimulationConfig(
            cache_size_gb=self.cache_fraction * workload.catalog.total_size_gb,
            variability=NLANRRatioVariability(),
            bandwidth_knowledge=BandwidthKnowledge.PASSIVE,
            remeasurement=RemeasurementConfig(
                interval=interval, per_path_intervals=per_path
            ),
            reactive_threshold=0.15,
            reactive_passive=True,
            reactive_hysteresis=0.05,
            client_clouds=ClientCloudConfig(
                groups=CLIENT_GROUPS,
                distribution=NLANRBandwidthDistribution(),
                seed=seed,
            ),
            streaming=StreamingConfig(fraction=self.stream_fraction, seed=seed),
            observability=ObservabilityConfig(
                window_s=max(trace.duration / self.windows, 1.0)
            ),
            seed=seed,
        )
        simulator = ProxyCacheSimulator(workload, config)
        return seed, simulator, simulator.build_topology(np.random.default_rng(seed))

    def steps(self) -> List[Step]:
        return [
            _replay_step(simulator, topology, "PB", f"PB@{seed}")
            for seed, simulator, topology in self.replays
        ]

    def check(self, outcome: Outcome) -> Optional[str]:
        record = outcome.record
        totals = record["timeline"]["totals"]
        metrics = record["metrics"]
        pairs = (
            (totals["requests"], metrics["requests"]),
            (totals["failed"], metrics["failed_requests"]),
            (totals["stale_served"], metrics["stale_served_requests"]),
            (totals["retried"], metrics["retried_requests"]),
            (totals["total_retries"], metrics["total_retries"]),
            (totals["reactive_shifts"], record["reactive_shifts"]),
            (totals["reactive_rekeys"], record["reactive_rekeys"]),
            (totals["hits"] / max(totals["requests"], 1), metrics["hit_ratio"]),
            (totals["bytes_from_cache"] / 1e6, metrics["bytes_from_cache_gb"]),
        )
        for got, want in pairs:
            if got != want:
                return f"timeline total {got!r} differs from run aggregate {want!r}"
        if record["auxiliary_events_fired"] == 0:
            return "no re-measurement event fired"
        return None

    def sizes(self) -> Dict[str, object]:
        return {
            "draw_seeds": [seed for seed, _, _ in self.replays],
            "requests_per_draw": [
                len(simulator.workload.trace) for _, simulator, _ in self.replays
            ],
            "objects_per_draw": [
                len(simulator.workload.catalog) for _, simulator, _ in self.replays
            ],
            "clients": CLIENTS,
            "client_groups": CLIENT_GROUPS,
            "remeasure_interval_s": [
                simulator.config.remeasurement.interval
                for _, simulator, _ in self.replays
            ],
        }


class FleetFaults(BenchWorkload):
    """PB and LRU through a 2-tier, 4-pop fleet under outages and flaps."""

    name = "fleet-faults"
    policies = ("PB", "LRU")
    pops = 4
    scale = 0.25

    def setup(self, seed: int) -> None:
        self.workload = experiments.build_workload(
            scale=self.scale, seed=seed, num_clients=CLIENTS
        )
        duration = self.workload.trace.duration
        self.config = SimulationConfig(
            variability=NLANRRatioVariability(),
            hierarchy=HierarchyConfig(
                tiers=(
                    CacheTier(name="edge", cache_kb=16e6, uplink_bandwidth=50.0),
                    CacheTier(name="parent", cache_kb=64e6, uplink_bandwidth=40.0),
                ),
                num_pops=self.pops,
            ),
            faults=FaultConfig(
                random_origin_outages=4,
                random_bandwidth_flaps=8,
                mean_duration_s=max(duration / 20.0, 1.0),
                seed=seed,
            ),
            seed=seed,
        )
        self.simulator = ProxyCacheSimulator(self.workload, self.config)
        self.topology = self.simulator.build_topology(np.random.default_rng(seed))

    def steps(self) -> List[Step]:
        return [
            _replay_step(self.simulator, self.topology, policy)
            for policy in self.policies
        ]

    def check(self, outcome: Outcome) -> Optional[str]:
        record = outcome.record
        metrics = record["metrics"]
        unserved = metrics["failed_requests"] + metrics["stale_served_requests"]
        if record["hierarchy"]["requests"] + unserved != metrics["requests"]:
            return "fleet-served plus failed and stale requests miss the total"
        if record["faults"]["episodes"] == 0:
            return "no fault episode was scheduled"
        return None

    def sizes(self) -> Dict[str, object]:
        return {
            "requests": len(self.workload.trace),
            "objects": len(self.workload.catalog),
            "clients": CLIENTS,
            "pops": self.pops,
            "tiers": 2,
        }


class IngestCompare(BenchWorkload):
    """Ingest a synthetic Squid log, then compare PB/IB/LRU on a pool."""

    name = "ingest-compare"
    policies = ("PB", "IB", "LRU")
    runs = 2
    jobs = 2
    log_spec = AccessLogSpec()

    def __init__(self, scratch: Path) -> None:
        self._scratch = Path(scratch)
        self._tmp: Optional[Path] = None
        self.log = None
        self.seed: Optional[int] = None

    def make_inputs(self, seed: int) -> None:
        if self.seed == seed:
            return
        self.close()
        self._scratch.mkdir(parents=True, exist_ok=True)
        self._tmp = Path(tempfile.mkdtemp(prefix="ingest-", dir=self._scratch))
        self.log = write_access_log(self._tmp, self.log_spec, seed)
        self.seed = seed

    def setup(self, seed: int) -> None:
        self.make_inputs(seed)
        self.ingested = ingest_module.ingest_access_log(self.log.path, "squid")
        self.workload = self.ingested.to_workload()
        self.config = SimulationConfig(
            cache_size_gb=0.1 * self.workload.catalog.total_size_gb,
            variability=NLANRRatioVariability(),
            seed=seed,
        )

    def _factories(self):
        return {name: PolicySpec(name) for name in self.policies}

    def _compare(self, n_jobs: int) -> List[Outcome]:
        comparison = compare_policies(
            self.workload,
            self._factories(),
            self.config,
            num_runs=self.runs,
            n_jobs=n_jobs,
            transport="shm" if n_jobs > 1 else "auto",
        )
        return [
            Outcome(name, {"metrics": metrics.as_dict()}, self.runs)
            for name, metrics in comparison.metrics_by_policy.items()
        ]

    def steps(self) -> List[Step]:
        ops = self.runs * len(self.policies)
        return [
            Step(
                "compare",
                lambda: self._compare(self.jobs),
                ops,
                ops * len(self.workload.trace),
                in_process=False,
            )
        ]

    def serial_step(self) -> Step:
        """The same job list with ``n_jobs=1``."""
        ops = self.runs * len(self.policies)
        return Step(
            "compare-serial",
            lambda: self._compare(1),
            ops,
            ops * len(self.workload.trace),
        )

    def ingest_outcome(self) -> Outcome:
        """The ingest summary, as a checked output of its own."""
        return Outcome("ingest", self.ingested.summary.as_dict(), 1)

    def check(self, outcome: Outcome) -> Optional[str]:
        if outcome.key != "ingest":
            return None
        summary = outcome.record
        if summary["lines_malformed"] != self.log.malformed:
            return (
                f"ingest counted {summary['lines_malformed']} malformed lines, "
                f"the generator injected {self.log.malformed}"
            )
        if summary["records_filtered"] != self.log.filtered:
            return (
                f"ingest filtered {summary['records_filtered']} records, "
                f"the generator injected {self.log.filtered}"
            )
        if summary["lines_total"] != self.log.lines:
            return "ingest saw a different number of lines than were written"
        return None

    def sizes(self) -> Dict[str, object]:
        return {
            "log_lines": self.log.lines,
            "log_bytes": self.log.nbytes,
            "requests": len(self.workload.trace),
            "objects": len(self.workload.catalog),
            "runs": self.runs,
            "n_jobs": self.jobs,
            "transport": "shm",
        }

    def close(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None
        self.log = None
        self.seed = None


def make_workload(name: str, scratch: Path) -> BenchWorkload:
    """Instantiate a workload by its benchmark name."""
    if name == IngestCompare.name:
        return IngestCompare(scratch)
    for cls in (OracleReplay, PassiveStream, FleetFaults):
        if cls.name == name:
            return cls()
    raise KeyError(name)


WORKLOAD_NAMES = (
    OracleReplay.name,
    PassiveStream.name,
    FleetFaults.name,
    IngestCompare.name,
)
