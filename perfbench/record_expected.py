"""Record the simulated outputs the benchmark checks every run against.

Usage (from the repository root)::

    python3 perfbench/record_expected.py

For every workload and each recorded seed — the development seed and one
held-back seed — this sets the workload up, replays one round and writes
each output record (``SimulationMetrics`` plus the fault, streaming,
hierarchy and heap reports, or the ingest summary) to
``perfbench/expected.json``.  Re-record only when a change is meant to
alter simulated outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import EXPECTED_PATH, SCRATCH, import_program

#: The development seed and the held-back seed.
RECORDED_SEEDS = (0, 17)


def record_workload(name: str, seed: int) -> dict:
    """The output records of one round of ``name`` at ``seed``."""
    from workloads import IngestCompare, make_workload

    workload = make_workload(name, SCRATCH)
    try:
        workload.setup(seed)
        outcomes = []
        if isinstance(workload, IngestCompare):
            outcomes.append(workload.ingest_outcome())
        for step in workload.steps():
            outcomes.extend(step.call())
        for outcome in outcomes:
            problem = workload.check(outcome)
            if problem is not None:
                raise SystemExit(f"{name} seed {seed} {outcome.key}: {problem}")
        return {outcome.key: outcome.record for outcome in outcomes}
    finally:
        workload.close()


def main() -> int:
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOAD_NAMES, canonical

    expected = {
        name: {str(seed): record_workload(name, seed) for seed in RECORDED_SEEDS}
        for name in WORKLOAD_NAMES
    }
    # Round-trip through the canonical text so what is stored is exactly
    # what the runner compares against.
    text = json.dumps(json.loads(canonical(expected)), indent=1, sort_keys=True)
    EXPECTED_PATH.write_text(text + "\n")
    if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
        SCRATCH.rmdir()
    print(f"wrote {EXPECTED_PATH.name}: "
          f"{len(WORKLOAD_NAMES)} workloads x seeds {list(RECORDED_SEEDS)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
