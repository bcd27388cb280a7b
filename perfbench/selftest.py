"""Self-tests of the benchmark's own code.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that the tracer restores every attribute it wraps, that the access
log generator is deterministic, that a perturbed output or a raising step
is counted as a failed op, and that a run leaves no temporary file or
shared-memory segment behind.  The file is not named ``test_*.py``, so
the repository's own test suite does not collect it.
"""

from __future__ import annotations

import os
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import (  # noqa: E402
    SCRATCH,
    Ledger,
    build_tracer,
    import_program,
    measure_rounds,
    own_shm_segments,
    run_workload,
)

import_program()

from accesslog import AccessLogSpec, render_access_log, write_access_log  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import BenchWorkload, IngestCompare, Outcome, Step, canonical  # noqa: E402

_MISSING = object()


def _attribute_state(tracer: Tracer) -> list:
    return [
        vars(owner).get(attribute, _MISSING)
        for owner, attribute, _, _ in tracer._targets
    ]


class TracerRestores(unittest.TestCase):
    def test_every_wrapped_attribute_is_restored(self):
        tracer = build_tracer(Tracer)
        before = _attribute_state(tracer)
        with tracer.installed():
            during = _attribute_state(tracer)
            for old, new in zip(before, during):
                self.assertIsNot(old, new)
        after = _attribute_state(tracer)
        for old, new in zip(before, after):
            self.assertIs(old, new)

    def test_restored_when_the_pass_raises(self):
        tracer = build_tracer(Tracer)
        before = _attribute_state(tracer)
        with self.assertRaises(RuntimeError):
            with tracer.installed():
                raise RuntimeError("boom")
        self.assertEqual(
            [id(value) for value in before],
            [id(value) for value in _attribute_state(tracer)],
        )

    def test_inherited_attribute_is_removed_not_shadowed(self):
        class Base:
            def work(self):
                return 1

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.add(Child, "work", "child.work")
        with tracer.installed():
            self.assertIn("work", vars(Child))
            self.assertEqual(Child().work(), 1)
        self.assertNotIn("work", vars(Child))
        self.assertEqual(tracer.calls["child.work"], 1)

    def test_self_time_excludes_wrapped_children(self):
        class Layer:
            def outer(self):
                return self.inner()

            def inner(self):
                return sum(range(20000))

        tracer = Tracer()
        tracer.add(Layer, "outer", "outer", span=True)
        tracer.add(Layer, "inner", "inner")
        with tracer.installed():
            Layer().outer()
        self.assertAlmostEqual(
            tracer.total_s["outer"],
            tracer.self_s["outer"] + tracer.total_s["inner"],
            places=9,
        )
        self.assertEqual([span.name for span in tracer.spans], ["outer"])


class GeneratorIsDeterministic(unittest.TestCase):
    spec = AccessLogSpec(lines=3000, urls=200)

    def test_same_seed_same_bytes(self):
        first = render_access_log(self.spec, 5)
        second = render_access_log(self.spec, 5)
        self.assertEqual(first, second)
        self.assertNotEqual(first[0], render_access_log(self.spec, 6)[0])
        self.assertGreater(first[1], 0)
        self.assertGreater(first[2], 0)

    def test_written_file_is_the_rendered_text(self):
        with tempfile.TemporaryDirectory(dir=_scratch()) as directory:
            log = write_access_log(Path(directory), self.spec, 5)
            text, malformed, filtered = render_access_log(self.spec, 5)
            self.assertEqual(log.path.read_bytes(), text.encode("ascii"))
            self.assertEqual((log.malformed, log.filtered), (malformed, filtered))


class FailuresAreCounted(unittest.TestCase):
    class _Workload:
        def check(self, outcome):
            return None

    def test_perturbed_output_is_a_failed_op(self):
        record = {"metrics": {"hit_ratio": 0.25, "requests": 10.0}}
        ledger = Ledger(self._Workload(), {"PB": record})
        ledger.check(Outcome("PB", dict(record), 1), "round1")
        self.assertEqual((ledger.attempted, ledger.failed), (1, 0))
        perturbed = {"metrics": {"hit_ratio": 0.25 + 1e-15, "requests": 10.0}}
        ledger.check(Outcome("PB", perturbed, 1), "round2")
        self.assertEqual((ledger.attempted, ledger.failed), (2, 1))

    def test_drift_between_rounds_is_a_failed_op(self):
        ledger = Ledger(self._Workload(), None)
        ledger.check(Outcome("LRU", {"x": 1.0}, 2), "round1")
        ledger.check(Outcome("LRU", {"x": 2.0}, 2), "round2")
        self.assertEqual((ledger.attempted, ledger.failed), (4, 2))

    def test_raising_step_fails_all_its_ops(self):
        def explode():
            raise ValueError("boom")

        ledger = Ledger(self._Workload(), None)
        with open(os.devnull, "w") as sink:
            stderr, sys.stderr = sys.stderr, sink
            try:
                ledger.run_step(Step("compare", explode, 6, 100), "round1")
            finally:
                sys.stderr = stderr
        self.assertEqual((ledger.attempted, ledger.failed), (6, 6))

    def test_round_with_a_raising_step_has_no_rate(self):
        calls = []

        def sometimes_explode():
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("boom")
            return [Outcome("noop", {"x": 1}, 1)]

        class Flaky(self._Workload):
            def steps(self):
                return [Step("flaky", sometimes_explode, 1, 1000)]

        ledger = Ledger(Flaky(), None)
        with open(os.devnull, "w") as sink:
            stderr, sys.stderr = sys.stderr, sink
            try:
                rounds = measure_rounds(Flaky(), ledger, seconds=0.0)
            finally:
                sys.stderr = stderr
        self.assertEqual((ledger.attempted, ledger.failed), (3, 1))
        self.assertEqual(len(rounds["round_requests_per_s"]), 2)
        self.assertEqual(len(rounds["step_s"]["flaky"]), 3)

    def test_canonical_text_tells_nan_and_sign_apart(self):
        self.assertEqual(canonical({"a": float("nan")}), canonical({"a": float("nan")}))
        self.assertNotEqual(canonical({"a": 0.0}), canonical({"a": -0.0}))


class RunsLeaveNothingBehind(unittest.TestCase):
    def test_ingest_compare_cleans_up(self):
        from repro.trace.shm import cleanup_orphans

        workload = IngestCompare(_scratch())
        workload.log_spec = AccessLogSpec(lines=4000, urls=300)
        try:
            workload.setup(3)
            self.assertIsNone(workload.check(workload.ingest_outcome()))
            pooled = workload.steps()[0].call()
            serial = workload.serial_step().call()
            self.assertEqual(
                [canonical(o.record) for o in pooled],
                [canonical(o.record) for o in serial],
            )
        finally:
            workload.close()
        self.assertEqual(own_shm_segments(), [])
        self.assertEqual(cleanup_orphans(), [])
        self.assertEqual(list(_scratch().iterdir()), [])

    def test_leaked_segment_is_a_failed_op(self):
        from repro.trace import ColumnarTrace
        from repro.trace.shm import publish_trace

        leaked = []

        class Leaky(BenchWorkload):
            """Publishes a trace segment on every set-up and never unlinks it."""

            def setup(self, seed):
                leaked.append(publish_trace(ColumnarTrace([0.0, 1.0], [0, 1])))

            def steps(self):
                return [Step("noop", lambda: [Outcome("noop", {"x": 1}, 1)], 1, 1)]

        try:
            with mock.patch.object(workloads, "make_workload",
                                   lambda name, scratch: Leaky()):
                record = run_workload("leaky", 0, seconds=0.0, trace=False)
        finally:
            for segment in leaked:
                segment.unlink()
        self.assertGreaterEqual(record["failed"], 1)
        self.assertTrue(
            any(problem.startswith("shm:") for problem in record["problems"]),
            record["problems"],
        )
        self.assertEqual(own_shm_segments(), [])

    def test_traced_run_matches_untraced(self):
        record = run_workload("oracle-replay", 0, seconds=0.0, trace=True)
        self.assertEqual(record["failed"], 0, record["problems"])
        self.assertGreater(record["per_layer"]["policy.calls"], 0)
        self.assertEqual(record["per_layer"]["hierarchy.serve_calls"], 0)


def _scratch() -> Path:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    return SCRATCH


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
