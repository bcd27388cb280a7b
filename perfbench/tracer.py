"""Outside-in tracer: wraps public layer entry points from the benchmark.

The simulator carries no instrumentation of its own for this benchmark.
A :class:`Tracer` replaces chosen attributes — a method on a class or a
function in a module — with timing wrappers for the duration of one
traced pass, and puts every original back when the pass ends, even when
it raises (:meth:`Tracer.installed` is a context manager).

Two kinds of boundary are recorded:

* **spans** for coarse boundaries (set-up stages, kernel context builds,
  kernel chunks, pool calls): name, start, end and the parent span, kept
  in memory;
* **aggregates** for per-request boundaries (policy decisions, estimator
  calls, fault interception, ...): a call count and a self time, so a
  200k-request replay does not keep 200k span records.

Self time is a call's duration minus the time spent in wrapped calls made
from inside it, so nested layers (a hierarchy tier calling its policy,
say) are not counted twice.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

_MISSING = object()


@dataclass
class Span:
    """One coarse boundary crossing."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    self_s: float


class Tracer:
    """Collects spans and per-boundary aggregates while installed."""

    def __init__(self) -> None:
        self._targets: List[Tuple[object, str, str, bool]] = []
        self._saved: List[Tuple[object, str, object]] = []
        # Active frames: [span_id or None, start, child_time].
        self._stack: List[list] = []
        self._next_id = 0
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}

    def add(self, owner: object, attribute: str, name: str, span: bool = False) -> None:
        """Register ``owner.attribute`` to be wrapped under ``name``."""
        self._targets.append((owner, attribute, name, span))

    def _enter(self, name: str, span: bool) -> list:
        """Push a frame ``[span_id, start, child_time]`` for one crossing."""
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        self.total_s.setdefault(name, 0.0)
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, name: str) -> None:
        """Pop ``frame``, charge its self time and record it if a span."""
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if stack:
            stack[-1][2] += duration
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += duration
        if frame[0] is not None:
            parent = next(
                (outer[0] for outer in reversed(stack) if outer[0] is not None),
                None,
            )
            self.spans.append(Span(frame[0], name, frame[1], end, parent, own))

    def _wrapper(self, function, name: str, span: bool):
        enter = self._enter
        leave = self._leave

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = enter(name, span)
            try:
                return function(*args, **kwargs)
            finally:
                leave(frame, name)

        return traced

    def install(self) -> None:
        """Replace every registered attribute with its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attribute, name, span in self._targets:
                # A class attribute may be inherited; remember whether the
                # owner defined it itself so removal restores the lookup.
                own = vars(owner).get(attribute, _MISSING)
                original = getattr(owner, attribute)
                self._saved.append((owner, attribute, own))
                setattr(owner, attribute, self._wrapper(original, name, span))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._saved:
            owner, attribute, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    @contextmanager
    def installed(self):
        """Install for the ``with`` body; always remove afterwards."""
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._leave(frame, name)
