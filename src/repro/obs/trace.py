"""Nested-span tracing for the solve path.

A :class:`SolveTrace` records a tree of :class:`Span` objects -- one per
instrumented phase (``gp_step``, ``bb_node``, ``bin_pack``, ...) -- with
start offsets, durations and free-form attributes.  The active trace is
held in a :class:`contextvars.ContextVar`, so traces are isolated per
thread (each ``ThreadingHTTPServer`` request handler gets its own) and
never leak into process-pool workers (where the var is unset and every
``span()`` is a no-op).

Cost model: with no active trace, ``span()`` performs exactly one
``ContextVar.get()`` and returns a shared no-op context-manager
singleton -- no allocation, no clock read.  That is the disabled
overhead the perf gate holds the runtime table to.  With a trace active,
each span costs two ``perf_counter()`` reads and one small object.

Enabling is a caller decision: ``start_trace()`` always records;
:func:`tracing_enabled` just reports the ``REPRO_TRACE`` environment
default so entry points (CLI, ``repro serve``) know whether to start
traces without each inventing its own flag parsing.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterable, Iterator, Mapping

from ..memo import Memo


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no", "off")


def tracing_enabled() -> bool:
    """Whether ``REPRO_TRACE`` asks entry points to record traces."""
    return _env_flag("REPRO_TRACE")


class Span:
    """One timed phase: name, offset from trace start, duration, children."""

    __slots__ = ("name", "start_seconds", "duration_seconds", "attributes", "children")

    def __init__(self, name: str, start_seconds: float, attributes: dict[str, Any] | None = None):
        self.name = name
        self.start_seconds = start_seconds
        self.duration_seconds = 0.0
        self.attributes: dict[str, Any] = attributes or {}
        self.children: list[Span] = []

    def as_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "start_seconds": self.start_seconds,
            "duration_seconds": self.duration_seconds,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [child.as_dict() for child in self.children]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        span = cls(
            str(payload["name"]),
            float(payload.get("start_seconds", 0.0)),
            dict(payload.get("attributes", {})),
        )
        span.duration_seconds = float(payload.get("duration_seconds", 0.0))
        span.children = [cls.from_dict(child) for child in payload.get("children", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_seconds * 1e3:.3f} ms, children={len(self.children)})"


class _ActiveSpan:
    """Context manager closing one span on a specific trace's stack."""

    __slots__ = ("_trace", "_span", "_start")

    def __init__(self, trace: "SolveTrace", span: Span, start: float):
        self._trace = trace
        self._span = span
        self._start = start

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._span.duration_seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        stack = self._trace._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        return False


class _NullSpan:
    """Shared no-op context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()

_active_trace: ContextVar["SolveTrace | None"] = ContextVar("repro_active_trace", default=None)


class SolveTrace:
    """A tree of spans for one request/solve, rooted at ``name``."""

    def __init__(self, name: str, attributes: dict[str, Any] | None = None):
        self.name = name
        self.started_unix = time.time()
        self._origin = time.perf_counter()
        self.root = Span(name, 0.0, attributes)
        self._stack: list[Span] = [self.root]

    @property
    def attributes(self) -> dict[str, Any]:
        return self.root.attributes

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    def span(self, name: str, attributes: dict[str, Any] | None = None) -> _ActiveSpan:
        start = time.perf_counter()
        span = Span(name, start - self._origin, attributes)
        parent = self._stack[-1] if self._stack else self.root
        parent.children.append(span)
        self._stack.append(span)
        return _ActiveSpan(self, span, start)

    def finish(self) -> None:
        self.root.duration_seconds = time.perf_counter() - self._origin
        del self._stack[1:]

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Aggregate the root's direct children by phase name.

        Returns ``{phase: {"count": n, "seconds": total}}`` in first-seen
        order; together with :meth:`coverage` this answers "where did the
        wall clock go" for one solve.
        """
        phases: dict[str, dict[str, float]] = {}
        for child in self.root.children:
            entry = phases.setdefault(child.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += child.duration_seconds
        return phases

    def coverage(self) -> float:
        """Fraction of the root wall clock covered by top-level phases."""
        if self.root.duration_seconds <= 0.0:
            return 1.0 if not self.root.children else 0.0
        covered = sum(child.duration_seconds for child in self.root.children)
        return covered / self.root.duration_seconds

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "started_unix": self.started_unix,
            "duration_seconds": self.root.duration_seconds,
            "root": self.root.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SolveTrace":
        trace = cls(str(payload["name"]))
        trace.started_unix = float(payload.get("started_unix", 0.0))
        trace.root = Span.from_dict(payload["root"])
        trace._stack = [trace.root]
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SolveTrace({self.name!r}, {self.root.duration_seconds * 1e3:.3f} ms)"


def current_trace() -> SolveTrace | None:
    """The trace active on this thread/context, if any."""
    return _active_trace.get()


def span(name: str, **attributes: Any):
    """Open a nested span on the active trace; no-op when tracing is off.

    The keyword attributes are only materialised into a dict when a trace
    is active, so instrumented hot paths stay allocation-free by passing
    no attributes (or setting them on the yielded span instead).
    """
    trace = _active_trace.get()
    if trace is None:
        return NULL_SPAN
    return trace.span(name, attributes or None)


@contextmanager
def start_trace(name: str, **attributes: Any) -> Iterator[SolveTrace]:
    """Record a :class:`SolveTrace` for the duration of the ``with`` block.

    Nesting is allowed; the inner trace shadows the outer one on this
    context until the block exits.
    """
    trace = SolveTrace(name, attributes or None)
    token = _active_trace.set(trace)
    try:
        yield trace
    finally:
        _active_trace.reset(token)
        trace.finish()


class TraceStore(Memo):
    """Bounded LRU of recorded traces (as JSON-safe dicts), keyed by
    request fingerprint; backs the service's ``GET /trace/<fingerprint>``."""

    __slots__ = ()

    def __init__(self, capacity: int = 256):
        super().__init__(capacity)

    def put(self, key: str, trace: "SolveTrace | Mapping[str, Any]") -> None:
        super().put(key, trace.as_dict() if isinstance(trace, SolveTrace) else dict(trace))


def traces_to_jsonl(traces: Iterable["SolveTrace | Mapping[str, Any]"]) -> str:
    """Serialize traces as JSON lines (one trace document per line)."""
    lines = []
    for trace in traces:
        payload = trace.as_dict() if isinstance(trace, SolveTrace) else dict(trace)
        lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_traces_jsonl(traces: Iterable["SolveTrace | Mapping[str, Any]"], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(traces_to_jsonl(traces))
