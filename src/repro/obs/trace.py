"""The tracing core: spans, tracers and ``contextvars`` propagation.

One *trace* is the tree of everything that happened on behalf of one
top-level operation — a :meth:`QueryService.execute <repro.service.service.
QueryService.execute>` request, a bare :meth:`Gumbo.execute
<repro.core.gumbo.Gumbo.execute>`, an incremental refresh.  A trace is a
:class:`Tracer` collecting :class:`Span` records; the *current* tracer and
the *current* span travel through the call stack (and across the query
service's worker threads) via :mod:`contextvars`, so instrumented layers
never pass trace state explicitly.

Instrumentation sites call :func:`span` (child span of whatever is current)
or :func:`trace` (start a new trace when none is active).  When tracing is
disabled — no active tracer and ``enabled=False`` — both return a shared
no-op handle, so the disabled-mode cost of an instrumented site is one
``ContextVar.get`` plus a function call; the ``BENCH_obs.json`` benchmark
gates that this stays negligible.

Timestamps come from :func:`time.perf_counter`, which on the platforms we
run on is ``CLOCK_MONOTONIC``: values are comparable across processes of the
same machine/boot, which is what lets the multi-process backend's *worker-side*
spans (shipped back as plain dicts, see :func:`worker_payload` /
:meth:`Tracer.adopt_payload`) land on the same timeline as the parent's.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TraceCollector",
    "current_span",
    "current_tracer",
    "default_collector",
    "drain_traces",
    "format_trace",
    "span",
    "trace",
    "tracing_enabled",
    "worker_payload",
]

_id_lock = threading.Lock()
_id_counter = 0


def _new_id() -> str:
    """A process-unique id; the pid prefix keeps worker ids collision-free."""
    global _id_counter
    with _id_lock:
        _id_counter += 1
        serial = _id_counter
    return f"{os.getpid():x}.{serial:x}"


class Span:
    """One timed operation in a trace: a name, a parent link, attributes."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "pid",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_s: float,
        end_s: float = 0.0,
        pid: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s = end_s
        self.pid = pid if pid is not None else os.getpid()
        self.attributes = attributes if attributes is not None else {}

    @property
    def duration_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def set(self, **attrs: Any) -> "Span":
        """Attach key/value attributes; returns the span for chaining."""
        self.attributes.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        """Every field of the span, JSON-ready (the JSONL exporter's record)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "pid": self.pid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`as_dict` (the JSONL importer)."""
        return cls(
            name=record["name"],
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            start_s=record["start_s"],
            end_s=record["end_s"],
            pid=record.get("pid"),
            attributes=dict(record.get("attributes", {})),
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"dur={self.duration_s * 1e3:.3f}ms)"
        )


class Tracer:
    """Collects the spans of one trace; thread-safe (service worker threads)."""

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or _new_id()
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def adopt_payload(
        self, payload: Dict[str, Any], parent_id: Optional[str]
    ) -> Span:
        """Re-parent one worker-side span payload into this trace.

        Worker processes cannot see the parent's tracer, so they return plain
        dicts (see :func:`worker_payload`); the parent turns each into a
        first-class span under the dispatch span that shipped the task.
        """
        span = Span(
            name=payload["name"],
            trace_id=self.trace_id,
            span_id=_new_id(),
            parent_id=parent_id,
            start_s=payload["start_s"],
            end_s=payload["end_s"],
            pid=payload.get("pid"),
            attributes=dict(payload.get("attributes", {})),
        )
        self.add(span)
        return span

    def root(self) -> Optional[Span]:
        for span in self.spans:
            if span.parent_id is None:
                return span
        return None

    def children_of(self, span: Span) -> List[Span]:
        return sorted(
            (s for s in self.spans if s.parent_id == span.span_id),
            key=lambda s: s.start_s,
        )

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer(trace_id={self.trace_id}, spans={len(self.spans)})"


# -- context propagation ----------------------------------------------------------

_current_tracer: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_obs_tracer", default=None
)
_current_span: ContextVar[Optional[Span]] = ContextVar(
    "repro_obs_span", default=None
)


class _NoopHandle:
    """The shared do-nothing span handle returned when tracing is off."""

    __slots__ = ()

    span_id: Optional[str] = None

    def set(self, **attrs: Any) -> "_NoopHandle":
        return self

    def __enter__(self) -> "_NoopHandle":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NOOP = _NoopHandle()


class _SpanHandle:
    """Context manager around one live span: times it and restores context."""

    __slots__ = ("span", "_tracer", "_token")

    def __init__(self, span: Span, tracer: Tracer) -> None:
        self.span = span
        self._tracer = tracer
        self._token = None

    @property
    def span_id(self) -> str:
        return self.span.span_id

    def set(self, **attrs: Any) -> "_SpanHandle":
        self.span.set(**attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        self._token = _current_span.set(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end_s = perf_counter()
        if exc_type is not None:
            self.span.set(error=f"{exc_type.__name__}: {exc}")
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        self._tracer.add(self.span)
        return False


class _TraceHandle:
    """Context manager for a trace root: installs the tracer, publishes it."""

    __slots__ = ("span", "tracer", "_collector", "_span_token", "_tracer_token")

    def __init__(self, span: Span, tracer: Tracer, collector: "TraceCollector"):
        self.span = span
        self.tracer = tracer
        self._collector = collector
        self._span_token = None
        self._tracer_token = None

    @property
    def span_id(self) -> str:
        return self.span.span_id

    def set(self, **attrs: Any) -> "_TraceHandle":
        self.span.set(**attrs)
        return self

    def __enter__(self) -> "_TraceHandle":
        self._tracer_token = _current_tracer.set(self.tracer)
        self._span_token = _current_span.set(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end_s = perf_counter()
        if exc_type is not None:
            self.span.set(error=f"{exc_type.__name__}: {exc}")
        if self._span_token is not None:
            _current_span.reset(self._span_token)
            self._span_token = None
        if self._tracer_token is not None:
            _current_tracer.reset(self._tracer_token)
            self._tracer_token = None
        self.tracer.add(self.span)
        self._collector.publish(self.tracer)
        return False


def tracing_enabled() -> bool:
    """Is a tracer active in the current context?"""
    return _current_tracer.get() is not None


def current_tracer() -> Optional[Tracer]:
    return _current_tracer.get()


def current_span() -> Optional[Span]:
    return _current_span.get()


def span(name: str, **attrs: Any):
    """A child span of whatever is current; a shared no-op when tracing is off.

    This is the instrumentation primitive for *interior* layers (engine,
    backends, planners): they never decide whether tracing is on, they just
    open spans that materialise only when an entry point started a trace.
    """
    tracer = _current_tracer.get()
    if tracer is None:
        return NOOP
    parent = _current_span.get()
    return _SpanHandle(
        Span(
            name=name,
            trace_id=tracer.trace_id,
            span_id=_new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_s=perf_counter(),
            attributes=dict(attrs) if attrs else {},
        ),
        tracer,
    )


def trace(
    name: str,
    enabled: bool = True,
    collector: Optional["TraceCollector"] = None,
    **attrs: Any,
):
    """A trace entry point: join the active trace, or start a new one.

    When a tracer is already active the call degrades to an ordinary child
    :func:`span` (so a traced service request wraps Gumbo's own entry span
    without starting a second trace).  Otherwise a new trace begins if
    *enabled*, and its tracer is published to *collector* (the process
    default when omitted) once the root span closes.
    """
    if _current_tracer.get() is not None:
        return span(name, **attrs)
    if not enabled:
        return NOOP
    tracer = Tracer()
    root = Span(
        name=name,
        trace_id=tracer.trace_id,
        span_id=_new_id(),
        parent_id=None,
        start_s=perf_counter(),
        attributes=dict(attrs) if attrs else {},
    )
    return _TraceHandle(root, tracer, collector or default_collector())


# -- worker-side payloads ----------------------------------------------------------


def worker_payload(
    name: str, start_s: float, end_s: float, **attrs: Any
) -> Dict[str, Any]:
    """A span measured inside a worker process, as a picklable plain dict.

    Workers have no tracer (the parent's lives in another process); they time
    their task with ``perf_counter`` and return this payload alongside the
    task result.  The parent re-parents it via :meth:`Tracer.adopt_payload`.
    """
    return {
        "name": name,
        "start_s": start_s,
        "end_s": end_s,
        "pid": os.getpid(),
        "attributes": dict(attrs),
    }


# -- completed-trace collection ----------------------------------------------------


class TraceCollector:
    """Holds completed traces (bounded), for exporters and the CLI to drain."""

    def __init__(self, max_traces: int = 256) -> None:
        self._traces: deque = deque(maxlen=max_traces)
        self._lock = threading.Lock()

    def publish(self, tracer: Tracer) -> None:
        with self._lock:
            self._traces.append(tracer)

    def drain(self) -> List[Tracer]:
        """Remove and return every completed trace (oldest first)."""
        with self._lock:
            traces = list(self._traces)
            self._traces.clear()
        return traces

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


_default_collector = TraceCollector()


def default_collector() -> TraceCollector:
    """The process-global collector completed traces are published to."""
    return _default_collector


def drain_traces() -> List[Tracer]:
    """Drain the process-global collector."""
    return _default_collector.drain()


# -- pretty printing ---------------------------------------------------------------


def format_trace(tracer: Tracer) -> str:
    """An indented rendering of the span tree, for terminals and tests."""
    lines: List[str] = [f"trace {tracer.trace_id} ({len(tracer.spans)} spans)"]
    root = tracer.root()
    if root is None:
        return "\n".join(lines + ["  (no root span)"])

    def walk(span: Span, depth: int) -> None:
        attrs = ", ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        lines.append(
            f"{'  ' * depth}- {span.name} "
            f"({span.duration_s * 1e3:.3f} ms, pid {span.pid}){suffix}"
        )
        for child in tracer.children_of(span):
            walk(child, depth + 1)

    walk(root, 1)
    return "\n".join(lines)


def spans_of(tracers: Iterable[Tracer]) -> List[Span]:
    """All spans of several traces, flattened in publish order."""
    return [span for tracer in tracers for span in tracer.spans]
