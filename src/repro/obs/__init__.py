"""``repro.obs`` — end-to-end tracing and metrics for the whole stack.

The subsystem has three parts (see the module docstrings for detail):

* :mod:`repro.obs.trace` — spans and tracers with ``contextvars``
  propagation.  Entry points (``Gumbo.execute``, ``QueryService.execute``,
  incremental refreshes) open one trace per request when
  ``GumboOptions.trace`` is set; interior layers (the MapReduce engine, the
  execution backends, the planners) open child spans unconditionally through
  a no-op fast path that costs next to nothing while tracing is off.
* :mod:`repro.obs.metrics` — counters, gauges and bucketed histograms in a
  process-global default registry plus per-service instances.
* :mod:`repro.obs.export` — JSONL span logs, Chrome trace-event JSON
  (Perfetto-loadable) and Prometheus text exposition.

Quick tour::

    from repro import Gumbo, GumboOptions, obs

    result = Gumbo(options=GumboOptions(trace=True)).execute(query, db)
    (trace,) = obs.drain_traces()
    print(obs.format_trace(trace))
    obs.write_chrome_trace([trace], "trace.json")
    print(obs.render_prometheus(obs.default_registry()))
"""

from .export import (
    TRACE_FORMATS,
    chrome_trace_events,
    render_prometheus,
    spans_from_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    default_registry,
    registries_for_export,
)
from .trace import (
    Span,
    TraceCollector,
    Tracer,
    current_span,
    current_tracer,
    default_collector,
    drain_traces,
    format_trace,
    span,
    spans_of,
    trace,
    tracing_enabled,
    worker_payload,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Span",
    "TraceCollector",
    "TRACE_FORMATS",
    "Tracer",
    "chrome_trace_events",
    "current_span",
    "current_tracer",
    "default_collector",
    "default_registry",
    "drain_traces",
    "format_trace",
    "registries_for_export",
    "render_prometheus",
    "span",
    "spans_from_jsonl",
    "spans_of",
    "trace",
    "tracing_enabled",
    "validate_chrome_trace",
    "worker_payload",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]
