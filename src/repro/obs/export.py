"""Exporters: JSONL span logs, Chrome trace-event JSON, Prometheus text.

Three formats, three audiences:

* **JSONL** — one :meth:`Span.as_dict <repro.obs.trace.Span.as_dict>` per
  line; lossless (``spans_from_jsonl`` round-trips every field) and easy to
  post-process with ``jq``/pandas.
* **Chrome trace-event JSON** — complete (``"ph": "X"``) events loadable in
  Perfetto or ``chrome://tracing``; span ids, parent links and attributes
  ride along in ``args`` so nothing is lost, and spans are grouped by
  process (worker-side spans show up under their worker pid's track).
* **Prometheus text exposition** — counters, gauges and cumulative
  histogram families from one or more
  :class:`~repro.obs.metrics.MetricsRegistry` instances, scrape-ready.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Union

from .metrics import MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "TRACE_FORMATS",
    "chrome_trace_events",
    "render_prometheus",
    "spans_from_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]

#: Accepted span-export formats (``repro ... --trace-format``).
TRACE_FORMATS = ("chrome", "jsonl")

#: The category stamped on exported trace events.
_CATEGORY = "repro"


def _flatten(spans_or_tracers: Iterable[Union[Span, Tracer]]) -> List[Span]:
    spans: List[Span] = []
    for item in spans_or_tracers:
        if isinstance(item, Tracer):
            spans.extend(item.spans)
        else:
            spans.append(item)
    return spans


# -- JSONL -------------------------------------------------------------------------


def write_spans_jsonl(
    spans: Iterable[Union[Span, Tracer]], path: str
) -> int:
    """Write spans (or whole tracers) as one JSON object per line."""
    flat = _flatten(spans)
    with open(path, "w") as handle:
        for span in flat:
            handle.write(json.dumps(span.as_dict(), sort_keys=True))
            handle.write("\n")
    return len(flat)


def spans_from_jsonl(path: str) -> List[Span]:
    """Read a JSONL span log back into :class:`Span` objects (lossless)."""
    spans: List[Span] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


# -- Chrome trace events -----------------------------------------------------------


def chrome_trace_events(
    spans: Iterable[Union[Span, Tracer]]
) -> Dict[str, Any]:
    """Spans as a Chrome trace-event document (Perfetto/``chrome://tracing``).

    Timestamps are microseconds on the shared ``perf_counter`` timeline,
    rebased so the earliest span starts at 0.  ``args`` carries the span and
    parent ids plus every attribute, so the export is lossless modulo float
    formatting.
    """
    flat = _flatten(spans)
    origin = min((span.start_s for span in flat), default=0.0)
    events: List[Dict[str, Any]] = []
    pids = set()
    for span in flat:
        pids.add(span.pid)
        events.append(
            {
                "name": span.name,
                "cat": _CATEGORY,
                "ph": "X",
                "ts": (span.start_s - origin) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": span.pid,
                "tid": span.pid,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **span.attributes,
                },
            }
        )
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    spans: Iterable[Union[Span, Tracer]], path: str
) -> int:
    """Write the Chrome trace-event document; returns the span-event count."""
    document = chrome_trace_events(spans)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    return sum(1 for event in document["traceEvents"] if event.get("ph") == "X")


def validate_chrome_trace(document_or_path: Union[str, Dict[str, Any]]) -> int:
    """Check a trace-event document's structure; returns the span-event count.

    Raises :class:`ValueError` describing the first problem found.  Used by
    the ``repro trace`` subcommand (self-check after writing) and the CI
    trace-smoke job.
    """
    if isinstance(document_or_path, str):
        with open(document_or_path) as handle:
            document = json.load(handle)
    else:
        document = document_or_path
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a trace-event document: no 'traceEvents' key")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError("'traceEvents' must be a non-empty list")
    complete = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in ("name", "ph", "pid"):
            if key not in event:
                raise ValueError(f"event {index} lacks required key {key!r}")
        if event["ph"] == "X":
            complete += 1
            for key in ("ts", "dur"):
                if not isinstance(event.get(key), (int, float)):
                    raise ValueError(
                        f"complete event {index} lacks numeric {key!r}"
                    )
            if not isinstance(event.get("args"), dict) or "span_id" not in event["args"]:
                raise ValueError(f"complete event {index} lacks args.span_id")
    if complete == 0:
        raise ValueError("document contains no complete ('X') span events")
    return complete


# -- Prometheus text exposition ----------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labels, extra: Optional[Dict[str, str]] = None) -> str:
    pairs = [(key, str(value)) for key, value in labels]
    if extra:
        pairs.extend(sorted(extra.items()))
    if not pairs:
        return ""
    rendered = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in pairs
    )
    return "{" + rendered + "}"


def _format_bound(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    text = repr(bound)
    return text


def render_prometheus(
    registries: Union[MetricsRegistry, Iterable[MetricsRegistry]],
) -> str:
    """The Prometheus text exposition of one or several registries."""
    if isinstance(registries, MetricsRegistry):
        registries = [registries]
    lines: List[str] = []
    seen: set = set()
    for registry in registries:
        for name, kind, instruments in registry.collect():
            if name in seen:
                # Two registries exporting the same family (e.g. two query
                # services): merge under one TYPE header by skipping it.
                pass
            else:
                lines.append(f"# TYPE {name} {kind}")
                seen.add(name)
            for metric in instruments:
                if kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(
                        metric.buckets, metric.bucket_counts
                    ):
                        cumulative += count
                        labels = _labels_text(
                            metric.labels, {"le": _format_bound(bound)}
                        )
                        lines.append(f"{name}_bucket{labels} {cumulative}")
                    labels = _labels_text(metric.labels)
                    lines.append(f"{name}_sum{labels} {metric.sum}")
                    lines.append(f"{name}_count{labels} {metric.count}")
                else:
                    labels = _labels_text(metric.labels)
                    lines.append(f"{name}{labels} {metric.value}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    registries: Union[MetricsRegistry, Iterable[MetricsRegistry]], path: str
) -> None:
    with open(path, "w") as handle:
        handle.write(render_prometheus(registries))
