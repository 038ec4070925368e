"""Tests for the observability subsystem (``repro.obs``).

Covers the tracing core (spans, contextvars propagation, the no-op fast
path), the metrics registry, the three exporters (JSONL / Chrome trace
events / Prometheus text), cross-process span parenting, and the
acceptance criterion: one traced ``QueryService.execute`` of workload A3 on
the parallel backend yields a single trace covering request → plan (or
cache hit) → program → per-job → per-dispatch, including worker-side spans —
while leaving outputs and simulated metrics bit-identical to the untraced
path.
"""

import gc
import json
import os
import threading

import pytest

from repro import obs
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.exec import make_backend
from repro.mapreduce.engine import collector_paused
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.options import ObsOptions
from repro.obs.trace import NOOP, Span, Tracer
from repro.service import QueryService
from repro.workloads.queries import database_for, workload_query


@pytest.fixture(autouse=True)
def _clean_collector():
    """Every test starts and ends with an empty default trace collector."""
    obs.drain_traces()
    yield
    obs.drain_traces()


# -- tracing core -----------------------------------------------------------------


class TestNoopFastPath:
    def test_span_without_active_trace_is_shared_noop(self):
        assert not obs.tracing_enabled()
        handle = obs.span("anything", attr=1)
        assert handle is NOOP
        with handle as inner:
            assert inner is NOOP
            assert inner.set(more=2) is NOOP
        assert obs.drain_traces() == []

    def test_disabled_trace_is_noop(self):
        with obs.trace("request", enabled=False) as handle:
            assert handle is NOOP
            assert not obs.tracing_enabled()
            assert obs.span("child") is NOOP
        assert obs.drain_traces() == []


class TestTracePropagation:
    def test_trace_collects_nested_spans(self):
        # Paused, so no ``gc`` span can join the exact tree asserted below.
        with collector_paused(), obs.trace("root", kind="test") as root:
            root.set(extra=True)
            with obs.span("child") as child:
                with obs.span("grandchild", depth=2):
                    assert obs.tracing_enabled()
        (tracer,) = obs.drain_traces()
        assert len(tracer) == 3
        root_span = tracer.root()
        assert root_span.name == "root"
        assert root_span.attributes == {"kind": "test", "extra": True}
        (child_span,) = tracer.children_of(root_span)
        assert child_span.name == "child"
        assert child_span.span_id == child.span_id
        (grandchild,) = tracer.children_of(child_span)
        assert grandchild.name == "grandchild"
        assert grandchild.attributes == {"depth": 2}
        assert grandchild.duration_s >= 0.0

    def test_nested_trace_joins_as_child_span(self):
        # A service-level trace wrapping Gumbo's own entry trace must yield
        # ONE trace, with the inner trace demoted to a plain child span.
        with collector_paused(), obs.trace("outer"):
            with obs.trace("inner"):
                with obs.span("leaf"):
                    pass
        traces = obs.drain_traces()
        assert len(traces) == 1
        (tracer,) = traces
        assert tracer.root().name == "outer"
        names = {s.name for s in tracer.spans}
        assert names == {"outer", "inner", "leaf"}
        (inner,) = tracer.children_of(tracer.root())
        assert inner.name == "inner"

    def test_exception_closes_span_and_propagates(self):
        with pytest.raises(RuntimeError):
            with obs.trace("root"):
                with obs.span("failing"):
                    raise RuntimeError("boom")
        (tracer,) = obs.drain_traces()
        failing = next(s for s in tracer.spans if s.name == "failing")
        assert failing.end_s >= failing.start_s
        assert failing.attributes.get("error", "").startswith("RuntimeError")
        assert tracer.root().attributes.get("error", "").startswith("RuntimeError")

    def test_context_restored_after_trace(self):
        with obs.trace("root"):
            pass
        assert obs.current_tracer() is None
        assert obs.current_span() is None
        assert not obs.tracing_enabled()


class TestSpanSerialization:
    def test_as_dict_from_dict_roundtrip(self):
        span = Span(
            name="op",
            trace_id="t.1",
            span_id="s.1",
            parent_id="s.0",
            start_s=1.5,
            end_s=2.25,
            pid=1234,
            attributes={"rows": 10, "label": "x"},
        )
        restored = Span.from_dict(span.as_dict())
        assert restored.as_dict() == span.as_dict()

    def test_worker_payload_adoption(self):
        # Worker processes ship plain dicts; the parent re-parents them.
        payload = obs.worker_payload("map_task", 10.0, 10.5, relation="R", rows=7)
        assert payload["pid"] == os.getpid()
        tracer = Tracer()
        adopted = tracer.adopt_payload(payload, parent_id="wave.1")
        assert adopted.name == "map_task"
        assert adopted.parent_id == "wave.1"
        assert adopted.trace_id == tracer.trace_id
        assert adopted.duration_s == pytest.approx(0.5)
        assert adopted.attributes == {"relation": "R", "rows": 7}


# -- metrics ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        plain = registry.counter("requests_total")
        plain.inc()
        plain.inc(2)
        assert plain.value == 3
        hit = registry.counter("cache_total", outcome="hit")
        miss = registry.counter("cache_total", outcome="miss")
        assert hit is not miss
        hit.inc()
        assert registry.counter("cache_total", outcome="hit") is hit
        assert miss.value == 0

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_histogram_summary_and_percentiles(self):
        histogram = Histogram("latency")
        for value in [0.001, 0.002, 0.003, 0.004, 0.1]:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 5
        assert summary["sum"] == pytest.approx(0.11)
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.1)
        assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["max"]
        assert summary["p99"] <= summary["max"]

    def test_empty_histogram_summary(self):
        summary = Histogram("empty").summary()
        assert summary["count"] == 0
        assert summary["sum"] == 0.0

    def test_registries_for_export_dedupes_default(self):
        default = obs.default_registry()
        extra = MetricsRegistry()
        registries = obs.registries_for_export([extra, default, extra])
        assert registries.count(default) == 1
        assert registries.count(extra) == 1


# -- exporters --------------------------------------------------------------------


def _sample_trace():
    with obs.trace("request", fingerprint="abc"):
        with obs.span("plan", strategy="greedy"):
            pass
        with obs.span("execute", jobs=2):
            with obs.span("job", job_id="J1"):
                pass
    (tracer,) = obs.drain_traces()
    return tracer


class TestCollectorObserver:
    def test_every_collection_lands_in_the_histogram(self):
        histogram = obs.default_registry().histogram(
            "repro_gc_seconds", generation=2
        )
        before = histogram.count
        gc.collect()
        assert histogram.count == before + 1
        assert "repro_gc_seconds_bucket" in obs.render_prometheus(
            obs.default_registry()
        )

    def test_a_collection_while_the_histogram_is_locked_does_not_deadlock(self):
        # The hook observes from inside whatever allocation triggered the
        # collection, which may be a read of this very histogram.
        histogram = obs.default_registry().histogram(
            "repro_gc_seconds", generation=2
        )

        def collect_under_the_lock():
            with histogram._lock:
                gc.collect()

        thread = threading.Thread(target=collect_under_the_lock, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_gc_spans_name_collections_and_none_lies_in_the_program(self):
        query = workload_query("A3")
        database = database_for(query, guard_tuples=1000, seed=3)
        gumbo = Gumbo(options=GumboOptions(trace=True))
        with QueryService(database, gumbo) as service:
            with obs.trace("client"):
                burst = [[] for _ in range(10_000)]  # young collections, traced
                service.execute(query)
        del burst
        (tracer,) = obs.drain_traces()
        by_id = {span.span_id: span for span in tracer.spans}
        (program,) = [span for span in tracer.spans if span.name == "program"]
        collections = [span for span in tracer.spans if span.name == "gc"]
        assert collections
        for span in collections:
            assert set(span.attributes) == {"generation", "collected"}
            assert span.end_s <= program.start_s or span.start_s >= program.end_s
            parent_id = span.parent_id
            while parent_id is not None:
                assert parent_id != program.span_id
                parent_id = by_id[parent_id].parent_id


class TestExporters:
    def test_jsonl_roundtrip_is_lossless(self, tmp_path):
        tracer = _sample_trace()
        path = str(tmp_path / "spans.jsonl")
        count = obs.write_spans_jsonl(tracer.spans, path)
        assert count == len(tracer.spans) == 4
        restored = obs.spans_from_jsonl(path)
        assert [s.as_dict() for s in restored] == [
            s.as_dict() for s in tracer.spans
        ]

    def test_chrome_trace_validates_and_carries_ids(self, tmp_path):
        tracer = _sample_trace()
        path = str(tmp_path / "trace.json")
        written = obs.write_chrome_trace([tracer], path)
        assert written == len(tracer.spans)
        assert obs.validate_chrome_trace(path) == len(tracer.spans)
        with open(path) as handle:
            document = json.load(handle)
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"request", "plan", "execute", "job"}
        for event in events:
            assert event["args"]["trace_id"] == tracer.trace_id
            assert event["ts"] >= 0
            assert event["dur"] >= 0

    def test_validate_chrome_trace_rejects_garbage(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"traceEvents": [{"ph": "X", "name": "no-ts"}]}, handle)
        with pytest.raises(ValueError):
            obs.validate_chrome_trace(path)

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", path="kernel").inc(4)
        registry.histogram("repro_request_seconds").observe(0.05)
        text = obs.render_prometheus(registry)
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{path="kernel"} 4' in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert "repro_request_seconds_count 1" in text
        assert text.endswith("\n")

    def test_write_prometheus_merges_registries(self, tmp_path):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("alpha_total").inc()
        second.counter("beta_total").inc(2)
        path = str(tmp_path / "metrics.prom")
        obs.write_prometheus([first, second], path)
        with open(path) as handle:
            text = handle.read()
        assert "alpha_total 1" in text
        assert "beta_total 2" in text


# -- options ----------------------------------------------------------------------


class TestObsOptions:
    def test_tracing_property(self):
        assert not ObsOptions().tracing
        assert ObsOptions(trace=True).tracing
        assert ObsOptions(trace_out="trace.json").tracing

    def test_gumbo_options_default_off(self):
        assert not GumboOptions().trace


# -- end-to-end acceptance ---------------------------------------------------------


def _span_names(tracer):
    return {s.name for s in tracer.spans}


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def workload(self):
        query = workload_query("A3")
        database = database_for(list(query.subqueries), guard_tuples=120, seed=3)
        return query, database

    def test_traced_service_request_on_parallel_backend(self, workload):
        # Kernel map tasks in the workers, reduce_batch on the driver ...
        self._check_traced_parallel_request(workload, "auto")
        # ... and with kernels off the driver's interpreter: no worker spans.
        self._check_traced_parallel_request(workload, "off")

    def _check_traced_parallel_request(self, workload, kernel_mode):
        kernel = kernel_mode != "off"
        present, absent = (
            ({"shard_fanout", "map_task", "reduce_batch"}, {"map", "reduce"})
            if kernel
            else ({"map", "reduce"}, {"shard_fanout", "map_task", "reduce_batch"})
        )
        query, database = workload
        options = GumboOptions(trace=True, kernel_mode=kernel_mode)
        with make_backend("parallel", workers=2) as backend:
            gumbo = Gumbo(backend=backend, options=options)
            with QueryService(database, gumbo) as service:
                miss = service.execute(query)
                hit = service.execute(query)
        traces = obs.drain_traces()
        assert len(traces) == 2, "one trace per request, no fragments"
        miss_trace, hit_trace = traces

        # The cold request covers request → plan → choose → program →
        # job → shard_fanout → worker-side tasks, all in ONE trace.
        root = miss_trace.root()
        assert root.name == "service.request"
        assert root.attributes["plan_cached"] is False
        assert "fingerprint" in root.attributes
        names = _span_names(miss_trace)
        assert {
            "service.request",
            "gumbo.plan",
            "gumbo.execute_program",
            "program",
            "level",
            "job",
        } | present <= names
        assert not absent & names
        for span in miss_trace.spans:
            assert span.trace_id == miss_trace.trace_id
            if span.name == "program":
                assert span.attributes["backend"] == "parallel"

        # Worker-side spans were re-parented under the dispatch spans and
        # carry the worker pid; the driver's reduce_batch sits under its job.
        fanout_ids = {s.span_id for s in miss_trace.spans if s.name == "shard_fanout"}
        worker_tasks = [s for s in miss_trace.spans if s.name == "map_task"]
        assert bool(worker_tasks) is kernel
        for task in worker_tasks:
            assert task.parent_id in fanout_ids
            assert task.pid is not None
        job_ids = {s.span_id for s in miss_trace.spans if s.name == "job"}
        for span in miss_trace.spans:
            if span.name in ("shard_fanout", "reduce_batch", "map", "reduce"):
                assert span.parent_id in job_ids

        # The warm request hits the plan cache: no planning spans.
        assert hit.plan_cached
        assert hit_trace.root().attributes["plan_cached"] is True
        assert "gumbo.plan" not in _span_names(hit_trace)
        assert "job" in _span_names(hit_trace)

        # Every span nests inside its parent's time window (workers run on
        # the same machine, so monotonic clocks are comparable).
        by_id = {s.span_id: s for s in miss_trace.spans}
        for span in miss_trace.spans:
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                assert span.start_s >= parent.start_s - 1e-6
                assert span.end_s <= parent.end_s + 1e-6

        # Exports are lossless for the real trace too.
        document = obs.chrome_trace_events([miss_trace])
        span_events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(span_events) == len(miss_trace.spans)

    def test_tracing_leaves_results_bit_identical(self, workload):
        query, database = workload
        results = {}
        for traced in (False, True):
            gumbo = Gumbo(options=GumboOptions(trace=traced))
            results[traced] = gumbo.execute(query, database)
            obs.drain_traces()
        untraced, traced = results[False], results[True]
        assert set(untraced.all_outputs) == set(traced.all_outputs)
        for name in untraced.all_outputs:
            assert (
                untraced.all_outputs[name].tuples()
                == traced.all_outputs[name].tuples()
            ), name
        assert untraced.summary() == traced.summary()

    def test_refresh_trace_and_histogram(self, workload):
        query, database = workload
        gumbo = Gumbo(options=GumboOptions(trace=True))
        with QueryService(database.copy(), gumbo) as service:
            service.materialize(query)
            obs.drain_traces()
            service.add_tuples("R", [(990, 991, 992, 993)], incremental=True)
            traces = obs.drain_traces()
        refresh_traces = [
            t for t in traces if t.root() and t.root().name == "service.refresh"
        ]
        assert len(refresh_traces) == 1
        (refresh_trace,) = refresh_traces
        assert "incremental.refresh" in _span_names(refresh_trace)
        refresh = next(
            s for s in refresh_trace.spans if s.name == "incremental.refresh"
        )
        assert "added" in refresh.attributes
        assert "affected" in refresh.attributes
