"""The traced pass: where the time goes, layer by layer.

Nothing inside the program is instrumented.  The benchmark keeps its own
in-memory spans (``id, name, parent, request_id, start, end`` plus a few
counts) around calls into each layer's *public* functions, made from outside:

* **replay** — the workload's own cycles, alternately plain and traced.  A
  traced cycle records one ``request`` span per request; after the cycle
  (outside every timed section) *shadow* spans re-run, on a sample of those
  requests' inputs, the layer functions a request passes through —
  ``repro.parse_sgf``, ``repro.query_fingerprint``, ``Gumbo.plan_with`` on a
  scratch estimator, the serial ``backend.run_program``, ``Relation.copy``.
  A shadow's ``parent`` is the request that caused it, but it lies outside
  that request's interval (``shadow: true``).  Public methods a workload
  names in ``trace_points()`` are wrapped for the traced cycles only, which
  gives real child spans (``serve-refresh``: refresh and read-after-refresh).
* **probes** — each tier's public functions on fixed, seeded probe inputs
  (the process tiers at ``batch-parallel``'s size, the shard tier at
  ``serve-sharded``'s), so every traced run reports every per-layer metric
  whatever its workload.

Metrics are medians over spans of one name.  ``--out DIR`` writes the spans
as ``DIR/<workload>.spans.jsonl``; by default nothing is written.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import os
import random
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

import repro
from repro import obs
from repro.core.options import GumboOptions
from repro.exec.shm import SegmentPool, encode_block, payload_segment
from repro.obs.metrics import default_registry
from repro.service.sharded import ShardedService
from repro.query.unparse import unparse_sgf
from repro.workloads.generator import generate_database
from repro.workloads.queries import workload_query

import speed
import workloads
from workloads import (
    CONDITIONALS,
    Recorder,
    Workload,
    delta_rows,
    refresh_batch,
    rows_of,
    scaled,
)

#: Share of ``--seconds`` the replay measures (the probes take the rest).
REPLAY_SHARE = 0.5

#: At most about this many requests of one traced cycle get shadow spans,
#: and shadows stop once they have used this share of the replay's seconds
#: (never before one full rotation of five).
SHADOWS_PER_CYCLE = 25
SHADOW_SHARE = 0.5

_JOB_PATHS = ("interpreted", "kernel", "fanout", "sharded", "sql")
#: The process-tier probe runs the paper's A3 shape.
_PROBE_TEXT = unparse_sgf(workload_query("A3"))


class Tracer:
    """In-memory spans; written out (if at all) when the pass ends."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._by_name: Dict[str, List[dict]] = defaultdict(list)
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, **attrs) -> dict:
        """Record a finished span."""
        span = {"id": next(self._ids), "name": name, "parent": None,
                "request_id": None, "start": start, "end": end}
        span.update(attrs)
        self.spans.append(span)
        self._by_name[name].append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the enclosed block as one span."""
        span = self.add(name, perf_counter(), 0.0, **attrs)
        try:
            yield span
        finally:
            span["end"] = perf_counter()

    def ms(self, name: str) -> List[float]:
        """Durations (ms) of every span called *name*."""
        return [(s["end"] - s["start"]) * 1e3 for s in self._by_name.get(name, ())]

    def median_ms(self, name: str) -> float:
        """Median duration (ms) of the spans called *name* (0.0 if none)."""
        return statistics.median(self.ms(name) or [0.0])

    def median_of(self, name: str, attr: str) -> float:
        """Median of attribute *attr* over the spans called *name*."""
        return statistics.median(
            [s[attr] for s in self._by_name.get(name, ()) if attr in s] or [0.0]
        )

    def write(self, path: str) -> None:
        """One JSON object per line, in recording order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class TracingRecorder(Recorder):
    """A recorder that also keeps a ``request`` span per answered request."""

    def __init__(self, workload: Workload, tracer: Tracer) -> None:
        super().__init__(workload)
        self.tracer = tracer
        #: (request span, result) of the current traced cycle, for the shadows.
        self.pending: List[tuple] = []
        #: Traced requests answered so far: the id of the one in flight.
        self.issued = 0
        #: Seconds the shadows may still use, and how many were made.
        self.shadow_seconds = 0.0
        self.shadows = 0

    def done(self, key, seconds: float, result, first_cycle: bool) -> None:
        end = perf_counter()
        request_id = self.issued
        self.issued += 1
        super().done(key, seconds, result, first_cycle)
        span = self.tracer.add(
            "request", end - seconds, end,
            request_id=request_id, workload=self.workload.name,
        )
        self.pending.append((span, result))


def _wrap(tracer: Tracer, rec: TracingRecorder, target, method: str, name: str,
          annotate: Optional[Callable]) -> Callable[[], None]:
    """Time *target.method* from outside for a while; returns the undo."""
    original = getattr(target, method)

    def timed(*args, **kwargs):
        with tracer.span(name, request_id=rec.issued) as span:
            value = original(*args, **kwargs)
            if annotate is not None:
                span.update(annotate(value))
        return value

    setattr(target, method, timed)
    return lambda: delattr(target, method)


def _job_counts() -> Dict[str, float]:
    registry = default_registry()
    return {path: registry.counter("repro_jobs_total", path=path).value
            for path in _JOB_PATHS}


def _shadow_stride(requests: int) -> int:
    """Sample stride: 1 mod 5, so the sample rotates through the five shapes."""
    if requests <= SHADOWS_PER_CYCLE:
        return 1
    return 5 * math.ceil((requests / SHADOWS_PER_CYCLE - 1) / 5) + 1


def _shadows(workload: Workload, requests, rec: TracingRecorder, serial) -> None:
    """Re-run, on a sample of the cycle's requests, the layer functions a
    request of this workload passes through (``workload.path_layers``).

    Every function is called twice and the second call is the span, so a
    shadow is as warm as the call it stands for.  Sampling stops when
    ``rec.shadow_seconds`` are used up and at least five shadows exist.
    """
    tracer = rec.tracer
    service = workload.service
    database, gumbo = service.database, service.gumbo
    on_path = set(workload.path_layers)
    stride = _shadow_stride(len(rec.pending))

    def shadow(name: str, link: dict, call: Callable):
        """Warm *call* once; time it as span *name* if the layer is on the path."""
        value = call()
        if name not in on_path:
            return value, {}
        with tracer.span(name, **link) as span:
            value = call()
        return value, span

    # Answered requests are recorded in completion order, which equals issue
    # order for one client; with two clients the pairing is approximate and
    # only picks *which* text a shadow re-runs.
    for (request_span, result), request in list(zip(rec.pending, requests))[::stride]:
        if rec.shadow_seconds <= 0 and rec.shadows >= 5:
            break
        began = perf_counter()
        link = {"parent": request_span["id"], "request_id": request_span["request_id"],
                "shadow": True}
        text = workload.text_of(request)
        query, _ = shadow("query.parse", link, lambda: repro.parse_sgf(text))
        shadow("service.fingerprint", link,
               lambda: repro.query_fingerprint(query, database))
        if "mapreduce.run_program" in on_path:
            estimator = service.estimator()
            planned, span = shadow("core.plan", link, lambda: gumbo.plan_with(
                query, database, "auto", estimator=estimator.scratch_copy()))
            choice = planned.choice
            span["candidates"] = len(choice.costs) + len(choice.errors) if choice else 1
            program = planned.program
            # The serial engine stamps no map/reduce wall times, so the split
            # comes from a (warming) run under the program's own tracer.
            with tracer.span("mapreduce.run_program_traced", **link) as split:
                with obs.trace("e2e.shadow", enabled=True):
                    serial.run_program(program, database)
            inner = obs.spans_of(obs.drain_traces())
            for phase in ("map", "reduce"):
                split[f"{phase}_ms"] = 1e3 * sum(
                    s.duration_s for s in inner if s.name in (phase, f"{phase}_batch")
                )
            split["other_ms"] = (
                (split["end"] - split["start"]) * 1e3
                - split["map_ms"] - split["reduce_ms"]
            )
            with tracer.span("mapreduce.run_program", **link) as span:
                ran = serial.run_program(program, database)
            rows = sum(m.input_records for m in ran.metrics.job_metrics.values())
            span["rows_per_s"] = rows / (span["end"] - span["start"])
        outputs = list(result.outputs.values())
        shadow("model.copy", link, lambda: [relation.copy() for relation in outputs])
        rec.shadow_seconds -= perf_counter() - began
        rec.shadows += 1
    rec.pending.clear()


def replay(
    workload: Workload, seconds: float, tracer: Tracer, meter: speed.SpeedMeter
) -> dict:
    """Alternate plain and traced cycles for *seconds*; shadows in between."""
    plain = Recorder(workload)
    traced = TracingRecorder(workload, tracer)
    traced.shadow_seconds = seconds * SHADOW_SHARE
    serial = repro.make_backend("serial")
    stats_before = workload.service.stats()
    jobs = dict.fromkeys(_JOB_PATHS, 0.0)
    elapsed = plain_wall = 0.0
    cycles = 0
    while elapsed < seconds or cycles < 2:
        requests = workload.next_cycle()
        meter.keep_up(elapsed)
        tracing = cycles % 2 == 1
        rec = traced if tracing else plain
        undo = [
            _wrap(tracer, traced, *point) for point in workload.trace_points()
        ] if tracing else []
        before = _job_counts()
        start = perf_counter()
        try:
            workload.run_cycle(requests, rec, False)
        finally:
            spent = perf_counter() - start
            for restore in undo:
                restore()
        for path, value in _job_counts().items():
            jobs[path] += value - before[path]
        elapsed += spent
        cycles += 1
        if tracing:
            _shadows(workload, requests, traced, serial)
        else:
            plain_wall += spent
    workload.checkpoint(plain)
    plain.verify_kept()
    traced.verify_kept()
    stats = workload.service.stats()
    # A materialized read skips the plan cache altogether; it counts as a hit.
    hits = (stats.plan_cache.hits - stats_before.plan_cache.hits) + (
        stats.materialized_hits - stats_before.materialized_hits
    )
    misses = stats.plan_cache.misses - stats_before.plan_cache.misses
    return {
        "plain": plain,
        "traced": traced,
        "kernel_job_share": jobs["kernel"] / max(1.0, sum(jobs.values())),
        "plan_cache_hit_rate": hits / max(1, hits + misses),
        "driver_share": max(
            0.0, 1.0 - sum(plain.latencies) / workload.clients / plain_wall
        ),
    }


# -- tier probes on fixed inputs -------------------------------------------------------


def _repeats(workload: Workload, count: int) -> int:
    """*count* probe repetitions, or a fifth of them in smoke mode."""
    return max(2, count // 5) if workload.smoke else count


def _probe_database(workload: Workload, guard: int, conditional: Optional[int] = None):
    return generate_database(
        {"R": 4}, CONDITIONALS,
        guard_tuples=scaled(guard, workload.smoke),
        conditional_tuples=scaled(conditional, workload.smoke) if conditional else None,
        seed=workload.seed,
    )


def probe_model_and_cost(workload: Workload, tracer: Tracer) -> None:
    """Column-block construction on the workload's largest relation, and
    cold statistics on its database (cold plan minus warm plan)."""
    name, rows = max(workload.rows.items(), key=lambda item: len(item[1]))
    service = workload.service
    database, gumbo = service.database, service.gumbo
    query = repro.parse_sgf(workload.texts[0])
    for _ in range(_repeats(workload, 3)):
        relation = repro.Relation.from_tuples(name, rows)
        with tracer.span("model.build_block", rows=len(rows)):
            block = relation.columns()
        with tracer.span("model.column_chunks"):
            relation.column_chunks(4)
        with tracer.span("model.packed"):
            block.packed()
        with tracer.span("cost.cold_plan"):
            estimator = gumbo.estimator(database)
            gumbo.plan_with(query, database, "auto", estimator=estimator)
        with tracer.span("cost.warm_plan"):
            gumbo.plan_with(query, database, "auto", estimator=estimator.scratch_copy())


def probe_exec(workload: Workload, tracer: Tracer) -> dict:
    """parallel(2) against the serial engine on one program and database."""
    database = _probe_database(workload, 1000)
    program = workload.service.gumbo.plan_with(_PROBE_TEXT, database, "auto").program
    registry = default_registry()
    shipped = [registry.counter("repro_bytes_shipped", plane=plane)
               for plane in ("shm", "pickle")]
    serial = repro.make_backend("serial")
    parallel = repro.make_backend("parallel", workers=2)
    runs = _repeats(workload, 5)
    try:
        with tracer.span("exec.parallel_first_run"):
            parallel.run_program(program, database)
        before = sum(counter.value for counter in shipped)
        for _ in range(runs):
            with tracer.span("exec.parallel_run_program") as span:
                wall = parallel.run_program(program, database).metrics.wall_summary()
            span["map_ms"] = wall["wall_map_s"] * 1e3
            span["reduce_ms"] = wall["wall_reduce_s"] * 1e3
        bytes_per_run = (sum(counter.value for counter in shipped) - before) / runs
    finally:
        parallel.close()
    for _ in range(runs):
        with tracer.span("exec.serial_base"):
            serial.run_program(program, database)
    pool = SegmentPool()
    chunk = database["R"].column_chunks(2)[0]
    try:
        for _ in range(runs):
            with tracer.span("exec.shm_encode", rows=len(chunk)):
                segment = payload_segment(encode_block(chunk, pool, "shm"))
                if segment is not None:
                    pool.release(segment)
    finally:
        pool.close_all()
    return {"bytes_shipped_per_request": bytes_per_run}


def probe_sharded(workload: Workload, tracer: Tracer) -> dict:
    """The shard tier bottom-up: ping, run_program, service, front-end."""
    database = _probe_database(workload, 600, 300)
    text = workloads.SHARDED_TEXTS[0]
    frontend = ShardedService.create(database, shards=2, max_concurrency=2, max_queue=8)
    loop = asyncio.new_event_loop()

    async def client(name: str, count: int) -> None:
        for _ in range(_repeats(workload, count)):
            with tracer.span(name):
                await frontend.execute(text)

    async def two_clients() -> None:
        await asyncio.gather(client("service.sharded.two_clients", 30),
                             client("service.sharded.two_clients", 30))

    try:
        loop.run_until_complete(frontend.execute(text))  # spawn, ship, plan
        service = frontend.service
        backend = service.gumbo.backend
        for _ in range(_repeats(workload, 20)):
            with tracer.span("service.sharded.rpc_roundtrip"):
                backend.cluster.ping()
        program = service.plan(text)[0].program
        for _ in range(_repeats(workload, 10)):
            with tracer.span("service.sharded.run_program"):
                backend.run_program(program, database)
        for _ in range(_repeats(workload, 30)):
            with tracer.span("service.sharded.direct_execute"):
                service.execute(text)
        loop.run_until_complete(client("service.sharded.one_client", 30))
        loop.run_until_complete(two_clients())
        stats = frontend.stats()
        return {
            "shed_share": stats["shed"] / max(1.0, stats["requests"]),
            "reshipped_relations": backend.ensure_loaded(service.database),
        }
    finally:
        frontend.close()
        loop.close()


def probe_service(workload: Workload, tracer: Tracer) -> None:
    """A materialized read straight on the service; refresh then read."""
    size = scaled(2000, workload.smoke)
    rng = random.Random(f"probe/{workload.seed}")
    texts = workloads.SERVE_TEXTS
    with repro.connect(rows_of(_probe_database(workload, 2000))) as conn:
        for text in texts:
            conn.materialize(text)
        for index in range(_repeats(workload, 300)):
            with tracer.span("service.hot_execute"):
                conn.service.execute(texts[index % len(texts)])
        if tracer.ms("incremental.refresh"):
            return  # serve-refresh: its own replay already measured these
        for index in range(_repeats(workload, 40)):
            relation, rows = refresh_batch(rng, index, size)
            with tracer.span("incremental.refresh") as span:
                deltas = conn.service.add_tuples(relation, rows, incremental=True)
            span.update(delta_rows(deltas))
            with tracer.span("incremental.read_after_refresh"):
                conn.execute(texts[index % len(texts)])


def probe_obs(workload: Workload, tracer: Tracer) -> None:
    """The program's own tracing switched on against off, same requests."""
    rows = rows_of(_probe_database(workload, 1000))
    texts = workloads.SERVE_TEXTS[:3]
    for traced in (False, True):
        with repro.connect(rows, options=GumboOptions(trace=traced)) as conn:
            for text in texts:
                conn.execute(text)
            for _ in range(_repeats(workload, 5)):
                for text in texts:
                    with tracer.span("obs.traced" if traced else "obs.untraced"):
                        conn.execute(text)


# -- the pass ---------------------------------------------------------------------------


def trace(workload: Workload, seconds: float, out: Optional[str]) -> dict:
    """Replay plus probes; returns the per-layer metrics of one workload."""
    tracer = Tracer()
    meter = speed.SpeedMeter()
    replayed = replay(workload, seconds * REPLAY_SHARE, tracer, meter)
    plain, traced = replayed["plain"], replayed["traced"]
    started = perf_counter()
    probe_model_and_cost(workload, tracer)
    exec_counts = probe_exec(workload, tracer)
    sharded_counts = probe_sharded(workload, tracer)
    probe_service(workload, tracer)
    probe_obs(workload, tracer)
    meter.keep_up(2 * (perf_counter() - started))  # as much again for the probes
    if out:
        tracer.write(os.path.join(out, f"{workload.name}.spans.jsonl"))

    med = tracer.median_ms
    plain_p50 = statistics.median(plain.latencies) * 1e3
    traced_p50 = statistics.median(traced.latencies) * 1e3
    on_path = sum(med(name) for name in workload.path_layers)
    serial_base = med("exec.serial_base")
    one_client = med("service.sharded.one_client")
    metrics = {
        "query.parse_ms": med("query.parse"),
        "service.fingerprint_ms": med("service.fingerprint"),
        "service.hot_execute_ms": med("service.hot_execute"),
        "service.plan_cache_hit_rate": replayed["plan_cache_hit_rate"],
        "service.residual_ms": plain_p50 - on_path,
        "cost.stats_ms": med("cost.cold_plan") - med("cost.warm_plan"),
        "core.plan_ms": med("core.plan"),
        "core.plan_candidates": tracer.median_of("core.plan", "candidates"),
        "mapreduce.run_program_ms": med("mapreduce.run_program"),
        "mapreduce.map_ms": tracer.median_of("mapreduce.run_program_traced", "map_ms"),
        "mapreduce.reduce_ms": tracer.median_of(
            "mapreduce.run_program_traced", "reduce_ms"
        ),
        "mapreduce.other_ms": tracer.median_of(
            "mapreduce.run_program_traced", "other_ms"
        ),
        "mapreduce.rows_per_s": tracer.median_of("mapreduce.run_program", "rows_per_s"),
        "mapreduce.kernel_job_share": replayed["kernel_job_share"],
        "model.build_block_ms": med("model.build_block"),
        "model.column_chunks_ms": med("model.column_chunks"),
        "model.packed_ms": med("model.packed"),
        "model.copy_ms": med("model.copy"),
        "exec.serial_base_ms": serial_base,
        "exec.parallel_run_program_ms": med("exec.parallel_run_program"),
        "exec.parallel_map_ms": tracer.median_of("exec.parallel_run_program", "map_ms"),
        "exec.parallel_reduce_ms": tracer.median_of(
            "exec.parallel_run_program", "reduce_ms"
        ),
        "exec.parallel_overhead_ratio": med("exec.parallel_run_program") / serial_base,
        "exec.parallel_first_run_ms": med("exec.parallel_first_run"),
        "exec.shm_encode_ms": med("exec.shm_encode"),
        "exec.bytes_shipped_per_request": exec_counts["bytes_shipped_per_request"],
        "service.sharded.rpc_roundtrip_ms": med("service.sharded.rpc_roundtrip"),
        "service.sharded.run_program_ms": med("service.sharded.run_program"),
        "service.sharded.frontend_overhead_ms": one_client
        - med("service.sharded.direct_execute"),
        "service.sharded.queue_wait_ms": med("service.sharded.two_clients") - one_client,
        "service.sharded.shed_share": sharded_counts["shed_share"],
        "service.sharded.reshipped_relations": sharded_counts["reshipped_relations"],
        "incremental.refresh_ms": med("incremental.refresh"),
        "incremental.read_after_refresh_ms": med("incremental.read_after_refresh"),
        "incremental.delta_rows_per_refresh": tracer.median_of(
            "incremental.refresh", "delta_rows"
        ),
        "obs.trace_overhead_ratio": med("obs.traced") / med("obs.untraced"),
        "harness.request_p50_ms": plain_p50,
        "harness.trace_overhead_ratio": traced_p50 / plain_p50,
        "harness.driver_share": replayed["driver_share"],
    }
    # One factor for the whole traced run: every time at reference speed.
    factor = meter.factor()
    for name in metrics:
        if name.endswith("_ms"):
            metrics[name] /= factor
    metrics["mapreduce.rows_per_s"] *= factor
    metrics["harness.machine_speed_factor"] = factor
    return {
        "attempted": plain.count + traced.count,
        "failed": plain.failed + traced.failed,
        "errors": (plain.errors + traced.errors)[:5],
        "metrics": metrics,
        "info": {"spans": len(tracer.spans)},
    }
