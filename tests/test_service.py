"""Tests for the serving layer: fingerprints, plan cache, concurrent service."""

import time

import pytest

from repro import obs
from repro.core.gumbo import Gumbo
from repro.core.options import GumboOptions
from repro.exec.simulated import SimulatedBackend
from repro.model.database import Database
from repro.model.relation import SchemaError
from repro.query.parser import parse_sgf
from repro.query.reference import evaluate_sgf
from repro.service import (
    LRUCache,
    QueryService,
    RequestTimeoutError,
    ServiceOverloadedError,
    query_fingerprint,
)
from repro.workloads.queries import database_for, workload_query

from helpers import small_database, star_database

STAR_QUERY = (
    "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) "
    "WHERE S(x) AND T(y) AND U(z) AND V(w);"
)
SIMPLE_QUERY = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);"
NESTED_QUERY = (
    "M := SELECT (x) FROM R(x, y) WHERE S(x);"
    "Z := SELECT (x, y) FROM R(x, y) WHERE M(x) AND NOT T(y);"
)


class TestLRUCache:
    def test_hit_miss_and_eviction(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3
        assert cache.stats.misses == 2

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_counts_invalidation(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = LRUCache(4)
        assert cache.stats.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestFingerprint:
    def test_whitespace_and_case_insensitive(self):
        db = small_database()
        spaced = parse_sgf("Z := SELECT (x, y)   FROM R(x, y)\n WHERE S(x);")
        tight = parse_sgf("Z := select (x,y) from R(x,y) where S(x);")
        assert query_fingerprint(spaced, db) == query_fingerprint(tight, db)

    def test_different_queries_differ(self):
        db = small_database()
        a = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
        b = parse_sgf("Z := SELECT (y) FROM R(x, y) WHERE S(x);")
        assert query_fingerprint(a, db) != query_fingerprint(b, db)

    def test_schema_change_differs(self):
        query = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
        db = small_database()
        other = Database.from_dict({"R": [(1, 2)], "S": [(1, 9)]})  # S arity 2
        assert query_fingerprint(query, db) != query_fingerprint(query, other)

    def test_data_refresh_keeps_fingerprint(self):
        """Pure data changes are handled by invalidation, not the fingerprint."""
        query = parse_sgf("Z := SELECT (x) FROM R(x, y) WHERE S(x);")
        db = small_database()
        before = query_fingerprint(query, db)
        db["S"].add((77,))
        assert query_fingerprint(query, db) == before


class TestPlanCache:
    def test_hit_then_miss_accounting(self):
        with QueryService(small_database()) as service:
            first = service.execute(SIMPLE_QUERY)
            second = service.execute(SIMPLE_QUERY)
            assert not first.plan_cached
            assert second.plan_cached
            stats = service.stats()
            assert stats.plan_cache.hits == 1
            assert stats.plan_cache.misses == 1
            assert stats.queries_served == 2
            # Planning without executing reads the same cache.
            assert service.plan(SIMPLE_QUERY)[1] is True

    def test_equivalent_text_shares_plan(self):
        with QueryService(small_database()) as service:
            service.execute("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);")
            res = service.execute("Z := select (x,y) from R(x,y) where S(x) or T(y);")
            assert res.plan_cached

    def test_requested_strategy_is_part_of_the_key(self):
        with QueryService(small_database()) as service:
            auto = service.execute(SIMPLE_QUERY, "auto")
            forced = service.execute(SIMPLE_QUERY, auto.strategy)
            assert not forced.plan_cached  # "auto" and the winner do not collide
            again = service.execute(SIMPLE_QUERY, "auto")
            assert again.plan_cached

    def test_eviction_with_tiny_cache(self):
        queries = [
            "Z := SELECT (x) FROM R(x, y) WHERE S(x);",
            "Z := SELECT (y) FROM R(x, y) WHERE S(x);",
        ]
        with QueryService(small_database(), plan_cache_size=1) as service:
            service.execute(queries[0])
            service.execute(queries[1])  # evicts queries[0]
            res = service.execute(queries[0])
            assert not res.plan_cached
            assert service.stats().plan_cache.evictions >= 1

    def test_planning_leaves_no_estimate_for_the_next_query(self):
        """An intermediate one query estimated at 0 tuples does not shape the
        next query's costs through the shared statistics caches."""
        empty_z1 = (
            "Z1 := SELECT x FROM R(x, 99) WHERE S(x); "
            "Z2 := SELECT x FROM R(x, y) WHERE Z1(x) AND T(y);"
        )
        text = (
            "Z1 := SELECT x FROM R(x, y) WHERE S(x); "
            "Z2 := SELECT x FROM R(x, y) WHERE Z1(x) AND NOT T(y);"
        )
        with QueryService(small_database()) as fresh:
            expected = fresh.plan(text, "auto")[0].choice.costs
        with QueryService(small_database()) as service:
            service.plan(empty_z1, "auto")
            assert service.plan(text, "auto")[0].choice.costs == expected

    def test_cacheless_service_still_serves(self):
        with QueryService(small_database(), plan_cache_size=0) as service:
            first = service.execute(SIMPLE_QUERY)
            second = service.execute(SIMPLE_QUERY)
            assert not first.plan_cached and not second.plan_cached
            assert sorted(second.output().tuples()) == sorted(
                evaluate_sgf(parse_sgf(SIMPLE_QUERY), service.database)["Z"].tuples()
            )


class TestInvalidation:
    def test_add_tuples_invalidates_and_changes_answers(self):
        db = small_database()
        with QueryService(db) as service:
            before = service.execute(SIMPLE_QUERY)
            assert (3, 4) in before.output().tuples()  # via T(4)
            assert (7, 8) not in before.output().tuples()
            service.add_tuples("S", [(7,)])
            after = service.execute(SIMPLE_QUERY)
            assert not after.plan_cached  # cache was dropped
            assert (7, 8) in after.output().tuples()
            stats = service.stats()
            assert stats.database_version == 1
            assert stats.plan_cache.invalidations == 1
            assert stats.statistics_rebuilds == 2

    def test_mutate_routes_through_invalidate(self):
        with QueryService(small_database()) as service:
            service.execute(SIMPLE_QUERY)
            service.mutate(lambda db: db["S"].add((99,)))
            assert service.database_version == 1
            assert not service.execute(SIMPLE_QUERY).plan_cached

    def test_replace_database(self):
        with QueryService(small_database()) as service:
            service.execute(STAR_QUERY.replace("AND U(z) AND V(w)", ""))
            service.replace_database(star_database())
            result = service.execute(STAR_QUERY)
            expected = evaluate_sgf(parse_sgf(STAR_QUERY), star_database())
            assert result.output().tuples() == expected["Z"].tuples()

    def test_explicit_invalidate_without_mutation(self):
        with QueryService(small_database()) as service:
            service.execute(SIMPLE_QUERY)
            dropped = service.invalidate()
            assert dropped == 1
            assert not service.execute(SIMPLE_QUERY).plan_cached


class TestConcurrentService:
    def test_concurrent_results_match_serial_gumbo(self):
        """Many clients, mixed repeated queries: tuples equal serial execution."""
        queries = [
            workload_query("A1"),
            workload_query("A3"),
            workload_query("C1"),
        ]
        databases = {
            query.name: database_for(query, guard_tuples=120, seed=3)
            for query in queries
        }
        for query in queries:
            db = databases[query.name]
            reference = Gumbo().execute(query, db, "greedy")
            serial = {
                name: relation.tuples()
                for name, relation in reference.all_outputs.items()
            }
            with QueryService(db, max_workers=8) as service:
                futures = service.submit_many([query] * 12)
                for future in futures:
                    result = future.result(timeout=120)
                    got = {
                        name: relation.tuples()
                        for name, relation in result.result.all_outputs.items()
                    }
                    assert got == serial, f"{query.name} diverged under concurrency"
                stats = service.stats()
                assert stats.queries_served == 12
                # One miss (the first request), hits for every later request.
                assert stats.plan_cache.misses == 1
                assert stats.plan_cache.hits == 11

    def test_concurrent_mixed_queries_plan_once_each(self):
        db = small_database()
        texts = [
            "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);",
            "Z := SELECT (x, y) FROM R(x, y) WHERE T(y);",
            "Z := SELECT (x) FROM R(x, y) WHERE S(x) AND T(y);",
        ]
        with QueryService(db, max_workers=6) as service:
            batch = service.execute_many(texts * 5)
            assert len(batch.results) == 15
            assert service.stats().plan_cache.misses == len(texts)
            assert batch.plan_cache_hits == 15 - len(texts)
            assert batch.throughput_qps > 0
            summary = batch.summary()
            assert summary["queries"] == 15
        for text, result in zip(texts * 5, batch.results):
            expected = evaluate_sgf(parse_sgf(text), db)["Z"].tuples()
            assert result.output().tuples() == expected

    def test_shared_estimator_not_polluted_across_queries(self):
        """Planning one query must not skew AUTO's costs for a later one.

        Both queries output 'Z' (so their planning-time intermediate names
        collide); the first runs over a large relation, the second over a
        tiny one.  The service's cached-statistics AUTO choice for the
        second query must match a fresh Gumbo's choice — costs included.
        """
        db = Database.from_dict(
            {
                "R": [(i, i % 97) for i in range(5000)],
                "S": [(i,) for i in range(0, 5000, 2)],
                "S2": [(i,) for i in range(0, 97, 3)],
                "T": [(1, 2)],
                "U": [(1,)],
                "U2": [(2,)],
            }
        )
        big = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND S2(y);"
        small = "Z := SELECT (x, y) FROM T(x, y) WHERE U(x) AND U2(y);"
        fresh = Gumbo().plan_with(small, db, "auto").choice
        with QueryService(db) as service:
            service.execute(big)  # registers 'Z'/'Z__*' estimates while planning
            served = service.execute(small)
            assert served.strategy == fresh.strategy
            assert served.result.choice is not None
            assert served.result.choice.costs == pytest.approx(fresh.costs)

    def test_service_default_auto_reports_winner(self):
        with QueryService(star_database()) as service:
            result = service.execute(STAR_QUERY)
            assert result.requested_strategy == "auto"
            assert result.strategy != "auto"
            assert result.result.choice is not None


class TestResultSurface:
    def test_metrics_and_timings(self):
        with QueryService(small_database()) as service:
            result = service.execute(SIMPLE_QUERY)
            assert result.plan_s >= 0.0
            assert result.exec_s >= 0.0
            assert result.total_s == pytest.approx(result.plan_s + result.exec_s)
            assert result.metrics.total_time > 0
            assert result.fingerprint
            assert "Z" in result.outputs

    def test_stats_as_dict_shape(self):
        with QueryService(small_database()) as service:
            service.execute(SIMPLE_QUERY)
            payload = service.stats().as_dict()
            assert payload["queries_served"] == 1
            assert 0.0 <= payload["plan_cache"]["hit_rate"] <= 1.0


class TestIncrementalServing:
    def test_materialize_registers_and_serves_result(self):
        with QueryService(small_database()) as service:
            first = service.materialize(SIMPLE_QUERY)
            assert not first.plan_cached  # the one cold planning miss
            hit = service.execute(SIMPLE_QUERY)
            assert hit.plan_cached
            assert hit.result.output().tuples() == first.result.output().tuples()
            stats = service.stats()
            assert stats.materialized_results == 1
            assert stats.materialized_hits == 1

    def test_materialize_twice_serves_from_first(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            again = service.materialize(SIMPLE_QUERY)
            assert again.plan_cached
            assert service.stats().materialized_results == 1

    def test_incremental_add_tuples_refreshes_instead_of_invalidating(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            version = service.database_version
            deltas = service.add_tuples("S", [(7,)], incremental=True)
            assert len(deltas) == 1
            assert deltas[0].added == {"Z": frozenset({(7, 8)})}
            # No invalidation: version unchanged, plans and stats kept.
            assert service.database_version == version
            assert len(service.plan_cache) == 1
            served = service.execute(SIMPLE_QUERY)
            expected = evaluate_sgf(parse_sgf(SIMPLE_QUERY), service.database)
            assert served.result.output().tuples() == expected["Z"].tuples()

    def test_incremental_refresh_matches_negation_removal(self):
        with QueryService(small_database()) as service:
            service.materialize(NESTED_QUERY)
            # (1, 2) is in Z (M(1) holds, NOT T(2)); inserting (2,) into T
            # must *remove* it incrementally.
            deltas = service.add_tuples("T", [(2,)], incremental=True)
            assert any((1, 2) in d.removed.get("Z", ()) for d in deltas)
            served = service.execute(NESTED_QUERY)
            expected = evaluate_sgf(parse_sgf(NESTED_QUERY), service.database)
            assert served.result.output().tuples() == expected["Z"].tuples()

    def test_incremental_updates_catalog_statistics_in_place(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            before = service.stats().statistics_rebuilds
            from repro.model.atoms import Atom
            from repro.model.terms import Variable

            atom = Atom("S", (Variable("x"),))
            old_count = service.estimator().catalog.atom_count(atom)
            service.add_tuples("S", [(100,), (101,)], incremental=True)
            new_count = service.estimator().catalog.atom_count(atom)
            assert new_count == old_count + 2
            # No statistics rebuild happened: the catalog was patched.
            assert service.stats().statistics_rebuilds == before

    def test_served_materialized_result_is_isolated_snapshot(self):
        with QueryService(small_database()) as service:
            served = service.materialize(SIMPLE_QUERY)
            served.result.output().add((99, 99))  # caller mutates its copy
            again = service.execute(SIMPLE_QUERY)
            assert (99, 99) not in again.result.output()

    def test_invalidate_drops_materializations(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            service.invalidate()
            assert service.stats().materialized_results == 0
            # Serving still works (re-plans from scratch).
            result = service.execute(SIMPLE_QUERY)
            assert "Z" in result.outputs

    def test_non_incremental_add_tuples_still_invalidates(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            version = service.database_version
            assert service.add_tuples("S", [(3,)]) is None
            assert service.database_version == version + 1
            assert service.stats().materialized_results == 0


class TestMetricsHistory:
    def test_history_accumulates_per_fingerprint(self):
        with QueryService(small_database()) as service:
            service.execute(SIMPLE_QUERY)
            service.execute(SIMPLE_QUERY)
            service.execute(NESTED_QUERY)
            history = service.metrics_history()
            assert len(history) == 2
            counts = sorted(h.queries for h in history.values())
            assert counts == [1, 2]
            assert all(h.plan_s_total >= 0.0 for h in history.values())

    def test_history_preserved_across_invalidations(self):
        with QueryService(small_database()) as service:
            service.execute(SIMPLE_QUERY)
            before = service.metrics_history()
            before_hits = service.plan_cache.stats.hits
            before_misses = service.plan_cache.stats.misses
            service.mutate(lambda db: db["S"].add((3,)))
            service.add_tuples("T", [(2,)])
            service.invalidate()
            history = service.metrics_history()
            assert {k: v.as_dict() for k, v in history.items()} == {
                k: v.as_dict() for k, v in before.items()
            }
            # The plan cache's cumulative counters also survive clears.
            assert service.plan_cache.stats.hits == before_hits
            assert service.plan_cache.stats.misses == before_misses
            # And serving after the invalidations extends the same history.
            service.execute(SIMPLE_QUERY)
            fingerprint = next(iter(before))
            assert service.metrics_history()[fingerprint].queries == 2

    def test_history_counts_materialized_hits(self):
        with QueryService(small_database()) as service:
            first = service.materialize(SIMPLE_QUERY)
            service.execute(SIMPLE_QUERY)
            history = service.metrics_history()[first.fingerprint]
            assert history.queries == 2
            # The initial materialize executed for real; the second call hit.
            assert history.materialized_hits == 1

    def test_stats_as_dict_includes_incremental_counters(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            service.add_tuples("S", [(3,)], incremental=True)
            payload = service.stats().as_dict()
            assert payload["materialized_results"] == 1
            assert payload["incremental_refreshes"] == 1
            assert payload["metrics_histories"] == 1


class TestIncrementalFailureSafety:
    def test_arity_mismatch_rejected_before_any_mutation(self):
        from repro.model.relation import SchemaError

        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            before = len(service.database["S"])
            with pytest.raises(SchemaError):
                service.add_tuples("S", [(1,), (2, 3)], incremental=True)
            assert len(service.database["S"]) == before
            # Nothing was invalidated either: the batch never started.
            assert service.stats().materialized_results == 1

    def test_insert_into_output_rejected_without_invalidation(self):
        from repro.incremental import IncrementalError

        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)
            with pytest.raises(IncrementalError):
                service.add_tuples("Z", [(9, 9)], incremental=True)
            assert service.stats().materialized_results == 1

    def test_crash_mid_refresh_invalidates_everything(self, monkeypatch):
        import repro.service.service as service_module

        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)

            def boom(*args, **kwargs):
                raise RuntimeError("refresh crashed")

            monkeypatch.setattr(service_module, "refresh_all", boom)
            with pytest.raises(RuntimeError):
                service.add_tuples("S", [(3,)], incremental=True)
            # Fail safe: no stale materializations or plans survive.
            stats = service.stats()
            assert stats.materialized_results == 0
            assert len(service.plan_cache) == 0
            monkeypatch.undo()
            # Serving still works and reflects the database as it stands.
            result = service.execute(SIMPLE_QUERY)
            expected = evaluate_sgf(parse_sgf(SIMPLE_QUERY), service.database)
            assert result.result.output().tuples() == expected["Z"].tuples()

    def test_concurrent_materialize_and_incremental_batches(self):
        """materialize() racing incremental batches never serves stale rows."""
        from concurrent.futures import ThreadPoolExecutor

        with QueryService(small_database()) as service:
            def mutate(start):
                for value in range(start, start + 5):
                    service.add_tuples("S", [(value,)], incremental=True)

            def build():
                return service.materialize(SIMPLE_QUERY)

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(mutate, 100), pool.submit(mutate, 200)]
                builds = [pool.submit(build) for _ in range(3)]
                for future in futures + builds:
                    future.result()
            # Whatever interleaving happened, the final served answer must
            # equal the reference evaluation of the final database.
            served = service.execute(SIMPLE_QUERY)
            expected = evaluate_sgf(parse_sgf(SIMPLE_QUERY), service.database)
            assert served.result.output().tuples() == expected["Z"].tuples()


def _slow_jobs(service, seconds):
    """Make every job of *service*'s backend sleep first; returns the list
    the wrapped ``run_job`` appends each started job to."""
    started = []
    run_job = service.gumbo.backend.run_job

    def slow(job, database):
        started.append(job)
        time.sleep(seconds)
        return run_job(job, database)

    service.gumbo.backend.run_job = slow
    return started


def _counter(service, name):
    return service.metrics.counter(name).value


class TestAdmissionAndDeadlines:
    def test_submissions_past_the_admission_limit_are_shed(self):
        """One executing, one queued: the other three of five are shed at
        submission, as ordinary batch failures, and the counters add up."""
        with QueryService(small_database(), max_workers=1, max_queue=1) as service:
            assert service.admission_limit == 2
            _slow_jobs(service, 0.05)
            batch = service.execute_many([SIMPLE_QUERY] * 5)
            shed = [
                f for f in batch.failures
                if isinstance(f.exception, ServiceOverloadedError)
            ]
            assert len(shed) == len(batch.failures) == 3
            assert len(batch.results) == 2
            assert all(f.exception.limit == 2 for f in shed)
            stats = service.stats()
            assert stats.queries_failed == 3
            assert stats.queries_served + stats.queries_failed == 5
            assert _counter(service, "repro_service_requests_total") == 5
            assert _counter(service, "repro_service_failures_total") == 3
            assert _counter(service, "repro_service_shed_total") == 3
            assert service.in_flight == 0
            assert service.metrics.gauge("repro_service_in_flight").value == 0

    def test_in_flight_count_survives_concurrent_submitters(self):
        """Four submitting threads against four pool threads, with a short
        switch interval: the admitted count never passes the limit, returns
        to zero, and every submission is served or shed exactly once."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with QueryService(small_database(), max_workers=4, max_queue=2) as service:
                seen = []
                run_job = service.gumbo.backend.run_job

                def watched(job, database):
                    seen.append(service.in_flight)
                    return run_job(job, database)

                service.gumbo.backend.run_job = watched
                with ThreadPoolExecutor(max_workers=4) as submitters:
                    batches = list(
                        submitters.map(
                            lambda _: service.submit_many([SIMPLE_QUERY] * 25),
                            range(4),
                        )
                    )
                outcomes = [f.exception(timeout=30) for b in batches for f in b]
                assert all(
                    e is None or isinstance(e, ServiceOverloadedError)
                    for e in outcomes
                )
                assert service.in_flight == 0
                assert max(seen) <= service.admission_limit == 6
                stats = service.stats()
                assert stats.queries_served == outcomes.count(None)
                assert stats.queries_served + stats.queries_failed == 100
                assert _counter(service, "repro_service_requests_total") == 100
        finally:
            sys.setswitchinterval(interval)

    def test_deadline_stops_the_request_before_its_next_job(self):
        """A timed-out request raises, starts no later job and leaves its pool
        thread idle: the deadline is checked between jobs."""
        query = workload_query("A3")
        database = database_for(list(query.subqueries), guard_tuples=50, seed=1)
        with QueryService(database, request_timeout_s=0.05) as service:
            planned, _ = service.plan(query, "seq")
            assert len(planned.program.levels()) > 1
            started = _slow_jobs(service, 0.2)
            future = service.submit(query, "seq")
            with pytest.raises(RequestTimeoutError) as excinfo:
                future.result(timeout=10)
            assert excinfo.value.timeout_s == 0.05
            assert len(started) == 1
            assert service.in_flight == 0
            time.sleep(0.3)  # longer than a job: nothing is still running
            assert len(started) == 1
            assert _counter(service, "repro_service_timeouts_total") == 1
            assert service.stats().queries_failed == 1

    def test_unparseable_request_is_counted_as_a_request(self):
        with QueryService(small_database()) as service:
            with pytest.raises(Exception):
                service.execute("this is not a query")
            failures = _counter(service, "repro_service_failures_total")
            assert failures == 1
            assert failures <= _counter(service, "repro_service_requests_total")
            assert "<unparseable>" in service.metrics_history()

    def test_traced_request_records_its_two_waits(self):
        """The admission-queue wait is ``queued_ms`` on ``service.request``;
        the wait for the execution lock is a ``service.exec_lock`` span."""
        backend = SimulatedBackend()
        backend.name = "serialised"  # any non-serial backend takes the lock
        gumbo = Gumbo(backend=backend, options=GumboOptions(trace=True))
        obs.drain_traces()
        with QueryService(small_database(), gumbo) as service:
            service.submit(SIMPLE_QUERY).result()
            service.execute(SIMPLE_QUERY)
        submitted, direct = obs.drain_traces()
        root = submitted.root()
        assert root.name == "service.request"
        assert root.attributes["queued_ms"] >= 0
        assert "fingerprint" in root.attributes
        assert "queued_ms" not in direct.root().attributes
        [lock] = [s for s in submitted.spans if s.name == "service.exec_lock"]
        assert lock.parent_id == root.span_id


class TestMutationSafety:
    def test_bad_arity_insert_changes_nothing_and_serves_the_truth(self):
        text = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x);"
        database = Database.from_dict({"R": [(1, 2), (3, 4)], "S": [(1,)]})
        with QueryService(database) as service:
            service.materialize(text)
            with pytest.raises(SchemaError):
                service.add_tuples("S", [(3,), (5, 6)])
            assert service.database["S"].tuples() == {(1,)}
            expected = evaluate_sgf(parse_sgf(text), service.database)["Z"]
            assert service.execute(text).tuples() == expected.tuples()

    def test_mutate_invalidates_even_when_the_mutator_raises(self):
        with QueryService(small_database()) as service:
            service.materialize(SIMPLE_QUERY)

            def half_applied(database):
                database["S"].add((3,))
                raise RuntimeError("mutator crashed")

            with pytest.raises(RuntimeError):
                service.mutate(half_applied)
            assert service.database_version == 1
            expected = evaluate_sgf(parse_sgf(SIMPLE_QUERY), service.database)
            assert service.execute(SIMPLE_QUERY).tuples() == expected["Z"].tuples()
