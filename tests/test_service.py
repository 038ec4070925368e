"""Tests for the serving layer: fingerprints, plan cache, concurrent service."""

import pytest

from repro.core.gumbo import Gumbo
from repro.model.database import Database
from repro.query.parser import parse_sgf
from repro.query.reference import evaluate_sgf
from repro.service import LRUCache, QueryService, query_fingerprint
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
