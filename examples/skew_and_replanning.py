"""Extensions: skew handling for MSJ and dynamic re-planning of SGF queries.

Two features the paper sketches without evaluating are demonstrated here:

1. **Skew handling** (Section 6): a guard relation in which one join-key value
   dominates overloads a single reducer of the MSJ job.  Given heavy-hitter
   information (detected from the statistics samples), the skew-aware MSJ job
   salts the heavy key across several reducers, shrinking the longest reduce
   task — and therefore the simulated net time — while producing exactly the
   same answer.

2. **Dynamic re-planning** (Section 4.6): instead of planning an entire nested
   SGF query up front with upper-bound size estimates,
   ``Gumbo.execute_dynamic`` re-runs Greedy-SGF after every evaluated group, so later grouping decisions
   see the *actual* sizes of the materialised intermediate relations.

Run with::

    python examples/skew_and_replanning.py
"""

from repro import Database, Gumbo, MapReduceEngine
from repro.core import MSJJob, SkewAwareMSJJob, detect_heavy_hitters
from repro.cost import StatisticsCatalog
from repro.mapreduce.scheduler import makespan
from repro.query import parse_bsgf
from repro.workloads.queries import database_for, sgf_query


def skew_demo() -> None:
    print("=" * 72)
    print("1. Skew handling in the MSJ operator")
    print("=" * 72)

    # 90% of the guard tuples join on the single value 7.
    heavy_rows = [(7, i) for i in range(1800)]
    light_rows = [(100 + (i % 50), i) for i in range(200)]
    database = Database.from_dict(
        {"R": heavy_rows + light_rows, "S": [(7,)] + [(100 + i, ) for i in range(0, 50, 2)]}
    )
    query = parse_bsgf("Z := SELECT (x, y) FROM R(x, y) WHERE S(x);")
    specs = query.semijoin_specs()

    catalog = StatisticsCatalog(database, sample_size=500)
    report = detect_heavy_hitters(catalog, specs)
    print(f"Detected heavy join keys: {sorted(report.heavy_keys)}")

    engine = MapReduceEngine()
    reducers = 8
    plain = MSJJob("plain", specs)
    salted = SkewAwareMSJJob("salted", specs, report.heavy_keys, salt_factor=8)
    plain.fixed_reducers = salted.fixed_reducers = reducers

    plain_metrics = engine.run_job(plain, database).metrics
    salted_metrics = engine.run_job(salted, database).metrics
    slots = engine.cluster.total_slots
    print(f"{'':24}{'plain MSJ':>14}{'skew-aware MSJ':>16}")
    print(f"{'longest reduce task':<24}{max(plain_metrics.reduce_task_durations):>13.1f}s"
          f"{max(salted_metrics.reduce_task_durations):>15.1f}s")
    print(f"{'reduce makespan':<24}{makespan(plain_metrics.reduce_task_durations, slots):>13.1f}s"
          f"{makespan(salted_metrics.reduce_task_durations, slots):>15.1f}s")
    print(f"{'communication (MB)':<24}{plain_metrics.intermediate_mb:>13.4f} "
          f"{salted_metrics.intermediate_mb:>15.4f}")

    plain_out = engine.run_job(MSJJob("check", specs), database).outputs[specs[0].output]
    salted_out = engine.run_job(
        SkewAwareMSJJob("check2", specs, report.heavy_keys), database
    ).outputs[specs[0].output]
    assert plain_out.tuples() == salted_out.tuples()
    print("Answers are identical with and without salting.")
    print()


def replanning_demo() -> None:
    print("=" * 72)
    print("2. Dynamic re-planning of a nested SGF query (C3)")
    print("=" * 72)

    query = sgf_query("C3")
    database = database_for(query, guard_tuples=400, selectivity=0.3, seed=17)

    gumbo = Gumbo()
    static = gumbo.execute(query, database, "greedy-sgf")
    dynamic = gumbo.execute_dynamic(query, database)

    print("Static GREEDY-SGF plan:")
    print(f"    jobs={static.metrics.num_jobs}, rounds={static.metrics.rounds}, "
          f"net={static.metrics.net_time:.1f}s, total={static.metrics.total_time:.1f}s")
    print("Dynamic re-planning execution:")
    for stage in dynamic.stages:
        print(f"    stage {stage.index}: evaluated {', '.join(stage.subqueries)} "
              f"({stage.msj_groups} MSJ group(s), "
              f"net {stage.metrics.net_time:.1f}s, total {stage.metrics.total_time:.1f}s)")
    print(f"    overall: net={dynamic.metrics.net_time:.1f}s, "
          f"total={dynamic.metrics.total_time:.1f}s")

    for name in query.output_names:
        assert dynamic.outputs[name].tuples() == {
            row for row in static.all_outputs[name].tuples()
        }
    print("Dynamic and static evaluations agree on every output relation.")


def main() -> None:
    skew_demo()
    replanning_demo()


if __name__ == "__main__":
    main()
