"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the subcommands and ``python -m repro
<command> --help`` describes each one's flags.  A flag that several
subcommands share is declared once, in the parent parsers of :func:`_shared`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import obs
from .core.gumbo import Gumbo, GumboResult
from .core.options import GumboOptions
from .core.strategies import choose_strategy
from .exec import BACKEND_NAMES
from .mapreduce.kernels import KERNEL_MODES
from .fuzz import FuzzConfig, FuzzOptions, run_fuzz
from .fuzz.profiles import PROFILE_NAMES
from .experiments import (
    format_table3,
    run_ablation,
    run_cost_model_experiment,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure7a,
    run_figure7b,
    run_figure7c,
    run_figure8,
    run_table3,
)
from .incremental import apply_inserts, dedupe_inserts
from .io import load_database, save_database
from .model.database import Database
from .query.parser import parse_sgf
from .query.sgf import SGFQuery
from .service import BatchResult, QueryService, ServiceError
from .workloads.queries import database_for, workload_query
from .workloads.scaling import ScaledEnvironment

#: Experiment name → driver returning an object with a ``format()`` method.
_EXPERIMENTS: Dict[str, Callable] = {
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure7a": run_figure7a,
    "figure7b": run_figure7b,
    "figure7c": run_figure7c,
    "figure8": run_figure8,
    "costmodel": run_cost_model_experiment,
    "ablation": run_ablation,
}


def _shared(
    *groups: str, backends: Sequence[str] = BACKEND_NAMES
) -> List[argparse.ArgumentParser]:
    """Parent parsers holding the named groups of shared flags, the one place
    each shared flag is declared.

    The parents are built fresh on every call: a subcommand's
    ``set_defaults`` rewrites the defaults of the actions it holds, so a
    parent shared between subcommands would leak one's defaults into another.
    """
    flags = {group: argparse.ArgumentParser(add_help=False) for group in groups}
    if "query" in flags:
        source = flags["query"].add_mutually_exclusive_group(required=True)
        source.add_argument("--query", help="the SGF query text")
        source.add_argument("--query-file", help="file containing the SGF query")
        flags["query"].add_argument(
            "--data",
            required=True,
            help="directory with one CSV/TSV file per relation",
        )
        flags["query"].add_argument(
            "--no-packing", action="store_true", help="disable message packing"
        )
        flags["query"].add_argument(
            "--no-tuple-reference",
            action="store_true",
            help="disable tuple references",
        )
        flags["query"].add_argument(
            "--kernel-mode",
            default="auto",
            choices=list(KERNEL_MODES),
            help="batch-kernel execution path: auto (kernel wherever the job "
            "has one, on every backend) or off (always interpret); outputs and "
            "simulated metrics are identical in both modes (default auto)",
        )
    if "workload-id" in flags:
        flags["workload-id"].add_argument("query_id", help="A1-A5, B1-B2 or C1-C4")
    if "workload" in flags:
        flags["workload"].add_argument(
            "--guard-tuples",
            type=int,
            default=2_000,
            help="tuples per guard relation (default %(default)s)",
        )
        flags["workload"].add_argument(
            "--selectivity",
            type=float,
            default=0.5,
            help="selectivity of the conditional atoms (default %(default)s)",
        )
    if "seed" in flags:
        flags["seed"].add_argument(
            "--seed", type=int, default=0, help="random seed (default %(default)s)"
        )
    if "nodes" in flags:
        flags["nodes"].add_argument(
            "--nodes",
            type=int,
            default=10,
            help="simulated cluster size (default %(default)s)",
        )
    if "strategy" in flags:
        flags["strategy"].add_argument(
            "--strategy",
            default="auto",
            help="seq, par, greedy, 1-round, sequnit, parunit, greedy-sgf, or "
            "auto for cost-based selection (default %(default)s)",
        )
    if "cost-model" in flags:
        flags["cost-model"].add_argument(
            "--cost-model",
            default="gumbo",
            choices=["gumbo", "wang"],
            help="cost model driving plan choice (default %(default)s)",
        )
    if "show-plan" in flags:
        flags["show-plan"].add_argument(
            "--show-plan", action="store_true", help="also print the chosen MR plan"
        )
    if "backend" in flags:
        # The width is checked where the backend is built.
        flags["backend"].add_argument(
            "--backend",
            default="serial",
            choices=list(backends),
            help="execution backend: serial simulation or the multi-process "
            "runtime under either of its names (default %(default)s)",
        )
        flags["backend"].add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes of the multi-process backend (default: CPU "
            "count under the name parallel, 2 under sharded)",
        )
        flags["backend"].add_argument(
            "--shards",
            type=int,
            default=None,
            help="another spelling of --workers (give one, or the same value "
            "for both)",
        )
    if "trace" in flags:
        flags["trace"].add_argument(
            "--trace",
            action="store_true",
            help="record spans: one trace per request/run (see repro.obs)",
        )
    if "export" in flags:
        flags["export"].add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="write the collected spans to PATH after the run (implies "
            "--trace); Chrome output is validated after writing",
        )
        flags["export"].add_argument(
            "--trace-format",
            default="chrome",
            choices=list(obs.TRACE_FORMATS),
            help="span export format: chrome (trace-event JSON, loads in "
            "Perfetto / chrome://tracing) or jsonl (default %(default)s)",
        )
        flags["export"].add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write the Prometheus text exposition of the metrics "
            "registries to PATH",
        )
    return list(flags.values())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gumbo: parallel evaluation of multi-semi-joins (paper reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    plan_flags = ("query", "strategy", "cost-model", "nodes", "backend")

    query = subparsers.add_parser(
        "query",
        help="evaluate an SGF query over CSV data",
        parents=_shared(*plan_flags, "trace", "export", "show-plan"),
    )
    query.set_defaults(strategy="greedy")
    query.add_argument(
        "--output-dir", help="write the query's output relations to this directory"
    )

    plan = subparsers.add_parser(
        "plan", help="show the MR plan without executing it", parents=_shared(*plan_flags)
    )
    plan.set_defaults(strategy="greedy")

    generate = subparsers.add_parser(
        "generate",
        help="generate a paper workload as CSV files",
        parents=_shared("workload-id", "workload", "seed"),
    )
    generate.set_defaults(guard_tuples=10_000)
    generate.add_argument("output_dir", help="directory to write the CSV files to")

    experiment = subparsers.add_parser(
        "experiment",
        help="reproduce one of the paper's experiments",
        parents=_shared("nodes"),
    )
    experiment.add_argument(
        "name",
        choices=sorted(_EXPERIMENTS) + ["table3", "all"],
        help="which experiment to run",
    )
    experiment.add_argument(
        "--scale",
        type=float,
        default=5e-6,
        help="workload scale relative to the paper's 100M tuples (default 5e-6)",
    )

    auto = subparsers.add_parser(
        "auto",
        help="show the cost-based strategy choice for a paper workload",
        parents=_shared(
            "workload-id", "workload", "seed", "nodes", "cost-model", "show-plan"
        ),
    )
    auto.set_defaults(guard_tuples=5_000)
    auto.add_argument(
        "--no-optimal",
        action="store_true",
        help="exclude the brute-force OPTIMAL strategies from the candidates",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve repeated workload queries through the query service",
        parents=_shared("workload", "seed", "nodes", "strategy", "trace", "export"),
    )
    serve.add_argument(
        "--query-ids",
        default="A1,A2,A3,B1",
        help="comma-separated workload ids served round-robin (default A1,A2,A3,B1)",
    )
    serve.add_argument(
        "--requests", type=int, default=40, help="number of queries to serve"
    )
    serve.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads"
    )
    serve.add_argument(
        "--plan-cache",
        type=int,
        default=64,
        help="plan-cache capacity (0 disables plan caching)",
    )
    serve.add_argument(
        "--sharded",
        action="store_true",
        help="serve on the sharded persistent tier (long-lived worker "
        "shards) under the --max-queue / --request-timeout admission limits "
        "(see docs/service.md)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="persistent worker shards for --sharded (default 2)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admitted --sharded requests allowed to queue beyond the "
        "executing ones; arrivals past clients+queue are shed (default 64)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request timeout for --sharded (default: none)",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="also check every served answer against a direct Gumbo execution",
    )
    serve.add_argument(
        "--incremental",
        action="store_true",
        help="materialize the served queries, apply an insert batch with "
        "incremental delta refresh (instead of invalidating), and serve the "
        "stream again from the refreshed materializations",
    )
    serve.add_argument(
        "--insert-tuples",
        type=int,
        default=16,
        help="tuples inserted by the --incremental mutation batch (default 16)",
    )
    serve.add_argument(
        "--stats-json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="emit the full service stats (ServiceStats + per-fingerprint "
        "history + per-service metrics) as JSON to PATH, or to stdout "
        "when no PATH is given",
    )

    delta = subparsers.add_parser(
        "delta",
        help="incremental delta refresh vs full re-execution",
        parents=_shared(
            "workload", "seed", "nodes", "strategy", "backend", "trace", "export"
        ),
    )
    delta.set_defaults(guard_tuples=4_000)
    delta.add_argument(
        "--query-id", default="A3", help="paper workload (A1-A5, B1-B2, C1-C4)"
    )
    delta.add_argument(
        "--insert-fraction",
        type=float,
        default=0.01,
        help="insert batch size as a fraction of the guard relation "
        "(default 0.01 = 1%%)",
    )

    trace = subparsers.add_parser(
        "trace",
        help="trace one workload end to end and export the span tree",
        description="Trace one workload end to end and export the span tree. "
        "Runs on the parallel backend by default, so worker-side spans "
        "appear in the trace, with 2 workers unless --workers/--shards "
        "says otherwise.",
        parents=_shared(
            "workload-id", "workload", "seed", "nodes", "strategy", "backend", "export"
        ),
    )
    trace.set_defaults(guard_tuples=500, backend="parallel", trace=True)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential-fuzz the strategies and backends",
        description="Differential-fuzz the strategies and backends: every "
        "applicable strategy, AUTO and dynamic re-planning, on every backend, "
        "serial twice (interpreted and serial+kernel); answers and simulated "
        "metrics must agree. "
        "--backend takes one backend, 'both' (serial+parallel) or 'all' "
        "(every backend name: serial+parallel+sharded, the default).",
        parents=_shared("seed", "backend", backends=(*BACKEND_NAMES, "both", "all")),
    )
    fuzz.set_defaults(backend="all")
    fuzz.add_argument(
        "--iterations", type=int, default=100, help="number of random cases"
    )
    fuzz.add_argument(
        "--max-statements",
        type=int,
        default=4,
        help="maximum statements per generated program",
    )
    fuzz.add_argument(
        "--max-tuples",
        type=int,
        default=12,
        help="maximum tuples per generated relation",
    )
    fuzz.add_argument(
        "--profile",
        default="mixed",
        choices=list(PROFILE_NAMES),
        help="data-value profile for generated databases (default mixed)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw counterexamples without greedy shrinking",
    )
    fuzz.add_argument(
        "--keep-going",
        action="store_true",
        help="continue the campaign after the first divergence",
    )
    fuzz.add_argument(
        "--incremental",
        action="store_true",
        help="incremental oracle mode: apply a random insert batch per case "
        "and require incremental refresh == full recompute for a "
        "materialization built by every strategy on the first backend",
    )
    fuzz.add_argument(
        "--artifact",
        help="write the first counterexample's repro script to this file",
    )
    return parser


# -- what every subcommand builds the same way ------------------------------------------


def _options_from_args(args: argparse.Namespace) -> GumboOptions:
    """The :class:`GumboOptions` a subcommand's flags select.

    Works with any subcommand's namespace: flags a subcommand does not
    define keep the defaults.  ``--trace-out`` implies tracing.
    """
    given = vars(args)
    defaults = GumboOptions()
    return GumboOptions(
        message_packing=not given.get("no_packing", False),
        tuple_reference=not given.get("no_tuple_reference", False),
        backend=given.get("backend") or defaults.backend,
        workers=given.get("workers"),
        shards=given.get("shards"),
        default_strategy=given.get("strategy") or defaults.default_strategy,
        kernel_mode=given.get("kernel_mode") or defaults.kernel_mode,
        trace=bool(given.get("trace") or given.get("trace_out")),
    )


def _gumbo_for(args: argparse.Namespace, **options: object) -> Gumbo:
    """The Gumbo a subcommand's flags select (*options* override them), on
    a paper cluster of ``--nodes`` nodes."""
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    return Gumbo(
        engine=environment.engine(),
        cost_model=vars(args).get("cost_model", "gumbo"),
        options=replace(_options_from_args(args), **options),
    )


def _workload(
    ids: Sequence[str], args: argparse.Namespace
) -> Tuple[List[SGFQuery], Database]:
    """The paper workload queries *ids* and one database generated for all
    of them by the ``--guard-tuples`` / ``--selectivity`` / ``--seed`` flags."""
    queries = [workload_query(query_id) for query_id in ids]
    arities: Dict[str, int] = {}
    for query in queries:
        for subquery in query:
            for atom in (subquery.guard, *subquery.conditional_atoms):
                known = arities.setdefault(atom.relation, atom.arity)
                if known != atom.arity:
                    raise SystemExit(
                        f"workloads {', '.join(ids)} disagree on the arity of "
                        f"relation {atom.relation!r} ({known} vs {atom.arity}); "
                        f"serve them separately"
                    )
    database = database_for(
        [subquery for query in queries for subquery in query],
        guard_tuples=args.guard_tuples,
        selectivity=args.selectivity,
        seed=args.seed,
    )
    return queries, database


def _insert_batch(
    database: Database, query: SGFQuery, count: int, seed: int
) -> Dict[str, List[tuple]]:
    """A mixed batch of *count* inserts for *query*'s first statement.

    Half the batch is fresh guard rows (values beyond the stored domain, so
    they are genuinely new); the other half inserts into the first
    conditional relation join-key values drawn from stored guard rows, so
    existing guard tuples flip.
    """
    rng = random.Random(f"repro-delta-cli:{seed}")
    first = query.subqueries[0]
    guard_name = first.guard.relation
    guard_relation = database[guard_name]
    stored = guard_relation.sorted_tuples()
    ceiling = 1 + max(
        (v for row in stored for v in row if isinstance(v, int)), default=0
    )
    batch: Dict[str, List[tuple]] = {
        guard_name: [
            tuple(
                ceiling + rng.randrange(10 * count)
                for _ in range(guard_relation.arity)
            )
            for _ in range(count - count // 2)
        ]
    }
    conditionals = [
        atom
        for atom in first.conditional_atoms
        if atom.relation != guard_name and atom.relation in database
    ]
    if conditionals and count // 2:
        atom = conditionals[0]
        relation = database[atom.relation]
        keys = [rng.choice(stored)[0] for _ in range(count // 2)]
        batch[atom.relation] = [
            (key,) * relation.arity if relation.arity > 1 else (key,)
            for key in keys
        ]
    return batch


def _mismatches(
    gumbo: Gumbo,
    database: Database,
    requests: Sequence[SGFQuery],
    batch: BatchResult,
) -> int:
    """How many of *batch*'s answers differ, in any output, from a direct
    Gumbo execution of the request each one answers (failed requests have
    no answer; ``BatchFailure.index`` keeps the others paired)."""

    def answers(result: GumboResult) -> Dict[str, object]:
        return {name: rel.tuples() for name, rel in result.all_outputs.items()}

    failed = {failure.index for failure in batch.failures}
    answered = [query for index, query in enumerate(requests) if index not in failed]
    return sum(
        answers(gumbo.execute(query, database, served.strategy))
        != answers(served.result)
        for query, served in zip(answered, batch.results)
    )


def _export(
    args: argparse.Namespace,
    registries: Sequence[object] = (),
    traces: Optional[list] = None,
) -> None:
    """Write the spans (*traces*, by default every completed trace) and the
    metrics that ``--trace-out`` / ``--metrics-out`` ask for."""
    if traces is None:
        traces = obs.drain_traces()
    if args.trace_out:
        if args.trace_format == "jsonl":
            count = obs.write_spans_jsonl(obs.spans_of(traces), args.trace_out)
            checked = ""
        else:
            count = obs.write_chrome_trace(traces, args.trace_out)
            checked = f", {obs.validate_chrome_trace(args.trace_out)} validated"
        print(
            f"wrote {count} spans ({args.trace_format}{checked}) "
            f"to {args.trace_out}"
        )
    if args.metrics_out:
        obs.write_prometheus(obs.registries_for_export(registries), args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")


def _read_query_text(args: argparse.Namespace) -> str:
    if args.query:
        return args.query
    with open(args.query_file) as handle:
        return handle.read()


def _describe_program(program) -> str:
    lines = [
        f"MR program {program.name!r}: {len(program)} jobs, "
        f"{program.rounds()} rounds"
    ]
    for level_index, level in enumerate(program.levels()):
        for job in level:
            inputs = ", ".join(job.input_relations())
            outputs = ", ".join(job.output_schema())
            lines.append(
                f"  round {level_index}: {type(job).__name__}[{job.job_id}] "
                f"reads({inputs}) writes({outputs})"
            )
    return "\n".join(lines)


# -- subcommands ---------------------------------------------------------------------


def _command_query(args: argparse.Namespace) -> int:
    database = load_database(args.data)
    query = parse_sgf(_read_query_text(args))
    with _gumbo_for(args) as gumbo:
        if args.show_plan:
            planned = gumbo.plan_with(query, database, args.strategy)
            print(_describe_program(planned.program))
            print()
        result = gumbo.execute(query, database, args.strategy)
    print(f"strategy: {result.strategy}")
    print(f"backend: {result.metrics.backend}")
    for key, value in result.summary().items():
        print(f"{key}: {value:.3f}")
    print(f"wall_clock_s: {result.metrics.wall_elapsed_s:.3f}")
    for name in sorted(result.outputs):
        relation = result.outputs[name]
        print(f"{name}: {len(relation)} tuples")
        for row in relation.sorted_tuples()[:20]:
            print("   ", row)
        if len(relation) > 20:
            print(f"    ... ({len(relation) - 20} more)")
    if args.output_dir:
        written = save_database(Database(result.outputs.values()), args.output_dir)
        print("wrote:", ", ".join(written))
    _export(args)
    return 0


def _command_plan(args: argparse.Namespace) -> int:
    database = load_database(args.data)
    query = parse_sgf(_read_query_text(args))
    with _gumbo_for(args) as gumbo:
        planned = gumbo.plan_with(query, database, args.strategy)
    print(_describe_program(planned.program))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    query_id = args.query_id.upper()
    _, database = _workload([query_id], args)
    paths = save_database(database, args.output_dir)
    print(f"generated {len(paths)} relations for {query_id} in {args.output_dir}:")
    for path in paths:
        print("   ", path)
    return 0


def _command_auto(args: argparse.Namespace) -> int:
    """Print the per-strategy estimated costs and the AUTO winner."""
    [query], database = _workload([args.query_id], args)
    with _gumbo_for(args) as gumbo:
        choice = choose_strategy(
            Gumbo.as_sgf(query),
            gumbo.estimator(database),
            gumbo.options,
            include_optimal=not args.no_optimal,
        )
    print(
        f"workload {args.query_id.upper()} ({args.guard_tuples} guard tuples), "
        f"cost model {args.cost_model}, {args.nodes} nodes"
    )
    print(choice.describe())
    if args.show_plan:
        print()
        print(_describe_program(choice.program))
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve repeated workload queries through the plan-caching service
    (with ``--sharded``, on the sharded tier under its admission limits)."""
    ids = [part.strip().upper() for part in args.query_ids.split(",") if part.strip()]
    if not ids:
        raise SystemExit("no workload ids given")
    queries, database = _workload(ids, args)
    requests = [queries[i % len(queries)] for i in range(args.requests)]
    shards = 2 if args.shards is None else args.shards
    tier = {"backend": "sharded", "shards": shards} if args.sharded else {}
    limits = (
        {"max_queue": args.max_queue, "request_timeout_s": args.request_timeout}
        if args.sharded
        else {}
    )
    tier_report = ""
    with _gumbo_for(args, **tier) as gumbo, QueryService(
        database,
        gumbo,
        strategy=args.strategy,
        plan_cache_size=args.plan_cache,
        max_workers=args.clients,
        **limits,
    ) as service:
        if args.incremental:
            for query in queries:
                service.materialize(query)
        batch = service.execute_many(requests)
        failures = list(batch.failures)
        if args.verify:
            mismatches = _mismatches(gumbo, database, requests, batch)
        if args.incremental:
            inserts = _insert_batch(
                database, queries[0], max(1, args.insert_tuples), args.seed
            )
            refresh_start = perf_counter()
            deltas = [
                delta
                for relation, rows in inserts.items()
                for delta in service.add_tuples(relation, rows, incremental=True)
            ]
            refresh_s = perf_counter() - refresh_start
            rerun = service.execute_many(requests)
            failures += rerun.failures
            stale = _mismatches(gumbo, database, requests, rerun)
        stats = service.stats()
        snapshot = service.stats_snapshot()
        if args.sharded:
            cluster = gumbo.backend.cluster
            tier_report = (
                f"  sharded tier:        {cluster.shards} shards, queue "
                f"{args.max_queue}, {cluster.respawns} worker respawns "
                f"({cluster.retries} request retries)"
            )

    if args.stats_json is not None:
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.stats_json == "-":
            print(payload)
        else:
            with open(args.stats_json, "w") as handle:
                handle.write(payload + "\n")
            print(f"wrote service stats to {args.stats_json}")
    _export(args, registries=[service.metrics])

    strategies_run: Dict[str, int] = {}
    for result in batch.results:
        strategies_run[result.strategy] = strategies_run.get(result.strategy, 0) + 1
    print(
        f"served {len(batch.results)}/{len(requests)} requests over {', '.join(ids)} "
        f"({args.clients} clients, plan cache {args.plan_cache})"
    )
    if failures:
        print(f"  failed:              {len(failures)} (first: {failures[0].error})")
    print(f"  elapsed:             {batch.elapsed_s:.3f}s "
          f"({batch.throughput_qps:.1f} queries/s)")
    print(f"  plan-cache hit rate: {stats.plan_cache.hit_rate:.0%} "
          f"({stats.plan_cache.hits} hits / {stats.plan_cache.misses} misses)")
    print(f"  planning time:       {sum(r.plan_s for r in batch.results):.3f}s total")
    print(f"  execution time:      {sum(r.exec_s for r in batch.results):.3f}s total")
    strategies = ", ".join(
        f"{name}×{count}" for name, count in sorted(strategies_run.items())
    )
    print(f"  strategies run:      {strategies}")
    latency = service.metrics.histogram("repro_service_request_seconds").summary()
    print(f"  latency p50/p95/p99: {latency['p50'] * 1e3:.1f} / "
          f"{latency['p95'] * 1e3:.1f} / {latency['p99'] * 1e3:.1f} ms")
    shed = service.metrics.counter("repro_service_shed_total").value
    timed_out = service.metrics.counter("repro_service_timeouts_total").value
    print(f"  shed / timed out:    {shed:.0f} / {timed_out:.0f}")
    if tier_report:
        print(tier_report)
    wrong = 0
    if args.incremental:
        print(
            f"  materialized:        {stats.materialized_results} result(s), "
            f"{stats.materialized_hits} served from materialization, "
            f"{stats.incremental_refreshes} incremental refresh(es)"
        )
        print(f"  insert batch:        {sum(map(len, inserts.values()))} tuples "
              f"into {', '.join(inserts)} (incremental, no invalidation)")
        print(f"  delta refresh:       {refresh_s * 1e3:.3f} ms, "
              f"+{sum(d.added_count() for d in deltas)}"
              f"/-{sum(d.removed_count() for d in deltas)} output tuples")
        print(f"  re-serve:            {rerun.throughput_qps:.1f} queries/s "
              f"(all from refreshed materializations)")
        verdict = "refreshed results match direct execution"
        print(f"  verification:        {f'{stale} MISMATCH(ES)' if stale else verdict}")
        wrong += stale
    if args.verify:
        verdict = f"all match ({len(batch.results)} answers)"
        print(f"  verification:        "
              f"{f'{mismatches} MISMATCH(ES)' if mismatches else verdict}")
        wrong += mismatches
    # Shed and timed-out requests are admission control working as designed.
    refused = sum(isinstance(f.exception, ServiceError) for f in failures)
    return 1 if len(failures) > refused or wrong else 0


def _command_delta(args: argparse.Namespace) -> int:
    """Materialize a workload, refresh it incrementally, race a recompute."""
    [query], database = _workload([args.query_id], args)
    guard = database[query.subqueries[0].guard.relation]
    batch = _insert_batch(
        database, query, max(2, int(len(guard) * args.insert_fraction)), args.seed
    )
    inserted = sum(len(rows) for rows in batch.values())
    with _gumbo_for(args) as gumbo:
        # Full re-execution path: statistics + planning + run on the
        # post-batch database (what an invalidating service would do).
        recompute_db = database.copy()
        apply_inserts(recompute_db, dedupe_inserts(recompute_db, batch))
        full_start = perf_counter()
        full = gumbo.execute(query, recompute_db, args.strategy)
        full_s = perf_counter() - full_start

        # Incremental path: materialize once, refresh with the delta.
        materialization = gumbo.materialize(query, database, args.strategy)
        delta = gumbo.execute_delta(materialization, batch)

    expected = {
        name: frozenset(rel.tuples()) for name, rel in full.all_outputs.items()
    }
    matches = materialization.answers() == expected
    speedup = full_s / delta.wall_s if delta.wall_s > 0 else float("inf")
    print(
        f"workload {args.query_id.upper()} "
        f"({args.guard_tuples} guard tuples, strategy {full.strategy}, "
        f"backend {args.backend})"
    )
    print(f"  insert batch:          {inserted} tuples over "
          f"{', '.join(sorted(batch))}")
    print(f"  affected guard tuples: {delta.affected_guard_tuples}")
    print(f"  output delta:          +{delta.added_count()} / "
          f"-{delta.removed_count()} tuples")
    print(f"  full re-execution:     {full_s * 1e3:9.3f} ms")
    print(f"  incremental refresh:   {delta.wall_s * 1e3:9.3f} ms")
    print(f"  speedup:               {speedup:9.1f}x")
    print(f"  outputs identical:     {'yes' if matches else 'NO'}")
    _export(args)
    return 0 if matches else 1


def _command_trace(args: argparse.Namespace) -> int:
    """Trace one workload twice through the service and export the spans."""
    [query], database = _workload([args.query_id], args)
    width = {"workers": 2} if args.workers is None and args.shards is None else {}
    obs.drain_traces()  # start from a clean collector
    with _gumbo_for(args, **width) as gumbo, QueryService(
        database, gumbo, strategy=args.strategy
    ) as service:
        miss = service.execute(query)
        hit = service.execute(query)
    traces = obs.drain_traces()

    print(
        f"workload {args.query_id.upper()} "
        f"({args.guard_tuples} guard tuples, strategy {miss.strategy}, "
        f"backend {args.backend})"
    )
    labels = ["request 1 (planning miss):", "request 2 (plan-cache hit):"]
    for label, tracer in zip(labels, traces):
        print()
        print(label)
        print(obs.format_trace(tracer))
    assert hit.plan_cached, "second request should hit the plan cache"
    _export(args, registries=[service.metrics], traces=traces)
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    """Run a differential-fuzzing campaign and report any counterexample."""
    backends = {"all": tuple(BACKEND_NAMES), "both": ("serial", "parallel")}.get(
        args.backend, (args.backend,)
    )
    config = FuzzConfig(
        max_statements=args.max_statements,
        max_tuples=args.max_tuples,
        profile=args.profile,
    )
    options = FuzzOptions(
        seed=args.seed,
        iterations=args.iterations,
        config=config,
        backends=backends,
        workers=args.workers,
        shards=args.shards,
        shrink=not args.no_shrink,
        stop_on_failure=not args.keep_going,
        incremental=args.incremental,
    )
    report = run_fuzz(options)
    print(report.format())
    for counterexample in report.counterexamples:
        print()
        print(counterexample.describe())
        print()
        print("repro script:")
        print(counterexample.script())
    if report.counterexamples and args.artifact:
        with open(args.artifact, "w") as handle:
            handle.write(report.counterexamples[0].script())
        print(f"wrote repro script to {args.artifact}")
    if report.ok:
        oracle_kind = (
            "incremental refreshes agree with full recomputes"
            if args.incremental
            else "combinations agree with the reference evaluator"
        )
        print(
            f"all {report.combinations_checked} strategy x backend {oracle_kind}, "
            f"and the SQL oracle on {report.cases_run - report.sql_skipped} cases"
        )
    return 0 if report.ok else 1


def _command_experiment(args: argparse.Namespace) -> int:
    environment = ScaledEnvironment(scale=args.scale, nodes=args.nodes)
    names = sorted(_EXPERIMENTS) + ["table3"] if args.name == "all" else [args.name]
    for name in names:
        if name == "table3":
            result = run_table3(environment)
            print(result.format())
            print(format_table3(result))
        else:
            print(_EXPERIMENTS[name](environment).format())
            print()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "query": _command_query,
        "plan": _command_plan,
        "auto": _command_auto,
        "serve": _command_serve,
        "generate": _command_generate,
        "experiment": _command_experiment,
        "fuzz": _command_fuzz,
        "delta": _command_delta,
        "trace": _command_trace,
    }
    return commands[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
