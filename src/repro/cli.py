"""Command-line interface: run queries, inspect plans, reproduce experiments.

The subcommands (``python -m repro <command> --help``):

``query``
    Evaluate an SGF query (from a string or a file) over CSV data (a directory
    with one file per relation) under a chosen strategy and execution backend
    (``--backend serial|parallel|sharded --workers N --shards N``), print
    the metrics and optionally write the output relations back to CSV.
    ``--strategy auto`` picks the cheapest applicable strategy by estimated
    cost.

``plan``
    Show the MapReduce plan (jobs, rounds, partition of the semi-joins) that a
    strategy would produce for a query, without executing it.

``auto``
    Cost-based strategy selection, made visible: for one of the paper's
    workload queries, plan every applicable strategy, print the estimated
    cost of each candidate and the winner AUTO would run.

``serve``
    Run the plan-caching :class:`~repro.service.QueryService` over a stream
    of repeated workload queries with concurrent clients, and print serving
    metrics (throughput, plan-cache hit rate, strategies chosen).
    ``--sharded --shards N`` serves the stream through the persistent
    sharded tier instead: an asyncio front-end with admission control
    (bounded queue, shed + timeout errors) over long-lived worker-shard
    processes, printing latency percentiles and shed/respawn counts.

``generate``
    Generate the synthetic workload of one of the paper's experiment queries
    (A1–A5, B1–B2, C1–C4) as CSV files, for use with ``query``.

``experiment``
    Run one of the paper's experiments (figure3, figure4, figure5, figure7a,
    figure7b, figure7c, figure8, table3, costmodel, ablation, or ``all``) and
    print the same tables the benchmark harness prints.

``fuzz``
    Run a seeded differential-fuzzing campaign: random (B)SGF programs and
    databases, each evaluated with the reference evaluator (cross-checked
    by a query-level sqlite3 translation) and with every applicable strategy
    on every selected backend (serial and parallel by default, plus the
    dynamic executor).
    Divergences are shrunk to minimal counterexamples and
    printed as standalone repro scripts; the exit code is non-zero when any
    divergence was found.  ``--incremental`` switches to the incremental
    oracle: every case additionally gets a random insert batch, and the
    incremental refresh of a materialization built by every strategy must
    equal a full recompute.

``delta``
    Incremental delta evaluation, head to head: materialize a paper workload
    query, apply a small insert batch incrementally, and compare the refresh
    time against a full re-execution (statistics + planning + run) — while
    verifying the refreshed output matches the recomputed one exactly.

``trace``
    End-to-end tracing demo (see :mod:`repro.obs`): run one paper workload
    through the query service twice (a planning miss, then a plan-cache hit),
    print both span trees — request → plan/cache-hit → program → job →
    shard_fanout → worker-side tasks — and write a validated Chrome
    trace-event file.

``query``/``serve``/``delta`` additionally accept ``--trace``,
``--trace-out PATH``, ``--trace-format chrome|jsonl`` and
``--metrics-out PATH`` to record spans and export them (Chrome trace-event
JSON loads in Perfetto / ``chrome://tracing``; ``--metrics-out`` writes the
Prometheus text exposition of the metrics registries).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from . import obs
from .core.gumbo import Gumbo
from .core.options import GumboOptions
from .obs.options import TRACE_FORMATS, ObsOptions
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
from .io import load_database, save_database
from .query.parser import parse_sgf
from .service import QueryService
from .workloads.queries import (
    bsgf_query_set,
    database_for,
    sgf_query,
    workload_query,
)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gumbo: parallel evaluation of multi-semi-joins (paper reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="evaluate an SGF query over CSV data")
    _add_query_arguments(query)
    _add_obs_arguments(query)
    query.add_argument(
        "--output-dir", help="write the query's output relations to this directory"
    )
    query.add_argument(
        "--show-plan", action="store_true", help="also print the chosen MR plan"
    )

    plan = subparsers.add_parser("plan", help="show the MR plan without executing it")
    _add_query_arguments(plan)

    generate = subparsers.add_parser(
        "generate", help="generate a paper workload as CSV files"
    )
    generate.add_argument("query_id", help="A1-A5, B1-B2 or C1-C4")
    generate.add_argument("output_dir", help="directory to write the CSV files to")
    generate.add_argument("--guard-tuples", type=int, default=10_000)
    generate.add_argument("--selectivity", type=float, default=0.5)
    generate.add_argument("--seed", type=int, default=0)

    experiment = subparsers.add_parser(
        "experiment", help="reproduce one of the paper's experiments"
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
    experiment.add_argument("--nodes", type=int, default=10, help="cluster size")

    auto = subparsers.add_parser(
        "auto", help="show the cost-based strategy choice for a paper workload"
    )
    auto.add_argument("query_id", help="A1-A5, B1-B2 or C1-C4")
    auto.add_argument("--guard-tuples", type=int, default=5_000)
    auto.add_argument("--selectivity", type=float, default=0.5)
    auto.add_argument("--seed", type=int, default=0)
    auto.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
    auto.add_argument(
        "--cost-model",
        default="gumbo",
        choices=["gumbo", "wang"],
        help="cost model driving the comparison (default gumbo)",
    )
    auto.add_argument(
        "--no-optimal",
        action="store_true",
        help="exclude the brute-force OPTIMAL strategies from the candidates",
    )
    auto.add_argument(
        "--show-plan", action="store_true", help="also print the winning MR plan"
    )

    serve = subparsers.add_parser(
        "serve", help="serve repeated workload queries through the query service"
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
        "--strategy",
        default="auto",
        help="strategy served when a request does not name one (default auto)",
    )
    serve.add_argument(
        "--sharded",
        action="store_true",
        help="serve through the sharded persistent tier: an asyncio "
        "front-end with admission control over long-lived worker shards "
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
    serve.add_argument("--guard-tuples", type=int, default=2_000)
    serve.add_argument("--selectivity", type=float, default=0.5)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
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
    _add_obs_arguments(serve)

    delta = subparsers.add_parser(
        "delta", help="incremental delta refresh vs full re-execution"
    )
    delta.add_argument(
        "--query-id", default="A3", help="paper workload (A1-A5, B1-B2, C1-C4)"
    )
    delta.add_argument("--guard-tuples", type=int, default=4_000)
    delta.add_argument("--selectivity", type=float, default=0.5)
    delta.add_argument("--seed", type=int, default=0)
    delta.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
    delta.add_argument(
        "--strategy",
        default="auto",
        help="strategy for the materialized run and the recompute (default auto)",
    )
    _add_backend_arguments(delta, default="serial")
    delta.add_argument(
        "--insert-fraction",
        type=float,
        default=0.01,
        help="insert batch size as a fraction of the guard relation "
        "(default 0.01 = 1%%)",
    )
    _add_obs_arguments(delta)

    trace = subparsers.add_parser(
        "trace",
        help="trace one workload end to end and export the span tree",
        description="Trace one workload end to end and export the span tree. "
        "Runs on the parallel backend by default, so worker-side spans "
        "appear in the trace, with 2 workers unless --workers/--shards "
        "says otherwise.",
    )
    trace.add_argument("query_id", help="A1-A5, B1-B2 or C1-C4")
    trace.add_argument("--guard-tuples", type=int, default=500)
    trace.add_argument("--selectivity", type=float, default=0.5)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
    trace.add_argument(
        "--strategy",
        default="auto",
        help="strategy served for both requests (default auto)",
    )
    _add_backend_arguments(trace, default="parallel")
    trace.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the spans to PATH (validated Chrome trace-event "
        "JSON, or JSONL with --trace-format jsonl)",
    )
    trace.add_argument(
        "--trace-format",
        default="chrome",
        choices=list(TRACE_FORMATS),
        help="span export format for --trace-out (default chrome)",
    )
    trace.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the Prometheus text exposition of the metrics "
        "registries to PATH",
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential-fuzz the strategies and backends",
        description="Differential-fuzz the strategies and backends. "
        "--backend takes one backend, 'both' (serial+parallel) or 'all' "
        "(every backend name: serial+parallel+sharded, the default).",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
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
    _add_backend_arguments(fuzz, default="all", choices=[*BACKEND_NAMES, "both", "all"])
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw counterexamples without greedy shrinking",
    )
    fuzz.add_argument(
        "--no-dynamic",
        action="store_true",
        help="skip the dynamic re-planning executor",
    )
    fuzz.add_argument(
        "--no-auto",
        action="store_true",
        help="skip the cost-based AUTO meta-strategy",
    )
    fuzz.add_argument(
        "--no-kernel-axis",
        action="store_true",
        help="skip the serial backend's batch-kernel axis (serial+kernel)",
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


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (``repro.obs`` exports)."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans: one trace per request/run (see repro.obs)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the collected spans to PATH after the run (implies --trace)",
    )
    parser.add_argument(
        "--trace-format",
        default="chrome",
        choices=list(TRACE_FORMATS),
        help="span export format: chrome (trace-event JSON, loads in "
        "Perfetto / chrome://tracing) or jsonl (default chrome)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the Prometheus text exposition of the metrics "
        "registries to PATH",
    )


def _obs_options(args: argparse.Namespace) -> ObsOptions:
    return ObsOptions(
        trace=getattr(args, "trace", False),
        trace_out=getattr(args, "trace_out", None),
        trace_format=getattr(args, "trace_format", "chrome"),
        metrics_out=getattr(args, "metrics_out", None),
    )


def _export_obs(obs_options: ObsOptions, registries: Sequence[object] = ()) -> None:
    """Drain completed traces and write the requested export files."""
    if not (obs_options.tracing or obs_options.metrics_out):
        return
    traces = obs.drain_traces()
    if obs_options.trace_out:
        if obs_options.trace_format == "jsonl":
            count = obs.write_spans_jsonl(
                obs.spans_of(traces), obs_options.trace_out
            )
        else:
            count = obs.write_chrome_trace(traces, obs_options.trace_out)
        print(
            f"wrote {count} spans ({obs_options.trace_format}) "
            f"to {obs_options.trace_out}"
        )
    if obs_options.metrics_out:
        obs.write_prometheus(
            obs.registries_for_export(registries), obs_options.metrics_out
        )
        print(f"wrote metrics to {obs_options.metrics_out}")


def _add_backend_arguments(
    parser: argparse.ArgumentParser,
    default: str,
    choices: Sequence[str] = BACKEND_NAMES,
) -> None:
    """``--backend`` / ``--workers`` / ``--shards`` for a subcommand that
    runs plans (the width is checked where the backend is built)."""
    parser.add_argument(
        "--backend",
        default=default,
        choices=list(choices),
        help="execution backend: serial simulation or the multi-process "
        f"runtime under either of its names (default {default})",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of the multi-process backend (default: CPU "
        "count under the name parallel, 2 under sharded)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="another spelling of --workers (give one, or the same value "
        "for both)",
    )


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--query", help="the SGF query text")
    source.add_argument("--query-file", help="file containing the SGF query")
    parser.add_argument(
        "--data",
        required=True,
        help="directory with one CSV/TSV file per relation",
    )
    parser.add_argument(
        "--strategy",
        default="greedy",
        help="seq, par, greedy, 1-round, sequnit, parunit, greedy-sgf, or "
        "auto for cost-based selection (default greedy)",
    )
    parser.add_argument(
        "--cost-model",
        default="gumbo",
        choices=["gumbo", "wang"],
        help="cost model driving plan choice (default gumbo)",
    )
    parser.add_argument("--nodes", type=int, default=10, help="simulated cluster size")
    _add_backend_arguments(parser, default="serial")
    parser.add_argument(
        "--no-packing", action="store_true", help="disable message packing"
    )
    parser.add_argument(
        "--no-tuple-reference", action="store_true", help="disable tuple references"
    )
    parser.add_argument(
        "--kernel-mode",
        default="auto",
        choices=list(KERNEL_MODES),
        help="batch-kernel execution path: auto (kernel wherever the job "
        "has one, on every backend) or off (always interpret); outputs and "
        "simulated metrics are identical in both modes (default auto)",
    )


def _read_query_text(args: argparse.Namespace) -> str:
    if args.query:
        return args.query
    with open(args.query_file) as handle:
        return handle.read()


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


def _gumbo_for(args: argparse.Namespace) -> Gumbo:
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    return Gumbo(
        engine=environment.engine(),
        cost_model=args.cost_model,
        options=_options_from_args(args),
    )


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


def _command_query(args: argparse.Namespace) -> int:
    database = load_database(args.data)
    query = parse_sgf(_read_query_text(args))
    gumbo = _gumbo_for(args)
    try:
        if args.show_plan:
            program = gumbo.plan(query, database, args.strategy)
            print(_describe_program(program))
            print()
        result = gumbo.execute(query, database, args.strategy)
    finally:
        gumbo.close()
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
        written = save_database_like(result.outputs, args.output_dir)
        print("wrote:", ", ".join(written))
    _export_obs(_obs_options(args))
    return 0


def save_database_like(relations: Dict[str, object], directory: str) -> List[str]:
    """Persist a name→relation mapping as CSV files (helper for the CLI)."""
    from .model.database import Database

    database = Database()
    for relation in relations.values():
        database.add_relation(relation)
    return save_database(database, directory)


def _command_plan(args: argparse.Namespace) -> int:
    database = load_database(args.data)
    query = parse_sgf(_read_query_text(args))
    gumbo = _gumbo_for(args)
    program = gumbo.plan(query, database, args.strategy)
    print(_describe_program(program))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    query_id = args.query_id.upper()
    if query_id.startswith("C"):
        queries = sgf_query(query_id)
    else:
        queries = bsgf_query_set(query_id)
    database = database_for(
        queries,
        guard_tuples=args.guard_tuples,
        selectivity=args.selectivity,
        seed=args.seed,
    )
    paths = save_database(database, args.output_dir)
    print(f"generated {len(paths)} relations for {query_id} in {args.output_dir}:")
    for path in paths:
        print("   ", path)
    return 0


def _command_auto(args: argparse.Namespace) -> int:
    """Print the per-strategy estimated costs and the AUTO winner."""
    query = workload_query(args.query_id)
    database = database_for(
        query,
        guard_tuples=args.guard_tuples,
        selectivity=args.selectivity,
        seed=args.seed,
    )
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    gumbo = Gumbo(engine=environment.engine(), cost_model=args.cost_model)
    choice = gumbo.choose(query, database, include_optimal=not args.no_optimal)
    print(
        f"workload {args.query_id.upper()} ({args.guard_tuples} guard tuples), "
        f"cost model {args.cost_model}, {args.nodes} nodes"
    )
    print(choice.describe())
    if args.show_plan:
        print()
        print(_describe_program(choice.program))
    return 0


def _serve_workload(ids: Sequence[str], args: argparse.Namespace):
    """The queries and merged database for a ``repro serve`` session."""
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
    all_subqueries = [subquery for query in queries for subquery in query]
    database = database_for(
        all_subqueries,
        guard_tuples=args.guard_tuples,
        selectivity=args.selectivity,
        seed=args.seed,
    )
    return queries, database


def _command_serve_sharded(args: argparse.Namespace) -> int:
    """Serve an open-loop query stream through the sharded persistent tier."""
    import asyncio

    from .service.sharded import (
        RequestTimeoutError,
        ServiceOverloadedError,
        ShardedService,
    )

    ids = [part.strip().upper() for part in args.query_ids.split(",") if part.strip()]
    if not ids:
        raise SystemExit("no workload ids given")
    queries, database = _serve_workload(ids, args)
    requests = [queries[i % len(queries)] for i in range(args.requests)]
    options = replace(_options_from_args(args), backend="sharded")
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    obs_options = _obs_options(args)
    shards = args.shards if args.shards is not None else 2
    latencies: List[float] = []
    shed = timeouts = 0

    async def _client(frontend, query) -> Optional[str]:
        nonlocal shed, timeouts
        start = perf_counter()
        try:
            result = await frontend.execute(query)
        except ServiceOverloadedError:
            shed += 1
            return None
        except RequestTimeoutError:
            timeouts += 1
            return None
        latencies.append(perf_counter() - start)
        return result.strategy

    async def _drive(frontend) -> List[Optional[str]]:
        return list(
            await asyncio.gather(*[_client(frontend, q) for q in requests])
        )

    start = perf_counter()
    with ShardedService.create(
        database,
        shards=shards,
        engine=environment.engine(),
        strategy=args.strategy,
        plan_cache_size=args.plan_cache,
        options=options,
        max_concurrency=args.clients,
        max_queue=args.max_queue,
        request_timeout_s=args.request_timeout,
    ) as frontend:
        strategies = asyncio.run(_drive(frontend))
        elapsed = perf_counter() - start
        front_stats = frontend.stats()
        service_stats = frontend.service.stats()
        cluster = frontend.service.gumbo.backend.cluster
        respawns, retries = cluster.respawns, cluster.retries
        service_registry = frontend.service.metrics
    _export_obs(obs_options, registries=[service_registry])

    served = [s for s in strategies if s is not None]
    print(
        f"served {len(served)}/{len(requests)} requests over {', '.join(ids)} "
        f"(sharded tier: {shards} shards, {args.clients} concurrent, "
        f"queue {args.max_queue})"
    )
    print(f"  elapsed:             {elapsed:.3f}s "
          f"({len(served) / elapsed if elapsed > 0 else 0.0:.1f} queries/s)")
    if latencies:
        ordered = sorted(latencies)

        def pct(p: float) -> float:
            return ordered[min(len(ordered) - 1, int(p * len(ordered)))]

        print(f"  latency p50/p95/p99: {pct(0.50) * 1e3:.1f} / "
              f"{pct(0.95) * 1e3:.1f} / {pct(0.99) * 1e3:.1f} ms")
    print(f"  shed / timed out:    {shed} / {timeouts}")
    print(f"  plan-cache hit rate: {service_stats.plan_cache.hit_rate:.0%} "
          f"({service_stats.plan_cache.hits} hits / "
          f"{service_stats.plan_cache.misses} misses)")
    print(f"  worker respawns:     {respawns} ({retries} request retries)")
    print(f"  front-end stats:     {front_stats}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve repeated workload queries through the plan-caching service."""
    if args.sharded:
        return _command_serve_sharded(args)
    ids = [part.strip().upper() for part in args.query_ids.split(",") if part.strip()]
    if not ids:
        raise SystemExit("no workload ids given")
    queries, database = _serve_workload(ids, args)
    requests = [queries[i % len(queries)] for i in range(args.requests)]
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    obs_options = _obs_options(args)
    gumbo = Gumbo(
        engine=environment.engine(),
        options=GumboOptions(trace=obs_options.tracing),
    )
    incremental_report: List[str] = []
    with QueryService(
        database,
        gumbo,
        strategy=args.strategy,
        plan_cache_size=args.plan_cache,
        max_workers=args.clients,
    ) as service:
        if args.incremental:
            for query in queries:
                service.materialize(query)
        batch = service.execute_many(requests)
        if args.incremental:
            guard_name = queries[0].subqueries[0].guard.relation
            guard_relation = database[guard_name]
            ceiling = 1 + max(
                (
                    v
                    for row in guard_relation.sorted_tuples()
                    for v in row
                    if isinstance(v, int)
                ),
                default=0,
            )
            arity = guard_relation.arity
            rows = [
                tuple(ceiling + i * arity + j for j in range(arity))
                for i in range(max(1, args.insert_tuples))
            ]
            refresh_start = perf_counter()
            deltas = service.add_tuples(guard_name, rows, incremental=True)
            refresh_s = perf_counter() - refresh_start
            rerun = service.execute_many(requests)
            verified = all(
                frozenset(result.result.output().tuples())
                == frozenset(
                    gumbo.execute(query, service.database, result.strategy)
                    .output()
                    .tuples()
                )
                for query, result in zip(requests[: len(queries)], rerun.results)
            )
            verdict = (
                "refreshed results match direct execution"
                if verified
                else "MISMATCH"
            )
            incremental_report = [
                f"  insert batch:        {len(rows)} tuples into {guard_name} "
                f"(incremental, no invalidation)",
                f"  delta refresh:       {refresh_s * 1e3:.3f} ms over "
                f"{len(deltas)} materialization(s), "
                f"+{sum(d.added_count() for d in deltas)}"
                f"/-{sum(d.removed_count() for d in deltas)} output tuples",
                f"  re-serve:            {rerun.throughput_qps:.1f} queries/s "
                f"(all from refreshed materializations)",
                f"  verification:        {verdict}",
            ]
            if not verified:
                for line in incremental_report:
                    print(line)
                return 1
        stats = service.stats()
        snapshot = service.stats_snapshot()
        service_registry = service.metrics

    if args.stats_json is not None:
        payload = json.dumps(snapshot, indent=2, sort_keys=True)
        if args.stats_json == "-":
            print(payload)
        else:
            with open(args.stats_json, "w") as handle:
                handle.write(payload + "\n")
            print(f"wrote service stats to {args.stats_json}")
    _export_obs(obs_options, registries=[service_registry])

    strategies_run: Dict[str, int] = {}
    for result in batch.results:
        strategies_run[result.strategy] = strategies_run.get(result.strategy, 0) + 1
    print(
        f"served {len(batch.results)} requests over {', '.join(ids)} "
        f"({args.clients} clients, plan cache {args.plan_cache})"
    )
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
    if incremental_report:
        print(
            f"  materialized:        {stats.materialized_results} result(s), "
            f"{stats.materialized_hits} served from materialization, "
            f"{stats.incremental_refreshes} incremental refresh(es)"
        )
        for line in incremental_report:
            print(line)

    if args.verify:
        mismatches = 0
        for query, result in zip(requests, batch.results):
            reference = gumbo.execute(query, database, result.strategy)
            expected = {
                name: rel.tuples() for name, rel in reference.all_outputs.items()
            }
            got = {
                name: rel.tuples()
                for name, rel in result.result.all_outputs.items()
            }
            if expected != got:
                mismatches += 1
        status = "all match" if mismatches == 0 else f"{mismatches} MISMATCH(ES)"
        print(f"  verification:        {status}")
        return 0 if mismatches == 0 else 1
    return 0


def _insert_batch_for(
    database, query, fraction: float, seed: int
) -> Dict[str, List[tuple]]:
    """A mixed insert batch: new guard tuples + conditional-key flips.

    Half the batch is fresh guard rows (values beyond the stored domain, so
    they are genuinely new); the other half inserts into the first
    conditional relation join-key values drawn from stored guard rows, so
    existing guard tuples flip.  Total size ≈ ``fraction`` of the guard.
    """
    import random as _random

    rng = _random.Random(f"repro-delta-cli:{seed}")
    first = query.subqueries[0]
    guard_name = first.guard.relation
    guard_relation = database[guard_name]
    count = max(2, int(len(guard_relation) * fraction))
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


def _command_delta(args: argparse.Namespace) -> int:
    """Materialize a workload, refresh it incrementally, race a recompute."""
    query = workload_query(args.query_id)
    database = database_for(
        query,
        guard_tuples=args.guard_tuples,
        selectivity=args.selectivity,
        seed=args.seed,
    )
    batch = _insert_batch_for(database, query, args.insert_fraction, args.seed)
    inserted = sum(len(rows) for rows in batch.values())
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    gumbo = Gumbo(engine=environment.engine(), options=_options_from_args(args))
    try:
        # Full re-execution path: statistics + planning + run on the
        # post-batch database (what an invalidating service would do).
        from .incremental import apply_inserts, dedupe_inserts

        recompute_db = database.copy()
        apply_inserts(recompute_db, dedupe_inserts(recompute_db, batch))
        full_start = perf_counter()
        full = gumbo.execute(query, recompute_db, args.strategy)
        full_s = perf_counter() - full_start

        # Incremental path: materialize once, refresh with the delta.
        materialization = gumbo.materialize(query, database, args.strategy)
        delta = gumbo.execute_delta(materialization, batch)
    finally:
        gumbo.close()

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
    _export_obs(_obs_options(args))
    return 0 if matches else 1


def _command_trace(args: argparse.Namespace) -> int:
    """Trace one workload twice through the service and export the spans."""
    query = workload_query(args.query_id)
    database = database_for(
        query,
        guard_tuples=args.guard_tuples,
        selectivity=args.selectivity,
        seed=args.seed,
    )
    options = replace(_options_from_args(args), trace=True)
    if options.workers is None and options.shards is None:
        options = replace(options, workers=2)
    environment = ScaledEnvironment(scale=1.0, nodes=args.nodes)
    gumbo = Gumbo(engine=environment.engine(), options=options)
    obs.drain_traces()  # start from a clean collector
    with QueryService(database, gumbo, strategy=args.strategy) as service:
        miss = service.execute(query)
        hit = service.execute(query)
        service_registry = service.metrics
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

    if args.trace_out:
        if args.trace_format == "jsonl":
            count = obs.write_spans_jsonl(obs.spans_of(traces), args.trace_out)
            print(f"\nwrote {count} spans (jsonl) to {args.trace_out}")
        else:
            count = obs.write_chrome_trace(traces, args.trace_out)
            validated = obs.validate_chrome_trace(args.trace_out)
            print(
                f"\nwrote {count} spans (chrome trace-event JSON, "
                f"{validated} validated) to {args.trace_out}"
            )
    if args.metrics_out:
        obs.write_prometheus(
            obs.registries_for_export([service_registry]), args.metrics_out
        )
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _command_fuzz(args: argparse.Namespace) -> int:
    """Run a differential-fuzzing campaign and report any counterexample."""
    if args.backend == "all":
        backends = tuple(BACKEND_NAMES)
    elif args.backend == "both":
        backends = ("serial", "parallel")
    else:
        backends = (args.backend,)
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
        include_dynamic=not args.no_dynamic,
        include_auto=not args.no_auto,
        kernel_axis=not args.no_kernel_axis,
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
    names: Sequence[str]
    if args.name == "all":
        names = sorted(_EXPERIMENTS) + ["table3"]
    else:
        names = [args.name]
    for name in names:
        if name == "table3":
            result = run_table3(environment)
            print(result.format())
            print(format_table3(result))
            continue
        driver = _EXPERIMENTS[name]
        result = driver(environment)
        print(result.format())
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
