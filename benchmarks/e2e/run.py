"""The end-to-end benchmark of record: six workloads, one command.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed N] [--layers] [--smoke] [--out DIR]

With ``--workload`` one workload runs; without it all six run one after the
other.  ``--trace 0`` (the default) is the end-to-end pass, measured with all
tracing off; ``--trace 1`` is the traced pass that reports the per-layer
metrics; ``--layers`` runs both.  Every metric is printed by name with its
unit, every answer is checked against the reference evaluator, and the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is non-zero on a wrong answer, a
failed request, an overrun deadline, or a process or shared-memory segment
left behind.

This process never imports the program.  Each pass of each workload runs in
a fresh child process (``--child``, see :func:`child_main`) that leads its
own session; :mod:`procs` gives every child a hard deadline and sweeps what
it leaves.  Metric names, units and bounds live in ``BENCHMARK.json`` at the
root of the checkout — the one place they are defined.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from time import perf_counter
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

import procs  # sibling modules: the script's directory is on sys.path
import speed

#: The measured window is cut into this many consecutive segments;
#: throughput and CPU per request are the median of the segment values.
SEGMENTS = 3

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Hard deadline of one child, and of the whole command (the contract's
#: limit is 180 s per run).
CHILD_DEADLINE_S = 90.0
COMMAND_DEADLINE_S = 170.0

#: ``--smoke``: sizes / 20 (see ``workloads.scaled``) and this window.
SMOKE_SECONDS = 0.15


def load_contract() -> dict:
    """``BENCHMARK.json``: workload names, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


# -- the child: one pass of one workload ---------------------------------------------


def measure(workload, seconds: float) -> dict:
    """The end-to-end pass: whole cycles until *seconds* have been measured.

    Three consecutive segments; each is reported at reference machine speed
    (see :mod:`speed`): its times divided, its rate multiplied, by the factor
    the calibration kernel measured between that segment's cycles.
    """
    import workloads

    session = os.getsid(0)
    rec = workloads.Recorder(workload)
    meter = speed.SpeedMeter()
    rates, cpus, tails, latencies, factors = [], [], [], [], []
    cycles = 0
    elapsed = 0.0
    for number in range(1, SEGMENTS + 1):
        gc.collect()
        cpu_before = procs.session_cpu_s(session)
        count_before = rec.count
        samples_before = len(meter.samples)
        wall = 0.0
        while True:
            requests = workload.next_cycle()
            meter.keep_up(elapsed)
            start = perf_counter()
            workload.run_cycle(requests, rec, cycles == 0)
            spent = perf_counter() - start
            wall += spent
            elapsed += spent
            cycles += 1
            if elapsed >= seconds * number / SEGMENTS:
                break
        cpu = procs.session_cpu_s(session) - cpu_before
        factor = meter.factor(samples_before)
        segment = [latency / factor for latency in rec.latencies[count_before:]]
        factors.append(factor)
        rates.append(len(segment) / wall * factor)
        cpus.append(cpu / len(segment) / factor)
        tails.append(percentile(sorted(segment), workload.tail_percentile))
        latencies += segment
        workload.checkpoint(rec)
    peak_rss_mb = procs.session_peak_rss_mb(session)
    rec.verify_kept()
    latencies.sort()
    return {
        "attempted": rec.count,
        "failed": rec.failed,
        "errors": rec.errors[:5],
        "metrics": {
            "requests_per_s": statistics.median(rates),
            "request_p50_ms": percentile(latencies, 50) * 1e3,
            "request_tail_ms": statistics.median(tails) * 1e3,
            "cpu_s_per_request": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "sim_net_time_s": rec.sim_net_s,
            "sim_total_time_s": rec.sim_total_s,
        },
        "info": {
            "cycles": cycles,
            "window_s": elapsed,
            "machine_speed_factors": factors,
            "raw_request_p50_ms": percentile(sorted(rec.latencies), 50) * 1e3,
            "raw_requests_per_s": rec.count / elapsed,
        },
    }


def child_main(args: argparse.Namespace) -> int:
    """``--child setup|measure|trace|both``: inputs, set-up, then the passes."""
    procs.start_parent_watchdog()
    sys.path.insert(0, SRC)
    start = perf_counter()
    import repro  # noqa: F401  (timed: part of what a user pays)
    import workloads

    import_s = perf_counter() - start
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.build()
    result = {"attempted": 0, "failed": 0, "errors": [], "metrics": {}, "info": {}}
    try:
        start = perf_counter()
        workload.setup()
        setup_s = import_s + perf_counter() - start
        meter = speed.SpeedMeter()
        meter.keep_up(0.5)
        result["setup_s"] = setup_s / meter.factor()
        passes = []
        if args.child != "setup":
            workload.compute_references()
        if args.child in ("measure", "both"):
            passes.append(measure(workload, args.seconds))
        if args.child in ("trace", "both"):
            import layers

            passes.append(layers.trace(workload, args.seconds, args.out))
        for done in passes:
            result["attempted"] += done["attempted"]
            result["failed"] += done["failed"]
            result["errors"] += done["errors"]
            result["metrics"].update(done["metrics"])
            result["info"].update(done["info"])
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


# -- the parent: children, sweeps, reporting ------------------------------------------


def run_workload(name: str, args: argparse.Namespace, mode: str) -> dict:
    """The passes *mode* names (``measure``/``trace``/``both``) of one
    workload, as the contract's result object plus a ``problems`` list."""
    end = time.monotonic() + COMMAND_DEADLINE_S
    problems: List[str] = []
    leaked_processes = leaked_segments = 0

    def child(child_mode: str) -> Optional[dict]:
        nonlocal leaked_processes, leaked_segments
        argv = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--child", child_mode,
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
        ]
        if args.smoke:
            argv.append("--smoke")
        if args.out:
            argv += ["--out", args.out]
        outcome = procs.run_child(
            argv,
            dict(os.environ, PYTHONHASHSEED="0"),
            min(CHILD_DEADLINE_S, end - time.monotonic()),
        )
        leaked_processes += outcome.leaked_processes
        leaked_segments += outcome.leaked_shm_segments
        lines = outcome.stdout.strip().splitlines()
        if outcome.timed_out:
            problems.append(f"{child_mode} child overran its deadline and was killed")
        elif outcome.returncode != 0 or not lines:
            problems.append(f"{child_mode} child exited {outcome.returncode}, no result")
        else:
            return json.loads(lines[-1])
        return None

    main = child(mode) or {"attempted": 0, "failed": 0, "errors": [], "metrics": {}}
    info = main.get("info", {})
    metrics = main["metrics"]
    problems += main["errors"]
    if mode != "trace" and "setup_s" in main:
        setups = [main["setup_s"]]
        for _ in range(0 if args.smoke else SETUP_REPEATS - 1):
            repeat = child("setup")
            if repeat:
                setups.append(repeat["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    if mode != "measure":
        metrics["harness.leaked_processes"] = leaked_processes
        metrics["harness.leaked_shm_segments"] = leaked_segments
    if leaked_processes or leaked_segments:
        problems.append(
            f"left behind {leaked_processes} processes, {leaked_segments} segments"
        )
    # A crashed, killed or leaking child is a failure even if no request failed.
    failed = main["failed"] + (1 if problems and not main["failed"] else 0)
    return {
        "correct": failed == 0 and main["attempted"] > 0,
        "attempted": max(1, main["attempted"]),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "info": info,
    }


def report(name: str, result: dict, units: Dict[str, str]) -> dict:
    """Print one workload's metrics by name with units; attach the units."""
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        result["problems"].append(f"metrics not in BENCHMARK.json: {unknown}")
        result["correct"] = False
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, value in result["metrics"].items():
        print(f"{name:15s} {metric:42s} {value:16.6f} {units.get(metric, '?')}")
    for key, value in result["info"].items():
        print(f"{name:15s} (info) {key}: {value}")
    for problem in result["problems"]:
        print(f"{name:15s} PROBLEM: {problem}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": units.get(metric, "?")}
            for metric, value in result["metrics"].items()
        },
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="both passes")
    parser.add_argument("--smoke", action="store_true", help="sizes / 20, 0.15 s")
    parser.add_argument("--out", help="directory for the traced pass's span JSONL")
    parser.add_argument("--child", choices=("setup", "measure", "trace", "both"))
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"run.py: the program is not at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    if args.child:
        return child_main(args)
    procs.install_signal_sweep()
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"run.py: unknown workload {args.workload!r}; one of {names}",
                  file=sys.stderr)
            return 2
        names = [args.workload]
    mode = "both" if args.layers else ("trace" if args.trace else "measure")
    units = {
        entry["name"]: entry["unit"]
        for entry in contract["end_to_end"] + contract["per_layer"]
    }
    results = {name: report(name, run_workload(name, args, mode), units)
               for name in names}
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "workloads": results,
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
