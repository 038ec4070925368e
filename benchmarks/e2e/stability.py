"""Does the benchmark agree with itself?  Two interleaved sets on unchanged code.

    python3 benchmarks/e2e/stability.py --sets 2 --runs 3 [--workload NAME]

Runs the end-to-end pass ``--runs`` times per set, the sets interleaved (run
1 of every set, then run 2 of every set, ...) so slow drift of the machine
lands on all sets alike.  Run *i* of every set uses seed ``--seed + i``.  For
every (workload, metric) it prints the median of each set, the relative gap
between the first two set medians beside the metric's bound, and the spread
of the first set (inter-quartile range over median — the figure the
benchmark contract holds to the same bound).  Exits non-zero when a gap
exceeds its bound; a gap or spread over *half* the bound is flagged ``!`` —
raise that workload's window or lower its tail percentile before committing
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

_current: Optional[subprocess.Popen] = None


def _forward(signum, _frame) -> None:
    """Pass the signal on to the running ``run.py`` (which sweeps) and exit."""
    if _current is not None and _current.poll() is None:
        _current.send_signal(signum)
        _current.wait()
    sys.exit(128 + signum)


def run_once(workload: str, seed: int, seconds: Optional[float]) -> Dict[str, float]:
    """One end-to-end run; returns ``metric -> value`` (empty on failure)."""
    global _current
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", repr(seconds)]
    _current = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    stdout, _ = _current.communicate()
    if _current.returncode != 0:
        print(f"run failed: {workload} seed {seed}", file=sys.stderr)
        return {}
    result = json.loads(stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    names = args.workload or [entry["name"] for entry in contract["workloads"]]
    #: values[set][workload][metric] -> list over runs
    values = [{name: {} for name in names} for _ in range(args.sets)]
    failures = 0
    for run in range(args.runs):
        for group in values:
            for name in names:
                metrics = run_once(name, args.seed + run, args.seconds)
                failures += not metrics
                for metric, value in metrics.items():
                    group[name].setdefault(metric, []).append(value)
    header = (f"{'workload':15s} {'metric':18s} "
              + " ".join(f"{'median ' + chr(65 + i):>13s}" for i in range(args.sets))
              + f" {'gap':>7s} {'spread':>7s} {'bound':>6s}")
    print(header)
    exceeded = 0
    for name in names:
        for entry in contract["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            medians = [statistics.median(group[name].get(metric) or [float("nan")])
                       for group in values]
            # Worse = lower when higher is better, higher otherwise.
            sign = -1.0 if entry["better"] == "higher" else 1.0
            gap = sign * (medians[-1] - medians[0]) / medians[0] if args.sets > 1 else 0.0
            wide = spread(values[0][name].get(metric, []))
            exceeded += gap > bound or (metric != "setup_s" and wide > bound)
            flag = "!" if max(abs(gap), wide) > bound / 2 else " "
            print(f"{name:15s} {metric:18s} "
                  + " ".join(f"{median:13.5f}" for median in medians)
                  + f" {gap:+7.3f} {wide:7.3f} {bound:6.2f} {flag}")
    if failures or exceeded:
        print(f"{failures} failed runs, {exceeded} pairs outside their bound")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
