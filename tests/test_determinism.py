"""Cross-hash-seed determinism of the whole engine (tools/determinism_check).

The engine's contract is that outputs *and* every simulated metric are pure
functions of (query, database, strategy, options) — nothing may leak Python's
per-process hash randomisation.  ``tools/determinism_check.py`` canonically
digests the sorted outputs, the shuffle orderings and the planner's estimates
of a fixed workload mix; here it is spawned under different ``PYTHONHASHSEED``
values (and opposite job orders for its history-dependence case) and the
stdout must match byte for byte (the same check CI runs as a dedicated step).
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SCRIPT = os.path.join(REPO_ROOT, "tools", "determinism_check.py")


def _run(seed: str, *flags: str) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.path.join(REPO_ROOT, "src"),
    )
    result = subprocess.run(
        [sys.executable, SCRIPT, "--tuples", "120", *flags],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
    )
    return result.stdout


def test_digests_identical_across_hash_seeds():
    first = _run("0")
    second = _run("1", "--reverse-jobs")
    assert first, "determinism check produced no output"
    assert first == second, (
        "engine output varied with PYTHONHASHSEED or job order:\n"
        f"--- seed 0 ---\n{first}\n--- seed 1, reversed ---\n{second}"
    )
    # One planner-estimates line per case and strategy, compared above; the
    # remaining lines digest runs.
    lines = first.strip().splitlines()
    assert any(" estimates=" in line for line in lines)
    lines = [line for line in lines if " estimates=" not in line]
    # Kernel-auto and kernel-off lines of one combination share their digests
    # (parity), and every strategy appears for both cases.
    serial = [line for line in lines if "[parallel]" not in line]
    assert len(serial) % 2 == 0

    def digests(line):
        return line.split("kernel=")[1].split(" ", 1)[1]

    for auto_line, off_line in zip(serial[0::2], serial[1::2]):
        assert "kernel=auto" in auto_line and "kernel=off" in off_line
        assert digests(auto_line) == digests(off_line)
    # Equal keys of different type are placed the same whatever ran before:
    # the numeric-keys case's second pass repeats its first, and both match
    # the other process, which met the jobs in the opposite order (above).
    cold = [line for line in lines if " pass=cold " in line]
    warm = [line for line in lines if " pass=warm " in line]
    assert cold and [line.replace("cold", "warm") for line in cold] == warm
    # The kernels inside the workers reproduce the serial digests line for line.
    workers = [line for line in lines if "[parallel]" in line]
    assert list(map(digests, workers)) == list(map(digests, serial[0::2]))
