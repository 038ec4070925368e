"""Smoke test of the end-to-end benchmark: both passes of all six workloads
at a twentieth of the size, in a few seconds.

Checks the contract the real runs rely on: every end-to-end and per-layer
metric named in ``BENCHMARK.json`` is emitted with its unit (and nothing
else is), no request fails, nothing is left running or in ``/dev/shm``, and
the run creates or changes no file of the repository.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _tree_state() -> dict:
    """path -> (size, mtime) of every file of the repository that a run has
    no business touching (bytecode caches and VCS/test caches excluded)."""
    state = {}
    for folder, subfolders, files in os.walk(ROOT):
        subfolders[:] = [
            name for name in subfolders
            if name not in ("__pycache__", ".git", ".pytest_cache", ".hypothesis")
        ]
        for name in files:
            path = os.path.join(folder, name)
            try:
                info = os.stat(path)
            except OSError:
                continue
            state[path] = (info.st_size, info.st_mtime_ns)
    return state


def test_e2e_smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    units = {
        entry["name"]: entry["unit"]
        for entry in contract["end_to_end"] + contract["per_layer"]
    }
    before = _tree_state()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--layers"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert _tree_state() == before, "the run created or changed repository files"
    assert done.returncode == 0, done.stdout[-4000:]
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    assert sorted(final["workloads"]) == sorted(
        entry["name"] for entry in contract["workloads"]
    )
    for name, result in final["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert emitted == units, (name, set(emitted) ^ set(units))
        assert result["metrics"]["harness.leaked_processes"]["value"] == 0, name
        assert result["metrics"]["harness.leaked_shm_segments"]["value"] == 0, name
