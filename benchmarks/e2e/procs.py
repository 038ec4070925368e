"""Process hygiene for the end-to-end benchmark: nothing is left running.

Every workload runs in a child process that leads its own session
(``start_new_session=True``), so the pool workers, shard workers and
``resource_tracker`` it spawns can all be found — and killed — by session id:

* :func:`run_child` starts the child with a hard deadline (overrun = killed
  and reported, never a hang), and after it exits waits up to two seconds
  for its session to empty, counts the survivors, SIGTERM→SIGKILLs them and
  lists the ``/dev/shm/repro_*`` segments the run left behind;
* :func:`install_signal_sweep` makes SIGTERM/SIGINT on the parent run the
  same sweep before exiting;
* :func:`start_parent_watchdog` (called inside each child) kills the child's
  whole process group when its parent disappears, which covers SIGKILL of
  the parent — the one signal no handler sees.

The same ``/proc`` walk gives the CPU seconds and peak resident memory of a
workload's whole process tree (:func:`session_cpu_s`, :func:`session_peak_rss_mb`).
"""

from __future__ import annotations

import ctypes
import glob
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

#: Every shared-memory segment the program creates starts with this
#: (``repro.exec.shm.SEGMENT_PREFIX`` is ``repro_dp_``).
SHM_GLOB = "/dev/shm/repro_*"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# -- /proc readers -------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may itself contain spaces.
    return text[text.rfind(")") + 2 :].split()


def session_pids(session: int) -> List[int]:
    """Pids of the live (non-zombie) processes whose session id is *session*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        # fields[0] is the state, fields[3] the session id.
        if fields and fields[0] != "Z" and int(fields[3]) == session:
            pids.append(int(entry))
    return pids


def session_cpu_s(session: int) -> float:
    """User + system CPU seconds of the session's processes, reaped children
    included (utime + stime + cutime + cstime of each live member)."""
    ticks = 0
    for pid in session_pids(session):
        fields = _stat_fields(pid)
        if fields:
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / _CLOCK_TICKS


def session_peak_rss_mb(session: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over the session's processes."""
    total_kb = 0
    for pid in session_pids(session):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def shm_segments() -> Set[str]:
    """The ``/dev/shm/repro_*`` segments that exist right now."""
    return set(glob.glob(SHM_GLOB))


# -- running one child ---------------------------------------------------------------


@dataclass
class ChildOutcome:
    """What one child run produced and what it left behind."""

    returncode: int
    stdout: str
    timed_out: bool
    leaked_processes: int
    leaked_shm_segments: int


#: Children started by :func:`run_child` that have not been swept yet.
_ACTIVE: List["subprocess.Popen[str]"] = []
#: Segments that existed before the first child; never ours to remove.
_SHM_BASELINE: Optional[Set[str]] = None


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that it — not init — waits for them."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, which reaps them


def _alive(session: int) -> List[int]:
    """Reap whatever has exited, then list who is left in *session*."""
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass
    return session_pids(session)


def _kill_session(session: int, grace_s: float = 2.0) -> int:
    """Wait up to *grace_s* for *session* to empty, then SIGTERM → SIGKILL.

    Only called once the session's leader has been waited for.  Returns how
    many processes were still alive after the grace period.
    """
    deadline = time.monotonic() + grace_s
    survivors = _alive(session)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = _alive(session)
    leaked = len(survivors)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not survivors:
            break
        for pid in survivors:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 1.0
        while survivors and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = _alive(session)
    return leaked


def _sweep_shm() -> int:
    """Unlink every segment that appeared since the baseline; return the count."""
    leaked = shm_segments() - (_SHM_BASELINE or set())
    for path in leaked:
        try:
            os.unlink(path)
        except OSError:
            pass
    return len(leaked)


def run_child(
    argv: Sequence[str], env: dict, deadline_s: float
) -> ChildOutcome:
    """Run *argv* as a session leader with a hard deadline, then sweep.

    The child's stdout is captured (its last line is the result); stderr is
    inherited so tracebacks reach the terminal.
    """
    global _SHM_BASELINE
    if _SHM_BASELINE is None:
        _SHM_BASELINE = shm_segments()
    child = subprocess.Popen(
        list(argv),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _ACTIVE.append(child)
    timed_out = False
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline_s))
    except subprocess.TimeoutExpired:
        timed_out = True
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        stdout, _ = child.communicate()
    # The child led its own session, so its pid is the session id.
    leaked_processes = 0 if timed_out else _kill_session(child.pid)
    if timed_out:
        _kill_session(child.pid, grace_s=0.0)
    leaked_segments = _sweep_shm()
    _ACTIVE.remove(child)
    return ChildOutcome(
        returncode=child.returncode,
        stdout=stdout or "",
        timed_out=timed_out,
        leaked_processes=leaked_processes,
        leaked_shm_segments=0 if timed_out else leaked_segments,
    )


def sweep_all() -> None:
    """Kill every active child's session and remove the segments they made."""
    for child in list(_ACTIVE):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        _kill_session(child.pid, grace_s=0.0)
    if _SHM_BASELINE is not None:
        _sweep_shm()


def install_signal_sweep() -> None:
    """On SIGTERM/SIGINT: sweep, then exit with the conventional 128+signal.
    Also makes this process the reaper of every descendant."""
    become_subreaper()

    def _handler(signum, _frame):
        sweep_all()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, _handler)
    signal.signal(signal.SIGINT, _handler)


def start_parent_watchdog(poll_s: float = 0.25) -> None:
    """In a child: kill the own process group once the parent is gone."""
    parent = os.getppid()

    def _watch() -> None:
        while os.getppid() == parent:
            time.sleep(poll_s)
        try:
            os.killpg(os.getpgid(0), signal.SIGKILL)
        finally:
            os._exit(1)

    threading.Thread(target=_watch, name="e2e-parent-watchdog", daemon=True).start()
