"""Evaluation options: the Gumbo optimisations of Section 5.1.

The options bundle is passed to every job builder and plan strategy so that
individual optimisations can be switched off for the ablation benchmarks.
It also carries the *execution backend* selection (serial in-process
simulation vs the multi-process runtime), so backend choice threads
through :class:`~repro.core.gumbo.Gumbo` (static and dynamic plans alike)
the same way the optimisation switches do.  It is the one options type of every
entry point: :func:`repro.connect`, the query service, ``Gumbo`` and the
CLI (whose flags lift into it) all take a ``GumboOptions``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..exec.base import SERIAL
from ..mapreduce.kernels import KERNEL_AUTO, KERNEL_MODES


@dataclass(frozen=True)
class GumboOptions:
    """Switches for Gumbo's evaluation optimisations.

    Attributes
    ----------
    message_packing:
        Optimisation (1): pack all request/assert messages sharing a key into
        one list value, deduplicating asserts (reduces communication).
    tuple_reference:
        Optimisation (2): ship an 8-byte tuple id instead of the guard tuple
        in request messages and intermediate relations; the guard relation is
        re-read by the EVAL job (which it is in any case in this
        implementation, so only byte accounting changes).
    reducers_by_intermediate:
        Optimisation (3): allocate reducers according to the intermediate data
        size (256 MB per reducer) rather than the input size.
    fuse_one_round:
        Optimisation (4): fuse MSJ and EVAL into a single job when all
        conditional atoms of a query share the same join key.  Only the
        1-ROUND strategy uses this; it is exposed here so ablations can force
        it off even there.
    backend:
        The execution backend plans run on: ``"serial"`` (the in-process
        simulator, the default) or ``"parallel"`` / ``"sharded"`` (two names
        for the multi-process runtime).  Not an optimisation — output
        relations and simulated metrics are identical on every backend — but
        carried here so backend choice flows through the same plumbing.
    workers / shards:
        Two spellings of the multi-process backend's worker-process count;
        give one, or the same value for both (neither → CPU count under the
        name ``"parallel"``, 2 under ``"sharded"``).  Each worker owns a
        hash-placed share of the database's map chunks, held warm across
        requests.  Ignored by other backends.
    default_strategy:
        The strategy :class:`~repro.core.gumbo.Gumbo` uses when a call does
        not name one (and :func:`repro.connect` serves, unless given
        ``strategy=``): any canonical strategy name, or ``"auto"`` for
        cost-based selection over every applicable strategy.
    kernel_mode:
        The batch ("kernel") execution path selector (see
        :mod:`repro.mapreduce.kernels`): ``"auto"`` (the default) evaluates
        kernel-capable jobs set-at-a-time on every backend — in-process on
        the serial engine, inside the workers on the multi-process backend;
        ``"off"`` always interprets tuple-at-a-time (on the driver, whatever
        the backend).  Outputs and simulated metrics are identical in both
        modes — only wall-clock speed changes.
    trace:
        Runtime tracing (see :mod:`repro.obs`): entry points —
        ``Gumbo.execute`` / ``execute_program`` / ``execute_delta`` and the
        query service's request paths — start one trace per request, and the
        engine/backend layers fill it with per-job, per-dispatch and
        worker-side spans.  Off by default; the disabled path is a no-op
        check.  Like ``backend``, not an optimisation: outputs and simulated
        metrics are identical either way.
    """

    message_packing: bool = True
    tuple_reference: bool = True
    reducers_by_intermediate: bool = True
    fuse_one_round: bool = True
    backend: str = SERIAL
    workers: Optional[int] = None
    shards: Optional[int] = None
    default_strategy: str = "greedy"
    kernel_mode: str = KERNEL_AUTO
    trace: bool = False

    def __post_init__(self) -> None:
        if self.kernel_mode not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel_mode {self.kernel_mode!r}; "
                f"expected one of {KERNEL_MODES}"
            )

    def without(self, **flags: bool) -> "GumboOptions":
        """A copy with the given flags overridden, e.g. ``without(message_packing=False)``."""
        return replace(self, **flags)

    @classmethod
    def all_disabled(cls) -> "GumboOptions":
        return cls(
            message_packing=False,
            tuple_reference=False,
            reducers_by_intermediate=False,
            fuse_one_round=False,
        )
