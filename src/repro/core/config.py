"""One validated execution configuration, shared by every entry point.

Backend choice and its knobs (worker counts, shard counts, the kernel
mode, tracing, the optimisation switches) used to be assembled ad hoc by
each consumer — the CLI built a
:class:`~repro.core.options.GumboOptions` from argparse attributes, the
query service took loose keyword arguments, the fuzzer oracle took another
subset.  :class:`ExecutionConfig` is the single validated bundle they all
share now:

* :meth:`ExecutionConfig.from_cli_args` lifts an ``argparse.Namespace``
  (any of the CLI subcommands' — missing attributes fall back to the
  defaults) into a validated config;
* :meth:`ExecutionConfig.to_options` lowers it to the
  :class:`~repro.core.options.GumboOptions` the planning layers consume;
* :meth:`ExecutionConfig.make_backend` builds the configured
  :class:`~repro.exec.base.ExecutionBackend` directly (used by the fuzzer
  oracle, which shares one engine across several backends).

Validation happens at construction: unknown backends, non-positive worker/
shard/node counts and unknown kernel modes all raise ``ValueError`` here,
before any engine or worker process exists.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from ..exec.base import SERIAL, make_backend, normalise_backend
from ..exec.shm import normalise_data_plane
from ..mapreduce.kernels import KERNEL_AUTO, KERNEL_MODES
from .options import GumboOptions

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..exec.base import ExecutionBackend
    from ..mapreduce.engine import MapReduceEngine


@dataclass(frozen=True)
class ExecutionConfig:
    """The validated execution configuration of one run/service/campaign.

    Attributes
    ----------
    backend:
        Canonical backend name (aliases like ``"mp"`` or ``"shards"`` are
        normalised at construction).
    workers / shards:
        Two spellings of the multi-process backend's worker-process count
        (``"parallel"`` / ``"sharded"``); give one, or the same value for
        both.  Neither → CPU count for ``"parallel"``, 2 for ``"sharded"``.
    data_plane:
        How chunk payloads cross process boundaries on the parallel and
        sharded backends (``"auto"``/``"shm"``/``"pickle"``, see
        :mod:`repro.exec.shm`).
    kernel_mode:
        Batch-kernel path selector (``"auto"``/``"on"``/``"off"``).
    strategy:
        The default plan strategy (``"auto"`` for cost-based selection).
    nodes:
        Simulated cluster size (drives mapper/reducer allocation).
    message_packing / tuple_reference / reducers_by_intermediate /
    fuse_one_round:
        The Section 5.1 optimisation switches, as in
        :class:`~repro.core.options.GumboOptions`.
    trace:
        Record runtime spans (see :mod:`repro.obs`).
    """

    backend: str = SERIAL
    workers: Optional[int] = None
    shards: Optional[int] = None
    data_plane: str = "auto"
    kernel_mode: str = KERNEL_AUTO
    strategy: str = "auto"
    nodes: int = 10
    message_packing: bool = True
    tuple_reference: bool = True
    reducers_by_intermediate: bool = True
    fuse_one_round: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", normalise_backend(self.backend))
        object.__setattr__(
            self, "data_plane", normalise_data_plane(self.data_plane)
        )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.kernel_mode not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel_mode {self.kernel_mode!r}; "
                f"expected one of {KERNEL_MODES}"
            )

    @classmethod
    def from_cli_args(cls, args: argparse.Namespace) -> "ExecutionConfig":
        """Lift an argparse namespace into a validated config.

        Works with any subcommand's namespace: attributes a subcommand does
        not define fall back to the dataclass defaults, so one lifting
        covers ``query``, ``serve``, ``delta``, ``trace`` and ``fuzz``.
        """
        trace = bool(
            getattr(args, "trace", False) or getattr(args, "trace_out", None)
        )
        return cls(
            backend=getattr(args, "backend", None) or SERIAL,
            workers=getattr(args, "workers", None),
            shards=getattr(args, "shards", None),
            data_plane=getattr(args, "data_plane", None) or "auto",
            kernel_mode=getattr(args, "kernel_mode", None) or KERNEL_AUTO,
            strategy=getattr(args, "strategy", None) or "auto",
            nodes=getattr(args, "nodes", 10),
            message_packing=not getattr(args, "no_packing", False),
            tuple_reference=not getattr(args, "no_tuple_reference", False),
            trace=trace,
        )

    def to_options(self) -> GumboOptions:
        """Lower to the :class:`GumboOptions` the planning layers consume."""
        return GumboOptions(
            message_packing=self.message_packing,
            tuple_reference=self.tuple_reference,
            reducers_by_intermediate=self.reducers_by_intermediate,
            fuse_one_round=self.fuse_one_round,
            backend=self.backend,
            workers=self.workers,
            shards=self.shards,
            data_plane=self.data_plane,
            default_strategy=self.strategy,
            kernel_mode=self.kernel_mode,
            trace=self.trace,
        )

    def make_backend(
        self, engine: Optional["MapReduceEngine"] = None
    ) -> "ExecutionBackend":
        """Build the configured execution backend (see
        :func:`repro.exec.base.make_backend`)."""
        return make_backend(
            self.backend,
            engine=engine,
            workers=self.workers,
            shards=self.shards,
            data_plane=self.data_plane,
        )

    def with_backend(self, backend: str) -> "ExecutionConfig":
        """A copy selecting a different backend (same knobs)."""
        return replace(self, backend=backend)
