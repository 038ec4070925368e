"""Scaling the experiment environment down to laptop size, faithfully.

The paper's experiments use 100 M-tuple relations on a 10-node Hadoop cluster.
Executing every map call in pure Python at that scale is infeasible, so the
workloads are generated with ``scale`` times fewer tuples (``scale = 1e-4`` by
default).  Because every cost-model term is of the form
``per-MB-cost × MB`` or ``MB × log_D(ceil(MB / buffer))``, the *simulated
times of the full-size system* are recovered exactly by simultaneously

* multiplying every per-MB cost constant by ``1 / scale``,
* multiplying every byte threshold (input split size, sort buffers, the
  per-reducer data allowances) by ``scale``.

With this rescaling a run over the scaled-down data produces the same number
of map tasks, the same number of reducers, the same merge-pass counts and the
same simulated seconds as a run over the paper-sized data would — only the
number of Python-level tuple operations shrinks.  :class:`ScaledEnvironment`
bundles the rescaled constants, Hadoop settings, cluster and engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..cost.constants import (
    CostConstants,
    GUMBO_MB_PER_REDUCER,
    HadoopSettings,
    PIG_INPUT_MB_PER_REDUCER,
)
from ..exec.base import ExecutionBackend, make_backend
from ..mapreduce.cluster import ClusterConfig
from ..mapreduce.engine import MapReduceEngine
from .generator import WorkloadScale

#: Default scale used by the benchmark harness (10 000-tuple guard relations).
DEFAULT_SCALE = 1e-4


@dataclass
class ScaledEnvironment:
    """The simulated cluster environment at a given workload scale."""

    scale: float = DEFAULT_SCALE
    nodes: int = 10
    constants: CostConstants = field(init=False)
    settings: HadoopSettings = field(init=False)
    cluster: ClusterConfig = field(init=False)
    workload: WorkloadScale = field(init=False)

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        base = CostConstants.paper_values()
        inverse = 1.0 / self.scale
        self.constants = replace(
            base,
            local_read=base.local_read * inverse,
            local_write=base.local_write * inverse,
            hdfs_read=base.hdfs_read * inverse,
            hdfs_write=base.hdfs_write * inverse,
            transfer=base.transfer * inverse,
            map_buffer_mb=base.map_buffer_mb * self.scale,
            reduce_buffer_mb=base.reduce_buffer_mb * self.scale,
        )
        base_settings = HadoopSettings.paper_values()
        self.settings = replace(
            base_settings, split_mb=base_settings.split_mb * self.scale
        )
        self.cluster = ClusterConfig(nodes=self.nodes, settings=self.settings)
        self.workload = WorkloadScale(factor=self.scale)

    # -- engines -----------------------------------------------------------------

    @property
    def mb_per_reducer_intermediate(self) -> float:
        return GUMBO_MB_PER_REDUCER * self.scale

    @property
    def mb_per_reducer_input(self) -> float:
        return PIG_INPUT_MB_PER_REDUCER * self.scale

    def engine(
        self, mb_per_reducer_input: Optional[float] = None
    ) -> MapReduceEngine:
        """A MapReduce engine over this environment's cluster and constants."""
        return MapReduceEngine(
            cluster=self.cluster,
            constants=self.constants,
            mb_per_reducer_intermediate=self.mb_per_reducer_intermediate,
            mb_per_reducer_input=(
                mb_per_reducer_input
                if mb_per_reducer_input is not None
                else self.mb_per_reducer_input
            ),
        )

    def backend(
        self,
        name: str = "serial",
        workers: Optional[int] = None,
        mb_per_reducer_input: Optional[float] = None,
    ) -> ExecutionBackend:
        """An execution backend over this environment's engine.

        ``name`` is ``"serial"`` or ``"parallel"`` (or an
        :class:`~repro.exec.base.ExecutionBackend` alias); ``workers`` is
        the parallel backend's worker-process count.
        """
        return make_backend(
            name, engine=self.engine(mb_per_reducer_input), workers=workers
        )

    def baseline_engine(self, reducer_input_mb: float) -> MapReduceEngine:
        """An engine whose input-based reducer allocation uses *reducer_input_mb*
        (unscaled MB per reducer; Hive 256 MB, Pig 1024 MB)."""
        return MapReduceEngine(
            cluster=self.cluster,
            constants=self.constants,
            mb_per_reducer_intermediate=self.mb_per_reducer_intermediate,
            mb_per_reducer_input=reducer_input_mb * self.scale,
        )

    def with_nodes(self, nodes: int) -> "ScaledEnvironment":
        """A copy of the environment with a different cluster size."""
        return ScaledEnvironment(scale=self.scale, nodes=nodes)

    # -- workload sizes --------------------------------------------------------------

    def guard_tuples(self, paper_tuples: int = 100_000_000) -> int:
        """The scaled-down cardinality for a relation of *paper_tuples* rows."""
        return max(1, int(round(paper_tuples * self.scale)))

    def __repr__(self) -> str:
        return (
            f"ScaledEnvironment(scale={self.scale}, nodes={self.nodes}, "
            f"guard_tuples={self.workload.guard_tuples})"
        )
