"""repro — a reproduction of "Parallel Evaluation of Multi-Semi-Joins" (Daenen et al., 2016).

The package implements the Gumbo system described in the paper: the
multi-semi-join MapReduce operator (MSJ), the EVAL job for Boolean
combinations, the per-partition MapReduce cost model, the greedy plan
optimisers ``Greedy-BSGF`` and ``Greedy-SGF``, the SEQ / PAR / GREEDY /
1-ROUND evaluation strategies, and simulated Pig/Hive baselines — all on top
of an in-process MapReduce simulator standing in for the paper's Hadoop
cluster.

Quick start
-----------
>>> import repro
>>> with repro.connect(
...     {"R": [(1, 2), (3, 4)], "S": [(1,)], "T": [(4,)]}
... ) as conn:
...     result = conn.execute(
...         "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR T(y);"
...     )
...     sorted(result.tuples())
[(1, 2), (3, 4)]

:func:`connect` is the unified client API (see :mod:`repro.client`): one
``Connection`` with ``execute``/``materialize``/``refresh``/``close``, every
backend selectable by name, and every query answered with :class:`Result`,
the query service's own result type.  The layers it wraps
(:class:`Gumbo`, the planner/executor, and :class:`QueryService
<repro.service.QueryService>`, the serving layer) can be built directly;
all three take one :class:`GumboOptions`.

Execution backends
------------------
Plans run on a pluggable execution backend (:mod:`repro.exec`): ``"serial"``
executes every task in-process on the simulator (the default); ``"parallel"``
and ``"sharded"`` name the one multi-process runtime (batch kernels on
long-lived worker processes each holding a hash-placed share of the
database warm, see :mod:`repro.service.sharded` and ``docs/service.md``) —
same outputs, same simulated metrics on every backend, plus measured
wall-clock times.  Select one with ``repro.connect(db, backend="sharded",
shards=4)``, per :class:`Gumbo` instance (``Gumbo(backend="parallel",
workers=4)``), through :class:`GumboOptions(backend=...) <GumboOptions>`, or
on the command line with ``repro query --backend parallel --workers 4``.
"""

from .client import Connection, connect
from .core.dynamic import DynamicSGFExecutor
from .core.gumbo import Gumbo, GumboResult, PlannedQuery
from .core.msj import MSJJob, multi_semi_join
from .core.options import GumboOptions
from .core.strategies import AUTO, StrategyChoice, choose_strategy
from .core.skew import SkewAwareMSJJob, detect_heavy_hitters
from .cost.constants import CostConstants, HadoopSettings
from .cost.models import GumboCostModel, WangCostModel
from .exec import ExecutionBackend, SimulatedBackend, make_backend
from .fuzz import DifferentialOracle, FuzzConfig, FuzzOptions, run_fuzz
from .incremental import DeltaResult, IncrementalError, Materialization
from .io import load_database, load_relation, save_database, save_relation
from .mapreduce.cluster import ClusterConfig
from .mapreduce.engine import MapReduceEngine
from .model.atoms import Atom, Fact
from .model.database import Database
from .model.relation import Relation
from .model.terms import Constant, Variable
from .query.bsgf import BSGFQuery
from .query.parser import parse_bsgf, parse_sgf
from .query.reference import evaluate_bsgf, evaluate_sgf
from .query.sgf import SGFQuery
from .service import BatchResult, QueryService, Result, query_fingerprint

__version__ = "1.0.0"

__all__ = [
    "AUTO",
    "Atom",
    "BatchResult",
    "BSGFQuery",
    "ClusterConfig",
    "Connection",
    "Constant",
    "CostConstants",
    "Database",
    "DeltaResult",
    "DifferentialOracle",
    "DynamicSGFExecutor",
    "IncrementalError",
    "Materialization",
    "ExecutionBackend",
    "Fact",
    "FuzzConfig",
    "FuzzOptions",
    "Gumbo",
    "GumboCostModel",
    "GumboOptions",
    "GumboResult",
    "PlannedQuery",
    "QueryService",
    "Result",
    "StrategyChoice",
    "HadoopSettings",
    "MSJJob",
    "MapReduceEngine",
    "Relation",
    "SGFQuery",
    "SimulatedBackend",
    "SkewAwareMSJJob",
    "Variable",
    "WangCostModel",
    "__version__",
    "choose_strategy",
    "connect",
    "detect_heavy_hitters",
    "evaluate_bsgf",
    "evaluate_sgf",
    "load_database",
    "load_relation",
    "make_backend",
    "multi_semi_join",
    "parse_bsgf",
    "parse_sgf",
    "query_fingerprint",
    "run_fuzz",
    "save_database",
    "save_relation",
]
