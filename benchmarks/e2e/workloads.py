"""The six workloads, their seeded inputs and their correctness checks.

A workload is a fixed, seeded sequence of *cycles*; a cycle is a short list
of requests (one rotation through the workload's five query shapes, or a
block of distinct queries) that the measured window repeats whole, so every
run of a workload does the same work per cycle whatever the machine's speed.
Inputs are plain ``name -> rows`` mappings made from ``--seed`` before any
clock starts; the program only ever sees those inputs and query texts, and
is driven only through its public entry points (``repro.connect``,
``Connection.execute/materialize/refresh/close``,
``ShardedService.create/execute/close``).

Correctness: expected tuple sets come from the reference evaluator
(``repro.query.reference.evaluate_sgf``), computed outside every timed
section.  Inside the window only the output cardinality of each response is
compared; after the window the full tuple sets of the first response per
distinct query and of a fixed 1-in-50 sample are compared.  ``serve-refresh``
changes its database on every request, so there the state of every
materialization is compared with the reference evaluator on the live
database at each segment edge and at the end.
"""

from __future__ import annotations

import asyncio
import random
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import repro
from repro.query.reference import evaluate_sgf
from repro.query.unparse import unparse_sgf
from repro.service.sharded import ShardedService
from repro.workloads.generator import generate_database
from repro.workloads.queries import workload_query

#: One response in every SAMPLE_EVERY is kept for the full tuple-set check.
SAMPLE_EVERY = 50

#: The paper's workload shapes used by the batch workloads (Table 2 / Figure 6).
BATCH_SHAPES = ("A1", "A3", "B2", "C3", "C4")

#: Five materializable shapes over guard R and conditionals S, T, U, V.
SERVE_TEXTS = (
    "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) AND T(y);",
    "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE S(x) AND NOT T(y);",
    "Z := SELECT x FROM R(x, y, z, w) WHERE S(x) OR (T(y) AND U(z));",
    "Z := SELECT (z, w) FROM R(x, y, z, w) "
    "WHERE (S(x) AND T(x) AND U(x)) OR NOT V(w);",
    "Z := SELECT (x, w) FROM R(x, y, z, w) "
    "WHERE S(x) AND T(y) AND (U(z) OR V(w));",
)

#: Five un-materialized ``S(x) AND NOT T(y)``-style shapes for the shard tier.
SHARDED_TEXTS = (
    "Z := SELECT (x, y) FROM R(x, y, z, w) WHERE S(x) AND NOT T(y);",
    "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE T(x) AND NOT U(y);",
    "Z := SELECT x FROM R(x, y, z, w) WHERE U(z) AND NOT V(w);",
    "Z := SELECT (z, w) FROM R(x, y, z, w) WHERE S(w) AND NOT V(x);",
    "Z := SELECT (x, w) FROM R(x, y, z, w) WHERE T(z) AND NOT S(y);",
)

CONDITIONALS = {"S": 1, "T": 1, "U": 1, "V": 1}


def rows_of(database) -> Dict[str, List[tuple]]:
    """A database as the plain ``name -> rows`` mapping a client would hold."""
    return {relation.name: relation.sorted_tuples() for relation in database}


def scaled(size: int, smoke: bool) -> int:
    """*size*, or a twentieth of it in smoke mode."""
    return max(20, size // 20) if smoke else size


def cycle_scaled(length: int, smoke: bool) -> int:
    """A cycle's *length* (requests or rotations), or a fifth in smoke mode."""
    return max(1, length // 5) if smoke else length


class Recorder:
    """Latencies, failures and sampled responses of one measured window."""

    def __init__(self, workload: "Workload") -> None:
        self.workload = workload
        self.latencies: List[float] = []
        self.failed = 0
        self.errors: List[str] = []
        self.sim_net_s = 0.0
        self.sim_total_s = 0.0
        #: (key, outputs) of the responses kept for the full comparison.
        self.kept: List[tuple] = []
        self._seen: set = set()

    @property
    def count(self) -> int:
        """Requests attempted so far (answered or failed)."""
        return len(self.latencies)

    def done(self, key, seconds: float, result, first_cycle: bool) -> None:
        """Record one answered request; check its output cardinality."""
        index = len(self.latencies)
        self.latencies.append(seconds)
        outputs = result.outputs
        expected = self.workload.expected_cardinality.get(key)
        if expected is not None:
            if sum(map(len, outputs.values())) != expected:
                self.failed += 1
                self.errors.append(f"request {index} ({key!r}): wrong cardinality")
                return
            if key not in self._seen or index % SAMPLE_EVERY == 0:
                self._seen.add(key)
                self.kept.append((key, outputs))
        if first_cycle:
            self.sim_net_s += result.metrics.net_time
            self.sim_total_s += result.metrics.total_time

    def fail(self, key, seconds: float, exc: BaseException) -> None:
        """Record one request that raised (or was refused)."""
        self.latencies.append(seconds)
        self.failed += 1
        self.errors.append(f"request {self.count - 1} ({key!r}): {exc!r}")

    def verify_kept(self) -> None:
        """Full tuple-set comparison of every kept response (after the window)."""
        expected = self.workload.expected
        for key, outputs in self.kept:
            reference = expected[key]
            for name, relation in outputs.items():
                if relation.tuples() != reference[name]:
                    self.failed += 1
                    self.errors.append(f"{key!r}: output {name} differs")
                    break
        self.kept.clear()


class Workload:
    """Base class: static database, text requests, one synchronous client."""

    name = ""
    #: The fixed tail percentile reported as ``request_tail_ms``.
    tail_percentile = 99
    #: Concurrent closed-loop clients (all on the driver's one thread).
    clients = 1
    backend = "serial"
    #: Span names (see ``layers``) of the layers one request passes through:
    #: the traced pass shadows these, reports 0 for the others, and subtracts
    #: them from the request to get the residual.
    path_layers = ("query.parse", "service.fingerprint", "mapreduce.run_program")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        self.rows: Dict[str, List[tuple]] = {}
        self.texts: Sequence[str] = ()
        self.conn = None
        #: key -> {output name -> frozenset of tuples}, from the reference.
        self.expected: Dict[object, Dict[str, frozenset]] = {}
        self.expected_cardinality: Dict[object, int] = {}
        self._reference_db = None
        self._cycles_issued = 0

    # -- inputs (untimed) -----------------------------------------------------------

    def build(self) -> None:
        """Generate the inputs from the seed."""
        raise NotImplementedError

    def _use(self, database) -> None:
        self._reference_db = database
        self.rows = rows_of(database)

    def compute_references(self) -> None:
        """Expected outputs of every distinct query text (static database)."""
        for key, text in enumerate(self.texts):
            query = repro.parse_sgf(text)
            computed = evaluate_sgf(query, self._reference_db)
            self.expected[key] = {
                name: frozenset(computed[name].tuples()) for name in query.root_names
            }
            self.expected_cardinality[key] = sum(map(len, self.expected[key].values()))

    # -- the system under test --------------------------------------------------------

    def connect(self) -> None:
        """Open the connection (part of set-up)."""
        options = {"workers": 2} if self.backend == "parallel" else {}
        self.conn = repro.connect(self.rows, backend=self.backend, **options)

    def prepare(self) -> None:
        """Whatever follows connect in set-up, before the warm-up cycle."""

    def setup(self) -> None:
        """What a user pays before the first warm answer."""
        self.connect()
        self.prepare()
        self.run_cycle(self.warmup_cycle(), Recorder(self), False)

    def close(self) -> None:
        """Release the connection (pools, shard workers)."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    @property
    def service(self):
        """The connection's QueryService (for ``stats()`` and layer probes)."""
        return self.conn.service

    # -- requests -------------------------------------------------------------------

    def cycle(self, index: int) -> Sequence[object]:
        """The requests of cycle *index* (here: one rotation of the texts)."""
        return range(len(self.texts))

    def next_cycle(self) -> Sequence[object]:
        """The next cycle of the sequence (both passes draw from one sequence)."""
        self._cycles_issued += 1
        return self.cycle(self._cycles_issued - 1)

    def warmup_cycle(self) -> Sequence[object]:
        """The discarded cycle that ends set-up."""
        return self.cycle(0)

    def text_of(self, request) -> str:
        """The query text *request* sends."""
        return self.texts[request]

    def call(self, request):
        """Issue one request through the public API; returns the result."""
        return self.conn.execute(self.texts[request])

    def run_cycle(self, requests: Sequence[object], rec: Recorder, first: bool) -> None:
        """Issue *requests* back to back from one closed-loop client."""
        for request in requests:
            start = perf_counter()
            try:
                result = self.call(request)
            except Exception as exc:
                rec.fail(request, perf_counter() - start, exc)
                continue
            rec.done(request, perf_counter() - start, result, first)

    def checkpoint(self, rec: Recorder) -> None:
        """State verification at a segment edge (untimed); default: none."""

    def trace_points(self) -> Sequence[tuple]:
        """``(object, method, span name, annotate)`` public methods the traced
        pass times from outside during traced cycles; default: none."""
        return ()


def refresh_batch(rng: random.Random, number: int, size: int, count: int = 8):
    """The insert of refresh *number*: ``(relation, rows)``.  Even numbers
    insert into guard R; odd ones into S, T, U, V in turn, so NOT/OR-driven
    removals occur.  *size* is the guard's cardinality (its value domain)."""
    if number % 2 == 0:
        return "R", tuple(
            tuple(rng.randrange(size) for _ in range(4)) for _ in range(count)
        )
    return "STUV"[(number // 2) % 4], tuple(
        (rng.randrange(2 * size),) for _ in range(count)
    )


def delta_rows(deltas) -> dict:
    """Output tuples added plus removed by one refresh (a span annotation)."""
    return {
        "delta_rows": sum(d.added_count() + d.removed_count() for d in deltas or ())
    }


class BatchSerial(Workload):
    """The analyst's batch query on the in-process engine."""

    name = "batch-serial"
    tail_percentile = 90
    guard_tuples = 8000

    def build(self) -> None:
        size = scaled(self.guard_tuples, self.smoke)
        self._use(
            generate_database(
                {"R": 4, "G": 4, "H": 4, "I": 4},
                CONDITIONALS,
                guard_tuples=size,
                seed=self.seed,
            )
        )
        self.texts = [unparse_sgf(workload_query(shape)) for shape in BATCH_SHAPES]


class BatchParallel(BatchSerial):
    """The same five shapes on the multiprocessing tier."""

    name = "batch-parallel"
    backend = "parallel"
    guard_tuples = 1000


class PlanCold(Workload):
    """Distinct query texts over a small database: every request plans."""

    name = "plan-cold"
    tail_percentile = 90
    path_layers = Workload.path_layers + ("core.plan",)
    cycle_length = 50
    #: Measured cycles; the pool holds one more, used only for the warm-up.
    #: 12 x 50 distinct texts is more than twice the 256-entry plan cache, so
    #: a text has been evicted long before the rotation reaches it again.
    pool_cycles = 12

    def build(self) -> None:
        self._use(
            generate_database(
                {"R": 4, "G": 4},
                {f"C{i}": 1 for i in range(1, 7)},
                guard_tuples=scaled(200, self.smoke),
                conditional_tuples=scaled(100, self.smoke),
                seed=self.seed,
            )
        )
        self.cycle_length = cycle_scaled(self.cycle_length, self.smoke)
        rng = random.Random(f"plan-cold/{self.seed}")
        texts: List[str] = []
        seen = set()
        while len(texts) < self.cycle_length * (self.pool_cycles + 1):
            text = _random_query(rng, len(texts))
            if text not in seen:
                seen.add(text)
                texts.append(text)
        self.texts = texts

    def cycle(self, index: int) -> Sequence[object]:
        start = (index % self.pool_cycles) * self.cycle_length
        return range(start, start + self.cycle_length)

    def warmup_cycle(self) -> Sequence[object]:
        start = self.pool_cycles * self.cycle_length
        return range(start, start + self.cycle_length)

    def call(self, request):
        result = self.conn.execute(self.texts[request])
        if result.plan_cached:
            raise AssertionError("plan-cold request hit the plan cache")
        return result


_VARIABLES = "xyzw"
_COLDCONDITIONALS = ("C1", "C2", "C3", "C4", "C5", "C6")


def _random_condition(rng: random.Random, relations: Sequence[str], atoms: int) -> str:
    parts = []
    for _ in range(atoms):
        atom = f"{rng.choice(relations)}({rng.choice(_VARIABLES)})"
        parts.append(f"NOT {atom}" if rng.random() < 0.3 else atom)
    text = parts[0]
    for part in parts[1:]:
        operator = rng.choice(("AND", "OR"))
        text = f"({text}) {operator} {part}" if rng.random() < 0.5 else (
            f"{text} {operator} {part}"
        )
    return text


def _random_query(rng: random.Random, index: int) -> str:
    """Two in three: one BSGF statement with 2-6 atoms; one in three: a
    three-statement, two-level SGF query."""
    guard = "(x, y, z, w)"
    if index % 3 < 2:
        projection = ", ".join(rng.sample(_VARIABLES, rng.randint(1, 4)))
        condition = _random_condition(rng, _COLDCONDITIONALS, rng.randint(2, 6))
        return (
            f"Z := SELECT ({projection}) FROM {rng.choice('RG')}{guard} "
            f"WHERE {condition};"
        )
    statements = [
        f"Z{level} := SELECT {rng.choice(_VARIABLES)} FROM {rng.choice('RG')}{guard} "
        f"WHERE {_random_condition(rng, _COLDCONDITIONALS, rng.randint(1, 3))};"
        for level in (1, 2)
    ]
    projection = ", ".join(rng.sample(_VARIABLES, 2))
    statements.append(
        f"Z3 := SELECT ({projection}) FROM {rng.choice('RG')}{guard} "
        f"WHERE Z1({rng.choice(_VARIABLES)}) {rng.choice(('AND', 'OR'))} "
        f"{rng.choice(('', 'NOT '))}Z2({rng.choice(_VARIABLES)}) "
        f"{rng.choice(('AND', 'OR'))} "
        f"{_random_condition(rng, _COLDCONDITIONALS, rng.randint(1, 2))};"
    )
    return "\n".join(statements)


class ServeHot(Workload):
    """Reads of materialized results: the service read path, no engine work."""

    name = "serve-hot"
    #: p99 of a ~0.12 ms request moves by 20 % from run to run (collector
    #: pauses, timer ticks); p95 repeats within 5 %.
    tail_percentile = 95
    path_layers = ("query.parse", "service.fingerprint", "model.copy")
    guard_tuples = 1000
    rotations_per_cycle = 200

    def build(self) -> None:
        self._use(
            generate_database(
                {"R": 4},
                CONDITIONALS,
                guard_tuples=scaled(self.guard_tuples, self.smoke),
                seed=self.seed,
            )
        )
        self.texts = SERVE_TEXTS

    def prepare(self) -> None:
        for text in self.texts:
            self.conn.materialize(text)

    def cycle(self, index: int) -> Sequence[object]:
        return list(range(len(self.texts))) * cycle_scaled(
            self.rotations_per_cycle, self.smoke
        )


class ServeRefresh(ServeHot):
    """Insert-to-fresh-answer latency on the same copy-on-write layer."""

    name = "serve-refresh"
    tail_percentile = 99
    path_layers = ("incremental.refresh",) + ServeHot.path_layers
    guard_tuples = 10000
    rotations_per_cycle = 20

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self._rng = random.Random(f"serve-refresh/{seed}")
        self._issued = 0

    def compute_references(self) -> None:
        """Nothing static: the database changes with every request."""

    def cycle(self, index: int) -> Sequence[object]:
        """Requests are ``(relation, rows, text index)``: insert, then read."""
        size = scaled(self.guard_tuples, self.smoke)
        requests = []
        rotations = cycle_scaled(self.rotations_per_cycle, self.smoke)
        for _ in range(len(self.texts) * rotations):
            batch = refresh_batch(self._rng, self._issued, size)
            requests.append((*batch, self._issued % len(self.texts)))
            self._issued += 1
        return requests

    def text_of(self, request) -> str:
        return self.texts[request[2]]

    def call(self, request):
        relation, rows, text = request
        self.conn.refresh(relation, rows)
        return self.conn.execute(self.texts[text])

    def trace_points(self) -> Sequence[tuple]:
        """``Connection.refresh`` is ``service.add_tuples(incremental=True)``,
        whose return value carries the delta sizes."""
        return (
            (self.conn.service, "add_tuples", "incremental.refresh", delta_rows),
            (self.conn, "execute", "incremental.read_after_refresh", None),
        )

    def checkpoint(self, rec: Recorder) -> None:
        """Every materialization against the reference on the live database."""
        database = self.conn.database
        for text in self.texts:
            reference = evaluate_sgf(repro.parse_sgf(text), database)["Z"].tuples()
            if self.conn.execute(text).output().tuples() != reference:
                rec.failed += 1
                rec.errors.append(f"materialization of {text!r} is stale")


class ServeSharded(Workload):
    """The asyncio front-end over two shard workers, two closed-loop clients."""

    name = "serve-sharded"
    #: ~150 requests per segment: p90 is the highest percentile with at
    #: least ten samples beyond it.
    tail_percentile = 90
    backend = "sharded"
    clients = 2
    rotations_per_cycle = 4

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.frontend: Optional[ShardedService] = None
        self.loop = asyncio.new_event_loop()

    def build(self) -> None:
        self._use(
            generate_database(
                {"R": 4},
                CONDITIONALS,
                guard_tuples=scaled(600, self.smoke),
                conditional_tuples=scaled(300, self.smoke),
                seed=self.seed,
            )
        )
        self.texts = SHARDED_TEXTS

    def connect(self) -> None:
        self.frontend = ShardedService.create(
            repro.Database.from_dict(self.rows),
            shards=2,
            max_concurrency=2,
            max_queue=8,
        )

    @property
    def service(self):
        return self.frontend.service

    def close(self) -> None:
        try:
            if self.frontend is not None:
                self.frontend.close()
                self.frontend = None
        finally:
            if not self.loop.is_closed():
                self.loop.close()

    def cycle(self, index: int) -> Sequence[object]:
        return list(range(len(self.texts))) * cycle_scaled(
            self.rotations_per_cycle, self.smoke
        )

    async def _client(self, requests, rec: Recorder, first: bool) -> None:
        for request in requests:
            start = perf_counter()
            try:
                result = await self.frontend.execute(self.texts[request])
            except Exception as exc:
                rec.fail(request, perf_counter() - start, exc)
                continue
            rec.done(request, perf_counter() - start, result, first)

    def run_cycle(self, requests: Sequence[object], rec: Recorder, first: bool) -> None:
        """Split *requests* between the closed-loop clients of one thread."""


        async def clients() -> None:
            await asyncio.gather(
                *(
                    self._client(requests[client :: self.clients], rec, first)
                    for client in range(self.clients)
                )
            )

        self.loop.run_until_complete(clients())


WORKLOADS = {
    workload.name: workload
    for workload in (
        BatchSerial,
        BatchParallel,
        PlanCold,
        ServeHot,
        ServeRefresh,
        ServeSharded,
    )
}
