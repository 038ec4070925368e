"""Relations: named, fixed-arity collections of tuples with byte accounting.

The cost model of the paper operates on data sizes in megabytes.  In the
paper's experiments, a guard relation of 100M 4-ary tuples occupies 4 GB
(about 10 bytes per field) and a conditional relation of 100M unary tuples
occupies 1 GB.  :class:`Relation` therefore carries a ``bytes_per_field``
parameter (default 10) used by :meth:`Relation.size_bytes` and
:meth:`Relation.size_mb`, so that the simulator's byte accounting matches the
paper's data-volume assumptions without materialising on-disk files.

Storage layout
--------------

Rows are canonically a *set of tuples* (set semantics match the paper's
operators), but the execution fast paths read the relation through two
derived, cached views:

* :meth:`Relation.sorted_tuples` — the deterministic row-major ordering every
  backend iterates (computed with cheap precomputed type-tagged sort keys and
  cached until mutation);
* :meth:`Relation.columns` — a :class:`ColumnBlock`, the column-major view of
  the sorted rows.  The batch-kernel path slices join keys and projections
  out of it as whole columns (one C-level ``zip`` per batch instead of a
  Python-level itemgetter per row), and the multi-process backend ships map
  chunks as typed packed columns (``array('q')``/``array('d')``) instead of pickling
  row tuples one by one;
* :meth:`Relation.column_chunks` — the per-map-task blocks, strided out of
  :meth:`~Relation.columns`.  A relation read as *one* chunk whose every
  column holds only exact ``int`` values or only exact ``str`` values is
  the exception: its block is built straight from the tuple set, in set order,
  with no sort.  Equal values of such a column are indistinguishable (same
  type, same ``repr``) and the map accounting is a sum of integer counts, so
  no output, representative or metric can tell the row order.

All caches invalidate on mutation and are shared across copy-on-write
clones: :meth:`Relation.copy` shares the tuple set *and* a :class:`_ShareState`
holding the sorted/columnar caches, so a base relation warmed by one program
run stays warm for the next even though each run works on a fresh
``Database.copy()``.  Share tracking is counted — when every clone of a
relation has died (or detached by mutating), the survivor mutates in place
again instead of paying a full set copy forever.
"""

from __future__ import annotations

import math
import struct
import weakref
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Default storage footprint of a single field, in bytes.  Calibrated so that
#: the paper's relations (4 GB for 100M 4-ary tuples, 1 GB for 100M unary
#: tuples) are reproduced exactly.
DEFAULT_BYTES_PER_FIELD = 10

#: Hadoop charges 16 bytes of metadata for every key-value pair output by a
#: map task (paper, footnote 2).  Exposed here because relation-level size
#: estimates are reused when predicting map output sizes.
MAP_OUTPUT_METADATA_BYTES = 16


class SchemaError(ValueError):
    """Raised when tuples do not match a relation's declared arity."""


_pack_double = struct.Struct(">d").pack


def value_sort_key(value: object) -> Tuple[object, ...]:
    """A deterministic, type-tagged sort key for a single data value.

    Values are bucketed by a type tag (so mixed-type columns never raise
    ``TypeError`` during comparison) and ordered naturally within a bucket.
    Distinct members of one tuple *set* always receive distinct keys for the
    common value types (numbers, strings), because values comparing equal —
    ``1``/``True``/``1.0`` — already collapse inside the set itself.  NaNs
    (unordered under ``<``) sort into their own bucket, tie-broken by their
    IEEE-754 bit pattern so the order never depends on set iteration order.
    """
    if value is None:
        return ("#0",)
    kind = type(value)
    if kind is int or kind is float or kind is bool:
        if value != value:  # NaN: unordered under <, needs its own bucket
            return ("#1", _pack_double(value))
        return ("#n", value)
    if kind is str:
        return ("#s", value)
    if kind is tuple:
        return ("#t", tuple(value_sort_key(v) for v in value))
    if isinstance(value, (int, float)):  # bools/ints behind subclasses
        coerced = float(value)
        if coerced != coerced:
            return ("#1", _pack_double(coerced))
        return ("#n", coerced)
    if isinstance(value, str):
        return ("#s", str(value))
    return ("#r", kind.__name__, repr(value))


def tuple_sort_key(row: object) -> Tuple[object, ...]:
    """Type-tagged sort key for a tuple (a stored row or a shuffle key)."""
    if isinstance(row, tuple):
        return tuple(value_sort_key(v) for v in row)
    return (value_sort_key(row),)


_NUMERIC_KINDS = frozenset((int, float))


def _naturally_sortable(tuples: Iterable[Tuple[object, ...]]) -> bool:
    """Whether plain tuple comparison equals the type-tagged ordering.

    True when every column holds only numbers (int/float, bools excluded,
    no NaNs) or only strings: element comparisons then never cross type
    buckets, so the natural order coincides with :func:`tuple_sort_key`'s —
    and Python's C-level tuple comparison is several times faster than key
    construction.  The verdict is a pure function of the stored values, so
    every process sorts identically whatever its set iteration order.
    """
    if not tuples:
        return True
    for column in zip(*tuples):
        kinds = set(map(type, column))
        if kinds <= _NUMERIC_KINDS:
            if float in kinds and any(map(math.isnan, column)):
                return False
        elif kinds != {str}:
            return False
    return True


class ColumnBlock:
    """A column-major block of equal-arity rows (the kernel's unit of work).

    ``columns[i]`` holds column *i* of every row, in row order; ``rows()``
    lazily materialises the row-tuple compatibility view via one C-level
    ``zip``.  Blocks are Sequence-compatible (iteration/indexing yield row
    tuples), so code written against per-row chunks keeps working unchanged.
    """

    __slots__ = (
        "columns",
        "length",
        "arity",
        "_rows",
        "_keys",
        "_distinct",
        "_packed",
    )

    def __init__(
        self,
        columns: Tuple[Tuple[object, ...], ...],
        length: int,
        arity: Optional[int],
        rows: Optional[List[Tuple[object, ...]]] = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.arity = arity
        self._rows = rows
        self._keys: Optional[Dict[Tuple[int, ...], List[tuple]]] = None
        self._distinct: Optional[Dict[Tuple[int, ...], set]] = None
        self._packed = None

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Tuple[object, ...]],
        arity: Optional[int] = None,
    ) -> "ColumnBlock":
        """Build a block from row tuples (arity inferred when rows exist)."""
        if not isinstance(rows, list):
            rows = list(rows)
        if not rows:
            return cls((), 0, arity, rows)
        columns = tuple(zip(*rows))
        return cls(columns, len(rows), len(columns), rows)

    def rows(self) -> List[Tuple[object, ...]]:
        """The row-tuple view of the block (cached after first use)."""
        if self._rows is None:
            self._rows = list(zip(*self.columns)) if self.columns else []
        return self._rows

    def key_tuples(self, positions: Sequence[int]) -> List[Tuple[object, ...]]:
        """Per-row tuples of the given column positions, via column slices.

        Equivalent to applying an itemgetter-based extractor to every row,
        but the whole batch is assembled by one C-level ``zip`` — and cached
        per position pattern, since blocks are immutable and long-lived
        relations are probed with the same join keys job after job.  Callers
        must treat the returned list as read-only.
        """
        positions = tuple(positions)
        cache = self._keys
        if cache is None:
            cache = self._keys = {}
        keys = cache.get(positions)
        if keys is not None:
            return keys
        if not positions:
            keys = [()] * self.length
        elif len(positions) == 1:
            keys = list(zip(self.columns[positions[0]]))
        else:
            keys = list(zip(*(self.columns[index] for index in positions)))
        cache[positions] = keys
        return keys

    def distinct_keys(self, positions: Sequence[int]) -> set:
        """The distinct :meth:`key_tuples` of the block, cached per pattern.

        Callers must treat the returned set as read-only.
        """
        positions = tuple(positions)
        cache = self._distinct
        if cache is None:
            cache = self._distinct = {}
        distinct = cache.get(positions)
        if distinct is None:
            distinct = cache[positions] = set(self.key_tuples(positions))
        return distinct

    def chunks(self, count: int) -> List["ColumnBlock"]:
        """Strided sub-blocks matching :func:`~repro.exec.partition.map_task_chunks`.

        Chunk *i* holds rows ``i, i+count, i+2*count, ...`` — the identical
        map-task boundaries of the interpreted path, which the per-chunk
        combiner accounting depends on.
        """
        if count <= 1:
            return [self]
        arity = self.arity
        out = []
        for index in range(count):
            strided = tuple(column[index::count] for column in self.columns)
            length = len(strided[0]) if strided else 0
            out.append(ColumnBlock(strided, length, arity))
        return out

    # -- typed packing (parallel-backend shipping) --------------------------

    def packed(self) -> Tuple[int, Optional[int], Tuple[Tuple[str, object], ...]]:
        """A compact picklable form: homogeneous int/float columns become
        typed ``array`` objects (machine representation, no per-value pickle
        records); anything else ships as the column tuple.

        Only columns whose every value is *exactly* ``int`` (bools would be
        silently coerced) or *exactly* ``float`` are packed; ``array('d')``
        round-trips IEEE-754 doubles bit-exactly (NaN payloads and ``-0.0``
        included).  Blocks are immutable, so the result is cached: shipping
        the same chunk twice (resident reloads after a respawn or a restart)
        pays the typed-array conversion once.
        """
        if self._packed is not None:
            return self._packed
        packed_columns: List[Tuple[str, object]] = []
        for column in self.columns:
            kinds = set(map(type, column))
            if kinds == {int}:
                try:
                    packed_columns.append(("q", array("q", column)))
                    continue
                except OverflowError:  # beyond int64: ship objects
                    pass
            elif kinds == {float}:
                packed_columns.append(("d", array("d", column)))
                continue
            packed_columns.append(("o", column))
        self._packed = (self.length, self.arity, tuple(packed_columns))
        return self._packed

    @classmethod
    def unpack(
        cls, payload: Tuple[int, Optional[int], Tuple[Tuple[str, object], ...]]
    ) -> "ColumnBlock":
        """Rebuild a block from :meth:`packed` output."""
        length, arity, packed_columns = payload
        columns = tuple(
            column if kind == "o" else tuple(column.tolist())
            for kind, column in packed_columns
        )
        return cls(columns, length, arity)

    # -- Sequence compatibility ---------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        return iter(self.rows())

    def __getitem__(self, index):
        return self.rows()[index]

    def __repr__(self) -> str:
        return f"ColumnBlock(arity={self.arity}, rows={self.length})"


class _ShareState:
    """The derived caches of one tuple set, and the relations sharing it.

    The caches are the sorted rows, their column block and the one-chunk
    block in set order (:meth:`Relation.column_chunks`); any copy-on-write
    clone reuses what a peer already computed.  ``owners`` counts the clones
    attached to the set (0 until the first :meth:`Relation.copy`); it is
    decremented when an owner mutates (detaching) *or is garbage collected*
    (via ``weakref.finalize``), so the last surviving owner knows it is alone
    and mutates in place instead of copying.
    """

    __slots__ = ("owners", "sorted", "columns", "unsorted", "__weakref__")

    def __init__(self) -> None:
        self.owners = 0
        self.sorted: Optional[List[Tuple[object, ...]]] = None
        self.columns: Optional[ColumnBlock] = None
        self.unsorted: Optional[ColumnBlock] = None


def _release_share(state: _ShareState) -> None:
    state.owners -= 1


@dataclass
class Relation:
    """A named relation holding a set of equal-arity tuples.

    Tuples are stored as a set (bag semantics are not needed for semi-join
    style queries: the paper's operators are set-based).  The class tracks
    arity, supports iteration in a deterministic (sorted-by-insertion) order
    when requested, and provides the size estimates used by the cost model.
    """

    name: str
    arity: int
    bytes_per_field: int = DEFAULT_BYTES_PER_FIELD
    _tuples: Set[Tuple[object, ...]] = field(default_factory=set, repr=False)
    #: The derived caches, shared with copy-on-write clones (dropped on
    #: mutation); excluded from equality like the caches they are.
    _share: _ShareState = field(default_factory=_ShareState, repr=False, compare=False)
    #: Non-None while attached to a share family (see :meth:`copy`).
    _finalizer: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("relation name must be non-empty")
        if self.arity < 1:
            raise ValueError("relation arity must be >= 1")
        if self.bytes_per_field <= 0:
            raise ValueError("bytes_per_field must be positive")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        name: str,
        tuples: Iterable[Sequence[object]],
        arity: Optional[int] = None,
        bytes_per_field: int = DEFAULT_BYTES_PER_FIELD,
    ) -> "Relation":
        """Build a relation from an iterable of tuples.

        When *arity* is omitted it is inferred from the first tuple; an empty
        iterable then raises :class:`SchemaError`.
        """
        materialised = [tuple(t) for t in tuples]
        if arity is None:
            if not materialised:
                raise SchemaError(
                    f"cannot infer arity of empty relation {name!r}; pass arity="
                )
            arity = len(materialised[0])
        relation = cls(name, arity, bytes_per_field)
        relation.update(materialised)
        return relation

    # -- copy-on-write bookkeeping -----------------------------------------

    def _attach(self, state: _ShareState) -> None:
        self._share = state
        state.owners += 1
        self._finalizer = weakref.finalize(self, _release_share, state)

    def _prepare_mutation(self) -> None:
        """Detach from copy-on-write siblings and drop the derived caches."""
        state = self._share
        finalizer = self._finalizer
        if finalizer is None:  # never shared: the caches are ours alone
            state.sorted = state.columns = state.unsorted = None
            return
        if state.owners > 1:  # live siblings: copy before writing
            self._tuples = set(self._tuples)
        self._finalizer = None
        finalizer()  # runs _release_share now (once), disarms the GC hook
        self._share = _ShareState()

    # -- mutation ----------------------------------------------------------

    def add(self, row: Sequence[object]) -> None:
        """Insert a tuple, validating its arity."""
        row = tuple(row)
        if len(row) != self.arity:
            raise SchemaError(
                f"tuple {row!r} has arity {len(row)}, relation {self.name!r} "
                f"expects {self.arity}"
            )
        self._prepare_mutation()
        self._tuples.add(row)

    def update(self, rows: Iterable[Sequence[object]]) -> None:
        """Insert many tuples, validating their arities in one batch pass."""
        if isinstance(rows, (set, frozenset)) and (
            not rows or set(map(type, rows)) == {tuple}
        ):
            materialised: Iterable[Tuple[object, ...]] = rows
        else:
            materialised = [
                row if isinstance(row, tuple) else tuple(row) for row in rows
            ]
        if not materialised:
            return
        arity = self.arity
        if set(map(len, materialised)) != {arity}:
            for row in materialised:
                if len(row) != arity:
                    raise SchemaError(
                        f"tuple {row!r} has arity {len(row)}, relation "
                        f"{self.name!r} expects {arity}"
                    )
        self._prepare_mutation()
        self._tuples.update(materialised)

    def discard(self, row: Sequence[object]) -> None:
        """Remove a tuple if present."""
        self._prepare_mutation()
        self._tuples.discard(tuple(row))

    def clear(self) -> None:
        """Remove all tuples."""
        if self._share.owners > 1:
            self._tuples = set()  # cheaper than copying a set only to empty it
        self._prepare_mutation()
        self._tuples.clear()

    # -- access --------------------------------------------------------------

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in self._tuples

    def __iter__(self) -> Iterator[Tuple[object, ...]]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def tuples(self) -> Set[Tuple[object, ...]]:
        """The underlying tuple set (a live reference, treat as read-only)."""
        return self._tuples

    def sorted_tuples(self) -> List[Tuple[object, ...]]:
        """Tuples in a deterministic sorted order (useful for tests/reports).

        The ordering uses precomputed type-tagged sort keys (see
        :func:`tuple_sort_key`) and is cached until the relation mutates; the
        returned list is the cache itself — treat it as read-only.
        """
        state = self._share
        if state.sorted is None:
            if _naturally_sortable(self._tuples):
                state.sorted = sorted(self._tuples)
            else:
                try:
                    state.sorted = sorted(self._tuples, key=tuple_sort_key)
                except TypeError:  # exotic incomparable values: repr fallback
                    state.sorted = sorted(self._tuples, key=repr)
        return state.sorted

    def columns(self) -> ColumnBlock:
        """The column-major view of :meth:`sorted_tuples` (cached alike)."""
        state = self._share
        if state.columns is None:
            state.columns = ColumnBlock.from_rows(self.sorted_tuples(), self.arity)
        return state.columns

    def column_chunks(self, mappers: int) -> List[ColumnBlock]:
        """Per-map-task column blocks with the canonical strided boundaries.

        Mirrors :func:`~repro.exec.partition.map_task_chunks` exactly (chunk
        count, stride and row order), so per-chunk combiner accounting is
        bit-identical to the interpreted path.  One chunk is the exception:
        its rows may come in set order (see :meth:`_single_chunk`).
        """
        if mappers < 1:
            raise ValueError("mappers must be >= 1")
        count = min(mappers, len(self._tuples)) or 1
        if count == 1:
            return [self._single_chunk()]
        return self.columns().chunks(count)

    def _single_chunk(self) -> ColumnBlock:
        """The relation read as one map chunk: a cached block, else one in
        set order when every column holds only exact ints or only exact strs
        (equal values are then indistinguishable, so nothing can observe the
        order), else the sorted block."""
        state = self._share
        for block in (state.columns, state.unsorted):
            if block is not None:
                return block
        block = ColumnBlock.from_rows(list(self._tuples), self.arity)
        if not all(set(map(type, c)) in ({int}, {str}) for c in block.columns):
            return self.columns()
        state.unsorted = block
        return block

    def copy(self, name: Optional[str] = None) -> "Relation":
        """A copy-on-write clone, optionally renamed.

        The tuple set (and the sorted/columnar caches) are shared until
        either side mutates, at which point the mutating side detaches.
        Sharing is reference-counted: once every clone has detached or been
        garbage collected, the remaining owner mutates in place again.
        """
        state = self._share
        if self._finalizer is None:
            self._attach(state)
        clone = Relation(name or self.name, self.arity, self.bytes_per_field)
        clone._tuples = self._tuples
        clone._attach(state)
        return clone

    # -- pickling (the share state and its caches are process-local) ---------

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_share"], state["_finalizer"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state, _share=_ShareState(), _finalizer=None)

    # -- size accounting -----------------------------------------------------

    @property
    def tuple_size_bytes(self) -> int:
        """Size of a single tuple in bytes under the linear size model."""
        return self.arity * self.bytes_per_field

    def size_bytes(self) -> int:
        """Total size of the relation in bytes."""
        return len(self._tuples) * self.tuple_size_bytes

    def size_mb(self) -> float:
        """Total size of the relation in MB (the unit used by the cost model)."""
        return self.size_bytes() / (1024.0 * 1024.0)

    def __repr__(self) -> str:
        return (
            f"Relation(name={self.name!r}, arity={self.arity}, "
            f"tuples={len(self._tuples)})"
        )
