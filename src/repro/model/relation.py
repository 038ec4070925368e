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
  row tuples one by one.

Both caches invalidate on mutation and are shared across copy-on-write
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
        "_release",
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
        self._release = None
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

    @classmethod
    def attached(
        cls,
        columns: Tuple[object, ...],
        length: int,
        arity: Optional[int],
        release=None,
    ) -> "ColumnBlock":
        """A block over externally owned column buffers (the shm data plane).

        *columns* may be cast ``memoryview``s into a shared-memory segment:
        the zip-based row/key materialisation treats them exactly like
        tuples, and values read from ``'q'``/``'d'`` views are bit-identical
        to the :meth:`unpack` round trip (both create fresh Python scalars
        per row).  The optional *release* callback detaches the underlying
        segment; it runs once, from :meth:`release`.
        """
        block = cls(columns, length, arity)
        block._release = release
        return block

    def release(self) -> None:
        """Detach from externally owned buffers (no-op for ordinary blocks).

        Drops the buffer-backed columns so the backing shared-memory segment
        can be closed (a ``memoryview`` column would otherwise keep the
        mapping pinned), then runs the :meth:`attached` release callback.
        Any already-materialised row/key caches stay valid — they hold plain
        Python values — but no *new* materialisation is possible afterwards,
        so callers release only when done with the block.  Idempotent.
        """
        callback, self._release = self._release, None
        if callback is not None:
            self.columns = ()
            self._packed = None
            callback()

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
    """Bookkeeping shared by a family of copy-on-write clones.

    ``owners`` counts the relations currently sharing one tuple set; it is
    decremented when an owner mutates (detaching) *or is garbage collected*
    (via ``weakref.finalize``), so the last surviving owner knows it is alone
    and mutates in place instead of copying.  The sorted/columnar caches live
    here too, letting any sibling reuse an ordering a peer already computed.
    """

    __slots__ = ("owners", "sorted", "columns", "__weakref__")

    def __init__(self) -> None:
        self.owners = 0
        self.sorted: Optional[List[Tuple[object, ...]]] = None
        self.columns: Optional[ColumnBlock] = None


def _release_share(state: _ShareState) -> None:
    state.owners -= 1
    if state.owners <= 0:
        state.sorted = None
        state.columns = None


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
    #: Cached deterministic ordering (invalidated on mutation, shared by
    #: copy-on-write clones); excluded from equality like the cache it is.
    _sorted: Optional[List[Tuple[object, ...]]] = field(
        default=None, repr=False, compare=False
    )
    #: Cached column-major view of the sorted rows (same lifecycle).
    _columns: Optional[ColumnBlock] = field(default=None, repr=False, compare=False)
    #: Non-None while ``_tuples`` is shared with copy-on-write siblings.
    _share: Optional[_ShareState] = field(default=None, repr=False, compare=False)
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

    def _detach(self) -> None:
        """Leave the share family (decrements the owner count exactly once)."""
        self._share = None
        finalizer = self._finalizer
        if finalizer is not None:
            self._finalizer = None
            finalizer()  # runs _release_share now, disarms the GC hook

    def _prepare_mutation(self) -> None:
        """Detach from copy-on-write siblings and drop the derived caches."""
        state = self._share
        if state is not None:
            if state.owners > 1:  # live siblings: copy before writing
                self._tuples = set(self._tuples)
            self._detach()
        self._sorted = None
        self._columns = None

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
        state = self._share
        if state is not None:
            if state.owners > 1:
                # Cheaper than materialising a copy just to empty it.
                self._tuples = set()
            else:  # every clone died: the set is exclusively ours again
                self._tuples.clear()
            self._detach()
        else:
            self._tuples.clear()
        self._sorted = None
        self._columns = None

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
        cached = self._sorted
        if cached is not None:
            return cached
        state = self._share
        if state is not None and state.sorted is not None:
            self._sorted = state.sorted
            return state.sorted
        if _naturally_sortable(self._tuples):
            result = sorted(self._tuples)
        else:
            try:
                result = sorted(self._tuples, key=tuple_sort_key)
            except TypeError:  # exotic incomparable values: repr fallback
                result = sorted(self._tuples, key=repr)
        self._sorted = result
        if state is not None:
            state.sorted = result
        return result

    def columns(self) -> ColumnBlock:
        """The column-major view of :meth:`sorted_tuples` (cached alike)."""
        cached = self._columns
        if cached is not None:
            return cached
        state = self._share
        if state is not None and state.columns is not None:
            self._columns = state.columns
            return state.columns
        block = ColumnBlock.from_rows(self.sorted_tuples(), self.arity)
        self._columns = block
        if state is not None:
            state.columns = block
        return block

    def column_chunks(self, mappers: int) -> List[ColumnBlock]:
        """Per-map-task column blocks with the canonical strided boundaries.

        Mirrors :func:`~repro.exec.partition.map_task_chunks` exactly (chunk
        count, stride and row order), so per-chunk combiner accounting is
        bit-identical to the interpreted path.
        """
        if mappers < 1:
            raise ValueError("mappers must be >= 1")
        count = min(mappers, len(self._tuples)) or 1
        return self.columns().chunks(count)

    def copy(self, name: Optional[str] = None) -> "Relation":
        """A copy-on-write clone, optionally renamed.

        The tuple set (and the sorted/columnar caches) are shared until
        either side mutates, at which point the mutating side detaches.
        Sharing is reference-counted: once every clone has detached or been
        garbage collected, the remaining owner mutates in place again.
        """
        state = self._share
        if state is None:
            state = _ShareState()
            self._attach(state)
        if state.sorted is None:
            state.sorted = self._sorted
        if state.columns is None:
            state.columns = self._columns
        clone = Relation(name or self.name, self.arity, self.bytes_per_field)
        clone._tuples = self._tuples
        clone._sorted = self._sorted if self._sorted is not None else state.sorted
        clone._columns = self._columns if self._columns is not None else state.columns
        clone._attach(state)
        return clone

    # -- pickling (share state is process-local) -----------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_share"] = None
        state["_finalizer"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

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
