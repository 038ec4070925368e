"""Unit tests for repro.model.relation."""

import gc
import os
import pickle
import struct
import subprocess
import sys
import textwrap

import pytest

from repro.exec.partition import map_task_chunks
from repro.model.relation import (
    DEFAULT_BYTES_PER_FIELD,
    ColumnBlock,
    Relation,
    SchemaError,
    tuple_sort_key,
)


class TestConstruction:
    def test_from_tuples_infers_arity(self):
        rel = Relation.from_tuples("R", [(1, 2), (3, 4)])
        assert rel.arity == 2
        assert len(rel) == 2

    def test_from_tuples_explicit_arity_allows_empty(self):
        rel = Relation.from_tuples("R", [], arity=3)
        assert rel.arity == 3
        assert len(rel) == 0

    def test_from_tuples_empty_without_arity_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_tuples("R", [])

    def test_invalid_name_and_arity(self):
        with pytest.raises(ValueError):
            Relation("", 1)
        with pytest.raises(ValueError):
            Relation("R", 0)
        with pytest.raises(ValueError):
            Relation("R", 1, bytes_per_field=0)


class TestMutation:
    def test_add_and_contains(self):
        rel = Relation("R", 2)
        rel.add((1, 2))
        assert (1, 2) in rel
        assert (2, 1) not in rel

    def test_add_wrong_arity_rejected(self):
        rel = Relation("R", 2)
        with pytest.raises(SchemaError):
            rel.add((1,))

    def test_duplicates_collapse(self):
        rel = Relation("R", 1)
        rel.add((1,))
        rel.add((1,))
        assert len(rel) == 1

    def test_update_discard_clear(self):
        rel = Relation("R", 1)
        rel.update([(1,), (2,), (3,)])
        rel.discard((2,))
        assert sorted(rel.tuples()) == [(1,), (3,)]
        rel.clear()
        assert len(rel) == 0
        assert not rel

    def test_lists_are_normalised_to_tuples(self):
        rel = Relation("R", 2)
        rel.add([1, 2])
        assert (1, 2) in rel
        assert [1, 2] in rel


class TestAccess:
    def test_sorted_tuples_deterministic(self):
        rel = Relation.from_tuples("R", [(3,), (1,), (2,)])
        assert rel.sorted_tuples() == [(1,), (2,), (3,)]
        other = Relation.from_tuples("R", [(2,), (3,), (1,)])
        assert other.sorted_tuples() == rel.sorted_tuples()

    def test_sorted_tuples_deterministic_with_nan(self):
        # NaN compares False to everything, so it gets its own sort bucket;
        # the order must not depend on set iteration order (PYTHONHASHSEED).
        nan = float("nan")
        rel = Relation.from_tuples("R", [(nan, 1), (2.0, 3.0), (nan, 2), (1.0, 5.0)])
        ordered = rel.sorted_tuples()
        tails = [row[1] for row in ordered]
        assert tails == [1, 2, 5.0, 3.0]

    def test_sorted_tuples_orders_mixed_types_without_raising(self):
        rel = Relation.from_tuples("R", [("b", 1), (2, "a"), (1, 1), ("a", None)])
        ordered = rel.sorted_tuples()
        assert sorted(ordered, key=tuple_sort_key) == ordered
        assert set(ordered) == rel.tuples()

    def test_sorted_tuples_cache_invalidated_on_mutation(self):
        rel = Relation.from_tuples("R", [(2,), (1,)])
        first = rel.sorted_tuples()
        assert rel.sorted_tuples() is first  # cached between reads
        rel.add((0,))
        assert rel.sorted_tuples() == [(0,), (1,), (2,)]
        rel.discard((1,))
        assert rel.sorted_tuples() == [(0,), (2,)]
        rel.clear()
        assert rel.sorted_tuples() == []

    def test_copy_is_independent(self):
        rel = Relation.from_tuples("R", [(1,)])
        clone = rel.copy()
        clone.add((2,))
        assert len(rel) == 1
        assert len(clone) == 2

    def test_copy_on_write_isolates_source_mutations(self):
        rel = Relation.from_tuples("R", [(1,), (2,)])
        clone = rel.copy()
        rel.add((3,))
        assert len(clone) == 2
        assert len(rel) == 3
        rel.discard((1,))
        assert (1,) in clone

    def test_copy_shares_until_mutation(self):
        rel = Relation.from_tuples("R", [(1,)])
        clone = rel.copy()
        assert clone.tuples() is rel.tuples()  # shared storage
        clone.add((2,))
        assert clone.tuples() is not rel.tuples()  # detached on write

    def test_copy_rename(self):
        rel = Relation.from_tuples("R", [(1,)])
        assert rel.copy("S").name == "S"

    def test_update_validates_arity_in_one_batch(self):
        rel = Relation("R", 2)
        with pytest.raises(SchemaError):
            rel.update([(1, 2), (3,)])
        rel.update([(1, 2), (3, 4)])
        assert len(rel) == 2

    def test_iteration(self):
        rel = Relation.from_tuples("R", [(1,), (2,)])
        assert sorted(iter(rel)) == [(1,), (2,)]


class TestSizes:
    def test_default_bytes_per_field_matches_paper(self):
        # 100M 4-ary tuples at 10 bytes/field = 4 GB; 100M unary tuples = 1 GB.
        assert DEFAULT_BYTES_PER_FIELD == 10
        guard = Relation("R", 4)
        assert guard.tuple_size_bytes == 40
        conditional = Relation("S", 1)
        assert conditional.tuple_size_bytes == 10

    def test_size_bytes_and_mb(self):
        rel = Relation.from_tuples("R", [(i, i) for i in range(100)])
        assert rel.size_bytes() == 100 * 2 * 10
        assert rel.size_mb() == pytest.approx(2000 / (1024 * 1024))

    def test_custom_bytes_per_field(self):
        rel = Relation("R", 2, bytes_per_field=100)
        rel.add((1, 2))
        assert rel.size_bytes() == 200

    def test_repr_mentions_cardinality(self):
        rel = Relation.from_tuples("R", [(1,)])
        assert "tuples=1" in repr(rel)


class TestCopyOnWriteLifecycle:
    """The owner-counted share state behind :meth:`Relation.copy`."""

    def test_clear_on_shared_detaches_without_touching_siblings(self):
        rel = Relation.from_tuples("R", [(1,), (2,)])
        clone = rel.copy()
        shared = clone.tuples()
        rel.clear()
        assert len(rel) == 0
        assert clone.tuples() is shared
        assert sorted(clone.tuples()) == [(1,), (2,)]
        # rel detached on clear, so the clone is the sole surviving owner
        # and mutates the shared set in place instead of copying it.
        clone.add((3,))
        assert clone.tuples() is shared

    def test_mutation_after_clone_death_skips_the_copy(self):
        rel = Relation.from_tuples("R", [(1,)])
        shared = rel.tuples()
        clone = rel.copy()
        assert clone.tuples() is shared
        del clone
        gc.collect()
        # The dead clone's finalizer released its ownership, so the survivor
        # must mutate the original set rather than pay for a defensive copy.
        rel.add((2,))
        assert rel.tuples() is shared
        assert sorted(rel.tuples()) == [(1,), (2,)]

    def test_clear_after_clone_death_clears_in_place(self):
        rel = Relation.from_tuples("R", [(1,)])
        shared = rel.tuples()
        clone = rel.copy()
        del clone
        gc.collect()
        rel.clear()
        assert rel.tuples() is shared
        assert len(shared) == 0


    def test_pickling_leaves_the_family_and_its_caches_behind(self):
        rel = Relation.from_tuples("R", [(2,), (1,)])
        clone = rel.copy()
        clone.columns()
        thawed = pickle.loads(pickle.dumps(clone))
        assert thawed == clone and thawed._share.columns is None
        assert thawed._share.owners == 0 and thawed._finalizer is None
        thawed.add((3,))
        assert sorted(clone.tuples()) == [(1,), (2,)]
        assert thawed.sorted_tuples() == [(1,), (2,), (3,)]


class TestSortDeterminism:
    def test_nan_order_stable_across_hash_seeds(self):
        """Two NaNs with different bit payloads sort identically under any
        PYTHONHASHSEED: the sort key breaks the tie on the IEEE-754 bits, not
        on set iteration order."""
        script = textwrap.dedent(
            """
            import struct
            from repro.model.relation import Relation

            quiet = float("nan")
            payload = struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0]
            rows = [
                (quiet, "a"),
                (payload, "a"),
                (quiet, "c"),
                (payload, "b"),
                (2.0, "d"),
            ]
            rel = Relation.from_tuples("R", rows)

            def show(value):
                if isinstance(value, float):
                    return struct.pack(">d", value).hex()
                return repr(value)

            for row in rel.sorted_tuples():
                print(",".join(show(value) for value in row))
            """
        )
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        outputs = set()
        for seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1, "sorted order varied with the hash seed"
        assert next(iter(outputs)).count("\n") == 5


class TestColumnBlock:
    def test_from_rows_roundtrip_and_sequence_compat(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        block = ColumnBlock.from_rows(rows)
        assert block.arity == 2
        assert block.length == 3
        assert block.columns == ((1, 2, 3), ("a", "b", "c"))
        assert block.rows() == rows
        assert list(block) == rows
        assert block[1] == (2, "b")
        assert len(block) == 3

    def test_empty_block_keeps_declared_arity(self):
        block = ColumnBlock.from_rows([], arity=4)
        assert block.length == 0
        assert block.arity == 4
        assert block.rows() == []

    def test_chunks_match_map_task_boundaries(self):
        rows = [(i, i * i) for i in range(11)]
        for mappers in (1, 2, 3, 4, 11):
            count = min(mappers, len(rows)) or 1
            expected = [list(chunk) for chunk in map_task_chunks(rows, count)]
            got = ColumnBlock.from_rows(rows).chunks(count)
            assert [chunk.rows() for chunk in got] == expected

    def test_key_tuples_and_distinct_keys_are_memoised(self):
        block = ColumnBlock.from_rows([(1, "a"), (2, "b"), (1, "c")])
        first = block.key_tuples((0,))
        assert first == [(1,), (2,), (1,)]
        assert block.key_tuples((0,)) is first  # cached per position pattern
        assert block.key_tuples((1, 0)) == [("a", 1), ("b", 2), ("c", 1)]
        distinct = block.distinct_keys((0,))
        assert distinct == {(1,), (2,)}
        assert block.distinct_keys((0,)) is distinct

    def test_packed_typed_arrays_and_object_fallback(self):
        block = ColumnBlock.from_rows(
            [(1, 1.5, "a", True, 2**70), (2, 2.5, "b", False, 1)]
        )
        length, arity, columns = block.packed()
        kinds = [kind for kind, _ in columns]
        # Exactly-int columns pack as int64, exactly-float as double; str,
        # bool (would be coerced) and beyond-int64 columns ship as objects.
        assert kinds == ["q", "d", "o", "o", "o"]
        rebuilt = ColumnBlock.unpack((length, arity, columns))
        assert rebuilt.rows() == block.rows()
        assert rebuilt.rows()[0][3] is True

    def test_packed_preserves_float_bits(self):
        quiet = float("nan")
        payload = struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0]
        block = ColumnBlock.from_rows([(quiet,), (payload,), (-0.0,)])
        rebuilt = ColumnBlock.unpack(block.packed())
        original = [struct.pack(">d", row[0]) for row in block.rows()]
        shipped = [struct.pack(">d", row[0]) for row in rebuilt.rows()]
        assert original == shipped

    def test_packed_empty_block_roundtrips(self):
        block = ColumnBlock.from_rows([], arity=2)
        rebuilt = ColumnBlock.unpack(block.packed())
        assert rebuilt.length == 0
        assert rebuilt.arity == 2
        assert rebuilt.rows() == []

    def test_relation_column_chunks_stride_the_sorted_order(self):
        rel = Relation.from_tuples("R", [(i % 4, i) for i in range(10)])
        chunks = rel.column_chunks(3)
        assert len(chunks) == 3
        ordered = rel.sorted_tuples()
        assert [chunk.rows() for chunk in chunks] == [
            ordered[index::3] for index in range(3)
        ]
        assert rel._share.unsorted is None


def _single_chunk(relation: Relation) -> ColumnBlock:
    (block,) = relation.column_chunks(1)
    return block


#: A fresh relation's tuple set after each mutation path, and the rows the
#: mutation leaves (from ``{(1, "a"), (2, "b")}``).
MUTATIONS = {
    "add": (lambda rel: rel.add((3, "c")), {(1, "a"), (2, "b"), (3, "c")}),
    "update": (lambda rel: rel.update([(3, "c")]), {(1, "a"), (2, "b"), (3, "c")}),
    "discard": (lambda rel: rel.discard((1, "a")), {(2, "b")}),
    "clear": (lambda rel: rel.clear(), set()),
}


class TestSingleChunkBlock:
    """One-chunk reads of order-free relations skip the sort."""

    def test_order_free_relation_is_read_in_set_order_without_a_sort(self):
        rows = [(i % 3, f"s{i}") for i in range(20)]
        rel = Relation.from_tuples("R", rows)
        block = _single_chunk(rel)
        assert rel._share.sorted is None and rel._share.columns is None
        assert sorted(block.rows()) == sorted(rows)
        assert block.arity == 2 and block.length == 20
        assert _single_chunk(rel) is block
        # columns() keeps its sorted meaning.
        assert rel.columns().rows() == rel.sorted_tuples() == sorted(rows)

    def test_a_cached_sorted_block_keeps_serving(self):
        rel = Relation.from_tuples("R", [(2,), (1,)])
        sorted_block = rel.columns()
        assert _single_chunk(rel) is sorted_block
        assert _single_chunk(rel.copy()) is sorted_block
        assert rel._share.unsorted is None

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, "a"), (1.0, "b"), (True, "c")],
            [(True,), (False,)],
            [(float("nan"),), (1.0,)],
            [(-0.0,), (2.0,)],
            [(1,), ("a",)],
            [(1, None), (2, None)],
        ],
        ids=["1-1.0-True", "bool", "nan", "negative-zero", "int-and-str", "none"],
    )
    def test_observable_orders_keep_the_sorted_block(self, rows):
        rel = Relation.from_tuples("R", rows)
        block = _single_chunk(rel)
        assert block is rel.columns()
        assert block.rows() == rel.sorted_tuples()
        assert rel._share.unsorted is None

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_every_mutation_drops_the_block(self, mutation):
        mutate, expected = MUTATIONS[mutation]
        rel = Relation.from_tuples("R", [(1, "a"), (2, "b")])
        block = _single_chunk(rel)
        mutate(rel)
        rebuilt = _single_chunk(rel)
        assert rebuilt is not block
        assert set(rebuilt.rows()) == expected

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_a_detaching_clone_drops_its_block_and_leaves_its_siblings(self, mutation):
        mutate, expected = MUTATIONS[mutation]
        rel = Relation.from_tuples("R", [(1, "a"), (2, "b")])
        block = _single_chunk(rel)
        clone = rel.copy()
        mutate(clone)
        assert set(_single_chunk(clone).rows()) == expected
        assert _single_chunk(rel) is block
        assert set(block.rows()) == {(1, "a"), (2, "b")}

    def test_a_copy_reuses_its_parents_block(self):
        rel = Relation.from_tuples("R", [(1, "a"), (2, "b")])
        block = _single_chunk(rel)
        assert _single_chunk(rel.copy()) is block
        # A block a clone builds first is shared back with its family.
        other = Relation.from_tuples("S", [(3,), (4,)])
        clone = other.copy()
        assert _single_chunk(clone) is _single_chunk(other)
        assert _single_chunk(other.copy()) is _single_chunk(clone)
