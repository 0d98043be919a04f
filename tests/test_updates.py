"""Unit tests for update operations, batches, and affected-set derivation."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.errors import GraphError, WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    UpdateBatch,
    VertexInsertion,
    affected_vertices,
    apply_batch,
    apply_edge_update,
)


class TestOperations:
    def test_insertion_edge_canonical(self):
        assert EdgeInsertion(5, 2).edge == (2, 5)

    def test_deletion_edge_canonical(self):
        assert EdgeDeletion(2, 5).edge == (2, 5)

    def test_inverse_roundtrip(self):
        ins = EdgeInsertion(1, 2)
        assert ins.inverse() == EdgeDeletion(1, 2)
        assert ins.inverse().inverse() == ins

    def test_vertex_insertion_expands_to_edges(self):
        op = VertexInsertion(9, neighbors=(1, 2))
        assert op.edge_updates() == [EdgeInsertion(9, 1), EdgeInsertion(9, 2)]

    def test_operations_are_hashable(self):
        assert len({EdgeInsertion(1, 2), EdgeInsertion(1, 2), EdgeDeletion(1, 2)}) == 2


class TestRecordContract:
    """The edge records are slotted, frozen, and hold checked int ids."""

    RECORDS = [EdgeInsertion(3, 9), EdgeDeletion(-(2 ** 63), 2 ** 63 - 1)]

    @pytest.mark.parametrize("op", RECORDS)
    def test_pickle_and_copy_round_trip(self, op):
        clones = [copy.copy(op), copy.deepcopy(op)] + [
            pickle.loads(pickle.dumps(op, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert type(clone) is type(op)
            assert (clone.u, clone.v) == (op.u, op.v) and clone == op

    def test_equality_is_kind_sensitive(self):
        assert EdgeInsertion(1, 2) == EdgeInsertion(1, 2)
        assert EdgeInsertion(1, 2) != EdgeDeletion(1, 2)
        assert EdgeInsertion(1, 2) != EdgeInsertion(2, 1)
        assert EdgeInsertion(1, 2) != (1, 2)

    @pytest.mark.parametrize("op", RECORDS)
    def test_hash_is_the_id_pair_hash(self, op):
        assert hash(op) == hash((op.u, op.v))

    @pytest.mark.parametrize("op", RECORDS)
    def test_frozen_and_without_dict(self, op):
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.u = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            del op.v
        with pytest.raises((AttributeError, TypeError)):
            op.extra = 1
        assert not hasattr(op, "__dict__")

    def test_repr(self):
        assert repr(EdgeInsertion(1, 2)) == "EdgeInsertion(u=1, v=2)"
        assert repr(EdgeDeletion(np.int64(4), 5)) == "EdgeDeletion(u=4, v=5)"

    def test_records_over_built_ints_stay_small(self):
        ids = list(range(10 ** 6, 10 ** 6 + 20_000))  # outside the int cache
        count = 10_000
        ops = [None] * count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                ops[i] = EdgeInsertion(ids[i], ids[i + count])
            per_record = (tracemalloc.get_traced_memory()[0] - before) / count
        finally:
            tracemalloc.stop()
        # 48 B with two slots; an instance __dict__ would add about 40 B
        assert per_record <= 56, per_record
        assert ops[0].u is ids[0] and ops[-1].v is ids[-1]

    def test_ids_convert_to_exact_ints(self):
        op = EdgeInsertion(np.int64(3), np.uint16(4))
        assert (type(op.u), type(op.v)) == (int, int)
        assert op == EdgeInsertion(3, 4)
        assert type(EdgeDeletion(True, 2).u) is int

    @pytest.mark.parametrize("bad", [
        1.5, "7", None, np.float64(2.0), 2 ** 63, -(2 ** 63) - 1, 2 ** 70,
    ])
    @pytest.mark.parametrize("record", [EdgeInsertion, EdgeDeletion])
    def test_bad_ids_are_refused_like_from_edges(self, record, bad):
        message = f"vertex id {bad!r} is not an integer in the int64 range"
        for u, v in ((bad, 3), (3, bad)):
            with pytest.raises(GraphError) as info:
                record(u, v)
            assert str(info.value) == message
        with pytest.raises(GraphError) as info:
            DynamicGraph.from_edges([(bad, 3)])
        assert str(info.value) == message


class TestUpdateBatch:
    def test_iteration_preserves_order(self):
        ops = [EdgeInsertion(1, 2), EdgeDeletion(3, 4)]
        batch = UpdateBatch(ops)
        assert list(batch) == ops
        assert len(batch) == 2
        assert batch[1] == ops[1]

    def test_touched_vertices(self):
        batch = UpdateBatch([EdgeInsertion(1, 2), EdgeDeletion(2, 3)])
        assert batch.touched_vertices() == {1, 2, 3}

    def test_inverse_reverses_and_inverts(self):
        batch = UpdateBatch([EdgeInsertion(1, 2), EdgeDeletion(3, 4)])
        inv = batch.inverse()
        assert list(inv) == [EdgeInsertion(3, 4), EdgeDeletion(1, 2)]

    def test_rejects_vertex_operations(self):
        with pytest.raises(WorkloadError):
            UpdateBatch([VertexInsertion(1)])
        batch = UpdateBatch()
        with pytest.raises(WorkloadError):
            batch.append(VertexInsertion(1))

    def test_repr_counts(self):
        batch = UpdateBatch([EdgeInsertion(1, 2), EdgeDeletion(3, 4)])
        assert "insertions=1" in repr(batch)


class TestApply:
    def test_apply_edge_update(self):
        g = DynamicGraph.from_edges([(1, 2)])
        apply_edge_update(g, EdgeInsertion(2, 3))
        assert g.has_edge(2, 3)
        apply_edge_update(g, EdgeDeletion(1, 2))
        assert not g.has_edge(1, 2)

    def test_apply_batch_returns_affected(self, path5):
        # insert (0, 4): affected = {0, 4} + their neighbours on the updated
        # graph = {1, 3, and each other}
        affected = apply_batch(path5, [EdgeInsertion(0, 4)])
        assert affected == {0, 1, 3, 4}

    def test_apply_batch_deletion_affected_on_updated_graph(self, path5):
        affected = apply_batch(path5, [EdgeDeletion(1, 2)])
        # post-deletion neighbours: nbr(1) = {0}, nbr(2) = {3}
        assert affected == {0, 1, 2, 3}

    def test_affected_vertices_skips_removed(self, path5):
        path5.remove_vertex(2)
        assert affected_vertices(path5, {2, 1}) == {0, 1}

    def test_batch_order_matters_for_validity(self):
        g = DynamicGraph.from_edges([(1, 2)])
        # delete then re-insert the same edge inside one batch is valid
        affected = apply_batch(g, [EdgeDeletion(1, 2), EdgeInsertion(1, 2)])
        assert g.has_edge(1, 2)
        assert affected == {1, 2}
