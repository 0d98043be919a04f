"""Tests for atomic batch application (failure injection).

An invalid operation anywhere in a batch must leave the maintainer — graph,
states, counters — exactly as before the call, so callers can catch the
error and continue with a corrected batch.
"""

import pytest

from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.errors import GraphError, WorkloadError
from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.serial.greedy import greedy_mis


def _snapshot(maintainer):
    return (
        maintainer.graph.copy(),
        maintainer.independent_set(),
        maintainer.updates_applied,
        maintainer.batches_applied,
    )


def _assert_unchanged(maintainer, snapshot):
    graph, mis, updates, batches = snapshot
    assert maintainer.graph == graph
    assert maintainer.independent_set() == mis
    assert maintainer.updates_applied == updates
    assert maintainer.batches_applied == batches
    maintainer.verify()


class TestAtomicity:
    def test_insert_existing_edge_rolls_back(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        snap = _snapshot(m)
        with pytest.raises(WorkloadError, match="existing edge"):
            m.apply_batch([EdgeInsertion(0, 4), EdgeInsertion(0, 1)])
        _assert_unchanged(m, snap)

    def test_delete_missing_edge_rolls_back(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        snap = _snapshot(m)
        with pytest.raises(WorkloadError, match="missing edge"):
            m.apply_batch([EdgeDeletion(0, 1), EdgeDeletion(0, 4)])
        _assert_unchanged(m, snap)

    def test_self_loop_rolls_back(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        snap = _snapshot(m)
        with pytest.raises(WorkloadError, match="self-loop"):
            m.apply_batch([EdgeInsertion(0, 2), EdgeInsertion(3, 3)])
        _assert_unchanged(m, snap)

    def test_out_of_range_id_refused_before_the_batch(self):
        # the record refuses the id, so no half of the batch is applied
        # (an int64 mirror once raised OverflowError mid-batch, leaving
        # the graph 5 vertices and 3 edges and every later batch failing)
        m = MISMaintainer(path_graph(3), num_workers=2)
        snap = _snapshot(m)
        with pytest.raises(GraphError, match=f"vertex id {2 ** 70} is not"):
            m.apply_batch([EdgeInsertion(0, 2), EdgeInsertion(2 ** 70, 5)])
        _assert_unchanged(m, snap)
        assert (m.graph.num_vertices, m.graph.num_edges) == (3, 2)
        m.apply_batch([EdgeInsertion(0, 2), EdgeInsertion(2, 5)])
        assert m.independent_set() == greedy_mis(m.graph)

    def test_double_insert_within_batch_rejected(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        snap = _snapshot(m)
        with pytest.raises(WorkloadError):
            m.apply_batch([EdgeInsertion(0, 2), EdgeInsertion(2, 0)])
        _assert_unchanged(m, snap)

    def test_double_delete_within_batch_rejected(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        snap = _snapshot(m)
        with pytest.raises(WorkloadError):
            m.apply_batch([EdgeDeletion(0, 1), EdgeDeletion(1, 0)])
        _assert_unchanged(m, snap)

    def test_non_edge_op_rolls_back(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        snap = _snapshot(m)
        with pytest.raises(WorkloadError):
            m.apply_batch([EdgeInsertion(0, 2), "garbage"])
        _assert_unchanged(m, snap)


class TestValidSequencesStillWork:
    def test_delete_then_reinsert_same_edge(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        m.apply_batch([EdgeDeletion(0, 1), EdgeInsertion(0, 1)])
        assert m.graph.has_edge(0, 1)
        m.verify()

    def test_insert_then_delete_same_edge(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        m.apply_batch([EdgeInsertion(0, 2), EdgeDeletion(0, 2)])
        assert not m.graph.has_edge(0, 2)
        m.verify()

    def test_insert_delete_insert_cycle(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        m.apply_batch(
            [EdgeInsertion(0, 2), EdgeDeletion(0, 2), EdgeInsertion(0, 2)]
        )
        assert m.graph.has_edge(0, 2)
        m.verify()

    def test_edge_to_new_vertex_validates(self, path5):
        m = DOIMISMaintainer(path5, num_workers=3)
        m.apply_batch([EdgeInsertion(4, 77), EdgeDeletion(4, 77)])
        m.verify()

    def test_recovery_after_failed_batch(self):
        g = erdos_renyi(30, 90, seed=5)
        m = DOIMISMaintainer(g.copy(), num_workers=3)
        bad = [EdgeDeletion(*g.sorted_edges()[0])] * 2
        with pytest.raises(WorkloadError):
            m.apply_batch(bad)
        # corrected batch applies cleanly afterwards
        m.apply_batch(bad[:1])
        assert m.independent_set() == greedy_mis(m.graph)
