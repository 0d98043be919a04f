"""Unit tests for DOIMIS dynamic maintenance (Algorithm 3, Section VI)."""

import pytest

from repro.core.activation import ActivationStrategy
from repro.core.doimis import DOIMISMaintainer
from repro.core.maintainer import MISMaintainer
from repro.errors import ReproError, WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.graph.updates import (
    EdgeDeletion,
    EdgeInsertion,
    UpdateBatch,
    VertexDeletion,
    VertexInsertion,
)
from repro.serial.greedy import greedy_mis


def _maintainer(graph, **kw):
    kw.setdefault("num_workers", 4)
    return DOIMISMaintainer(graph, **kw)


class TestSingleUpdates:
    def test_initial_set_is_fixpoint(self, random_graph):
        m = _maintainer(random_graph.copy())
        assert m.independent_set() == greedy_mis(m.graph)

    def test_insert_edge_between_members(self, path5):
        m = _maintainer(path5)
        assert m.independent_set() == {0, 2, 4}
        m.insert_edge(0, 2)
        assert m.independent_set() == greedy_mis(m.graph)
        assert m.graph.has_edge(0, 2)

    def test_insert_edge_between_nonmembers_no_change(self):
        g = DynamicGraph.from_edges([(1, 2), (2, 3), (4, 5), (5, 6)])
        m = _maintainer(g)
        before = m.independent_set()
        assert 2 not in before and 5 not in before
        m.insert_edge(2, 5)
        assert m.independent_set() == before

    def test_delete_edge_can_grow_set(self, triangle):
        m = _maintainer(triangle)
        assert m.independent_set() == {1}
        m.delete_edge(1, 2)
        assert m.independent_set() == {1, 2}
        assert m.independent_set() == greedy_mis(m.graph)

    def test_delete_edge_between_nonmembers_still_processed(self):
        """The paper's subtle case: deleting an edge between two NotIn
        vertices can still change the set via rank changes."""
        # u and v not in MIS; decreasing deg(u) makes it outrank a member
        g = erdos_renyi(30, 90, seed=13)
        m = _maintainer(g.copy())
        outsiders = [
            (u, v)
            for u, v in g.sorted_edges()
            if u not in m.independent_set() and v not in m.independent_set()
        ]
        assert outsiders, "need an edge between two non-members"
        for u, v in outsiders:
            m.delete_edge(u, v)
            assert m.independent_set() == greedy_mis(m.graph)
            m.insert_edge(u, v)

    def test_paper_example_sequence(self, paper_figure_graph):
        """Fig. 1's update: inserting an edge displaces a member."""
        m = _maintainer(paper_figure_graph)
        assert m.independent_set() == {1, 3, 4}
        m.insert_edge(1, 4)
        assert m.independent_set() == greedy_mis(m.graph)

    def test_updates_applied_counters(self, path5):
        m = _maintainer(path5)
        m.insert_edge(0, 2)
        m.delete_edge(0, 2)
        assert m.updates_applied == 2
        assert m.batches_applied == 2


class TestBatchUpdates:
    def test_batch_equals_sequential(self):
        g = erdos_renyi(40, 120, seed=21)
        ops = [EdgeDeletion(*e) for e in g.sorted_edges()[:10]]
        batch_m = _maintainer(g.copy())
        batch_m.apply_batch(ops)
        seq_m = _maintainer(g.copy())
        for op in ops:
            seq_m.apply_batch([op])
        assert batch_m.independent_set() == seq_m.independent_set()
        assert batch_m.independent_set() == greedy_mis(batch_m.graph)

    def test_batch_accepts_update_batch_object(self, path5):
        m = _maintainer(path5)
        m.apply_batch(UpdateBatch([EdgeInsertion(0, 2), EdgeInsertion(2, 4)]))
        assert m.independent_set() == greedy_mis(m.graph)

    def test_empty_batch_is_noop(self, path5):
        m = _maintainer(path5)
        before = m.independent_set()
        m.apply_batch([])
        assert m.independent_set() == before
        assert m.batches_applied == 0

    def test_delete_then_reinsert_in_one_batch_restores_set(self):
        g = erdos_renyi(30, 90, seed=5)
        m = _maintainer(g.copy())
        before = m.independent_set()
        edge = g.sorted_edges()[0]
        m.apply_batch([EdgeDeletion(*edge), EdgeInsertion(*edge)])
        assert m.independent_set() == before

    def test_batch_rejects_vertex_ops(self, path5):
        m = _maintainer(path5)
        with pytest.raises(WorkloadError):
            m.apply_batch([VertexInsertion(99)])

    def test_apply_stream_batching(self):
        g = erdos_renyi(40, 120, seed=31)
        edges = g.sorted_edges()[:12]
        ops = [EdgeDeletion(*e) for e in edges] + [EdgeInsertion(*e) for e in edges]
        m = _maintainer(g.copy())
        m.apply_stream(ops, batch_size=5)
        assert m.batches_applied == 5  # 24 ops in batches of 5
        assert m.independent_set() == greedy_mis(m.graph)

    def test_apply_stream_invalid_batch_size(self, path5):
        m = _maintainer(path5)
        with pytest.raises(WorkloadError):
            m.apply_stream([], batch_size=0)


class TestOrderIndependence:
    """Theorem 4.2 / 6.1: only the final graph matters."""

    def test_update_order_does_not_matter(self):
        g = erdos_renyi(30, 60, seed=41)
        additions = [(0, 11), (3, 17), (5, 23), (2, 9)]
        additions = [e for e in additions if not g.has_edge(*e)]
        forward = _maintainer(g.copy())
        for u, v in additions:
            forward.insert_edge(u, v)
        backward = _maintainer(g.copy())
        for u, v in reversed(additions):
            backward.insert_edge(u, v)
        assert forward.independent_set() == backward.independent_set()

    def test_batch_size_does_not_matter(self):
        g = erdos_renyi(40, 120, seed=43)
        edges = g.sorted_edges()[:16]
        ops = [EdgeDeletion(*e) for e in edges] + [EdgeInsertion(*e) for e in edges]
        results = []
        for b in (1, 4, 32):
            m = _maintainer(g.copy())
            m.apply_stream(ops, batch_size=b)
            results.append(m.independent_set())
        assert results[0] == results[1] == results[2]

    def test_matches_from_scratch_recomputation(self):
        g = erdos_renyi(35, 100, seed=47)
        m = _maintainer(g.copy())
        edges = g.sorted_edges()
        for u, v in edges[:8]:
            m.delete_edge(u, v)
        from repro.core.oimis import run_oimis

        assert m.independent_set() == run_oimis(m.graph.copy()).independent_set


class TestVertexOperations:
    def test_insert_isolated_vertex_joins_set(self, path5):
        m = _maintainer(path5)
        m.insert_vertex(99)
        assert 99 in m.independent_set()
        assert m.independent_set() == greedy_mis(m.graph)

    def test_insert_vertex_with_edges(self, path5):
        m = _maintainer(path5)
        m.insert_vertex(99, neighbors=[0, 2, 4])
        assert m.independent_set() == greedy_mis(m.graph)

    def test_insert_existing_vertex_rejected(self, path5):
        m = _maintainer(path5)
        with pytest.raises(WorkloadError):
            m.insert_vertex(0)

    def test_delete_vertex(self, path5):
        m = _maintainer(path5)
        m.delete_vertex(2)
        assert not m.graph.has_vertex(2)
        assert m.independent_set() == greedy_mis(m.graph)
        assert not m.contains(2)

    def test_delete_isolated_vertex(self):
        g = DynamicGraph.from_edges([(1, 2)], vertices=[9])
        m = _maintainer(g)
        m.delete_vertex(9)
        assert m.independent_set() == greedy_mis(m.graph)

    def test_apply_dispatches_all_op_kinds(self, path5):
        m = _maintainer(path5)
        m.apply(EdgeInsertion(0, 2))
        m.apply(EdgeDeletion(0, 2))
        m.apply(VertexInsertion(77, neighbors=(1,)))
        m.apply(VertexDeletion(77))
        assert m.independent_set() == greedy_mis(m.graph)

    def test_apply_unknown_op_rejected(self, path5):
        m = _maintainer(path5)
        with pytest.raises(WorkloadError):
            m.apply("not an op")

    def test_edge_to_brand_new_vertex(self, path5):
        # inserting an edge whose endpoint does not exist yet creates it
        m = _maintainer(path5)
        m.insert_edge(4, 100)
        assert m.graph.has_vertex(100)
        assert m.independent_set() == greedy_mis(m.graph)

    @pytest.mark.parametrize("u, neighbors", [
        (1.5, ()), (2 ** 70, ()), (5, (5,)), (5, (1.5,)),
    ])
    def test_refused_vertex_insertion_changes_nothing(self, u, neighbors):
        m = MISMaintainer(path_graph(3))
        before = _snapshot(m)
        with pytest.raises(ReproError):
            m.apply(VertexInsertion(u, neighbors))
        with pytest.raises(ReproError):
            m.insert_vertex(u, neighbors)
        assert _snapshot(m) == before
        m.verify()

    @pytest.mark.parametrize("u", [1.5, 2 ** 70])
    def test_refused_vertex_deletion_changes_nothing(self, u):
        m = MISMaintainer(path_graph(3))
        before = _snapshot(m)
        with pytest.raises(ReproError):
            m.apply(VertexDeletion(u))
        with pytest.raises(ReproError):
            m.delete_vertex(u)
        assert _snapshot(m) == before
        m.verify()

    def test_failed_incident_batch_takes_the_vertex_back_out(
        self, monkeypatch
    ):
        m = MISMaintainer(path_graph(3))
        before = _snapshot(m)

        def fail(*args, **kwargs):
            raise WorkloadError("injected")

        monkeypatch.setattr(m._engine, "run", fail)
        with pytest.raises(WorkloadError, match="injected"):
            m.insert_vertex(5, (0, 9))
        monkeypatch.undo()
        assert _snapshot(m) == before
        m.verify()

    def test_vertex_records_apply_the_id_rule(self):
        import numpy as np

        op = VertexInsertion(np.int64(7), [np.int64(1), 2])
        assert op == VertexInsertion(7, (1, 2))
        assert type(op.u) is int
        assert all(type(v) is int for v in op.neighbors)
        assert VertexDeletion(np.int64(7)).u == 7


def _snapshot(m):
    """Vertices, edges and per-vertex states of a maintainer."""
    return (sorted(m.graph.vertices()), m.graph.sorted_edges(),
            dict(m._states))


class TestMetricsAccounting:
    def test_update_metrics_separate_from_init(self):
        g = erdos_renyi(40, 120, seed=51)
        m = _maintainer(g.copy())
        assert m.init_metrics.supersteps > 0
        assert m.update_metrics.supersteps == 0
        m.insert_edge(*next(
            (u, v) for u in g.vertices() for v in g.vertices()
            if u < v and not g.has_edge(u, v)
        ))
        assert m.update_metrics.supersteps > 0

    def test_update_charges_degree_sync(self, path5):
        m = _maintainer(path5, num_workers=4)
        before = m.update_metrics.bytes_sent
        m.insert_edge(0, 4)
        # at minimum the endpoints' degree changes ship to guest copies
        assert m.update_metrics.bytes_sent > before

    def test_recompute_from_scratch_matches(self):
        g = erdos_renyi(30, 90, seed=53)
        m = _maintainer(g.copy())
        maintained = m.independent_set()
        assert m.recompute_from_scratch() == maintained

    def test_len_and_contains(self, path5):
        m = _maintainer(path5)
        assert len(m) == 3
        assert m.contains(0) and not m.contains(1)
        assert not m.contains(424242)

    def test_repr(self, path5):
        m = _maintainer(path5)
        assert "DOIMISMaintainer" in repr(m)


class TestStrategiesDynamic:
    @pytest.mark.parametrize("strategy", list(ActivationStrategy))
    def test_every_strategy_maintains_fixpoint(self, strategy):
        g = erdos_renyi(40, 130, seed=61)
        m = _maintainer(g.copy(), strategy=strategy)
        edges = g.sorted_edges()[:10]
        for u, v in edges:
            m.delete_edge(u, v)
            assert m.independent_set() == greedy_mis(m.graph), (strategy, (u, v))
        for u, v in edges:
            m.insert_edge(u, v)
        assert m.independent_set() == greedy_mis(m.graph)

    def test_full_scan_variant_matches(self):
        g = erdos_renyi(40, 130, seed=63)
        fast = _maintainer(g.copy())
        scan = _maintainer(g.copy(), full_scan=True, strategy=ActivationStrategy.ALL)
        for u, v in g.sorted_edges()[:8]:
            fast.delete_edge(u, v)
            scan.delete_edge(u, v)
        assert fast.independent_set() == scan.independent_set()
