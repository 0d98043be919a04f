"""Unit tests for the partitioned graph view and guest directory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRPartition
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi
from repro.pregel.partition import (
    ExplicitPartitioner,
    HashPartitioner,
    RangePartitioner,
)
from repro.scaleg.guest import replication_report


def _two_worker_line():
    """0 - 1 - 2 with 0,2 on worker 0 and 1 on worker 1."""
    g = DynamicGraph.from_edges([(0, 1), (1, 2)])
    part = ExplicitPartitioner({0: 0, 1: 1, 2: 0}, num_workers=2)
    return DistributedGraph(g, part)


class TestPlacement:
    def test_worker_of_delegates(self):
        dg = _two_worker_line()
        assert dg.worker_of(0) == 0
        assert dg.worker_of(1) == 1

    def test_is_remote_pair(self):
        dg = _two_worker_line()
        assert dg.is_remote_pair(0, 1)
        assert not dg.is_remote_pair(0, 2)

    def test_guest_machines_initial(self):
        dg = _two_worker_line()
        # 1 lives on worker 1; its neighbours 0, 2 live on worker 0
        assert dg.guest_machines(1) == [0]
        assert dg.guest_machines(0) == [1]
        # 0 and 2 are not adjacent: no copies needed for 2 beyond worker 1
        assert dg.guest_machines(2) == [1]

    def test_worker_vertex_counts(self):
        dg = _two_worker_line()
        assert dg.worker_vertex_counts() == {0: 2, 1: 1}

    def test_replication_factor(self):
        dg = _two_worker_line()
        # each vertex has exactly one guest copy here
        assert dg.replication_factor() == pytest.approx(2.0)


class TestDirectoryMaintenance:
    def test_add_edge_creates_guest_copies(self):
        g = DynamicGraph.from_edges([], vertices=[0, 1])
        part = ExplicitPartitioner({0: 0, 1: 1}, num_workers=2)
        dg = DistributedGraph(g, part)
        assert dg.guest_machines(0) == []
        gained = dg.add_edge(0, 1)
        assert gained == (1, 1)
        assert dg.guest_machines(0) == [1]

    def test_second_edge_to_same_machine_is_refcounted(self):
        g = DynamicGraph.from_edges([], vertices=[0, 1, 3])
        part = ExplicitPartitioner({0: 0, 1: 1, 3: 1}, num_workers=2)
        dg = DistributedGraph(g, part)
        assert dg.add_edge(0, 1) == (1, 1)
        # 3 also lives on worker 1: no *new* copy of 0 needed there
        assert dg.add_edge(0, 3) == (0, 1)
        assert dg.num_guest_copies(0) == 1

    def test_remove_edge_garbage_collects_copies(self):
        dg = _two_worker_line()
        lost = dg.remove_edge(0, 1)
        assert lost == (1, 0)  # 0 loses its copy on worker 1; 1 keeps worker 0 (edge to 2)
        assert dg.guest_machines(0) == []
        assert dg.guest_machines(1) == [0]

    def test_local_edge_never_creates_copies(self):
        g = DynamicGraph.from_edges([], vertices=[0, 2])
        part = ExplicitPartitioner({0: 0, 2: 0}, num_workers=2)
        dg = DistributedGraph(g, part)
        assert dg.add_edge(0, 2) == (0, 0)
        assert dg.guest_machines(0) == []

    def test_remove_vertex_cleans_directory(self):
        dg = _two_worker_line()
        removed = dg.remove_vertex(1)
        assert removed == [(1, 0), (1, 2)]
        assert dg.guest_machines(0) == []
        assert not dg.has_vertex(1)

    def test_add_vertex(self):
        dg = _two_worker_line()
        dg.add_vertex(9)
        assert dg.has_vertex(9)
        assert dg.guest_machines(9) == []

    def test_directory_consistent_after_many_updates(self):
        g = erdos_renyi(30, 60, seed=4)
        dg = DistributedGraph(g, HashPartitioner(3))
        edges = g.sorted_edges()
        for u, v in edges[:30]:
            dg.remove_edge(u, v)
        for u, v in edges[:30]:
            dg.add_edge(u, v)
        # rebuild from scratch and compare the directory
        fresh = DistributedGraph(g.copy(), HashPartitioner(3))
        for u in g.vertices():
            assert sorted(dg.guest_machines(u)) == sorted(fresh.guest_machines(u))


class TestMemoryModel:
    def test_structural_memory_accounts_guests(self):
        dg = _two_worker_line()
        mem = dg.structural_memory_bytes({u: 1 for u in (0, 1, 2)})
        assert set(mem) == {0, 1}
        assert mem[0] > 0 and mem[1] > 0
        # worker 0 hosts two local vertices + one guest; worker 1 one local
        # vertex + two guests: worker 0 should be heavier (more adjacency)
        assert mem[0] > mem[1]

    def test_more_workers_more_total_memory(self):
        g = erdos_renyi(40, 120, seed=5)
        small = DistributedGraph(g.copy(), HashPartitioner(2))
        large = DistributedGraph(g.copy(), HashPartitioner(8))
        state = {u: 1 for u in g.vertices()}
        assert sum(large.structural_memory_bytes(state).values()) > sum(
            small.structural_memory_bytes(state).values()
        )


def _reference_guests(dg, u):
    """``u``'s guest machines straight from the graph: every worker other
    than its home that hosts a neighbour, ascending."""
    home = dg.worker_of(u)
    return sorted({dg.worker_of(v) for v in dg.neighbors(u)} - {home})


def _churned(seed, workers):
    """A random graph whose directory went through deletes, reinserts,
    vertex removal and re-adds (so freed slots get reused)."""
    g = erdos_renyi(40, 90, seed=seed)
    dg = DistributedGraph(g, HashPartitioner(workers, salt=seed))
    edges = g.sorted_edges()
    for u, v in edges[::3]:
        dg.remove_edge(u, v)
    for u in (5, 17, 33):
        dg.remove_vertex(u)
    dg.add_vertex(17)
    for u, v in reversed(edges[::3]):
        if dg.has_vertex(u) and dg.has_vertex(v):
            dg.add_edge(u, v)
    dg.add_edge(5, 2)
    return dg


class TestCanonicalOrder:
    def test_guest_machines_ascending_after_delete_and_reinsert(self):
        g = DynamicGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        part = ExplicitPartitioner({0: 0, 1: 1, 2: 2, 3: 3}, num_workers=4)
        dg = DistributedGraph(g, part)
        assert dg.guest_machines(0) == [1, 2, 3]
        dg.remove_edge(0, 1)
        dg.add_edge(0, 1)
        assert dg.guest_machines(0) == [1, 2, 3]
        dg.remove_edge(0, 3)
        dg.remove_edge(0, 2)
        dg.add_edge(0, 3)
        dg.add_edge(0, 2)
        assert dg.guest_machines(0) == [1, 2, 3]

    def test_removed_vertex_slot_is_reused(self):
        g = DynamicGraph.from_edges([(0, 1), (1, 2)])
        part = ExplicitPartitioner({0: 0, 1: 1, 2: 0, 7: 1}, num_workers=2)
        dg = DistributedGraph(g, part)
        dg.remove_vertex(1)
        assert dg.add_edge(0, 7) == (1, 1)
        assert len(dg._ids) == 3  # 7 took 1's freed slot
        assert dg.num_guest_copies(1) == 0
        assert dg.guest_machines(7) == [0]
        assert dg.guest_vertices_on(1) == [0]


class TestGuestQueries:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 3, 7])
    def test_guest_vertices_on_matches_the_graph(self, seed, workers):
        dg = _churned(seed, workers)
        for worker in range(workers):
            expected = sorted(
                u for u in dg.vertices()
                if worker in _reference_guests(dg, u)
            )
            assert dg.guest_vertices_on(worker) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 3, 7])
    def test_replication_sums_match_per_vertex_definitions(self, seed,
                                                          workers):
        dg = _churned(seed, workers)
        copies = [len(_reference_guests(dg, u)) for u in dg.vertices()]
        report = replication_report(dg)
        assert report["vertices"] == float(len(copies))
        assert report["replication_factor"] \
            == 1.0 + sum(copies) / len(copies)
        assert report["max_copies"] == float(max(copies))
        assert dg.replication_factor() \
            == sum(1 + c for c in copies) / len(copies)

    def test_empty_graph(self):
        dg = DistributedGraph(DynamicGraph(), HashPartitioner(3))
        assert dg.guest_vertices_on(1) == []
        assert dg.replication_factor() == 0.0
        assert replication_report(dg)["max_copies"] == 0


_VERTS = st.integers(min_value=0, max_value=11)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("edge"), _VERTS, _VERTS),  # insert, or delete if present
    st.tuples(st.just("drop"), _VERTS),  # remove_vertex (when present)
    st.tuples(st.just("vertex"), _VERTS),  # add_vertex (re-add after a drop)
), max_size=60)


def _partitioner(kind, workers):
    if kind == 0:
        return HashPartitioner(workers)
    if kind == 1:
        return RangePartitioner(workers, 11)
    return ExplicitPartitioner({u: (u * 5) % workers for u in range(0, 12, 2)},
                               workers)


class TestMutationProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.tuples(_VERTS, _VERTS).filter(lambda e: e[0] != e[1]),
                 max_size=25),
        _OPS,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=5),
    )
    def test_directory_equals_a_fresh_build(self, edges, ops, kind, workers):
        partitioner = _partitioner(kind, workers)
        dg = DistributedGraph(DynamicGraph.from_edges(edges), partitioner)
        part = CSRPartition.attach(dg)
        for op in ops:
            if op[0] == "edge":
                _, u, v = op
                if u == v:
                    continue
                if dg.graph.has_edge(u, v):
                    dg.remove_edge(u, v)
                else:
                    dg.add_edge(u, v)
            elif op[0] == "drop":
                if dg.has_vertex(op[1]):
                    dg.remove_vertex(op[1])
            else:
                dg.add_vertex(op[1])
            # settle after every op, so edge updates take the incremental
            # repair and vertex changes the rebuild
            part.ensure()
            assert part.guests.tolist() == [
                dg.num_guest_copies(u) for u in part.ids.tolist()
            ]
        fresh = DistributedGraph(dg.graph.copy(), partitioner)
        for u in fresh.vertices():
            assert dg.guest_machines(u) == fresh.guest_machines(u) \
                == _reference_guests(fresh, u)
            assert dg.num_guest_copies(u) == fresh.num_guest_copies(u)
        for worker in range(workers):
            assert dg.guest_vertices_on(worker) \
                == fresh.guest_vertices_on(worker)
        states = {u: u % 3 for u in fresh.vertices()}
        assert dg.structural_memory_bytes(states) \
            == fresh.structural_memory_bytes(states)
        for state_bytes in (0, 5):
            assert dg.structural_memory_bytes_uniform(state_bytes) \
                == fresh.structural_memory_bytes_uniform(state_bytes)
