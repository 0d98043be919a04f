"""The array-native graph build against the incremental reference.

``DynamicGraph.from_edges`` builds CSR arrays with numpy and fills the
adjacency sets from their rows; ``DistributedGraph`` derives the guest
directory from the same arrays, and the CSR mirror's first build takes
them too.  The contract: every observable -- vertex order, each set's
iteration order, the directory, the memory model -- equals a replay
through ``add_vertex``/``add_edge``, and no consumer ever sees arrays
older than the graph.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MISMaintainer
from repro.core.oimis import OIMISProgram
from repro.core.verification import is_greedy_fixpoint
from repro.errors import GraphError, SelfLoopError
from repro.graph.csr import CSRPartition
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph, csr_arrays
from repro.pregel.partition import (
    ExplicitPartitioner,
    HashPartitioner,
    RangePartitioner,
)
from repro.scaleg.engine import ScaleGEngine

_IDS = st.integers(min_value=-6, max_value=14)


def incremental(edges, vertices=()):
    """The reference build: one ``add_vertex``/``add_edge`` at a time."""
    graph = DynamicGraph()
    for u in vertices:
        graph.add_vertex(u)
    for u, v in edges:
        graph.add_vertex(u)
        graph.add_vertex(v)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def replayed_directory(edges, vertices, partitioner):
    """A ``DistributedGraph`` whose directory grew one update at a time."""
    dgraph = DistributedGraph(DynamicGraph(), partitioner)
    for u in vertices:
        dgraph.add_vertex(u)
    for u, v in edges:
        if not dgraph.graph.has_edge(u, v):
            dgraph.add_edge(u, v)
    return dgraph


def assert_rows_match(ids, indptr, nbr, graph):
    """CSR arrays describe ``graph`` (rows compared as sets)."""
    assert ids.tolist() == graph.sorted_vertices()
    for i, u in enumerate(ids.tolist()):
        row = ids[nbr[indptr[i]:indptr[i + 1]]].tolist()
        assert len(row) == graph.degree(u)
        assert set(row) == graph.neighbors(u)


@st.composite
def edge_inputs(draw):
    """Edges with duplicates, reversed duplicates and negative ids, plus
    isolated vertices; self-loops are left out (they raise)."""
    edges = draw(st.lists(
        st.tuples(_IDS, _IDS).filter(lambda e: e[0] != e[1]), max_size=40
    ))
    if edges and draw(st.booleans()):
        # repeat some edges, some of them written the other way round
        repeats = draw(st.lists(st.sampled_from(edges), max_size=10))
        edges += [(v, u) if draw(st.booleans()) else (u, v)
                  for u, v in repeats]
    vertices = draw(st.lists(_IDS, max_size=8))
    return edges, vertices


def partitioners(edges, vertices, assignment_seed):
    ids = {u for e in edges for u in e} | set(vertices)
    top = max(ids, default=0)
    rng = np.random.default_rng(assignment_seed)
    # an explicit map over some ids; the rest fall through to the hash
    explicit = {u: int(rng.integers(3)) for u in sorted(ids)
                if rng.random() < 0.7}
    return (HashPartitioner(4), HashPartitioner(3, salt=5),
            RangePartitioner(3, max(top, 0)), ExplicitPartitioner(explicit, 3))


class TestArrayBuild:
    @settings(max_examples=150, deadline=None)
    @given(edge_inputs(), st.booleans())
    def test_matches_incremental_build(self, case, as_generator):
        edges, vertices = case
        source = (e for e in edges) if as_generator else edges
        built = DynamicGraph.from_edges(source, vertices=iter(vertices))
        ref = incremental(edges, vertices)
        assert built == ref
        assert list(built._adj) == list(ref._adj)
        for u in ref._adj:
            assert list(built._adj[u]) == list(ref._adj[u])
        assert_rows_match(*csr_arrays(built), ref)

    @settings(max_examples=100, deadline=None)
    @given(edge_inputs(), st.integers(min_value=0, max_value=1000))
    def test_directory_matches_replay(self, case, seed):
        edges, vertices = case
        for partitioner in partitioners(edges, vertices, seed):
            built = DistributedGraph(
                DynamicGraph.from_edges(edges, vertices), partitioner
            )
            ref = replayed_directory(edges, vertices, partitioner)
            for u in ref.vertices():
                assert built.guest_machines(u) == ref.guest_machines(u)
                assert built.num_guest_copies(u) == ref.num_guest_copies(u)
            for worker in range(partitioner.num_workers):
                assert built.guest_vertices_on(worker) \
                    == ref.guest_vertices_on(worker)
            assert built.replication_factor() == ref.replication_factor()
            for state_bytes in (0, 9):
                assert built.structural_memory_bytes_uniform(state_bytes) \
                    == ref.structural_memory_bytes_uniform(state_bytes)
            states = {u: 3 for u in ref.vertices()}
            assert built.structural_memory_bytes(states) \
                == ref.structural_memory_bytes(states)

    def test_empty_input(self):
        for source in ([], (), iter([]), np.empty((0, 2), np.int64)):
            graph = DynamicGraph.from_edges(source)
            assert graph.num_vertices == 0
            ids, indptr, nbr = csr_arrays(graph)
            assert ids.size == 0 and indptr.tolist() == [0] and nbr.size == 0
        isolated = DynamicGraph.from_edges([], vertices=[4, -2, 4])
        assert list(isolated._adj) == [4, -2]
        assert DistributedGraph(isolated, HashPartitioner(2)) \
            .structural_memory_bytes_uniform(1) \
            == replayed_directory([], [4, -2], HashPartitioner(2)) \
            .structural_memory_bytes_uniform(1)

    def test_numpy_input(self):
        edges = [(5, 1), (1, 5), (2, 5)]
        for array in (np.array(edges, np.int32), np.array(edges, np.uint64)):
            graph = DynamicGraph.from_edges(array)
            assert graph == incremental(edges)
            assert all(type(u) is int for u in graph.vertices())

    def test_first_self_loop_named(self):
        with pytest.raises(SelfLoopError) as info:
            DynamicGraph.from_edges([(1, 2), (7, 7), (3, 3)])
        assert info.value.vertex == 7


class TestIdDomain:
    @pytest.mark.parametrize("edges, vertices, bad", [
        ([(0.5, 1.5)], (), "0.5"),
        ([(1, 2), (3, 4.0)], (), "4.0"),
        ([(1, 2 ** 63)], (), str(2 ** 63)),
        ([(-(2 ** 63) - 1, 0)], (), str(-(2 ** 63) - 1)),
        ([(1, 2 ** 70)], (), str(2 ** 70)),
        ([("a", "b")], (), "'a'"),
        ([(1, None)], (), "None"),
        ([(1, 2)], [1.0], "1.0"),
        (np.array([[1.0, 2.0]]), (), "1.0"),
    ])
    def test_non_integer_ids_rejected(self, edges, vertices, bad):
        with pytest.raises(GraphError, match=f"vertex id {bad} is not"):
            DynamicGraph.from_edges(edges, vertices=vertices)

    def test_maintainer_names_the_bad_id(self):
        with pytest.raises(GraphError, match="0.5"):
            MISMaintainer.from_edges([(0.5, 1.5)])

    def test_malformed_pairs_rejected(self):
        for edges in ([(1, 2, 3)], [(1, 2), (3,)], [5]):
            with pytest.raises(GraphError, match="expected a \\(u, v\\) pair"):
                DynamicGraph.from_edges(edges)

    def test_int64_extremes_accepted(self):
        lo, hi = -(2 ** 63), 2 ** 63 - 1
        graph = DynamicGraph.from_edges([(lo, hi)])
        assert sorted(graph.vertices()) == [lo, hi]


class TestArrayFreshness:
    def test_arrays_kept_until_first_mutation(self):
        graph = DynamicGraph.from_edges([(1, 2), (2, 3)])
        arrays = csr_arrays(graph)
        assert csr_arrays(graph) is arrays
        assert not any(a.flags.writeable for a in arrays)
        graph.add_vertex(2)  # no-op: the arrays stay
        assert csr_arrays(graph) is arrays
        graph.add_edge(1, 3)
        fresh = csr_arrays(graph)
        assert fresh is not arrays
        assert_rows_match(*fresh, graph)

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_edge(0, 7),
        lambda g: g.remove_edge(*next(iter(g.edges()))),
        lambda g: g.add_vertex(99),
        lambda g: g.remove_vertex(3),
    ])
    def test_every_mutator_drops_the_arrays(self, mutate):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)],
                                        vertices=range(8))
        arrays = csr_arrays(graph)
        mutate(graph)
        assert csr_arrays(graph) is not arrays
        assert_rows_match(*csr_arrays(graph), graph)

    def test_mirror_takes_the_build_arrays(self):
        graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        dgraph = DistributedGraph(graph, HashPartitioner(2))
        part = CSRPartition.attach(dgraph)
        part.ensure()
        assert part.nbr is csr_arrays(graph)[2]
        # a same-length repair copies before writing the read-only arrays
        graph.remove_edge(0, 1)
        graph.add_edge(0, 2)
        graph.remove_edge(2, 3)
        graph.add_edge(1, 3)
        part.ensure()
        assert part.repairs == 1 and part.nbr.flags.writeable
        assert_rows_match(part.ids, part.indptr, part.nbr, graph)

    def test_mutation_before_first_run_reaches_the_mirror(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
        graph = DynamicGraph.from_edges(edges, vertices=range(6))
        dgraph = DistributedGraph(graph, HashPartitioner(3))
        # straight on the graph, behind the DistributedGraph's back
        graph.remove_edge(1, 3)
        graph.add_edge(5, 2)
        graph.add_edge(0, 2)
        result = ScaleGEngine(dgraph).run(OIMISProgram())
        part = dgraph._csr_partition
        assert part.rebuilds == 1
        assert_rows_match(part.ids, part.indptr, part.nbr, graph)
        fresh = incremental(list(graph.edges()), graph.vertices())
        assert_rows_match(*csr_arrays(fresh), graph)
        members = {u for u, inside in result.states.items() if inside}
        assert is_greedy_fixpoint(graph, members)

    def test_copy_does_not_share_arrays(self):
        graph = DynamicGraph.from_edges([(1, 2)])
        clone = graph.copy()
        assert clone._arrays is None
        assert_rows_match(*csr_arrays(clone), graph)
