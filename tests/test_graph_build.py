"""The array-native graph build against the incremental reference.

``DynamicGraph.from_edges`` builds CSR arrays with numpy and no adjacency
set: each row's set is built from the arrays when it is first touched.
``DistributedGraph`` derives the guest directory from the same arrays,
and the CSR mirror's first build takes them too.  The contract: every
observable -- vertex order, each set's iteration order, the directory,
the memory model -- equals a replay through ``add_vertex``/``add_edge``
whatever order the rows are touched in, no consumer ever sees arrays
older than the graph, and set-up builds no row.
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EdgeDeletion, EdgeInsertion, IngestionService, MISMaintainer
from repro.core.oimis import OIMISProgram
from repro.core.verification import is_greedy_fixpoint
from repro.errors import GraphError, SelfLoopError
from repro.graph.csr import CSRPartition
from repro.graph.distributed_graph import DistributedGraph
from repro.graph import dynamic_graph
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


def assert_same_graph(built, ref):
    """``built`` observes exactly as ``ref``: vertex order and every
    row's iteration order, then equality.  The orders come first, because
    ``==`` builds every row and would hide a row built in the wrong
    order."""
    assert list(built.vertices()) == list(ref.vertices())
    for u in ref.vertices():
        assert list(built.neighbors(u)) == list(ref.neighbors(u))
    assert built.num_edges == ref.num_edges
    assert built == ref


def built_rows(graph):
    """Vertices whose adjacency set exists; a bulk build makes none."""
    return {u for u in graph.vertices() if type(graph._adj[u]) is not int}


def assert_rows_match(ids, indptr, nbr, graph):
    """CSR arrays describe ``graph`` (rows compared as sets)."""
    assert ids.tolist() == graph.sorted_vertices()
    for i, u in enumerate(ids.tolist()):
        row = ids[nbr[indptr[i]:indptr[i + 1]]].tolist()
        assert len(row) == graph.degree(u)
        assert set(row) == graph.neighbors(u)


def independent_mirror(dgraph):
    """A fresh CSR mirror of ``dgraph`` whose build computes home, guests
    and the row map itself: the directory offers it nothing."""
    part = CSRPartition(dgraph)
    dgraph.rows_of = lambda arrays: None
    try:
        part.ensure()
    finally:
        del dgraph.rows_of
    return part


def assert_same_mirror(part, ref):
    for name in ("ids", "keys", "indptr", "nbr", "home", "guests"):
        assert np.array_equal(getattr(part, name), getattr(ref, name)), name
    assert list(part._index.items()) == list(ref._index.items())
    assert part._ids_list == ref._ids_list


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
        assert_same_graph(built, ref)
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
        assert list(isolated.vertices()) == [4, -2]
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

    @pytest.mark.parametrize("source", [[], np.empty((0, 2), np.int64)])
    def test_no_edges_with_vertices(self, source):
        graph = DynamicGraph.from_edges(source, vertices=[3, 1, 3, -5])
        assert_same_graph(graph, incremental([], [3, 1, -5]))
        ids, indptr, nbr = csr_arrays(graph)
        assert ids.tolist() == [-5, 1, 3]
        assert indptr.tolist() == [0, 0, 0, 0] and nbr.size == 0
        assert graph.max_degree() == 0

    def test_isolated_vertices_only(self):
        for vertices in ([9, -4, 2], np.array([9, -4, 2]), range(3)):
            graph = DynamicGraph.from_edges((), vertices=vertices)
            assert all(graph.degree(u) == 0 for u in graph.vertices())
            assert_same_graph(graph, incremental([], list(vertices)))
            assert not list(graph.edges())

    @pytest.mark.parametrize("edges", [
        [(4, 2), (2, 4), (4, 2), (2, 4)],
        [(2, 4), (4, 2), (2, 4), (4, 2)],
        [(4, 2), (4, 2), (4, 2)],
    ])
    def test_all_duplicates(self, edges):
        graph = DynamicGraph.from_edges(edges)
        assert graph.num_edges == 1
        assert_same_graph(graph, incremental(edges))
        ids, indptr, nbr = csr_arrays(graph)
        assert (ids.tolist(), indptr.tolist(), nbr.tolist()) \
            == ([2, 4], [0, 1, 2], [1, 0])

    def test_int64_extremes_build(self):
        lo, hi = -(2 ** 63), 2 ** 63 - 1
        edges = [(hi, lo), (0, hi), (lo, hi), (lo, -1), (hi, 0), (-1, 1)]
        graph = DynamicGraph.from_edges(edges, vertices=[1, hi])
        assert_same_graph(graph, incremental(edges, [1, hi]))
        ids, indptr, nbr = csr_arrays(graph)
        assert ids.tolist() == [lo, -1, 0, 1, hi]
        assert_rows_match(ids, indptr, nbr, graph)

    def test_first_self_loop_named(self):
        with pytest.raises(SelfLoopError) as info:
            DynamicGraph.from_edges([(1, 2), (7, 7), (3, 3)])
        assert info.value.vertex == 7


@st.composite
def spread_edge_inputs(draw):
    """Edges (duplicates and reversed duplicates included) and isolated
    vertices whose ids sit at ``base + offset``: ``base`` anywhere in
    ``int64``, its ends included, and the offsets packed tight or spread
    thin, so the ids are dense or sparse for their count."""
    width = draw(st.sampled_from([3, 40, 1 << 12, 1 << 20]))
    top = (1 << 63) - width
    base = draw(st.sampled_from([-(1 << 63), top, -width // 2, 0])
                | st.integers(-(1 << 63), top))
    ids = st.integers(0, width - 1).map(lambda offset: base + offset)
    edges = draw(st.lists(
        st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=40
    ))
    if edges and draw(st.booleans()):
        repeats = draw(st.lists(st.sampled_from(edges), max_size=10))
        edges += [(v, u) if draw(st.booleans()) else (u, v)
                  for u, v in repeats]
    return edges, draw(st.lists(ids, max_size=8))


def both_relabels():
    """Patch contexts forcing :func:`_edge_csr`'s relabel through the
    ``np.unique`` sort, then through the dense bitmap (spans up to
    ``1 << 20`` ids, so the bitmap fits)."""
    return (mock.patch.object(dynamic_graph, "_DENSE_SPAN", 0),
            mock.patch.object(dynamic_graph, "_DENSE_SPAN", 1 << 21))


class TestRelabel:
    """``_edge_csr`` maps ids to rows through a bitmap when they are dense
    and through ``np.unique`` otherwise; both must build the same graph."""

    @settings(max_examples=200, deadline=None)
    @given(spread_edge_inputs())
    def test_dense_and_sorted_relabels_agree(self, case):
        edges, vertices = case
        built = []
        for relabel in both_relabels():
            with relabel:
                built.append(dynamic_graph._edge_csr(edges, vertices))
        by_sort, dense = built
        for a, b in zip(by_sort, dense):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        natural = dynamic_graph._edge_csr(edges, vertices)
        assert all(np.array_equal(a, b) for a, b in zip(natural, dense))
        ref = incremental(edges, vertices)
        for relabel in both_relabels():
            with relabel:
                assert_same_graph(
                    DynamicGraph.from_edges(edges, vertices), ref
                )

    @pytest.mark.parametrize("edges, vertices", [
        ([(1, 2), (5, 5), (3, 3)], ()),
        ([(2 ** 62, 2 ** 62 + 1), (2 ** 62 + 1, 2 ** 62 + 1)], ()),
        ([(-(2 ** 63), 2 ** 63 - 1), (9, 9)], [4]),
    ])
    def test_self_loop_error_names_the_first_loop(self, edges, vertices):
        loop = next(u for u, v in edges if u == v)
        for relabel in both_relabels():
            with relabel, pytest.raises(SelfLoopError) as info:
                DynamicGraph.from_edges(edges, vertices)
            assert str(info.value) == str(SelfLoopError(loop))

    def test_bad_id_error_is_the_same_on_both_branches(self):
        for relabel in both_relabels():
            with relabel, pytest.raises(
                    GraphError, match=f"vertex id {2 ** 63} is not"):
                DynamicGraph.from_edges([(1, 2), (3, 2 ** 63)])

    def test_dense_ids_skip_the_sort(self):
        edges = [(u, (7 * u + 3) % 500) for u in range(500)
                 if u != (7 * u + 3) % 500]
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            graph = DynamicGraph.from_edges(edges, vertices=range(500))
        assert_same_graph(graph, incremental(edges, range(500)))


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
        ([(1, 2), (3, np.float64(4.0))], (), re.escape(repr(np.float64(4.0)))),
    ])
    def test_non_integer_ids_rejected(self, edges, vertices, bad):
        with pytest.raises(GraphError, match=f"vertex id {bad} is not"):
            DynamicGraph.from_edges(edges, vertices=vertices)

    def test_maintainer_names_the_bad_id(self):
        with pytest.raises(GraphError, match="0.5"):
            MISMaintainer.from_edges([(0.5, 1.5)])

    def test_malformed_pairs_rejected(self):
        # the last two hold 2 ids per pair on average, so a conversion
        # that only counted ids would take them
        for edges in ([(1, 2, 3)], [(1, 2), (3,)], [5],
                      [(1, 2, 3), (4,)], [(1,), (2, 3, 4)]):
            with pytest.raises(GraphError, match="expected a \\(u, v\\) pair"):
                DynamicGraph.from_edges(edges)

    def test_mixed_integer_types_build_as_plain_ints(self):
        mixed = [(np.int64(3), 1), (True, np.int32(5)), (3, False),
                 (np.uint8(7), np.int64(1))]
        plain = [(3, 1), (1, 5), (3, 0), (7, 1)]
        graph = DynamicGraph.from_edges(mixed, vertices=[np.int16(9), 2])
        assert_same_graph(graph, incremental(plain, [9, 2]))
        assert all(type(u) is int for u in graph.vertices())

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
        # the directory missed those updates: nothing was taken from it
        assert_same_mirror(part, independent_mirror(dgraph))
        fresh = incremental(list(graph.edges()), graph.vertices())
        assert_rows_match(*csr_arrays(fresh), graph)
        members = {u for u, inside in result.states.items() if inside}
        assert is_greedy_fixpoint(graph, members)

    @pytest.mark.parametrize("partitioner", [
        HashPartitioner(4), ExplicitPartitioner({0: 2, 5: 1, 9: 0}, 3),
    ])
    def test_mirror_from_the_directory_equals_an_independent_build(
            self, partitioner, tmp_path):
        edges = _service_graph()
        maintainer = MISMaintainer.from_edges(
            edges, vertices=range(300), partitioner=partitioner
        )
        # the first build took the directory's rows
        assert maintainer.dgraph.rows_of(csr_arrays(maintainer.graph)) \
            is not None
        assert_same_mirror(maintainer.dgraph._csr_partition,
                           independent_mirror(maintainer.dgraph))
        path = str(tmp_path / "ck")
        maintainer.save(path)
        restored = MISMaintainer.load(path, partitioner=partitioner)
        assert restored.dgraph.rows_of(csr_arrays(restored.graph)) \
            is not None
        assert_same_mirror(restored.dgraph._csr_partition,
                           independent_mirror(restored.dgraph))
        # an edge update repairs the mirror; a removed vertex and a new
        # one, which takes the freed slot (so slots are no longer rows),
        # rebuild it
        part = restored.dgraph._csr_partition
        restored.delete_edge(*edges[0])
        restored.delete_vertex(5)
        restored.insert_vertex(300, [0, 7, 299])
        assert part.rebuilds == 2
        assert restored.dgraph.rows_of(csr_arrays(restored.graph)) is None
        assert_same_mirror(part, independent_mirror(restored.dgraph))

    def test_two_setups_repeat(self):
        edges = _service_graph(n=2000, m=8000, seed=3)
        first, second = (MISMaintainer.from_edges(edges, vertices=range(2000))
                         for _ in range(2))
        assert first.init_metrics.logical() == second.init_metrics.logical()
        assert list(first._states.items()) == list(second._states.items())

    def test_copy_does_not_share_arrays(self):
        graph = DynamicGraph.from_edges([(1, 2)])
        clone = graph.copy()
        assert clone._arrays is None
        assert_rows_match(*csr_arrays(clone), graph)


_OPS = ("add_edge", "remove_edge", "add_vertex", "remove_vertex",
        "has_edge", "degree", "neighbors", "edges", "sizes", "max_degree",
        "ranked", "csr", "copy", "eq")


def observe(graph, name, u, v):
    """Run operation ``name`` on ``graph``: its result, or the type of the
    graph error it raised."""
    try:
        if name == "add_edge":
            return graph.add_edge(u, v)
        if name == "remove_edge":
            return graph.remove_edge(u, v)
        if name == "add_vertex":
            return graph.add_vertex(u)
        if name == "remove_vertex":
            return graph.remove_vertex(u)
        if name == "has_edge":
            return graph.has_edge(u, v)
        if name == "degree":
            return graph.degree(u)
        if name == "neighbors":
            return list(graph.neighbors(u))
        if name == "edges":
            return list(graph.edges())
        if name == "sizes":
            # the edge counter against the degrees (untouched rows answer
            # from the arrays), not just against the reference's counter
            assert 2 * graph.num_edges \
                == sum(map(graph.degree, graph.vertices()))
            return graph.num_vertices, graph.num_edges
        if name == "max_degree":
            return graph.max_degree()
        if name == "ranked":
            # attaches the rank cache, whose repairs route remove_vertex
            # through remove_edge from then on
            return graph.ranked_neighbors(u) if u in graph else None
        assert name == "csr"
        ids, indptr, nbr = csr_arrays(graph)
        # order within a row is the build's, which nothing reads
        rows = [sorted(ids[nbr[a:b]].tolist())
                for a, b in zip(indptr[:-1], indptr[1:])]
        return ids.tolist(), indptr.tolist(), rows
    except GraphError as exc:
        return type(exc)


class TestLazyRows:
    """A bulk-built graph, its rows touched in any order, observes exactly
    as the incremental reference under any interleaving of updates."""

    @settings(max_examples=200, deadline=None)
    @given(edge_inputs(), st.booleans(),
           st.lists(st.tuples(st.sampled_from(_OPS), _IDS, _IDS),
                    max_size=30))
    def test_interleavings_match_incremental(self, case, via_csr, ops):
        edges, vertices = case
        built = DynamicGraph.from_edges(edges, vertices)
        if via_csr:
            # ascending ids, each row in the incremental insertion order
            ids = csr_arrays(built)[0].tolist()
            built = DynamicGraph.from_csr(*csr_arrays(built))
            ref = incremental(edges, ids)
        else:
            ref = incremental(edges, vertices)
        for name, u, v in ops:
            if name == "copy":
                built, ref = built.copy(), ref.copy()
            elif name == "eq":
                assert built == ref and ref == built
            else:
                assert observe(built, name, u, v) == observe(ref, name, u, v)
        assert_same_graph(built, ref)
        assert built._lazy == 0 and built._base is None
        assert built.num_edges == len(list(built.edges()))

    def test_equality_on_untouched_rows(self):
        def graph(*extra):
            return DynamicGraph.from_edges([(1, 2), (2, 3)], vertices=extra)

        assert graph() != graph(4) and graph(4) != graph()
        assert graph() != DynamicGraph.from_edges([(1, 2), (1, 3)])
        assert graph(3) == DynamicGraph.from_edges([(3, 2), (2, 1)])
        assert graph() != DynamicGraph()

    def test_untouched_rows_answer_from_the_arrays(self):
        graph = DynamicGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        assert (graph.num_edges, graph.max_degree(), graph.degree(3)) \
            == (4, 3, 3)
        assert repr(graph) == "DynamicGraph(n=4, m=4, deg_avg=2.00)"
        assert built_rows(graph) == set()
        assert graph.has_edge(4, 3) and not graph.has_edge(1, 4)
        assert built_rows(graph) == {4, 1}
        graph.remove_edge(2, 3)
        assert built_rows(graph) == {1, 2, 3, 4}
        # every row built: the base arrays go
        assert graph._base is None and graph.num_edges == 3


def _service_graph(n=300, m=1200, seed=7):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, (m, 2))
    return [(int(u), int(v)) for u, v in pairs if u != v]


class TestSetupBuildsNoRow:
    """Set-up pays only for the rows it touches: the static run sweeps the
    arrays, a window builds only its endpoints' rows, and the mirror's
    settle turns them back into rows of its arrays."""

    def test_service_setup_then_one_window(self, tmp_path, monkeypatch):
        edges = _service_graph()
        maintainer = MISMaintainer.from_edges(edges, vertices=range(300))
        service = IngestionService(maintainer, str(tmp_path / "wal"),
                                   serve_reads=True, checkpoint_every=1)
        graph = maintainer.graph
        assert built_rows(graph) == set()
        built = []
        real_row = DynamicGraph._row

        def spy(self, u):
            if type(self._adj[u]) is int:
                built.append(u)
            return real_row(self, u)

        monkeypatch.setattr(DynamicGraph, "_row", spy)
        present = {(min(e), max(e)) for e in edges}
        absent = next((u, v) for u in range(300) for v in range(u + 1, 300)
                      if (u, v) not in present)
        ops = [EdgeDeletion(*edges[3]), EdgeInsertion(*absent)]
        for op in ops:
            service.submit(op)
        service.drain()
        assert service.windows_committed >= 1
        assert sorted(built) == sorted({w for op in ops
                                        for w in (op.u, op.v)})
        assert built_rows(graph) == set()
        service.close()
        maintainer.verify()

    def test_restore_builds_no_row(self, tmp_path):
        maintainer = MISMaintainer.from_edges(_service_graph(),
                                              vertices=range(300))
        path = str(tmp_path / "ck")
        maintainer.save(path)
        restored = MISMaintainer.load(path, verify=False)
        assert built_rows(restored.graph) == set()
        assert restored.independent_set() == maintainer.independent_set()


# ---------------------------------------------------------------------------
# between windows, the CSR mirror's arrays are the graph's only adjacency
# ---------------------------------------------------------------------------
_WINDOW_OPS = st.lists(st.one_of(
    st.tuples(st.just("edges"),
              st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                       min_size=1, max_size=6)),
    st.tuples(st.just("insert_vertex"),
              st.sets(st.integers(0, 40), min_size=1, max_size=3)),
    st.tuples(st.just("delete_vertex"), st.integers(0, 40)),
    st.tuples(st.just("swap"), st.tuples(st.integers(0, 80),
                                         st.integers(0, 80))),
), min_size=1, max_size=8)


class TestMirrorIsTheAdjacency:
    """Every settle of the CSR mirror turns the rows a window built back
    into rows of the mirror's arrays; the graph still answers as a plain
    one-update-at-a-time replay."""

    @settings(max_examples=40, deadline=None)
    @given(edges=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))
                          .filter(lambda e: e[0] != e[1]), max_size=30),
           windows=_WINDOW_OPS)
    def test_windows_leave_no_row_built(self, edges, windows):
        maintainer = MISMaintainer.from_edges(edges, vertices=range(12),
                                              num_workers=3)
        ref = incremental(edges, range(12))
        graph = maintainer.graph
        next_id = 12
        for kind, arg in windows:
            live = sorted(ref.vertices())
            if kind == "edges":
                ops, seen = [], set()
                for i, j in arg:
                    u, v = live[i % len(live)], live[j % len(live)]
                    if u == v or (min(u, v), max(u, v)) in seen:
                        continue
                    seen.add((min(u, v), max(u, v)))
                    if ref.has_edge(u, v):
                        ref.remove_edge(u, v)
                        ops.append(EdgeDeletion(u, v))
                    else:
                        ref.add_edge(u, v)
                        ops.append(EdgeInsertion(u, v))
                if not ops:
                    continue
                maintainer.apply_batch(ops)
            elif kind == "swap":
                # (a, b), (c, d) -> (a, d), (c, b): every degree stays, so
                # the mirror rewrites the rows in place
                present = sorted(ref.edges())
                if not present:
                    continue
                (a, b), (c, d) = (present[i % len(present)] for i in arg)
                if len({a, b, c, d}) < 4 or ref.has_edge(a, d) \
                        or ref.has_edge(c, b):
                    continue
                ops = [EdgeDeletion(a, b), EdgeDeletion(c, d),
                       EdgeInsertion(a, d), EdgeInsertion(c, b)]
                for op in ops:
                    if isinstance(op, EdgeDeletion):
                        ref.remove_edge(op.u, op.v)
                    else:
                        ref.add_edge(op.u, op.v)
                maintainer.apply_batch(ops)
            elif kind == "insert_vertex":
                nbrs = {live[i % len(live)] for i in arg}
                maintainer.insert_vertex(next_id, nbrs)
                for v in nbrs:
                    ref.add_edge(next_id, v)
                next_id += 1
            else:
                # a vertex with an edge, so that the deletion runs a window
                # (an isolated one leaves the graph without one)
                linked = [u for u in live if ref.degree(u)]
                if not linked:
                    continue
                u = linked[arg % len(linked)]
                maintainer.delete_vertex(u)
                ref.remove_vertex(u)
            assert built_rows(graph) == set()
            assert graph.num_edges == ref.num_edges
            assert list(graph.vertices()) == list(ref.vertices())
            assert all(graph.degree(u) == ref.degree(u)
                       for u in ref.vertices())
            assert all(graph.neighbors(u) == ref.neighbors(u)
                       for u in ref.vertices())
        assert is_greedy_fixpoint(ref, maintainer.independent_set())

    def test_dict_path_with_a_mirror_matches_without(self, tmp_path):
        from repro.graph.datasets import load_dataset
        from repro.serve import TraceConfig, bursty_trace

        ops, timestamps = bursty_trace(load_dataset("AM"),
                                       TraceConfig(num_ops=300, seed=5))
        results = []
        for reads in (False, True):
            maintainer = MISMaintainer(load_dataset("AM"), num_workers=6,
                                       representation="dict")
            service = IngestionService(maintainer, str(tmp_path / str(reads)),
                                       window_size=16, serve_reads=reads)
            for op, ts in zip(ops, timestamps):
                service.submit(op, ts)
            service.close()
            part = getattr(maintainer.dgraph, "_csr_partition", None)
            assert (part is not None) == reads
            if reads:
                assert part.repairs + part.rebuilds > 10
            results.append((maintainer.update_metrics.logical(),
                            maintainer.independent_set()))
        assert results[0] == results[1]

    def test_graph_and_mirror_bytes_per_vertex(self):
        import gc
        import tracemalloc

        n = 5000
        rng = np.random.default_rng(3)
        pairs = rng.integers(0, n, (4 * n, 2))
        tracemalloc.start()
        try:
            maintainer = MISMaintainer.from_edges(
                pairs[pairs[:, 0] != pairs[:, 1]], vertices=range(n))
            graph = maintainer.graph
            for _ in range(40):
                ops, seen = [], set()
                for u, v in rng.integers(0, n, (64, 2)).tolist():
                    if u == v or (min(u, v), max(u, v)) in seen:
                        continue
                    seen.add((min(u, v), max(u, v)))
                    ops.append(EdgeDeletion(u, v) if graph.has_edge(u, v)
                               else EdgeInsertion(u, v))
                maintainer.apply_batch(ops)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([
            tracemalloc.Filter(True, "*repro/graph/dynamic_graph.py"),
            tracemalloc.Filter(True, "*repro/graph/csr.py"),
        ]).statistics("filename")
        # about 207 B/vertex: the mirror's arrays, the {id: row} map and
        # the static run's states.  A set per touched row, as when every
        # built row was kept, took about 777 B/vertex here
        assert sum(stat.size for stat in held) / n < 300
        assert built_rows(graph) == set()
