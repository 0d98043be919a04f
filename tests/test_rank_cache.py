"""Property tests for the rank-ordered cached adjacency.

The load-bearing invariant: after any mixed update sequence, every
materialized list equals a fresh ``sorted(neighbors, key=rank)`` — i.e. the
incremental membership edits and single-entry repositioning repairs are
indistinguishable from rebuilding from scratch.
"""

import random

import pytest

from repro.core.weighted import WeightedMISMaintainer
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import barabasi_albert, chung_lu, erdos_renyi
from repro.graph.rank_cache import degree_rank_key


def fresh_ranked(graph, u, key):
    return [v for _, v in sorted((key(v), v) for v in graph.neighbors(u))]


def assert_cache_consistent(graph, cache, key):
    for u in graph.sorted_vertices():
        assert cache.ranked_neighbors(u) == fresh_ranked(graph, u, key), (
            f"cache for vertex {u} diverged from a fresh sort"
        )


def random_mixed_updates(graph, rng, steps):
    """Drive ``steps`` random add-edge / remove-edge / remove-vertex /
    add-vertex operations against ``graph`` (mutating it in place)."""
    next_id = max(graph.sorted_vertices(), default=0) + 1
    for _ in range(steps):
        vertices = graph.sorted_vertices()
        op = rng.random()
        if op < 0.40 and len(vertices) >= 2:
            u, v = rng.sample(vertices, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
        elif op < 0.70:
            edges = graph.sorted_edges()
            if edges:
                u, v = edges[rng.randrange(len(edges))]
                graph.remove_edge(u, v)
        elif op < 0.85 and vertices:
            graph.remove_vertex(vertices[rng.randrange(len(vertices))])
        else:
            u = next_id
            next_id += 1
            graph.add_vertex(u)
            for v in rng.sample(vertices, min(3, len(vertices))):
                graph.add_edge(u, v)


GENERATORS = {
    "er": lambda: erdos_renyi(60, 180, seed=5),
    "ba": lambda: barabasi_albert(60, 3, seed=6),
    "chung_lu": lambda: chung_lu(60, 6.0, seed=7),
}


class TestDegreeOrderInvariant:
    @pytest.mark.parametrize("model", sorted(GENERATORS))
    def test_500_random_mixed_updates(self, model):
        graph = GENERATORS[model]()
        cache = graph.rank_cache()
        key = degree_rank_key(graph)
        # materialize everything up front so repairs (not rebuilds) carry
        # the burden of keeping the lists correct
        for u in graph.sorted_vertices():
            cache.ranked_neighbors(u)
        rng = random.Random(42)
        for checkpoint in range(10):
            random_mixed_updates(graph, rng, 50)
            assert_cache_consistent(graph, cache, key)
        assert cache.repairs > 0

    def test_vertex_removal_drops_cache_rows(self):
        graph = DynamicGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        cache = graph.rank_cache()
        for u in graph.sorted_vertices():
            cache.ranked_neighbors(u)
        graph.remove_vertex(3)
        key = degree_rank_key(graph)
        assert_cache_consistent(graph, cache, key)
        assert 3 not in cache._entries and 3 not in cache._keys

    def test_shared_cache_bulk_builds_once(self):
        # the graph's shared cache materializes everything at creation in
        # ONE counted bulk build; queries afterwards never rebuild
        graph = erdos_renyi(30, 60, seed=1)
        cache = graph.rank_cache()
        assert cache.rebuilds == 1
        assert set(cache._entries) == set(graph.sorted_vertices())
        cache.ranked_neighbors(0)
        assert cache.rebuilds == 1
        assert_cache_consistent(graph, cache, degree_rank_key(graph))

    def test_lazy_materialization_counts_rebuilds(self):
        # a detached (custom-key) cache keeps the lazy economy: one counted
        # rebuild per first-touched vertex
        graph = erdos_renyi(30, 60, seed=1)
        cache = graph.attach_rank_cache(degree_rank_key(graph))
        assert cache.rebuilds == 0
        cache.ranked_neighbors(0)
        assert cache.rebuilds == 1
        cache.ranked_neighbors(0)  # served from cache
        assert cache.rebuilds == 1

    def test_build_all_counts_one_bulk_build(self):
        graph = erdos_renyi(30, 60, seed=1)
        cache = graph.attach_rank_cache(degree_rank_key(graph))
        cache.ranked_neighbors(0)  # one lazy materialization first
        cache.build_all()
        # rebuilds = bulk builds + lazy per-vertex materializations
        assert cache.rebuilds == 2
        assert set(cache._entries) == set(graph.sorted_vertices())
        assert_cache_consistent(graph, cache, degree_rank_key(graph))
        cache.build_all()  # idempotent on content, still counted as a build
        assert cache.rebuilds == 3
        # vertices born after the bulk pass materialize lazily again
        graph.add_edge(1000, 1001)
        cache.ranked_neighbors(1000)
        assert_cache_consistent(graph, cache, degree_rank_key(graph))


class TestCustomKey:
    def test_weighted_style_key_with_refresh(self):
        graph = erdos_renyi(40, 100, seed=3)
        weights = {u: 1.0 + (u % 5) for u in graph.sorted_vertices()}

        def key(u):
            # .get: vertices born mid-stream carry the default unit weight
            w = weights.get(u, 1.0)
            return (-w / (graph.degree(u) + 1), -w, u)

        cache = graph.attach_rank_cache(key)
        for u in graph.sorted_vertices():
            cache.ranked_neighbors(u)
        rng = random.Random(9)
        for _ in range(100):
            u = rng.choice(graph.sorted_vertices())
            weights[u] = rng.uniform(0.5, 9.5)
            cache.refresh_key(u)
        random_mixed_updates(graph, rng, 50)
        assert_cache_consistent(graph, cache, key)

    def test_weighted_maintainer_keeps_cache_after_set_weight(self):
        graph = erdos_renyi(30, 70, seed=11)
        maintainer = WeightedMISMaintainer(graph, num_workers=4)
        cache = maintainer._program._rank_cache
        assert cache is not None
        for u in sorted(maintainer.graph.sorted_vertices())[:5]:
            maintainer.set_weight(u, 3.5 + u)
        maintainer.verify()
        weights = maintainer.weights
        g = maintainer.graph

        def key(u):
            w = weights[u]
            return (-w / (g.degree(u) + 1), -w, u)

        assert_cache_consistent(g, cache, key)


class TestAttachDetachCopy:
    def test_detach_stops_repairs(self):
        graph = erdos_renyi(20, 40, seed=2)
        cache = graph.attach_rank_cache(degree_rank_key(graph))
        for u in graph.sorted_vertices():
            cache.ranked_neighbors(u)
        graph.detach_rank_cache(cache)
        before = (cache.repairs, cache.rebuilds)
        edges = graph.sorted_edges()
        graph.remove_edge(*edges[0])
        assert (cache.repairs, cache.rebuilds) == before

    def test_default_cache_detach_allows_fresh_one(self):
        graph = erdos_renyi(10, 20, seed=4)
        first = graph.rank_cache()
        graph.detach_rank_cache(first)
        second = graph.rank_cache()
        assert second is not first

    def test_copy_does_not_share_caches(self):
        graph = erdos_renyi(20, 40, seed=8)
        cache = graph.rank_cache()
        for u in graph.sorted_vertices():
            cache.ranked_neighbors(u)
        clone = graph.copy()
        edges = clone.sorted_edges()
        clone.remove_edge(*edges[0])
        # the original's cache saw no mutation and still matches its graph
        assert_cache_consistent(graph, cache, degree_rank_key(graph))
        # and the clone builds its own, matching the mutated adjacency
        assert_cache_consistent(
            clone, clone.rank_cache(), degree_rank_key(clone)
        )
