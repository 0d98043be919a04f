"""Tests for the weighted MIS extension (≺_w order, maintenance, weights)."""

import random

import pytest

from repro.core.doimis import DOIMISMaintainer
from repro.core.verification import is_independent_set, is_maximal_independent_set
from repro.core.weighted import (
    WeightedMISMaintainer,
    WeightedOIMISProgram,
    is_weighted_fixpoint,
    set_weight_of,
    weighted_greedy_mis,
    weighted_precedes,
)
from repro.errors import VerificationError, WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph, star_graph
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.serial.greedy import greedy_mis


def _weights(graph, seed=0, low=1, high=10):
    rng = random.Random(seed)
    return {u: rng.randint(low, high) for u in graph.vertices()}


class TestOrder:
    def test_weight_dominates_at_equal_degree(self):
        g = path_graph(3)  # 0 and 2 both degree 1
        w = {0: 1.0, 1: 1.0, 2: 5.0}
        assert weighted_precedes(g, w, 2, 0)
        assert not weighted_precedes(g, w, 0, 2)

    def test_degree_dominates_at_equal_weight(self):
        g = DynamicGraph.from_edges([(1, 2), (2, 3)])
        w = {1: 2.0, 2: 2.0, 3: 2.0}
        assert weighted_precedes(g, w, 1, 2)  # deg 1 beats deg 2

    def test_tie_break_by_id(self):
        g = path_graph(3)
        w = {0: 3.0, 1: 1.0, 2: 3.0}
        assert weighted_precedes(g, w, 0, 2)

    def test_total_order(self):
        g = erdos_renyi(20, 50, seed=1)
        w = _weights(g, seed=1)
        vs = g.sorted_vertices()
        for u in vs:
            assert not weighted_precedes(g, w, u, u)
            for v in vs:
                if u != v:
                    assert weighted_precedes(g, w, u, v) != weighted_precedes(g, w, v, u)

    def test_unit_weights_reduce_to_degree_order(self):
        from repro.core.ordering import precedes

        g = erdos_renyi(25, 70, seed=2)
        w = {u: 1.0 for u in g.vertices()}
        for u in g.sorted_vertices():
            for v in g.sorted_vertices():
                if u != v:
                    assert weighted_precedes(g, w, u, v) == precedes(g, u, v)


class TestOracle:
    def test_star_with_heavy_centre(self):
        g = star_graph(5)
        w = {0: 100.0, **{i: 1.0 for i in range(1, 6)}}
        assert weighted_greedy_mis(g, w) == {0}

    def test_star_with_light_centre(self):
        g = star_graph(5)
        w = {0: 1.0, **{i: 1.0 for i in range(1, 6)}}
        assert weighted_greedy_mis(g, w) == {1, 2, 3, 4, 5}

    def test_result_is_maximal_independent(self):
        for seed in range(5):
            g = erdos_renyi(40, 120, seed=seed)
            w = _weights(g, seed=seed)
            result = weighted_greedy_mis(g, w)
            assert is_maximal_independent_set(g, result)
            assert is_weighted_fixpoint(g, w, result)

    def test_unit_weights_match_unweighted_greedy(self):
        g = erdos_renyi(40, 120, seed=7)
        w = {u: 1.0 for u in g.vertices()}
        assert weighted_greedy_mis(g, w) == greedy_mis(g)

    def test_gwmin_weight_guarantee(self):
        """GWMIN bound: w(M) >= sum of w(u)/(deg(u)+1)."""
        for seed in range(4):
            g = erdos_renyi(40, 150, seed=seed + 10)
            w = _weights(g, seed=seed)
            result = weighted_greedy_mis(g, w)
            bound = sum(w[u] / (g.degree(u) + 1) for u in g.vertices())
            assert set_weight_of(result, w) >= bound - 1e-9

    def test_set_weight_of(self):
        assert set_weight_of([1, 2], {1: 1.5, 2: 2.5}) == 4.0


class TestMaintainer:
    # an explicit "csr" must not hand ≺_w to the unweighted (degree, id)
    # array kernel: the weighted program keeps its dict sweep either way
    @pytest.mark.parametrize("representation", ["dict", "csr"])
    def test_initial_matches_oracle(self, representation):
        g = erdos_renyi(40, 130, seed=3)
        w = _weights(g, seed=3)
        m = DOIMISMaintainer(
            g.copy(), num_workers=4, program=WeightedOIMISProgram(w),
            representation=representation,
        )
        assert m.independent_set() == weighted_greedy_mis(m.graph, w)
        for edge in g.sorted_edges()[:8]:
            m.apply_batch([EdgeDeletion(*edge)])
        assert m.independent_set() == weighted_greedy_mis(m.graph, w)

    def test_default_unit_weights(self):
        g = erdos_renyi(30, 90, seed=4)
        m = WeightedMISMaintainer(g.copy(), num_workers=4)
        assert m.independent_set() == greedy_mis(m.graph)

    def test_edge_updates_track_oracle(self):
        g = erdos_renyi(30, 90, seed=5)
        w = _weights(g, seed=5)
        m = WeightedMISMaintainer(g.copy(), weights=w, num_workers=4)
        rng = random.Random(5)
        for _ in range(30):
            if rng.random() < 0.5 and m.graph.num_edges:
                edge = rng.choice(m.graph.sorted_edges())
                m.apply_batch([EdgeDeletion(*edge)])
            else:
                u, v = rng.randrange(30), rng.randrange(30)
                if u == v or m.graph.has_edge(u, v):
                    continue
                m.apply_batch([EdgeInsertion(u, v)])
            assert m.independent_set() == weighted_greedy_mis(m.graph, m.weights)

    def test_set_weight_updates_fixpoint(self):
        g = star_graph(5)
        w = {0: 1.0, **{i: 1.0 for i in range(1, 6)}}
        m = WeightedMISMaintainer(g.copy(), weights=w, num_workers=3)
        assert m.independent_set() == {1, 2, 3, 4, 5}
        m.set_weight(0, 100.0)
        assert m.independent_set() == {0}
        assert m.weight_of_set() == 100.0
        m.set_weight(0, 1.0)
        assert m.independent_set() == {1, 2, 3, 4, 5}

    def test_set_weight_noop_when_unchanged(self):
        g = path_graph(4)
        m = WeightedMISMaintainer(g, num_workers=2)
        before = m.updates_applied
        m.set_weight(0, 1.0)
        assert m.updates_applied == before

    def test_set_weight_validation(self):
        g = path_graph(4)
        m = WeightedMISMaintainer(g, num_workers=2)
        with pytest.raises(WorkloadError):
            m.set_weight(0, 0.0)
        with pytest.raises(WorkloadError):
            m.set_weight(99, 2.0)

    def test_missing_weight_rejected(self):
        g = path_graph(3)
        with pytest.raises(WorkloadError, match="no weight"):
            WeightedMISMaintainer(g, weights={0: 1.0}, num_workers=2)

    def test_nonpositive_weight_rejected(self):
        g = path_graph(3)
        with pytest.raises(WorkloadError, match="positive"):
            WeightedMISMaintainer(
                g, weights={0: 1.0, 1: -2.0, 2: 1.0}, num_workers=2
            )

    def test_weighted_vertex_insert_delete(self):
        g = path_graph(4)
        m = WeightedMISMaintainer(g, num_workers=2)
        m.insert_vertex(50, neighbors=[0, 3], weight=9.0)
        assert m.independent_set() == weighted_greedy_mis(m.graph, m.weights)
        assert 50 in m.independent_set()
        m.delete_vertex(50)
        assert 50 not in m.weights
        m.verify()

    def test_refused_vertex_insert_keeps_weights(self):
        m = WeightedMISMaintainer(path_graph(4), num_workers=2)
        before = dict(m.weights)
        with pytest.raises(WorkloadError, match="already exists"):
            m.insert_vertex(1, weight=9.0)
        with pytest.raises(WorkloadError, match="self-loop"):
            m.insert_vertex(50, neighbors=[0, 50], weight=9.0)
        assert m.weights == before
        assert not m.graph.has_vertex(50)
        m.verify()

    def test_new_endpoint_via_edge_gets_unit_weight(self):
        g = path_graph(3)
        m = WeightedMISMaintainer(g, num_workers=2)
        m.apply_batch([EdgeInsertion(2, 77)])
        assert m.weights[77] == 1.0
        m.verify()

    def test_verify_detects_corruption(self):
        g = erdos_renyi(20, 60, seed=6)
        m = WeightedMISMaintainer(g.copy(), weights=_weights(g, 6), num_workers=3)
        u = next(iter(m.independent_set()))
        m._states[u] = False
        with pytest.raises(VerificationError):
            m.verify()

    def test_strategies_agree(self):
        from repro.core.activation import ActivationStrategy

        g = erdos_renyi(30, 100, seed=8)
        w = _weights(g, seed=8)
        results = []
        for strategy in ActivationStrategy:
            m = WeightedMISMaintainer(
                g.copy(), weights=dict(w), num_workers=3, strategy=strategy
            )
            for edge in g.sorted_edges()[:6]:
                m.apply_batch([EdgeDeletion(*edge)])
            results.append(m.independent_set())
        assert results[0] == results[1] == results[2]

    def test_weighted_beats_unweighted_on_weight(self):
        """The point of the extension: on skewed weights, the weighted set
        collects more total weight than the cardinality-greedy set."""
        totals = [0.0, 0.0]
        for seed in range(5):
            g = erdos_renyi(50, 200, seed=seed + 20)
            w = _weights(g, seed=seed, low=1, high=50)
            weighted = weighted_greedy_mis(g, w)
            unweighted = greedy_mis(g)
            totals[0] += set_weight_of(weighted, w)
            totals[1] += set_weight_of(unweighted, w)
            assert is_independent_set(g, weighted)
        assert totals[0] > totals[1]
