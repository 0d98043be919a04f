"""Unit tests for the result-verification helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import RaceSanitizer
from repro.core.verification import (
    assert_valid_mis,
    is_greedy_fixpoint,
    is_independent_set,
    is_maximal_independent_set,
    mis_violations,
    set_quality,
)
from repro.errors import VerificationError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.serial.greedy import greedy_mis


@pytest.fixture
def p5():
    return path_graph(5)


class TestIndependence:
    def test_valid_set(self, p5):
        assert is_independent_set(p5, {0, 2, 4})

    def test_adjacent_pair_rejected(self, p5):
        assert not is_independent_set(p5, {0, 1})

    def test_missing_vertex_rejected(self, p5):
        assert not is_independent_set(p5, {99})

    def test_empty_set_is_independent(self, p5):
        assert is_independent_set(p5, set())


class TestMaximality:
    def test_maximal(self, p5):
        assert is_maximal_independent_set(p5, {0, 2, 4})

    def test_non_maximal(self, p5):
        assert not is_maximal_independent_set(p5, {0})  # 2, 3 or 4 addable
        assert not is_maximal_independent_set(p5, set())

    def test_non_independent_is_not_maximal(self, p5):
        assert not is_maximal_independent_set(p5, {0, 1, 3})


class TestFixpoint:
    def test_greedy_is_fixpoint(self):
        g = erdos_renyi(40, 120, seed=81)
        assert is_greedy_fixpoint(g, greedy_mis(g))

    def test_other_maximal_sets_are_not(self, p5):
        # {1, 3} U {nothing else}: maximal? 0 adjacent to 1, 4 adjacent to 3
        candidate = {1, 3}
        assert is_maximal_independent_set(p5, candidate)
        assert not is_greedy_fixpoint(p5, candidate)

    def test_empty_graph(self):
        assert is_greedy_fixpoint(DynamicGraph(), set())


class TestAssertValid:
    def test_passes_on_oracle(self):
        g = erdos_renyi(30, 90, seed=82)
        assert_valid_mis(g, greedy_mis(g))

    def test_reports_edge_inside_set(self, p5):
        with pytest.raises(VerificationError, match="edge"):
            assert_valid_mis(p5, {0, 1})

    def test_reports_fixpoint_violation(self, p5):
        with pytest.raises(VerificationError, match="fixpoint"):
            assert_valid_mis(p5, {1, 3})


@st.composite
def _graph_and_candidate(draw):
    """A 1..7-vertex graph, its edges, and its greedy MIS or a random set."""
    n = draw(st.integers(1, 7))
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=12))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    graph = DynamicGraph.from_edges(sorted(edges), vertices=range(n))
    if draw(st.booleans()):
        return graph, edges, greedy_mis(graph)
    return graph, edges, draw(st.sets(st.integers(0, n)))


@given(_graph_and_candidate())
@settings(max_examples=200, deadline=None)
def test_oracles_match_brute_force(case):
    graph, edges, candidate = case
    vertices = set(range(graph.num_vertices))
    independent = candidate <= vertices and not any(
        u in candidate and v in candidate for u, v in edges)
    covered = all(any((min(u, v), max(u, v)) in edges for v in candidate)
                  for u in vertices - candidate)
    found = mis_violations(graph, candidate)
    assert found == sorted(found)  # independence first, ascending vertex
    checks = {check for check, _, _ in found}
    assert ("independence" not in checks) == independent
    assert ("maximality" not in checks) == covered
    assert is_independent_set(graph, candidate) == independent
    assert is_maximal_independent_set(graph, candidate) == (
        independent and covered
    )
    if candidate == greedy_mis(graph):
        assert_valid_mis(graph, candidate)
    else:
        with pytest.raises(VerificationError):
            assert_valid_mis(graph, candidate)
    sanitizer = RaceSanitizer(strict=False)
    sanitizer.check_convergence(graph, candidate)
    assert bool(sanitizer.violations) == (not (independent and covered))


class TestQuality:
    def test_prec_ratio(self):
        assert set_quality(98, 100) == pytest.approx(0.98)

    def test_zero_reference(self):
        assert set_quality(0, 0) == 1.0
