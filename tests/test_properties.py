"""Property-based tests (hypothesis) for the paper's theorems.

These encode the paper's guarantees as machine-checked properties over
arbitrary graphs and update streams:

- Theorem 4.1: DisMIS(G) == OIMIS(G) == the greedy ``≺`` fixpoint.
- Theorem 4.2/6.1: DOIMIS(G, M(G), OP) == OIMIS(G ⊎ OP) for any stream,
  any batch split, any activation strategy.
- Section V lemmas: selective activation never changes the result.
- Maximality/independence invariants for every serial algorithm.
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.activation import ActivationStrategy
from repro.core.dismis import run_dismis
from repro.core.doimis import DOIMISMaintainer
from repro.core.oimis import run_oimis
from repro.core.verification import (
    is_greedy_fixpoint,
    is_maximal_independent_set,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import EdgeDeletion, EdgeInsertion
from repro.serial.arw import arw_mis
from repro.serial.degeneracy import DGTwo
from repro.serial.greedy import greedy_mis
from repro.serial.reducing_peeling import reducing_peeling_mis
from repro.serial.swap import DTSwap

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, max_vertices: int = 16):
    """A random simple graph as an edge set over 0..n-1."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    return DynamicGraph.from_edges(chosen, vertices=range(n))


@st.composite
def graph_and_updates(draw, max_vertices: int = 12, max_ops: int = 12):
    """A graph plus a valid update stream generated against a scratch copy."""
    graph = draw(graphs(max_vertices=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    scratch = graph.copy()
    n = scratch.num_vertices
    ops: List = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_ops))):
        if rng.random() < 0.5 and scratch.num_edges:
            u, v = rng.choice(scratch.sorted_edges())
            scratch.remove_edge(u, v)
            ops.append(EdgeDeletion(u, v))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or scratch.has_edge(u, v):
                continue
            scratch.add_edge(u, v)
            ops.append(EdgeInsertion(u, v))
    return graph, ops


COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# static properties
# ---------------------------------------------------------------------------


@COMMON
@given(graphs())
def test_greedy_is_maximal_and_fixpoint(g):
    mis = greedy_mis(g)
    assert is_maximal_independent_set(g, mis)
    assert is_greedy_fixpoint(g, mis)


@COMMON
@given(graphs(), st.integers(min_value=1, max_value=6))
def test_oimis_equals_oracle_any_worker_count(g, workers):
    assert run_oimis(g.copy(), num_workers=workers).independent_set == greedy_mis(g)


@COMMON
@given(graphs())
def test_theorem_4_1_dismis_equals_oimis(g):
    assert (
        run_dismis(g.copy(), num_workers=3).independent_set
        == run_oimis(g.copy(), num_workers=3).independent_set
    )


@COMMON
@given(graphs(), st.sampled_from(list(ActivationStrategy)))
def test_selective_activation_preserves_result(g, strategy):
    assert (
        run_oimis(g.copy(), num_workers=3, strategy=strategy).independent_set
        == greedy_mis(g)
    )


@COMMON
@given(graphs(), st.dictionaries(st.integers(0, 15), st.booleans()))
def test_oimis_fixpoint_independent_of_initial_states(g, partial_states):
    states = {u: partial_states.get(u, True) for u in g.vertices()}
    run = run_oimis(g.copy(), num_workers=3, initial_states=states)
    assert run.independent_set == greedy_mis(g)


# ---------------------------------------------------------------------------
# dynamic properties (Theorems 4.2 / 6.1)
# ---------------------------------------------------------------------------


@COMMON
@given(graph_and_updates(), st.sampled_from(list(ActivationStrategy)))
def test_doimis_tracks_oracle_per_update(bundle, strategy):
    graph, ops = bundle
    maintainer = DOIMISMaintainer(graph.copy(), num_workers=3, strategy=strategy)
    for op in ops:
        maintainer.apply_batch([op])
        assert maintainer.independent_set() == greedy_mis(maintainer.graph)


@COMMON
@given(graph_and_updates(), st.integers(min_value=1, max_value=8))
def test_doimis_batch_split_invariance(bundle, batch_size):
    graph, ops = bundle
    whole = DOIMISMaintainer(graph.copy(), num_workers=3)
    whole.apply_stream(ops, batch_size=batch_size)
    assert whole.independent_set() == greedy_mis(whole.graph)


@COMMON
@given(graph_and_updates())
def test_doimis_equals_scratch_recompute(bundle):
    graph, ops = bundle
    maintainer = DOIMISMaintainer(graph.copy(), num_workers=3)
    maintainer.apply_batch(ops)
    fresh = run_oimis(maintainer.graph.copy(), num_workers=3)
    assert maintainer.independent_set() == fresh.independent_set


@COMMON
@given(graphs())
def test_insert_then_delete_roundtrip(g):
    non_edges = [
        (u, v)
        for u in g.sorted_vertices()
        for v in g.sorted_vertices()
        if u < v and not g.has_edge(u, v)
    ]
    maintainer = DOIMISMaintainer(g.copy(), num_workers=3)
    before = maintainer.independent_set()
    for u, v in non_edges[:5]:
        maintainer.insert_edge(u, v)
    for u, v in non_edges[:5]:
        maintainer.delete_edge(u, v)
    assert maintainer.independent_set() == before


# ---------------------------------------------------------------------------
# serial algorithm invariants
# ---------------------------------------------------------------------------


@COMMON
@given(graphs())
def test_arw_maximal_and_at_least_greedy(g):
    result = arw_mis(g)
    assert is_maximal_independent_set(g, result)
    assert len(result) >= len(greedy_mis(g))


@COMMON
@given(graphs())
def test_reducing_peeling_valid(g):
    assert is_maximal_independent_set(g, reducing_peeling_mis(g))


@COMMON
@given(graph_and_updates(max_vertices=10, max_ops=8))
def test_serial_dynamic_algorithms_stay_maximal(bundle):
    graph, ops = bundle
    for cls in (DGTwo, DTSwap):
        algorithm = cls(graph.copy())
        for op in ops:
            algorithm.apply(op)
            assert is_maximal_independent_set(
                algorithm.graph, algorithm.independent_set()
            ), cls.__name__
