"""Unit tests for the classic message-passing Pregel engine."""

import pytest

from repro.core.dismis import DisMISPregelProgram
from repro.errors import SuperstepLimitExceeded
from repro.graph.distributed_graph import DistributedGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi, path_graph
from repro.pregel.engine import PregelEngine, PregelProgram
from repro.pregel.partition import ExplicitPartitioner, HashPartitioner


def _dgraph(graph, workers=2, mapping=None):
    if mapping is not None:
        return DistributedGraph(graph, ExplicitPartitioner(mapping, workers))
    return DistributedGraph(graph, HashPartitioner(workers))


class EchoOnce(PregelProgram):
    """Superstep 0: everyone broadcasts its id; then silence."""

    def initial_state(self, dgraph, u):
        return []

    def compute(self, ctx):
        if ctx.superstep == 0:
            ctx.broadcast(ctx.vertex, 8)
        received = sorted(set(ctx.state) | set(ctx.messages))
        ctx.set_state(received)


class MinLabel(PregelProgram):
    """Classic connected-components by min-label propagation."""

    def initial_state(self, dgraph, u):
        return u

    def compute(self, ctx):
        best = ctx.state
        if ctx.superstep == 0:
            ctx.broadcast(best, 8)
            return
        incoming = min(ctx.messages) if ctx.messages else best
        if incoming < best:
            ctx.set_state(incoming)
            ctx.broadcast(incoming, 8)


class Chatter(PregelProgram):
    """Never stops talking — used to test the superstep limit."""

    def initial_state(self, dgraph, u):
        return 0

    def compute(self, ctx):
        ctx.set_state(ctx.state + 1)
        ctx.broadcast(ctx.state, 8)


class TestBasicSemantics:
    def test_message_delivery_next_superstep(self, path5):
        result = PregelEngine(_dgraph(path5)).run(EchoOnce())
        # every vertex ends with exactly its neighbour set
        for u in path5.vertices():
            assert result.states[u] == sorted(path5.neighbors(u))

    def test_min_label_converges_to_component_min(self):
        g = DynamicGraph.from_edges([(1, 2), (2, 3), (10, 11)])
        result = PregelEngine(_dgraph(g)).run(MinLabel())
        assert result.states[3] == 1
        assert result.states[11] == 10

    def test_initial_active_subset(self, path5):
        # Only vertex 0 speaks at superstep 0: others never learn anything
        result = PregelEngine(_dgraph(path5)).run(
            EchoOnce(), initial_active=[0]
        )
        assert result.states[1] == [0]
        assert result.states[3] == []

    def test_halts_when_quiet(self, path5):
        result = PregelEngine(_dgraph(path5)).run(EchoOnce())
        assert result.metrics.supersteps == 2  # broadcast + absorb

    def test_superstep_limit(self, path5):
        with pytest.raises(SuperstepLimitExceeded):
            PregelEngine(_dgraph(path5)).run(Chatter(), max_supersteps=5)

    def test_resume_from_states(self, path5):
        engine = PregelEngine(_dgraph(path5))
        first = engine.run(EchoOnce())
        again = engine.run(EchoOnce(), states=dict(first.states),
                           initial_active=[2])
        # vertex 2 re-broadcasts; 1 and 3 absorb but already knew 2
        assert again.states[1] == first.states[1]


class TestCosts:
    def test_remote_vs_local_charging(self):
        g = path_graph(2)  # single edge 0-1
        # same worker: no wire bytes
        local = PregelEngine(_dgraph(g, 2, {0: 0, 1: 0})).run(EchoOnce())
        assert local.metrics.bytes_sent == 0
        assert local.metrics.messages == 2
        # different workers: both broadcasts are charged
        remote = PregelEngine(_dgraph(g, 2, {0: 0, 1: 1})).run(EchoOnce())
        assert remote.metrics.remote_messages == 2
        assert remote.metrics.bytes_sent == 2 * (8 + 8)

    def test_active_vertex_count(self, star6):
        result = PregelEngine(_dgraph(star6)).run(EchoOnce())
        # superstep 0: all 7; superstep 1: all 7 receive something
        assert result.metrics.active_vertices == 14

    def test_memory_observed(self, path5):
        result = PregelEngine(_dgraph(path5)).run(EchoOnce())
        assert result.metrics.peak_worker_memory_bytes > 0

    def test_messages_to_deleted_vertices_dropped(self):
        g = path_graph(3)

        class DropTarget(PregelProgram):
            def initial_state(self, dgraph, u):
                return None

            def compute(self, ctx):
                if ctx.superstep == 0 and ctx.vertex == 0:
                    ctx.send(99, "ghost", 8)

        result = PregelEngine(_dgraph(g)).run(DropTarget())
        assert result.metrics.messages == 0


class TestPregelRecovery:
    def test_superstep_limit_restores_states(self):
        graph = erdos_renyi(40, 120, seed=24)
        dgraph = _dgraph(graph, workers=4)
        program = DisMISPregelProgram()
        states = {u: program.initial_state(dgraph, u)
                  for u in graph.vertices()}
        original = {u: s for u, s in states.items()}
        engine = PregelEngine(dgraph)
        with pytest.raises(SuperstepLimitExceeded):
            engine.run(program, states=states, max_supersteps=1)
        assert states == original
