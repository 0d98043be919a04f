"""Weighted extension: distributed near-maximum *weight* independent set.

The paper's related work surveys distributed/greedy **maximum weighted
independent set** (MWIS) algorithms (Joo et al., Gu et al.); this module
extends OIMIS/DOIMIS to vertex-weighted graphs the same way the unweighted
algorithm extends Luby's: everything reduces to a *total order*.

Order.  The classic weighted-greedy order (GWMIN, Sakai et al.) processes
vertices by decreasing ``w(u) / (deg(u) + 1)`` — it guarantees a set of
weight at least ``Σ w(u)/(deg(u)+1)``.  We define

    ``u ≺_w v  ⇔  w(u)·(deg(v)+1) > w(v)·(deg(u)+1)``,

with ties broken by higher weight, then lower id — exact integer/rational
arithmetic, no float ratios.  Like the unweighted ``≺``, only *pairwise*
comparisons are ever needed, degrees are current, and the fixpoint

    ``u ∈ M ⇔ no neighbour v ≺_w u with v ∈ M``

is unique, so all the paper's machinery — order-independent convergence,
affected-vertex maintenance (degrees change), selective activation — lifts
verbatim.  A weight change is a new update kind whose affected set is
``{u} ∪ nbr(u)`` (it shifts ``u``'s rank against every neighbour).

Public surface: :func:`weighted_greedy_mis` (serial oracle),
:class:`WeightedOIMISProgram` (the vertex program),
:class:`WeightedMISMaintainer` (dynamic maintenance incl. ``set_weight``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.doimis import DOIMISMaintainer
from repro.core.oimis import OIMISProgram
from repro.errors import VerificationError, WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.updates import affected_vertices
from repro.pregel.metrics import DEGREE_BYTES, STATUS_BYTES
from repro.pregel.partition import Partitioner
from repro.scaleg.engine import ScaleGContext


def _check_weight(u: int, weight: float) -> None:
    if weight <= 0:
        raise WorkloadError(f"vertex {u}: weights must be positive, got {weight}")


def weighted_precedes(
    graph: DynamicGraph, weights: Dict[int, float], u: int, v: int
) -> bool:
    """``u ≺_w v`` under current degrees (cross-multiplied, no division)."""
    left = weights[u] * (graph.degree(v) + 1)
    right = weights[v] * (graph.degree(u) + 1)
    if left != right:
        return left > right
    if weights[u] != weights[v]:
        return weights[u] > weights[v]
    return u < v


def weighted_greedy_mis(
    graph: DynamicGraph, weights: Dict[int, float]
) -> Set[int]:
    """The ``≺_w`` fixpoint: serial weighted-greedy oracle (GWMIN order)."""
    import functools

    def cmp(u: int, v: int) -> int:
        if u == v:
            return 0
        return -1 if weighted_precedes(graph, weights, u, v) else 1

    order = sorted(graph.vertices(), key=functools.cmp_to_key(cmp))
    selected: Set[int] = set()
    blocked: Set[int] = set()
    for u in order:
        if u in blocked:
            continue
        selected.add(u)
        blocked.update(graph.neighbors(u))
    return selected


def set_weight_of(members: Iterable[int], weights: Dict[int, float]) -> float:
    """Total weight of an independent set."""
    return sum(weights[u] for u in members)


def is_weighted_fixpoint(
    graph: DynamicGraph, weights: Dict[int, float], candidate: Iterable[int]
) -> bool:
    """Local-property check for the weighted fixpoint (cf. Observation 4.1)."""
    members = set(candidate)
    for u in graph.vertices():
        dominated = any(
            v in members and weighted_precedes(graph, weights, v, u)
            for v in graph.neighbors(u)
        )
        if (u in members) == dominated:
            return False
    return True


class WeightedOIMISProgram(OIMISProgram):
    """OIMIS with the weighted order ``≺_w``.

    State stays a single boolean; the weight lives with the vertex record
    (synced to guest copies on weight change like the degree is on edge
    change), so the sync payload gains one weight field.
    """

    def __init__(self, weights: Dict[int, float], strategy=None, full_scan=False):
        from repro.core.activation import ActivationStrategy

        super().__init__(
            strategy=strategy or ActivationStrategy.SAME_STATUS,
            full_scan=full_scan,
        )
        self.weights = weights
        self._rank_cache = None

    def rank_cache(self, graph: DynamicGraph):
        """A cache in GWMIN order: ascending ``(-w/(deg+1), -w, id)``.

        The float ratio linearizes ``≺_w`` well enough to order scans, but
        it can disagree with the exact cross-multiplied comparison under
        rounding — so :meth:`compute` never prefix-breaks on it; an ordering
        error costs extra scans, never correctness.  Weight changes are
        repaired via :meth:`weight_changed`, degree changes automatically.
        """
        cache = self._rank_cache
        if cache is None or cache.graph is not graph:
            if cache is not None:
                cache.graph.detach_rank_cache(cache)
            weights = self.weights

            def key(u: int) -> Tuple[float, float, int]:
                w = weights[u]
                return (-w / (graph.degree(u) + 1), -w, u)

            cache = graph.attach_rank_cache(key)
            self._rank_cache = cache
        return cache

    def csr_kernel(self):
        # the inherited kernel ranks by the packed (degree, id) key, not ≺_w
        return None

    def weight_changed(self, u: int) -> None:
        """Reposition ``u`` in the attached ``≺_w`` cache after a weight change."""
        if self._rank_cache is not None:
            self._rank_cache.refresh_key(u)

    def _degree_of(self, ctx: ScaleGContext, x: int) -> int:
        """Degree of ``x`` through the context (own record or guest copy)."""
        return ctx.degree() if x == ctx.vertex else ctx.rank_of(x)[0]

    def _precedes(self, ctx: ScaleGContext, v: int, u: int) -> bool:
        """``v ≺_w u`` using guest-local degree + weight records."""
        left = self.weights[v] * (self._degree_of(ctx, u) + 1)
        right = self.weights[u] * (self._degree_of(ctx, v) + 1)
        if left != right:
            return left > right
        if self.weights[v] != self.weights[u]:
            return self.weights[v] > self.weights[u]
        return v < u

    def compute(self, ctx: ScaleGContext) -> None:
        from repro.core.activation import ActivationStrategy

        u = ctx.vertex
        old = ctx.state
        new_in = True
        # ranked = likely-dominating first, so the break fires early; the
        # float cache order is advisory only — the exact _precedes test
        # decides, and no prefix break is taken (see rank_cache docstring)
        for v in ctx.ranked_neighbors():
            ctx.charge(1)
            if self._precedes(ctx, v, u) and ctx.neighbor_state(v):
                new_in = False
                if not self.full_scan:
                    break
        ctx.set_state(new_in)
        if new_in != old:
            if self.strategy is ActivationStrategy.ALL:
                for v in ctx.ranked_neighbors():
                    ctx.activate(v)
                return
            predicate = None
            if self.strategy is ActivationStrategy.SAME_STATUS:
                predicate = lambda src, dst: src == dst  # noqa: E731
            for v in ctx.ranked_neighbors():
                if self._precedes(ctx, u, v):  # u ≺_w v: v ranks lower
                    ctx.activate(v, predicate)

    def sync_bytes(self, state: bool) -> int:
        # status + weight field (degree already ships with graph updates)
        return STATUS_BYTES + DEGREE_BYTES


class WeightedMISMaintainer(DOIMISMaintainer):
    """Dynamic maximum-weight independent set maintenance.

    Supports the full edge/vertex update surface of
    :class:`~repro.core.doimis.DOIMISMaintainer` plus :meth:`set_weight`.
    Unweighted behaviour is recovered with all weights equal... up to the
    tie-break: ``≺_w`` with unit weights orders by *ascending degree* like
    ``≺``, so unit weights reproduce the paper's unweighted sets exactly.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        weights: Optional[Dict[int, float]] = None,
        num_workers: int = 10,
        strategy=None,
        partitioner: Optional[Partitioner] = None,
        keep_records: bool = False,
    ):
        if weights is None:
            weights = {u: 1.0 for u in graph.vertices()}
        for u in graph.vertices():
            if u not in weights:
                raise WorkloadError(f"vertex {u} has no weight")
            _check_weight(u, weights[u])
        self.weights: Dict[int, float] = dict(weights)
        program = WeightedOIMISProgram(self.weights, strategy=strategy)
        super().__init__(
            graph,
            num_workers=num_workers,
            partitioner=partitioner,
            keep_records=keep_records,
            program=program,
        )

    def apply_batch(self, operations) -> None:
        """Edge-update batch; endpoints new to the graph get unit weight."""
        ops = list(operations)
        for op in ops:
            for endpoint in (getattr(op, "u", None), getattr(op, "v", None)):
                if isinstance(endpoint, int):
                    self.weights.setdefault(endpoint, 1.0)
        super().apply_batch(ops)

    # -- weighted-specific operations ------------------------------------
    def set_weight(self, u: int, weight: float) -> None:
        """Change ``u``'s weight and restore the weighted fixpoint.

        Affected vertices are ``u`` and its neighbours (the rank of ``u``
        against each neighbour may flip); the new weight is synced to
        ``u``'s guest copies like a degree change.
        """
        _check_weight(u, weight)
        if not self._dgraph.has_vertex(u):
            raise WorkloadError(f"vertex {u} does not exist")
        if self.weights.get(u) == weight:
            return
        self.weights[u] = weight
        self._program.weight_changed(u)
        self._engine.charge_graph_update(
            [u], (), self._program, self._states, self.update_metrics
        )
        affected = affected_vertices(self.graph, {u})
        self._engine.run(
            self._program,
            initial_active=affected,
            states=self._states,
            metrics=self.update_metrics,
            keep_records=self._keep_records,
        )
        self.updates_applied += 1

    def weight_of_set(self) -> float:
        """Total weight of the maintained independent set."""
        return set_weight_of(self.independent_set(), self.weights)

    def insert_vertex(self, u: int, neighbors: Iterable[int] = (),
                      weight: float = 1.0) -> None:
        """Insert a weighted vertex (defaults to unit weight)."""
        _check_weight(u, weight)
        previous = self.weights.get(u)
        self.weights[u] = weight
        try:
            super().insert_vertex(u, neighbors)
        except BaseException:
            # a refused insertion leaves the weights as they were
            if previous is None:
                self.weights.pop(u, None)
            else:
                self.weights[u] = previous
            raise

    def delete_vertex(self, u: int) -> None:
        super().delete_vertex(u)
        self.weights.pop(u, None)

    def verify(self) -> None:
        """Assert the maintained set is the ``≺_w`` fixpoint."""
        members = self.independent_set()
        if not is_weighted_fixpoint(self.graph, self.weights, members):
            expected = weighted_greedy_mis(self.graph, self.weights)
            raise VerificationError(
                "weighted fixpoint violated: "
                f"|got|={len(members)} (w={set_weight_of(members, self.weights):.3f}) "
                f"|expected|={len(expected)} "
                f"(w={set_weight_of(expected, self.weights):.3f})"
            )
