"""Seeded input generators owned by the end-to-end benchmark.

Every input the benchmark feeds the program is made here, from ``--seed``
and the workload name, so a later change to ``repro.graph.generators`` or
``repro.serve.trace`` cannot change what the benchmark measures.  Nothing
in this module imports ``repro``: operations are plain ``(insert, u, v)``
tuples that the workload converts to the library's update types.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np

Edge = Tuple[int, int]
#: ``(insert, u, v)``: ``insert`` is True for an edge insertion
Op = Tuple[bool, int, int]

#: open-loop burst shape: calm phases of this many events alternate with
#: bursts of ``BURST_EVENTS`` at ``BURST_FACTOR`` times the calm rate
CALM_EVENTS = 200
BURST_EVENTS = 100
BURST_FACTOR = 4.0


def rng_for(seed: int, workload: str, purpose: str) -> random.Random:
    """An independent stream per (seed, workload, purpose).

    String seeds hash through SHA-512, so the stream does not depend on
    ``PYTHONHASHSEED``.
    """
    return random.Random(f"{seed}/{workload}/{purpose}")


def chung_lu_edges(n: int, avg_degree: float, exponent: float,
                   rng: random.Random) -> List[Edge]:
    """A simple Chung–Lu graph with exactly ``n * avg_degree / 2`` edges.

    Vertex ``i`` has weight ``(i + 1) ** (-1 / (exponent - 1))``; both
    endpoints of each candidate edge are drawn in proportion to weight,
    and self-loops and repeats are redrawn.  Edges are ``(u, v)`` with
    ``u < v``, in the order they were drawn.
    """
    gen = np.random.default_rng(rng.getrandbits(64))
    weights = (np.arange(n, dtype=np.float64) + 1.0) ** (-1.0 / (exponent - 1.0))
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    target = int(n * avg_degree / 2)
    seen = set()
    edges: List[Edge] = []
    while len(edges) < target:
        draws = int((target - len(edges)) * 1.3) + 16
        u = np.searchsorted(cumulative, gen.random(draws), side="right")
        v = np.searchsorted(cumulative, gen.random(draws), side="right")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keep = lo != hi
        for edge in zip(lo[keep].tolist(), hi[keep].tolist()):
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
                if len(edges) == target:
                    break
    return edges


def uniform_stream(n: int, edges: List[Edge], count: int,
                   rng: random.Random) -> List[Op]:
    """``count`` valid updates: each deletes a uniform existing edge or
    inserts a uniform non-edge, with equal probability.

    The stream is generated against a private copy of ``edges``, so it
    replays cleanly from that edge set, and any prefix of it is valid.
    """
    live = list(edges)
    where = {edge: i for i, edge in enumerate(live)}
    ops: List[Op] = []
    while len(ops) < count:
        if live and rng.random() < 0.5:
            i = rng.randrange(len(live))
            edge = live[i]
            last = live.pop()
            if i < len(live):
                live[i] = last
                where[last] = i
            del where[edge]
            ops.append((False, edge[0], edge[1]))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in where:
                continue
            where[edge] = len(live)
            live.append(edge)
            ops.append((True, edge[0], edge[1]))
    return ops


def stratified_picks(edges: List[Edge], k: int, rounds: int,
                     rng: random.Random) -> List[List[Edge]]:
    """``rounds`` samples of ``k`` distinct edges, in random order, with no
    edge in two consecutive samples.

    The cost of an update grows with its endpoints' degrees, and on a
    power-law graph a few hub edges dominate.  So each sample is
    stratified: edges sorted by endpoint degree sum are cut into ``k``
    equal bins and a sample takes one edge from every bin.  Every edge is
    still equally likely, but every sample gets the same mix of hub and
    leaf edges, which keeps rounds and seeds comparable.
    """
    if not 0 < k <= len(edges) // 2:
        raise ValueError(f"need 0 < k <= {len(edges) // 2}, got {k}")
    degree = [0] * (max(max(e) for e in edges) + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    order = sorted(edges, key=lambda e: (degree[e[0]] + degree[e[1]], e))
    bins = [order[i * len(order) // k:(i + 1) * len(order) // k]
            for i in range(k)]
    result: List[List[Edge]] = []
    previous = set()
    for _ in range(rounds):
        picked = []
        for b in bins:
            edge = b[rng.randrange(len(b))]
            while edge in previous:
                edge = b[rng.randrange(len(b))]
            picked.append(edge)
        rng.shuffle(picked)
        result.append(picked)
        previous = set(picked)
    return result


def delete_reinsert_rounds(edges: List[Edge], k: int, rounds: int,
                           rng: random.Random) -> List[List[Op]]:
    """The paper's delete-reinsert stream (Fig. 10), cut into rounds.

    Each round deletes ``k`` distinct edges of the original graph (a
    :func:`stratified_picks` sample) and then reinserts them in the same
    order, so every round starts and ends on the original edge set.
    """
    return [[(False, u, v) for u, v in picked]
            + [(True, u, v) for u, v in picked]
            for picked in stratified_picks(edges, k, rounds, rng)]


def staggered_batches(edges: List[Edge], k: int, batches: int,
                      rng: random.Random) -> List[List[Op]]:
    """Delete-reinsert in batches, staggered by one batch.

    Batch ``j`` reinserts the ``k`` edges batch ``j - 1`` deleted and
    deletes ``k`` new ones, so every batch holds the same mix of
    insertions and deletions and costs about the same.  (Deleting ``k``
    edges in one batch and reinserting them in the next would make batch
    times bimodal, and their median would jump between the two modes.)
    Batch 0 only deletes; it has ``k`` updates, the rest ``2k``.
    """
    picks = stratified_picks(edges, k, batches, rng)
    result = [[(False, u, v) for u, v in picks[0]]]
    for before, now in zip(picks, picks[1:]):
        result.append([(True, u, v) for u, v in before]
                      + [(False, u, v) for u, v in now])
    return result


def bursty_arrivals(mean_rate: float, duration_s: float,
                    rng: random.Random) -> List[float]:
    """Poisson arrival offsets in ``[0, duration_s)`` with a mean rate of
    ``mean_rate`` events per second.

    Calm phases of ``CALM_EVENTS`` events alternate with bursts of
    ``BURST_EVENTS`` events at ``BURST_FACTOR`` times the calm rate; the
    calm rate is chosen so the long-run mean equals ``mean_rate``.
    """
    cycle = CALM_EVENTS + BURST_EVENTS
    calm_rate = mean_rate * (CALM_EVENTS + BURST_EVENTS / BURST_FACTOR) / cycle
    times: List[float] = []
    t = 0.0
    while True:
        in_burst = len(times) % cycle >= CALM_EVENTS
        t += rng.expovariate(calm_rate * (BURST_FACTOR if in_burst else 1.0))
        if t >= duration_s:
            return times
        times.append(t)


def read_stream(n: int, count: int, batch: int,
                rng: random.Random) -> List[Tuple[str, object]]:
    """``count`` reads over uniform vertices: 80% point lookups, 10%
    batches of ``batch`` vertices, 10% why-not certificates."""
    reads: List[Tuple[str, object]] = []
    for _ in range(count):
        draw = rng.random()
        if draw < 0.8:
            reads.append(("point", rng.randrange(n)))
        elif draw < 0.9:
            reads.append(("batch", [rng.randrange(n) for _ in range(batch)]))
        else:
            reads.append(("why_not", rng.randrange(n)))
    return reads
