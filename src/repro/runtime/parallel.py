"""Multi-process execution backend for the BSP engines.

:class:`ParallelRuntime` runs the per-superstep compute sweep across ``N``
persistent OS worker processes (stdlib :mod:`multiprocessing`, spawn-safe,
no extra dependencies).  The process model:

- Each worker process holds a **resident replica** for the whole run: the
  dynamic graph, the full host-state table, and its own rank-ordered
  adjacency cache (rebuilt locally from the shipped program, repaired by
  replayed graph ops).  Logical partition ``w`` is owned by process
  ``w % N`` for the lifetime of the pool, so ownership never migrates.
- Only **deltas cross the pipe**, length-prefixed (``Connection`` frames
  every message with a length header) and batched per barrier: the active
  ids grouped by logical partition + any state upserts/removals and graph
  ops committed since the last dispatch go down; changed states,
  force-sync ids, activation requests, per-partition work counters and the
  fault echo come back.
- Workers compute against their replica of the **last barrier's** states
  and never apply their own writes; the master ships each committed
  barrier's deltas with the next dispatch.  An aborted superstep (crash
  rollback, loss failover, exception-path restore) therefore needs no
  undo on the workers — they never saw it.  Any out-of-band state edit
  between runs (batch drivers creating implicit vertices, checkpoint
  restores) is caught by an O(n) mirror diff in :meth:`begin_run`.
- The barrier merge is **deterministic**: per-process replies are reduced
  in partition order and re-sorted by vertex id, which is exactly the
  inline sweep order (the active list is ascending).  Compute/meter sums
  are integers, so members, ``members_checksum`` and all logical meters
  are bit-identical to :class:`~repro.runtime.base.InlineExecutor`.
- Fault injection: the engine draws each barrier's schedule before the
  sweep (:func:`~repro.faults.recovery.fault_barrier`, the same draw on
  every backend), the dispatch ships every process the slice of draws its
  partitions own, the process observes/echoes them, and the merge verifies
  the echo against the draws (:class:`~repro.errors.ParallelRuntimeError`
  on a mismatch) — crash/straggler/loss faults thus *fire inside the
  owning worker process* while recovery stays on the master,
  byte-identical to inline.

Pickling contract: vertex states, message payloads, activation predicates
and the program itself must be picklable (module-level functions and
classes).  Everything the stock programs use qualifies; a violation
raises :class:`~repro.errors.ParallelRuntimeError` with the original
pickling error attached.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from operator import itemgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ParallelRuntimeError
from repro.runtime.base import (
    BarrierDraws,
    ExecutionBackend,
    PregelSweep,
    ScaleGSweep,
)

_MISSING = object()

# graph mutation opcodes (master observer -> worker replay)
_OP_ADD_VERTEX = 0
_OP_ADD_EDGE = 1
_OP_REMOVE_EDGE = 2
_OP_REMOVE_VERTEX = 3


def _send_msg(conn, obj: Any) -> None:
    """One length-prefixed frame: pickle the batch, ship it whole.

    ``Connection.send_bytes`` writes a length header before the payload,
    so the receiver always knows the frame boundary — no streaming parse.
    """
    conn.send_bytes(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _recv_msg(conn) -> Any:
    return pickle.loads(conn.recv_bytes())


# ---------------------------------------------------------------------------
# worker-process side
# ---------------------------------------------------------------------------
class _WorkerDGraph:
    """The slim ``dgraph`` facade contexts read inside a worker process."""

    __slots__ = ("graph",)

    def __init__(self, graph):
        self.graph = graph

    def degree(self, u: int) -> int:
        return self.graph.degree(u)

    def neighbors(self, u: int) -> Set[int]:
        return self.graph.neighbors(u)


class _WorkerAggregators:
    """Aggregator facade: reads last barrier's shipped values, records
    contributions for the master to replay in deterministic order."""

    __slots__ = ("previous_values", "sink")

    def __init__(self):
        self.previous_values: Dict[str, Any] = {}
        self.sink: List[Tuple[str, Any]] = []

    def contribute(self, name: str, value: Any) -> None:
        if name not in self.previous_values:
            raise KeyError(f"unknown aggregator {name!r}")
        self.sink.append((name, value))

    def previous(self, name: str) -> Any:
        if name not in self.previous_values:
            raise KeyError(f"unknown aggregator {name!r}")
        return self.previous_values[name]


class _WorkerHost:
    """Engine stand-in inside a worker process.

    Exposes exactly the attributes the vertex contexts dereference
    (``_states``, ``dgraph``, ``_ranked``, ``_outbox``, ``_aggregators``),
    so :class:`~repro.scaleg.engine.ScaleGContext` and
    :class:`~repro.pregel.engine.PregelContext` run unmodified against the
    resident replica.
    """

    def __init__(self, graph, states):
        self._states = states
        self.dgraph = _WorkerDGraph(graph)
        self._ranked = None
        self._outbox: List[Any] = []
        self._aggregators = _WorkerAggregators()
        self._scaleg_ctx = None

    def scaleg_context(self):
        """The worker-local (cached) ScaleG compute context."""
        ctx = self._scaleg_ctx
        if ctx is None:
            from repro.scaleg.engine import ScaleGContext

            ctx = self._scaleg_ctx = ScaleGContext(self, 0, 0, None)
        return ctx

    def begin_pregel_sweep(self, prev_agg):
        """Arm the aggregator view with last barrier's values; return it."""
        aggs = self._aggregators
        aggs.previous_values = prev_agg
        return aggs

    def begin_vertex(self):
        """Fresh per-vertex outbox and aggregator sink, installed and returned."""
        outbox: List[Any] = []
        sink: List[Any] = []
        self._outbox = outbox
        self._aggregators.sink = sink
        return outbox, sink


def _apply_graph_ops(graph, ops) -> None:
    """Replay the master's committed mutations on the replica.

    Replaying through the public :class:`DynamicGraph` API repairs the
    worker's attached rank caches exactly the way the master's were.
    """
    for op in ops:
        code = op[0]
        if code == _OP_ADD_EDGE:
            graph.add_edge(op[1], op[2])
        elif code == _OP_REMOVE_EDGE:
            graph.remove_edge(op[1], op[2])
        elif code == _OP_ADD_VERTEX:
            graph.add_vertex(op[1])
        else:
            graph.remove_vertex(op[1])


def _worker_sweep_scaleg(host, program, groups, superstep):
    ctx = host.scaleg_context()
    states = host._states
    compute = program.compute
    compute_work = 0
    per_lw: List[Tuple[int, int]] = []
    changed: List[Tuple[int, Any]] = []
    forced: List[int] = []
    requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]] = []
    for lw, vertices in groups:
        lw_work = 0
        for u in vertices:
            ctx._reset(u, superstep, states[u])
            compute(ctx)
            work = ctx._work
            compute_work += work
            lw_work += work if work > 1 else 1
            if ctx._changed:
                changed.append((u, ctx._new))
            elif ctx._force_sync:
                forced.append(u)
            if ctx._activations or ctx._pred_activations:
                requests.append((u, ctx._activations, ctx._pred_activations))
                ctx._activations = []
                ctx._pred_activations = []
        per_lw.append((lw, lw_work))
    return (per_lw, compute_work, changed, forced, requests)


def _worker_sweep_pregel(host, program, groups, superstep, inbox, prev_agg):
    from repro.pregel.engine import PregelContext

    states = host._states
    host.begin_pregel_sweep(prev_agg)
    compute = program.compute
    compute_work = 0
    per_lw: List[Tuple[int, int]] = []
    results = []
    for lw, vertices in groups:
        lw_work = 0
        for u in vertices:
            outbox, sink = host.begin_vertex()
            ctx = PregelContext(host, u, superstep, inbox.get(u, []), states[u])
            compute(ctx)
            compute_work += ctx._work
            lw_work += max(ctx._work, 1)
            msgs = [(m.dest, m.payload, m.payload_bytes) for m in outbox]
            new_state = ctx._new_state if ctx._changed else None
            results.append((u, ctx._changed, new_state, msgs, sink))
        per_lw.append((lw, lw_work))
    return (per_lw, compute_work, results)


#: per-worker retained snapshot read views (pinned epoch segments); small
#: because the serve loop reads the newest epoch — older mappings age out
_READER_VIEW_CACHE = 4


def _worker_main(conn) -> None:
    """Entry point of one persistent worker process (spawn-importable)."""
    graph = None
    states: Dict[int, Any] = {}
    host = None
    program = None
    #: mapped shared-memory CSR frame (array-native sweeps), if any
    csr_view = None
    #: snapshot read views keyed by segment name, LRU order (oldest first)
    reader_views: Dict[str, Any] = {}

    def _drop_view():
        if csr_view is not None:
            csr_view.close()
        for name in sorted(reader_views):
            reader_views[name].close()
        reader_views.clear()

    while True:
        try:
            msg = _recv_msg(conn)
        except (EOFError, OSError):
            _drop_view()
            return
        kind = msg[0]
        if kind == "close":
            _drop_view()
            conn.close()
            return
        try:
            if kind == "init":
                graph, states = msg[1], msg[2]
                host = _WorkerHost(graph, states)
                program = None
                reply = ("ok", None)
            elif kind == "prologue":
                # out-of-band replica delta (elastic pool resize flushes
                # pending mutations without dispatching a sweep)
                ops, upserts, removals, new_program = msg[1]
                if ops:
                    _apply_graph_ops(graph, ops)
                for u in removals:
                    states.pop(u, None)
                states.update(upserts)
                if new_program is not None:
                    program = new_program
                    rank_cache = getattr(program, "rank_cache", None)
                    if rank_cache is not None:
                        host._ranked = rank_cache(graph)
                reply = ("ok", None)
            elif kind == "csr_sweep":
                _, superstep, meta, active_idx, cfg = msg
                from repro.graph import csr as _csr

                if meta is not None:
                    csr_view = _csr.worker_attach(csr_view, meta)
                if csr_view is None:
                    raise ParallelRuntimeError(
                        "csr sweep dispatched before any frame meta"
                    )
                payload = _csr.worker_sweep(csr_view, active_idx, cfg)
                reply = ("ok", payload, None)
            elif kind == "csr_read":
                # membership batch against a *pinned* epoch segment: map
                # it zero-copy (cached per name), gather the bitmap rows,
                # reply with one bool array — no per-query objects
                _, meta, rows = msg
                from repro.graph import csr as _csr

                seg_name = meta[0]
                view = reader_views.pop(seg_name, None)
                if view is None:
                    view = _csr.WorkerCSRView(meta)
                reader_views[seg_name] = view  # most recently used last
                while len(reader_views) > _READER_VIEW_CACHE:
                    reader_views.pop(
                        next(iter(reader_views))
                    ).close()
                reply = ("ok", view.in_[rows])
            elif kind == "sweep":
                _, mode, superstep, prologue, groups, extra, draw_slice = msg
                if prologue is not None:
                    ops, upserts, removals, new_program = prologue
                    if ops:
                        _apply_graph_ops(graph, ops)
                    for u in removals:
                        states.pop(u, None)
                    states.update(upserts)
                    if new_program is not None:
                        program = new_program
                        rank_cache = getattr(program, "rank_cache", None)
                        if rank_cache is not None:
                            host._ranked = rank_cache(graph)
                if mode == "scaleg":
                    payload = _worker_sweep_scaleg(host, program, groups, superstep)
                else:
                    inbox, prev_agg = extra
                    payload = _worker_sweep_pregel(
                        host, program, groups, superstep, inbox, prev_agg
                    )
                reply = ("ok", payload, draw_slice)
            else:
                reply = ("err", f"unknown message kind {kind!r}")
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            _send_msg(conn, reply)
        except (BrokenPipeError, OSError):
            _drop_view()
            return


# ---------------------------------------------------------------------------
# master side
# ---------------------------------------------------------------------------
class ParallelRuntime(ExecutionBackend):
    """Process-pool execution backend (see module docstring).

    Parameters
    ----------
    procs:
        Worker process count; defaults to ``os.cpu_count()``.  Clamped to
        the engine's logical worker count at spawn time (extra processes
        would never own a partition).
    start_method:
        ``multiprocessing`` start method.  ``"spawn"`` (default) works on
        every platform and never inherits master state by accident;
        ``"fork"`` starts faster where available (tests use it).

    One instance may be shared across engines and reused across runs; the
    pool starts lazily on the first sweep and :meth:`close` (or garbage
    collection) tears it down.  The runtime registers itself as a graph
    mutation observer so the maintenance driver's edge updates replay on
    every replica before the next sweep.
    """

    kind = "process"

    def __init__(self, procs: Optional[int] = None, start_method: str = "spawn"):
        if procs is not None and procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.procs = procs if procs is not None else (os.cpu_count() or 1)
        self._mp = multiprocessing.get_context(start_method)
        self._engine = None
        self._graph = None
        self._conns: List[Any] = []
        self._workers: List[Any] = []
        self._needs_init = True
        # replica bookkeeping: _mirror is what the workers will hold after
        # every message sent *or buffered* so far; _pending_* is the
        # not-yet-shipped delta (next dispatch's prologue)
        self._mirror: Dict[int, Any] = {}
        self._pending_ops: List[Tuple[int, ...]] = []
        self._pending_upserts: Dict[int, Any] = {}
        self._pending_removals: Set[int] = set()
        self._current_program = None
        self._shipped_program = None
        #: what the pool was initialised with: None (nothing yet), "light"
        #: (no replica — array-native sweeps only) or "full" (graph +
        #: states replica for dict-path sweeps)
        self._init_kind: Optional[str] = None
        #: (segment name, epoch) of the CSR frame meta the workers hold
        self._csr_shipped: Optional[Tuple[str, int]] = None
        # pipe-traffic accounting (bytes actually pickled per direction);
        # reset via reset_frame_stats(), read via frame_stats()
        self.frames_sent = 0
        self.frame_bytes_sent = 0
        self.frame_bytes_received = 0
        self.sweeps_dispatched = 0
        #: snapshot read batches dispatched to workers (round-robin)
        self.reads_dispatched = 0

    @property
    def start_method(self) -> str:
        """The multiprocessing start method workers are created with."""
        return self._mp.get_start_method()

    # -- pipe-traffic accounting ----------------------------------------
    def frame_stats(self) -> Dict[str, int]:
        """Bytes pickled across the pipes since the last reset.

        ``frame_bytes_sent``/``frame_bytes_received`` are the exact pickle
        payload sizes (the ``Connection`` length header is excluded);
        ``sweeps_dispatched`` counts barrier dispatches, so
        ``frame_bytes_sent / sweeps_dispatched`` is the per-barrier
        down-link cost a backend comparison wants.
        """
        return {
            "frames_sent": self.frames_sent,
            "frame_bytes_sent": self.frame_bytes_sent,
            "frame_bytes_received": self.frame_bytes_received,
            "sweeps_dispatched": self.sweeps_dispatched,
        }

    def reset_frame_stats(self) -> None:
        self.frames_sent = 0
        self.frame_bytes_sent = 0
        self.frame_bytes_received = 0
        self.sweeps_dispatched = 0
        self.reads_dispatched = 0

    # -- snapshot reads --------------------------------------------------
    def read_membership(self, meta, rows):
        """Gather membership bits for ``rows`` from a pinned epoch frame
        inside a worker process.

        ``meta`` is the frame meta returned by
        :meth:`~repro.graph.csr.CSRPartition.pin_shared`; ``rows`` is an
        integer array of row indices.  One frame goes down (meta + rows),
        one bool array comes back; the worker maps the segment zero-copy
        and caches the mapping per segment name.  Batches round-robin
        across the pool so reads share capacity with maintenance sweeps.
        """
        self._ensure_workers(full_init=False)
        p = self.reads_dispatched % len(self._conns)
        self.reads_dispatched += 1
        self._send(p, self._conns[p], ("csr_read", meta, rows))
        return self._recv_ok(p)[1]

    # -- lifecycle ------------------------------------------------------
    def bind(self, engine) -> None:
        self._engine = engine
        graph = engine.dgraph.graph
        if graph is not self._graph:
            self._attach_graph(graph)

    def _attach_graph(self, graph) -> None:
        if self._graph is not None:
            self._graph.detach_mutation_observer(self)
        self._graph = graph
        graph.attach_mutation_observer(self)
        self._needs_init = True
        self._mirror.clear()
        self._pending_ops.clear()
        self._pending_upserts.clear()
        self._pending_removals.clear()

    def begin_run(self, program, states: Dict[int, Any]) -> None:
        self._current_program = program
        # mirror diff: catch every out-of-band state edit since the last
        # commit (implicit vertex creation, checkpoint restores, rollback)
        mirror = self._mirror
        upserts = self._pending_upserts
        if len(mirror) != len(states) or mirror.keys() != states.keys():
            for u in mirror.keys() - states.keys():
                upserts.pop(u, None)
                self._pending_removals.add(u)
            for u in self._pending_removals:
                mirror.pop(u, None)
        # sorted: the upsert frame's item order (hence its bytes) must not
        # depend on the states dict's insertion history
        for u, value in sorted(states.items()):
            held = mirror.get(u, _MISSING)
            if held is _MISSING or held != value:
                upserts[u] = value
                mirror[u] = value
                self._pending_removals.discard(u)

    def commit(self, new_states: Dict[int, Any]) -> None:
        if not new_states:
            return
        self._pending_upserts.update(new_states)
        self._mirror.update(new_states)
        if self._pending_removals:
            self._pending_removals.difference_update(new_states)

    def prestart(self, num_partitions: Optional[int] = None) -> None:
        """Spawn the worker pool now (benchmarks exclude spawn latency)."""
        self._ensure_workers(num_partitions)

    # -- elastic pool resize ---------------------------------------------
    def add_worker(self) -> int:
        """Grow the pool by one worker process; returns the new size.

        On a running full pool the pending mutation-opcode prologue is
        flushed to the incumbents first (so the newcomer's snapshot is not
        double-applied by the next dispatch), then the newcomer is spawned
        and streamed the live replica — the master's graph copy plus the
        state mirror — and the current program, exactly the state a sweep
        expects.  Light (array-sweep) pools carry no replica; the newcomer
        only needs the shared CSR frame meta, which the forced rebroadcast
        reships with the next sweep.  Partition ownership is computed per
        dispatch as ``partition % pool_size``, so the next barrier
        rebalances automatically and stays bit-identical (the reduce is
        sorted by vertex id either way).
        """
        if not self._workers or self._needs_init or self._init_kind is None:
            # pool not live yet: just grow the target; spawn-time init
            # covers the newcomer with everyone else
            self.procs = max(self.procs + 1, len(self._workers) + 1)
            self._needs_init = True
            return self.procs
        program = self._shipped_program
        # light incumbents hold no replica to apply a prologue to
        prologue = self._take_prologue() if self._init_kind == "full" else None
        if prologue is not None:
            if prologue[3] is not None:
                program = prologue[3]
            for p, conn in enumerate(self._conns):
                self._send(p, conn, ("prologue", prologue))
            for p in range(len(self._conns)):
                self._recv_ok(p)
        index = len(self._workers)
        parent, child = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(child,),
            name=f"repro-runtime-{index}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._conns.append(parent)
        self._workers.append(proc)
        if self._init_kind == "full":
            self._send(index, parent,
                       ("init", self._graph.copy(), dict(self._mirror)))
            self._recv_ok(index)
            if program is not None:
                self._send(index, parent, ("prologue", ([], {}, [], program)))
                self._recv_ok(index)
        else:
            self._send(index, parent, ("init", None, {}))
            self._recv_ok(index)
        # force the frame meta down every pipe on the next csr sweep (the
        # newcomer has never mapped the segment)
        self._csr_shipped = None
        self.procs = len(self._workers)
        return self.procs

    def drain_worker(self) -> int:
        """Retire the highest-indexed worker process; returns the new size.

        The remaining workers already hold full replicas, so nothing needs
        to migrate across the pipes — ownership recomputes as
        ``partition % pool_size`` at the next dispatch.  Draining the last
        process is refused.
        """
        if not self._workers:
            if self.procs <= 1:
                raise ParallelRuntimeError(
                    "cannot drain below one worker process"
                )
            self.procs -= 1
            return self.procs
        if len(self._workers) <= 1:
            raise ParallelRuntimeError("cannot drain below one worker process")
        conn = self._conns.pop()
        proc = self._workers.pop()
        try:
            _send_msg(conn, ("close",))
        except (BrokenPipeError, OSError):
            pass
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
        try:
            conn.close()
        except OSError:
            pass
        self.procs = len(self._workers)
        return self.procs

    def close(self) -> None:
        """Stop the worker processes; the runtime stays reusable (the next
        sweep respawns and re-ships the replica)."""
        for conn in self._conns:
            try:
                _send_msg(conn, ("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._conns = []
        self._workers = []
        self._needs_init = True
        self._init_kind = None
        self._csr_shipped = None
        self._mirror.clear()
        self._pending_ops.clear()
        self._pending_upserts.clear()
        self._pending_removals.clear()
        self._shipped_program = None
        if self._graph is not None:
            self._graph.detach_mutation_observer(self)
            self._graph = None

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- graph mutation observer (DynamicGraph) -------------------------
    def on_add_vertex(self, u: int) -> None:
        self._pending_ops.append((_OP_ADD_VERTEX, u))

    def on_add_edge(self, u: int, v: int) -> None:
        self._pending_ops.append((_OP_ADD_EDGE, u, v))

    def on_remove_edge(self, u: int, v: int) -> None:
        self._pending_ops.append((_OP_REMOVE_EDGE, u, v))

    def on_remove_vertex(self, u: int) -> None:
        self._pending_ops.append((_OP_REMOVE_VERTEX, u))

    # -- pool management -------------------------------------------------
    def _ensure_workers(self, num_partitions: Optional[int] = None,
                        full_init: bool = True) -> None:
        if not self._workers:
            if num_partitions is None:
                if self._engine is None:
                    raise ParallelRuntimeError(
                        "runtime not bound to an engine yet"
                    )
                num_partitions = self._engine.dgraph.num_workers
            count = max(1, min(self.procs, num_partitions))
            for i in range(count):
                parent, child = self._mp.Pipe()
                proc = self._mp.Process(
                    target=_worker_main,
                    args=(child,),
                    name=f"repro-runtime-{i}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._workers.append(proc)
            self._needs_init = True
            self._init_kind = None
            self._csr_shipped = None
        needs_upgrade = (
            full_init and not self._needs_init and self._init_kind == "light"
        )
        if (self._needs_init or needs_upgrade) and self._graph is not None:
            if full_init:
                snapshot = self._graph.copy()
                self._broadcast(("init", snapshot, {}))
                for p in range(len(self._conns)):
                    self._recv_ok(p)
                # the snapshot already contains every buffered mutation; the
                # states replica starts empty and fills from the mirror-diff
                # upserts queued by begin_run — or, on an upgrade from a
                # light (array-sweeps-only) pool, from the whole mirror,
                # because light mode never shipped any states
                self._pending_ops.clear()
                self._pending_upserts = dict(self._mirror)
                self._pending_removals.clear()
                self._shipped_program = None
                self._init_kind = "full"
            else:
                # array-native sweeps need no graph/state replica at all:
                # workers map the shared CSR frame instead
                self._broadcast(("init", None, {}))
                for p in range(len(self._conns)):
                    self._recv_ok(p)
                self._shipped_program = None
                self._init_kind = "light"
            self._csr_shipped = None
            self._needs_init = False

    def _broadcast(self, msg) -> None:
        for p, conn in enumerate(self._conns):
            self._send(p, conn, msg)

    def _send(self, p: int, conn, msg) -> None:
        try:
            data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ParallelRuntimeError(
                "the process runtime requires picklable programs, states, "
                f"payloads and activation predicates: {exc}"
            ) from exc
        self.frames_sent += 1
        self.frame_bytes_sent += len(data)
        try:
            conn.send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise ParallelRuntimeError(
                f"worker process {p} is gone: {exc}"
            ) from exc

    def _recv_ok(self, p: int):
        conn = self._conns[p]
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ParallelRuntimeError(
                f"worker process {p} died mid-superstep"
            ) from exc
        self.frame_bytes_received += len(data)
        reply = pickle.loads(data)
        if reply[0] != "ok":
            raise ParallelRuntimeError(
                f"worker process {p} failed:\n{reply[1]}"
            )
        return reply

    # -- dispatch helpers ------------------------------------------------
    def _take_prologue(self):
        ship_program = None
        if self._current_program is not self._shipped_program:
            ship_program = self._current_program
        if not (
            self._pending_ops
            or self._pending_upserts
            or self._pending_removals
            or ship_program is not None
        ):
            return None
        prologue = (
            self._pending_ops,
            self._pending_upserts,
            sorted(self._pending_removals),
            ship_program,
        )
        self._pending_ops = []
        self._pending_upserts = {}
        self._pending_removals = set()
        if ship_program is not None:
            self._shipped_program = ship_program
        return prologue

    def _group_active(self, active) -> List[List[Tuple[int, List[int]]]]:
        """Group the (ascending) active list by logical partition, then
        assign partition ``w`` to process ``w % N`` — the static ownership
        map every dispatch uses."""
        worker_of = self._engine.dgraph.worker_of
        nprocs = len(self._conns)
        by_lw: Dict[int, List[int]] = {}
        for u in active:
            lw = worker_of(u)
            bucket = by_lw.get(lw)
            if bucket is None:
                bucket = by_lw[lw] = []
            bucket.append(u)
        per_proc: List[List[Tuple[int, List[int]]]] = [[] for _ in range(nprocs)]
        for lw in sorted(by_lw):
            per_proc[lw % nprocs].append((lw, by_lw[lw]))
        return per_proc

    def _draw_slices(self, draws: Optional[BarrierDraws], num_workers: int):
        nprocs = len(self._conns)
        if draws is None:
            return [None] * nprocs
        slices = []
        for p in range(nprocs):
            owned = [w for w in range(num_workers) if w % nprocs == p]
            slices.append(draws.slice_for(owned))
        return slices

    @staticmethod
    def _check_echo(echo_parts, draws: Optional[BarrierDraws],
                    num_workers: int, superstep: int) -> None:
        """Merge the workers' fault echo and verify it against the draws
        shipped with the sweep: a mismatch means a worker observed a
        schedule the master never drew, so the runtime is broken."""
        if draws is None:
            return
        delays = [0.0] * num_workers
        lost: List[int] = []
        crashed: List[int] = []
        for part in echo_parts:
            for w, d in part[0]:
                delays[w] = d
            lost.extend(part[1])
            crashed.extend(part[2])
        echo = (delays, sorted(lost), sorted(crashed))
        if echo != draws.echo():
            raise ParallelRuntimeError(
                f"superstep {superstep}: worker fault echo {echo!r} does "
                f"not match the barrier draws {draws.echo()!r}"
            )

    # -- sweeps ----------------------------------------------------------
    def sweep_scaleg(self, active, superstep: int, draws=None) -> ScaleGSweep:
        engine = self._engine
        kernel = getattr(engine, "_csr_kernel", None)
        if kernel is not None and getattr(engine, "_csr_fast", False):
            return self._sweep_scaleg_csr(engine, kernel, active, superstep)
        self._ensure_workers()
        self.sweeps_dispatched += 1
        num_workers = engine.dgraph.num_workers
        prologue = self._take_prologue()
        per_proc = self._group_active(active)
        slices = self._draw_slices(draws, num_workers)
        for p, conn in enumerate(self._conns):
            self._send(
                p, conn,
                ("sweep", "scaleg", superstep, prologue, per_proc[p], None,
                 slices[p]),
            )
        worker_work = [0] * num_workers
        compute_work = 0
        changed_pairs: List[Tuple[int, Any]] = []
        forced: List[int] = []
        requests: List[Tuple[int, List[int], List[Tuple[int, Any]]]] = []
        echo_parts = []
        for p in range(len(self._conns)):
            _, payload, echo = self._recv_ok(p)
            per_lw, cw, ch, fo, rq = payload
            compute_work += cw
            for lw, w in per_lw:
                worker_work[lw] += w
            changed_pairs.extend(ch)
            forced.extend(fo)
            requests.extend(rq)
            echo_parts.append(echo)
        # deterministic barrier reduce: ascending vertex id is exactly the
        # inline sweep order (the active list is ascending)
        changed_pairs.sort(key=itemgetter(0))
        forced.sort()
        requests.sort(key=itemgetter(0))
        self._check_echo(echo_parts, draws, num_workers, superstep)
        return ScaleGSweep(
            new_states=dict(changed_pairs),
            changed=[u for u, _ in changed_pairs],
            forced=forced,
            requests=requests,
            compute_work=compute_work,
            worker_work=worker_work,
        )

    def _sweep_scaleg_csr(self, engine, kernel, active,
                          superstep: int) -> ScaleGSweep:
        """Array-native sweep over the shared-memory CSR frame.

        Down-link per barrier: the frame meta (segment name + layout, only
        when the structure changed since the last ship) plus each process's
        slice of active *row indices* and the kernel config.  Up-link:
        per-worker work, compute work, and four typed delta arrays.  No
        graph, state, program or activation objects are ever pickled.
        """
        import numpy as np

        from repro.graph.csr import CSRSweepExtras, decode_worker_sweep

        part = engine._csr
        self._ensure_workers(full_init=False)
        self.sweeps_dispatched += 1
        if self._init_kind == "light":
            # replica deltas are irrelevant to array sweeps; drop them so
            # the buffers stay bounded (the mirror stays authoritative —
            # an upgrade to a full pool reships it wholesale)
            self._pending_ops.clear()
            self._pending_upserts.clear()
            self._pending_removals.clear()
        a = part.index_of(active)
        meta = part.publish_shared()
        token = (meta[0], meta[1])
        ship_meta = meta if token != self._csr_shipped else None
        nprocs = len(self._conns)
        num_workers = engine.dgraph.num_workers
        proc_of = part.home[a] % nprocs
        cfg = kernel.config(num_workers)
        for p, conn in enumerate(self._conns):
            self._send(
                p, conn,
                ("csr_sweep", superstep, ship_meta,
                 a[proc_of == p].astype(np.int32), cfg),
            )
        self._csr_shipped = token
        worker_work = [0] * num_workers
        compute_work = 0
        idx_parts, val_parts, src_parts, tgt_parts = [], [], [], []
        for p in range(nprocs):
            reply = self._recv_ok(p)
            cw, ww, changed_idx, changed_val, req_src, req_tgt = (
                decode_worker_sweep(reply[1])
            )
            compute_work += cw
            for w in range(num_workers):
                worker_work[w] += ww[w]
            idx_parts.append(changed_idx)
            val_parts.append(changed_val)
            src_parts.append(req_src)
            tgt_parts.append(req_tgt)
        changed_idx = np.concatenate(idx_parts)
        changed_val = np.concatenate(val_parts)
        # deterministic reduce: rows are unique across processes, so the
        # argsort restores exactly the inline (ascending) order
        order = np.argsort(changed_idx)
        changed_idx = changed_idx[order]
        changed_val = changed_val[order]
        extras = CSRSweepExtras(
            changed_idx, changed_val,
            np.concatenate(src_parts), np.concatenate(tgt_parts),
        )
        changed_ids = part.ids[changed_idx].tolist()
        return ScaleGSweep(
            new_states=dict(zip(changed_ids, changed_val.tolist())),
            changed=changed_ids,
            forced=[],
            requests=[],
            compute_work=compute_work,
            worker_work=worker_work,
            csr=extras,
        )

    def sweep_pregel(
        self, states, active, superstep: int, inbox, draws=None
    ) -> PregelSweep:
        engine = self._engine
        self._ensure_workers()
        self.sweeps_dispatched += 1
        num_workers = engine.dgraph.num_workers
        prologue = self._take_prologue()
        per_proc = self._group_active(active)
        slices = self._draw_slices(draws, num_workers)
        registry = engine._aggregators
        prev_agg = {name: registry.previous(name) for name in registry.names()}
        from repro.pregel.message import Message

        for p, conn in enumerate(self._conns):
            slice_inbox = {}
            for _, vertices in per_proc[p]:
                for u in vertices:
                    payloads = inbox.get(u)
                    if payloads is not None:
                        slice_inbox[u] = payloads
            self._send(
                p, conn,
                ("sweep", "pregel", superstep, prologue, per_proc[p],
                 (slice_inbox, prev_agg), slices[p]),
            )
        worker_work = [0] * num_workers
        compute_work = 0
        merged = []
        echo_parts = []
        for p in range(len(self._conns)):
            _, payload, echo = self._recv_ok(p)
            per_lw, cw, results = payload
            compute_work += cw
            for lw, w in per_lw:
                worker_work[lw] += w
            merged.extend(results)
            echo_parts.append(echo)
        merged.sort(key=itemgetter(0))
        self._check_echo(echo_parts, draws, num_workers, superstep)
        # replay sends and aggregator contributions in inline order, so the
        # outbox sequence and the (order-sensitive) aggregator reductions
        # are bit-identical to the serial sweep
        new_states: Dict[int, Any] = {}
        outbox = engine._outbox
        contribute = registry.contribute
        for u, was_changed, new_state, msgs, sink in merged:
            if was_changed:
                new_states[u] = new_state
            for dest, payload_value, payload_bytes in msgs:
                # master-side barrier replay (not worker code): rebuilding
                # the engine outbox in inline send order IS the sweep delta
                outbox.append(Message(u, dest, payload_value, payload_bytes))  # repro-lint: disable=P1
            for name, value in sink:
                contribute(name, value)
        return PregelSweep(
            new_states=new_states,
            compute_work=compute_work,
            worker_work=worker_work,
        )
