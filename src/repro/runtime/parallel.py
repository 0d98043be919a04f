"""Multi-process execution backend for the BSP engines.

:class:`ParallelRuntime` fans the per-superstep compute sweep of a
CSR-kernel program (:meth:`~repro.scaleg.engine.ScaleGProgram.csr_kernel`,
swept by :class:`~repro.scaleg.engine.ScaleGEngine` on its default
representation) out across ``N`` persistent OS worker processes (stdlib
:mod:`multiprocessing`, spawn-safe, no extra dependencies).  This module
is the only one that knows about shared memory.  There is one frame
protocol:

- The runtime owns at most one shared-memory segment for its lifetime
  and every worker maps it zero-copy — the paper's "local guest copy"
  view of every neighbour's state.  It holds the swept
  :class:`~repro.graph.csr.CSRPartition`'s ``ids``, ``keys``, ``indptr``,
  ``nbr``, ``home`` and ``in_``.  The structure arrays are copied in when
  the swept partition or its ``structure_version`` changes (in place
  unless the segment is too small); the membership bitmap, ``n`` bytes,
  is copied in before every dispatch.  The master's bitmap stays a
  private array, so a barrier commit needs no message and a crashed
  superstep needs no undo on any worker.  Rows whose home partition is
  ``w`` are swept by process ``w % N``, where ``N`` is the live pool size
  at each dispatch.
- Per barrier, one length-prefixed frame (``Connection`` frames every
  message with a length header) goes down each pipe: the frame meta
  (segment name, epoch, layout — only when it changed since the last
  ship), the process's active *row indices*, the kernel config and the
  process's slice of the barrier fault draws.  One frame comes back:
  work counters, changed rows with their new values, run-length encoded
  activation requests (:func:`_worker_sweep`) and the fault-slice echo.
- The barrier merge is deterministic: rows are unique across processes,
  so changed rows sorted by row and requests stably sorted by source row
  are exactly the inline sweep's order, and the same
  :meth:`~repro.graph.csr.OIMISKernel.as_sweep` tail the inline kernel
  uses builds the :class:`~repro.runtime.base.ScaleGSweep`, carrying the
  typed delta arrays with or without faults or the race sanitizer.
  Work sums are integers, so members,
  ``members_checksum`` and all logical meters are bit-identical to
  :class:`~repro.runtime.base.InlineExecutor`.
- Fault injection: the engine draws each barrier's schedule before the
  sweep (:func:`~repro.faults.recovery.fault_barrier`, the same draw on
  every backend), the dispatch ships every process the slice of draws its
  partitions own, the process echoes it, and the merge verifies the echo
  against the draws (:class:`~repro.errors.ParallelRuntimeError` on a
  mismatch), while recovery stays on the master, byte-identical to
  inline.

The frame belongs to the sweep protocol alone: the snapshot read path
(:mod:`repro.serve.reads`) publishes private array copies and never
talks to the workers.  Frames carry only numpy arrays, tuples and
primitives — no program, state or graph object is ever pickled.  A
sweep with no CSR kernel (DisMIS, the weighted program,
``representation="dict"``) is refused by
:meth:`ParallelRuntime.begin_run` before any process spawns; such
programs run on the inline runtime.  The Pregel engine takes no runtime
at all.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
import weakref
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParallelRuntimeError
from repro.runtime.base import BarrierDraws, ExecutionBackend, ScaleGSweep

#: the partition arrays the frame holds, in segment order
_FRAME_ARRAYS = ("ids", "keys", "indptr", "nbr", "home", "in_")


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
class WorkerCSRView:
    """A worker process's zero-copy mapping of the runtime's frame."""

    def __init__(self, meta):
        name = meta[0]
        # The master owns the segment's lifecycle; a worker must attach
        # WITHOUT registering it with the (shared) resource tracker, or
        # the tracker's refcount diverges and the master's unlink warns
        # (bpo-39959).  Python 3.13 has track=False for exactly this;
        # earlier versions need the registration suppressed around the
        # attach.
        try:
            self.shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track= parameter
            from multiprocessing import resource_tracker

            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                self.shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig_register
        self.name = name
        self.remap(meta)

    def remap(self, meta) -> None:
        buf = self.shm.buf
        for name, dtype, shape, offset in meta[2]:
            setattr(self, name, np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf, offset=offset
            ))

    def close(self) -> None:
        for name in _FRAME_ARRAYS:
            if hasattr(self, name):
                delattr(self, name)
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass


def _worker_attach(view: Optional[WorkerCSRView], meta) -> WorkerCSRView:
    """(Re)map the frame inside a worker process: the same segment is
    remapped in place, a new one (the master grew it) replaces it."""
    if view is not None:
        if view.name == meta[0]:
            view.remap(meta)
            return view
        view.close()
    return WorkerCSRView(meta)


def _worker_sweep(view: WorkerCSRView, active_idx, cfg):
    """One worker's share of a kernel sweep, wire-encoded.

    Row indices travel as ``int32`` (row counts are far below 2^31) and
    the request pairs as (unique sources, run lengths, targets) — the
    source column is non-decreasing, so run-length grouping shrinks it to
    one entry per requesting vertex.  :func:`_decode_sweep` is the
    inverse.
    """
    from repro.graph.csr import _sweep_arrays

    _strategy_value, full_scan, suffix_only, num_workers = cfg
    compute_work, worker_work, changed_idx, changed_val, req_src, req_tgt = (
        _sweep_arrays(view, active_idx.astype(np.int64), full_scan,
                      suffix_only, num_workers)
    )
    if req_src.size:
        starts = np.flatnonzero(np.diff(req_src)) + 1
        bounds = np.concatenate(
            (np.zeros(1, np.int64), starts,
             np.array([req_src.size], np.int64))
        )
        sources = req_src[bounds[:-1]].astype(np.int32)
        counts = np.diff(bounds).astype(np.int32)
    else:
        sources = np.empty(0, np.int32)
        counts = np.empty(0, np.int32)
    return (
        compute_work,
        worker_work,
        changed_idx.astype(np.int32),
        changed_val,
        sources,
        counts,
        req_tgt.astype(np.int32),
    )


def _decode_sweep(payload):
    """Decode one worker's wire frame back to int64 row-index arrays."""
    compute_work, worker_work, changed_idx, changed_val, sources, counts, \
        req_tgt = payload
    req_src = np.repeat(sources.astype(np.int64), counts)
    return (
        compute_work,
        worker_work,
        changed_idx.astype(np.int64),
        changed_val,
        req_src,
        req_tgt.astype(np.int64),
    )


def _worker_main(conn) -> None:
    """Entry point of one persistent worker process (spawn-importable).

    Serves two message kinds: ``csr_sweep`` (one kernel sweep over the
    mapped frame) and ``close``.
    """
    #: mapped shared-memory CSR frame the sweeps scan, if any
    csr_view = None

    def _drop_view():
        if csr_view is not None:
            csr_view.close()

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
            if kind == "csr_sweep":
                _, meta, active_idx, cfg, draw_slice = msg
                if meta is not None:
                    csr_view = _worker_attach(csr_view, meta)
                if csr_view is None:
                    raise ParallelRuntimeError(
                        "csr sweep dispatched before any frame meta"
                    )
                reply = ("ok", _worker_sweep(csr_view, active_idx, cfg),
                         draw_slice)
            else:
                reply = ("err", f"unknown message kind {kind!r}")
        except Exception:
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
    collection) tears it down and unlinks the runtime's one shared-memory
    segment.  Workers hold no replica of their own: a sweep of a
    different engine or graph copies that partition into the same
    segment, and the next dispatch ships the new meta.  The runtime
    holds the bound engine and the partition its frame mirrors by weak
    reference only, so an open runtime never keeps a dropped maintainer's
    graph or mirror alive.
    """

    kind = "process"

    def __init__(self, procs: Optional[int] = None, start_method: str = "spawn"):
        if procs is not None and procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        self.procs = procs if procs is not None else (os.cpu_count() or 1)
        self._mp = multiprocessing.get_context(start_method)
        #: weak reference to the engine bound at run entry (see _engine)
        self._engine_ref = None
        self._conns: List[Any] = []
        self._workers: List[Any] = []
        #: the one segment this runtime owns (None until the first sweep)
        self._shm = None
        #: weak reference to the partition the segment mirrors, and that
        #: partition's ``structure_version`` at the last copy
        self._frame_part = None
        self._frame_version = -1
        #: ``(name, dtype, shape, offset)`` of each array in the segment
        self._layout: List[Tuple[str, str, tuple, int]] = []
        #: bumped whenever the layout is rewritten
        self._epoch = 0
        #: the epoch whose meta the workers hold
        self._shipped_epoch: Optional[int] = None
        # pipe-traffic accounting (bytes actually pickled per direction);
        # reset via reset_frame_stats(), read via frame_stats()
        self.frames_sent = 0
        self.frame_bytes_sent = 0
        self.frame_bytes_received = 0
        self.sweeps_dispatched = 0

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

    # -- lifecycle ------------------------------------------------------
    @property
    def _engine(self):
        """The engine bound at run entry, or ``None`` once it is gone."""
        ref = self._engine_ref
        return None if ref is None else ref()

    def bind(self, engine) -> None:
        self._engine_ref = weakref.ref(engine)

    def begin_run(self, program) -> None:
        """Refuse a run the frame protocol cannot sweep — before any
        process spawns."""
        if getattr(self._engine, "_csr_kernel", None) is None:
            raise ParallelRuntimeError(
                f"{type(program).__name__} on "
                f"{type(self._engine).__name__} does not sweep on a CSR "
                "kernel, and the process runtime runs CSR-kernel sweeps "
                "only; use the inline runtime (runtime='inline')"
            )

    def commit(self, new_states: Dict[int, Any]) -> None:
        """Nothing to ship: the engine writes the barrier into the
        partition's private bitmap, and the next dispatch copies that
        bitmap into the frame."""

    def prestart(self, num_partitions: Optional[int] = None) -> None:
        """Spawn the worker pool now (benchmarks exclude spawn latency)."""
        self._ensure_workers(num_partitions)

    def close(self) -> None:
        """Stop the worker processes, unlink the shared-memory segment and
        drop the bound engine; the runtime stays reusable (the next run
        binds again, respawns the pool and publishes a new segment)."""
        conns, workers = self._conns, self._workers
        self._conns = []
        self._workers = []
        self._engine_ref = None
        self._shipped_epoch = None
        for conn, proc in zip(conns, workers):
            self._stop(conn, proc)
        self._unlink()

    def __del__(self):  # pragma: no cover - interpreter shutdown ordering
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "ParallelRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the shared-memory frame ----------------------------------------
    def _publish(self, part) -> Tuple[str, int, list]:
        """Copy ``part`` into the runtime's segment; returns the frame meta
        ``(segment name, epoch, layout)`` a worker maps.

        The structure arrays are copied only when ``part`` or its
        ``structure_version`` changed since the last publish; the bitmap
        is copied every time.  A segment too small for the arrays is
        unlinked and replaced by a larger one.  The last published
        partition is held weakly: once it is collected, no later
        partition can pass for it.
        """
        arrays = [getattr(part, name) for name in _FRAME_ARRAYS]
        framed = self._frame_part
        stale = (framed is None or framed() is not part
                 or part.structure_version != self._frame_version)
        if stale:
            need = sum(int(arr.nbytes) for arr in arrays)
            if self._shm is None or self._shm.size < need:
                self._unlink()
                # headroom so steady edge churn republishes in place
                self._shm = shared_memory.SharedMemory(
                    create=True, size=need + need // 2 + 4096
                )
            self._layout = []
            offset = 0
            for name, arr in zip(_FRAME_ARRAYS, arrays):
                self._layout.append((name, arr.dtype.str, arr.shape, offset))
                offset += int(arr.nbytes)
            self._frame_part = weakref.ref(part)
            self._frame_version = part.structure_version
            self._epoch += 1
        buf = self._shm.buf
        for arr, (name, dtype, shape, offset) in zip(arrays, self._layout):
            if stale or name == "in_":
                np.ndarray(shape, dtype=dtype, buffer=buf,
                           offset=offset)[...] = arr
        return (self._shm.name, self._epoch, self._layout)

    def _unlink(self) -> None:
        """Close and unlink the segment without reading it (safe from a
        finaliser: no array view of it outlives :meth:`_publish`)."""
        shm = self._shm
        self._shm = None
        self._frame_part = None
        if shm is None:
            return
        try:
            shm.close()
        except (OSError, BufferError):  # pragma: no cover - best effort
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # -- pool management -------------------------------------------------
    def _spawn(self, index: int) -> None:
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

    @staticmethod
    def _stop(conn, proc) -> None:
        """Ask one worker to exit, reap it, and close its pipe."""
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

    def _ensure_workers(self, num_partitions: Optional[int] = None) -> None:
        if self._workers:
            return
        if num_partitions is None:
            if self._engine is None:
                raise ParallelRuntimeError("runtime not bound to an engine yet")
            num_partitions = self._engine.dgraph.num_workers
        for index in range(max(1, min(self.procs, num_partitions))):
            self._spawn(index)
        self._shipped_epoch = None

    def _send(self, p: int, msg) -> None:
        data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        self.frames_sent += 1
        self.frame_bytes_sent += len(data)
        try:
            self._conns[p].send_bytes(data)
        except (BrokenPipeError, OSError) as exc:
            raise ParallelRuntimeError(
                f"worker process {p} is gone: {exc}"
            ) from exc

    def _recv_ok(self, p: int):
        try:
            data = self._conns[p].recv_bytes()
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

    # -- fault slices ----------------------------------------------------
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
        """One kernel sweep fanned out over the shared-memory frame.

        Down-link per process: the frame meta (only when the layout
        changed since the last ship), its slice of active row indices,
        the kernel config and its fault-draw slice.  Up-link: work
        counters, four typed delta arrays and the draw echo.
        """
        engine = self._engine
        part = engine._csr
        kernel = engine._csr_kernel
        self._ensure_workers()
        self.sweeps_dispatched += 1
        a = part.index_of(active)
        meta = self._publish(part)
        ship_meta = meta if meta[1] != self._shipped_epoch else None
        nprocs = len(self._conns)
        num_workers = engine.dgraph.num_workers
        proc_of = part.home[a] % nprocs
        cfg = kernel.config(num_workers)
        slices = self._draw_slices(draws, num_workers)
        for p in range(nprocs):
            self._send(p, ("csr_sweep", ship_meta,
                           a[proc_of == p].astype(np.int32), cfg, slices[p]))
        self._shipped_epoch = meta[1]
        compute_work = 0
        worker_work = [0] * num_workers
        deltas = []
        echo_parts = []
        for p in range(nprocs):
            _, payload, echo = self._recv_ok(p)
            cw, ww, *arrays = _decode_sweep(payload)
            compute_work += cw
            for w in range(num_workers):
                worker_work[w] += ww[w]
            deltas.append(arrays)
            echo_parts.append(echo)
        self._check_echo(echo_parts, draws, num_workers, superstep)
        changed_idx, changed_val, req_src, req_tgt = (
            np.concatenate(column) for column in zip(*deltas)
        )
        # deterministic reduce: rows are unique across processes and each
        # process's requests are in its sweep order, so sorting changed
        # rows and stably sorting requests by source row restores exactly
        # the inline order
        order = np.argsort(changed_idx)
        by_src = np.argsort(req_src, kind="stable")
        return kernel.as_sweep(engine, (
            compute_work, worker_work, changed_idx[order],
            changed_val[order], req_src[by_src], req_tgt[by_src],
        ))
