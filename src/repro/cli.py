"""Command-line interface: ``repro-mis``.

Subcommands
-----------
``compute``    static MIS of a SNAP edge-list file (OIMIS or DisMIS, either
               engine), printing size + cost meters, optionally the members.
``maintain``   stream an update file (``ins u v`` / ``del u v`` lines)
               through the DOIMIS maintainer, optionally from/to a
               checkpoint, printing the maintenance meters.
``generate``   write a synthetic graph (er / ba / chung_lu / dataset
               stand-in) as an edge list, and optionally a delete-reinsert
               workload for it.
``datasets``   list the 16 paper-dataset stand-ins.
``bench``      run one experiment driver (table2..fig13, chaos) and print
               its table.
``chaos``      sweep seeded fault-injection schedules (worker crashes,
               dropped/duplicated/reordered sync records, stragglers) over
               Fig. 10/11 workloads and assert the convergence oracle:
               bit-identical final set and logical meters.
``serve``      run the durable ingestion service (:mod:`repro.serve`) on a
               seeded bursty trace: WAL + admission control + fixed-count
               windows + retry/quarantine, with ``--check`` auditing
               exactly-once accounting and ``--chaos`` running the
               kill-and-recover bit-identity oracle.  ``--read-mix R``
               interleaves a seeded query stream (fraction R of traffic)
               against the epoch-consistent read path and reports read
               latency percentiles + staleness.
``query``      answer point/batch/neighbourhood/why-not MIS queries
               against a maintainer checkpoint through the epoch snapshot
               read path (deterministic output — no wall numbers).
``rebalance``  script voluntary worker joins/drains at mid-stream barriers
               and assert the elastic-membership oracle: members and
               logical meters bit-identical to the static-membership run,
               every movement cost on the ``rebalance_*`` family.
``bench-perf`` run the seeded perf microbenchmarks, writing (or, with
               ``--check``, diffing against) the committed
               ``BENCH_core.json`` baseline.
``lint``       statically check vertex programs and the runtime layer for
               BSP discipline violations (non-deterministic iteration,
               double-buffer breaches, activation discipline, sync hygiene,
               and the parallel-safety P family: sweep purity, barrier
               ordering, frame hygiene, merge-once); exits non-zero when
               findings remain.
``sanitize``   replay chaos workloads with the superstep race sanitizer
               wrapped around the execution backend; exits non-zero on any
               recorded race or bit-identity drift vs the inline reference.

Examples
--------
::

    repro-mis generate ba --n 1000 --param 4 -o graph.txt --workload 200
    repro-mis compute graph.txt --algorithm dismis --workers 8
    repro-mis maintain graph.txt.updates --graph graph.txt --batch-size 50 --verify
    repro-mis bench table2
    repro-mis lint src/repro --format json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.activation import ActivationStrategy
from repro.core.dismis import run_dismis
from repro.core.maintainer import MISMaintainer
from repro.core.oimis import run_oimis, run_oimis_pregel
from repro.errors import ReproError
from repro.graph import datasets, generators
from repro.graph.io import (
    read_edge_list,
    read_update_stream,
    write_edge_list,
    write_update_stream,
)

_STRATEGIES = {
    "all": ActivationStrategy.ALL,
    "lr": ActivationStrategy.LOWER_RANKING,
    "ss": ActivationStrategy.SAME_STATUS,
}


def _resolve_cli_runtime(args: argparse.Namespace):
    """Build the execution backend the ``--runtime``/``--procs`` flags ask
    for (``None`` keeps the engines' inline default)."""
    if args.runtime != "process":
        return None
    from repro.runtime import ParallelRuntime

    return ParallelRuntime(procs=args.procs)


def _runtime_factory(args: argparse.Namespace):
    """A fresh-backend factory for commands that run several maintainers
    (``None`` keeps the engines' inline default)."""
    if args.runtime != "process":
        return None
    from repro.runtime import ParallelRuntime

    return lambda: ParallelRuntime(procs=args.procs)


def _print_metrics(label: str, metrics) -> None:
    summary = metrics.summary()
    print(f"{label}:")
    for key in ("supersteps", "active_vertices", "communication_mb",
                "memory_mb", "wall_time_s"):
        print(f"  {key:18} {summary[key]}")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------
def _cmd_compute(args: argparse.Namespace) -> int:
    graph = read_edge_list(args.graph)
    print(f"loaded {graph}")
    runtime = _resolve_cli_runtime(args)
    try:
        if args.algorithm == "oimis":
            if args.engine == "pregel":
                run = run_oimis_pregel(graph, num_workers=args.workers)
            else:
                run = run_oimis(
                    graph, num_workers=args.workers,
                    strategy=_STRATEGIES[args.strategy], runtime=runtime
                )
            members = run.independent_set
            metrics = run.metrics
        else:
            run = run_dismis(
                graph, num_workers=args.workers, engine=args.engine,
                runtime=runtime,
            )
            members = run.independent_set
            metrics = run.metrics
    finally:
        if runtime is not None:
            runtime.close()
    print(f"independent set size: {len(members)}")
    _print_metrics("metrics", metrics)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for u in sorted(members):
                handle.write(f"{u}\n")
        print(f"members written to {args.output}")
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    runtime = _resolve_cli_runtime(args)
    if args.resume:
        # an explicit --workers must match the checkpoint's partitioning —
        # load() raises CheckpointError("partition mismatch: ...") otherwise
        maintainer = MISMaintainer.load(
            args.resume, num_workers=args.workers, runtime=runtime
        )
        print(f"resumed checkpoint: {maintainer.graph}, |M|={len(maintainer)}")
    else:
        graph = read_edge_list(args.graph)
        maintainer = MISMaintainer(
            graph,
            num_workers=args.workers if args.workers is not None else 10,
            strategy=_STRATEGIES[args.strategy],
            runtime=runtime,
        )
        print(f"loaded {maintainer.graph}; initial |M|={len(maintainer)}")
    with maintainer:
        return _run_maintain(args, maintainer)


def _run_maintain(args: argparse.Namespace, maintainer) -> int:
    ops = read_update_stream(args.updates)
    print(f"applying {len(ops)} updates in batches of {args.batch_size}")
    if args.checkpoint_every:
        # periodic saves: if the stream dies mid-way (bad op, fault
        # escalation, crash of this process), the file on disk holds the
        # state after the last completed group — resume with --resume
        from repro.bench.workloads import batched

        batches_done = 0
        for batch in batched(ops, args.batch_size):
            maintainer.apply_batch(batch)
            batches_done += 1
            if batches_done % args.checkpoint_every == 0:
                maintainer.save(args.checkpoint)
                print(
                    f"checkpoint written to {args.checkpoint} "
                    f"(after {batches_done} batches, "
                    f"{maintainer.updates_applied} updates)"
                )
    else:
        maintainer.apply_stream(ops, batch_size=args.batch_size)
    print(f"final independent set size: {len(maintainer)}")
    _print_metrics("maintenance", maintainer.update_metrics)
    if args.verify:
        maintainer.verify()
        print("verification passed")
    if args.checkpoint:
        maintainer.save(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            for u in sorted(maintainer.independent_set()):
                handle.write(f"{u}\n")
        print(f"members written to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "er":
        m = args.edges if args.edges is not None else 3 * args.n
        graph = generators.erdos_renyi(args.n, m, seed=args.seed)
    elif args.model == "ba":
        graph = generators.barabasi_albert(args.n, int(args.param), seed=args.seed)
    elif args.model == "chung_lu":
        graph = generators.chung_lu(args.n, args.param, seed=args.seed)
    else:  # dataset stand-in
        graph = datasets.load_dataset(args.dataset)
    write_edge_list(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    if args.workload:
        from repro.bench.workloads import delete_reinsert_workload

        ops = delete_reinsert_workload(graph, args.workload, seed=args.seed)
        path = args.output + ".updates"
        write_update_stream(ops, path)
        print(f"wrote {len(ops)}-op delete-reinsert workload to {path}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'tag':6} {'name':12} {'paper |V|':>12} {'paper |E|':>15} "
          f"{'standin n':>10} {'standin m':>10} {'group':>6}")
    for tag in datasets.dataset_tags():
        spec = datasets.dataset_spec(tag)
        print(
            f"{spec.tag:6} {spec.name:12} {spec.paper_vertices:>12,} "
            f"{spec.paper_edges:>15,} {spec.n:>10} {spec.m:>10} {spec.group:>6}"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import lint_paths, render_json, render_sarif, render_text

    rules = None
    if args.rules or args.family:
        rules = [r for chunk in args.rules for r in chunk.split(",")]
        rules.extend(args.family)
    try:
        findings = lint_paths(args.paths or None, rules=rules)
    except ValueError as exc:  # unknown rule id
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    renderers = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }
    print(renderers[args.format](findings))
    return 1 if findings else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis.parallel import sanitize_suite
    from repro.faults.chaos import CHAOS_WORKLOADS, PLAN_PRESETS

    presets = args.preset or ["none"]
    for preset in presets:
        if preset not in PLAN_PRESETS:
            print(
                f"error: unknown chaos preset {preset!r}; "
                f"known: {', '.join(PLAN_PRESETS)}",
                file=sys.stderr,
            )
            return 2
    workloads = CHAOS_WORKLOADS
    if args.workload:
        by_name = {w.name: w for w in CHAOS_WORKLOADS}
        missing = [name for name in args.workload if name not in by_name]
        if missing:
            print(
                f"error: unknown workload(s) {missing}; "
                f"known: {', '.join(by_name)}",
                file=sys.stderr,
            )
            return 2
        workloads = tuple(by_name[name] for name in args.workload)
    results = sanitize_suite(
        presets=presets,
        seeds=args.seed or list(range(args.seeds)),
        procs=args.procs,
        workloads=workloads,
        start_method=args.start_method,
    )
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        print(f"{'workload':20} {'preset':16} {'seed':>4} {'procs':>5} "
              f"{'checked':>8} {'races':>6} {'verdict'}")
        for r in results:
            verdict = "ok" if r.ok else "FAIL"
            print(f"{r.workload:20} {r.preset:16} {r.seed:>4} {r.procs:>5} "
                  f"{r.supersteps_checked:>8} {len(r.races):>6} {verdict}  "
                  f"trace={r.trace_digest}")
            for race in r.races:
                print(f"    - {race}")
            for failure in r.failures:
                print(f"    - {failure}")
    bad = [r for r in results if not r.ok]
    summary_stream = sys.stderr if args.format == "json" else sys.stdout
    if bad:
        print(f"{len(bad)}/{len(results)} sanitize case(s) reported races "
              "or broke bit-identity", file=sys.stderr)
        return 1
    print(f"ok: {len(results)} sanitize case(s) ran race-free and "
          "bit-identical to the inline reference", file=summary_stream)
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    from repro.bench import perf

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    names = tuple(args.scenario or ())
    document = perf.run_suite(
        names, repeat=args.repeat, profile_dir=args.profile
    )
    if args.check:
        try:
            baseline = perf.load_baseline(args.output)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: cannot load baseline: {exc}", file=sys.stderr)
            return 2
        problems = perf.check_against(baseline, document)
        if problems:
            for problem in problems:
                print(f"DRIFT {problem}")
            print(f"{len(problems)} drift(s) against {args.output}")
            return 1
        checked = len(document["scenarios"])
        print(f"ok: {checked} scenario(s) match {args.output}")
        return 0
    perf.write_baseline(args.output, document)
    print(f"wrote {len(document['scenarios'])} scenario(s) to {args.output}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos

    presets = args.preset or list(chaos.PLAN_PRESETS)
    seeds = args.seed or list(range(args.seeds))
    results = chaos.chaos_suite(presets=presets, seeds=seeds)
    if args.format == "json":
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        print(f"{'workload':20} {'preset':16} {'seed':>4} {'injected':>8} "
              f"{'recovery':>8} {'verdict'}")
        for r in results:
            recovery = int(r.recovery.get("recovery_crashes", 0)
                           + r.recovery.get("recovery_failovers", 0)
                           + r.recovery.get("recovery_sync_retries", 0)
                           + r.recovery.get("recovery_sync_duplicates", 0)
                           + r.recovery.get("recovery_reorders", 0))
            verdict = "ok" if r.ok else "FAIL"
            print(f"{r.workload:20} {r.preset:16} {r.seed:>4} "
                  f"{r.injected_total:>8} {recovery:>8} {verdict}")
            for failure in r.failures:
                print(f"    - {failure}")
    bad = [r for r in results if not r.ok]
    if bad:
        print(f"{len(bad)}/{len(results)} chaos case(s) violated the "
              "convergence oracle", file=sys.stderr)
        return 1
    # keep stdout machine-readable under --format json
    summary_stream = sys.stderr if args.format == "json" else sys.stdout
    print(f"ok: {len(results)} chaos case(s) converged to the fault-free "
          "fixpoint with bit-identical logical meters", file=summary_stream)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from repro.graph.datasets import load_dataset
    from repro.serve import (
        AdmissionConfig,
        IngestionService,
        RetryPolicy,
        TraceConfig,
        audit_log,
        bursty_trace,
        drive,
    )

    if args.chaos:
        from repro.faults.chaos import serve_crash_replay

        result = serve_crash_replay(
            tag=args.dataset, num_ops=args.ops, seed=args.seed,
            poison_prob=args.poison_prob,
            runtime_factory=_runtime_factory(args),
        )
        if args.format == "json":
            print(json.dumps(result.as_dict(), indent=2))
        else:
            print(f"serve crash/replay: dataset={result.tag} "
                  f"ops={result.num_ops} seed={result.seed}")
            print(f"  crashed after     {result.crashed_after} event(s)")
            print(f"  replayed          {result.replayed_windows} window(s) "
                  f"/ {result.replayed_events} event(s)")
            print(f"  quarantined       {result.quarantined}")
            for failure in result.failures:
                print(f"  FAIL {failure}")
        stream = sys.stderr if args.format == "json" else sys.stdout
        if result.ok:
            print("ok: recovered run is bit-identical to the uninterrupted "
                  "run (members + cumulative logical meters)", file=stream)
            return 0
        print(f"{len(result.failures)} crash/replay oracle violation(s)",
              file=sys.stderr)
        return 1

    trace_graph = load_dataset(args.dataset)
    operations, timestamps = bursty_trace(trace_graph, TraceConfig(
        num_ops=args.ops, seed=args.seed, poison_prob=args.poison_prob,
    ))
    runtime = _resolve_cli_runtime(args)
    maintainer = MISMaintainer(
        load_dataset(args.dataset), num_workers=args.workers, runtime=runtime
    )
    wal_dir = args.wal_dir or tempfile.mkdtemp(prefix="repro-serve-")
    try:
        with IngestionService(
            maintainer, wal_dir, window_size=args.window,
            admission=AdmissionConfig(
                policy=args.admission, high_watermark=args.high_watermark,
                low_watermark=args.low_watermark,
            ),
            retry=RetryPolicy(
                max_retries=args.retries, backoff_base_s=args.backoff,
            ),
            fsync=args.fsync, checkpoint_every=args.checkpoint_every,
            serve_reads=args.read_mix > 0,
        ) as service:
            ingest_wall, _ = drive(
                service, operations, timestamps, read_mix=args.read_mix,
                read_batch=args.read_batch, seed=args.seed,
            )
        problems, audit = audit_log(wal_dir)
        summary = service.stats_summary()
        session = summary["session"]
        if args.format == "json":
            document = dict(summary)
            document["audit"] = {"problems": problems, **audit}
            document["ingest_wall_s"] = round(ingest_wall, 3)
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            throughput = (audit["applied"] / ingest_wall
                          if ingest_wall else 0.0)
            print(f"serve: dataset={args.dataset} ops={args.ops} "
                  f"seed={args.seed} poison={args.poison_prob} "
                  f"admission={args.admission} window={args.window}")
            print(f"  accepted          {summary['accepted']}")
            print(f"  shed              {summary['shed']}")
            print(f"  rejected          {summary['rejected']}")
            print(f"  blocked           {summary['blocked']}")
            print(f"  applied           {audit['applied']} "
                  f"in {audit['commits']} window(s)")
            print(f"  quarantined       {summary['quarantined']} "
                  f"(window failures {summary['window_failures']}, "
                  f"bisections {summary['bisections']})")
            print(f"  throughput        {throughput:.1f} updates/s")
            print(f"  window wall p50   {session['wall_time_p50_s']:.5f} s")
            print(f"  window wall p95   {session['wall_time_p95_s']:.5f} s")
            print(f"  window wall p99   {session['wall_time_p99_s']:.5f} s")
            print(f"  max pending       {session['max_pending']}")
            if "reads" in summary:
                reads = summary["reads"]
                served = reads["reads_served"]
                reads_per_s = reads["reads_per_s"]
                print(f"  reads served      {served} "
                      f"({reads['point_queries']} point, "
                      f"{reads['batch_queries']} batch, "
                      f"{reads['why_not_queries']} why-not) "
                      f"@ {reads_per_s:.1f} reads/s")
                print(f"  read lat p50      {reads['latency_p50_ms']:.4f} ms")
                print(f"  read lat p95      {reads['latency_p95_ms']:.4f} ms")
                print(f"  read lat p99      {reads['latency_p99_ms']:.4f} ms")
                samples = reads["staleness_samples"] or 1
                print(f"  staleness         max={reads['staleness_max']} "
                      f"mean={reads['staleness_sum'] / samples:.2f} "
                      f"(epochs {reads['epochs_published']})")
                print(f"  read epoch        {reads['epoch']} "
                      f"(watermark {reads['watermark']})")
            print(f"  |MIS|             {len(maintainer.independent_set())}")
            print(f"  wal               {wal_dir}"
                  f"{'' if args.wal_dir else ' (temporary)'}")
        if args.check:
            expected = audit["applied"] + audit["quarantined"]
            if summary["accepted"] != expected or audit["pending"]:
                problems.append(
                    f"accounting: accepted={summary['accepted']} != "
                    f"applied={audit['applied']} + "
                    f"quarantined={audit['quarantined']} "
                    f"(pending {audit['pending']})"
                )
            if args.read_mix:
                reads = summary.get("reads") or {}
                if not reads.get("reads_served"):
                    problems.append(
                        "read path: no reads served despite --read-mix"
                    )
                if reads.get("watermark") != summary["applied_watermark"]:
                    problems.append(
                        "read path: final epoch watermark "
                        f"{reads.get('watermark')} is not the committed "
                        f"watermark {summary['applied_watermark']} — reads "
                        "were not served from committed epochs"
                    )
            if problems:
                for problem in problems:
                    print(f"AUDIT {problem}", file=sys.stderr)
                print(f"{len(problems)} audit problem(s)", file=sys.stderr)
                return 1
            stream = sys.stderr if args.format == "json" else sys.stdout
            print("ok: exactly-once audit clean (every accepted event "
                  "applied or quarantined, none twice)", file=stream)
        return 0
    finally:
        if args.wal_dir is None:
            shutil.rmtree(wal_dir, ignore_errors=True)


def _cmd_query(args: argparse.Namespace) -> int:
    """Serve ad-hoc queries from a checkpoint via the snapshot read path.

    Output is deterministic (no wall-clock numbers, sorted JSON keys) so
    CI can diff runs across hash seeds and platforms.
    """
    from repro.serve import QueryEngine, SnapshotRegistry

    maintainer = MISMaintainer.load(args.checkpoint, num_workers=args.workers)
    registry = None
    try:
        registry = SnapshotRegistry(maintainer)
        snapshot = registry.publish(
            epoch=0, watermark=maintainer.updates_applied
        )
        engine = QueryEngine(registry)
        document = {
            "checkpoint": args.checkpoint,
            "epoch": snapshot.epoch,
            "watermark": snapshot.watermark,
            "vertices": snapshot.num_vertices,
            "set_size": snapshot.set_size,
        }
        if args.vertex:
            document["point"] = [engine.point(v) for v in args.vertex]
        if args.batch:
            vertices = [int(x) for x in args.batch.split(",") if x.strip()]
            if not vertices:
                raise ReproError(f"--batch {args.batch!r} names no vertices")
            document["batch"] = engine.batch(vertices)
        if args.neighborhood is not None:
            document["neighborhood"] = engine.neighborhood(
                args.neighborhood, hops=args.hops
            )
        if args.why_not is not None:
            document["why_not"] = engine.why_not(args.why_not)
        if args.format == "json":
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(f"query: checkpoint={args.checkpoint} "
                  f"epoch={document['epoch']} "
                  f"watermark={document['watermark']} "
                  f"|V|={document['vertices']} |M|={document['set_size']}")
            for answer in document.get("point", ()):
                verdict = "member" if answer["member"] else "non-member"
                print(f"  vertex {answer['vertex']:<10} {verdict}")
            if "batch" in document:
                batch = document["batch"]
                hits = sum(batch["members"])
                print(f"  batch             {hits}/{len(batch['members'])} "
                      f"member(s) of {batch['vertices']}")
            if "neighborhood" in document:
                hood = document["neighborhood"]
                print(f"  neighborhood      {len(hood['members'])} member(s) "
                      f"within {hood['hops']} hop(s) of {hood['vertex']}: "
                      f"{hood['members']}")
            if "why_not" in document:
                cert = document["why_not"]
                if cert["member"]:
                    detail = "member (no ≺-smaller in-set neighbour)"
                elif cert["blocker"] is None:
                    detail = "non-member (no blocker at this epoch)"
                else:
                    detail = f"blocked by in-set neighbour {cert['blocker']}"
                print(f"  why-not {cert['vertex']:<9} {detail}")
        return 0
    finally:
        if registry is not None:
            registry.close()
        maintainer.close()


def _parse_transition(text: str):
    """``WORKER[@RUN]`` → ``(worker, run)`` (run defaults to 1)."""
    worker, _, run = text.partition("@")
    try:
        return int(worker), int(run) if run else 1
    except ValueError:
        raise ReproError(
            f"bad transition {text!r}: expected WORKER or WORKER@RUN"
        ) from None


def _cmd_rebalance(args: argparse.Namespace) -> int:
    """Scripted elastic transitions on one workload + the identity oracle."""
    from repro.faults.chaos import ChaosWorkload, rebalance_case

    drains = [_parse_transition(t) for t in args.drain or ()]
    joins = [_parse_transition(t) for t in args.join or ()]
    result = rebalance_case(
        ChaosWorkload(tag=args.dataset, k=args.k, batch_size=args.batch_size,
                      workload_seed=args.seed, workers=args.workers),
        joins=joins, drains=drains, runtime_factory=_runtime_factory(args),
    )
    rebalance = result.rebalance
    if args.format == "json":
        print(json.dumps({
            "dataset": args.dataset,
            "k": args.k,
            "batch_size": args.batch_size,
            "workers": args.workers,
            "drains": [list(d) for d in drains],
            "joins": [list(j) for j in joins],
            "epoch": result.epoch,
            "members": len(result.members),
            "transitions": result.transitions,
            "rebalance": rebalance,
            "post_skew": round(result.skew, 4),
            "ok": result.ok,
            "failures": result.failures,
        }, indent=2, sort_keys=True))
    else:
        print(f"rebalance: dataset={args.dataset} k={args.k} "
              f"batch={args.batch_size} workers={args.workers}")
        print(f"  joins             {[f'{w}@{r}' for w, r in joins] or '-'}")
        print(f"  drains            {[f'{w}@{r}' for w, r in drains] or '-'}")
        print(f"  epoch             {result.epoch} "
              f"({len(result.transitions)} transition(s), "
              f"{len(result.members)} member(s))")
        print(f"  moved             "
              f"{rebalance['rebalance_moved_vertices']} vertex(es)")
        print(f"  resync            {rebalance['rebalance_resync_bytes']} B "
              f"/ {rebalance['rebalance_resync_messages']} message(s), "
              f"{rebalance['rebalance_rank_entries']} rank entr(ies)")
        print(f"  stall             {rebalance['rebalance_stall_s']} s "
              f"(modelled)")
        print(f"  post skew         {result.skew:.4f} (max/mean residents)")
        for failure in result.failures:
            print(f"  FAIL {failure}")
    stream = sys.stderr if args.format == "json" else sys.stdout
    if result.failures:
        print(f"{len(result.failures)} rebalance oracle violation(s)",
              file=sys.stderr)
        return 1
    print("ok: elastic run is bit-identical to the static-membership run "
          "(members + logical meters); all costs on rebalance_*",
          file=stream)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import harness
    from repro.bench.reporting import format_table

    drivers = {
        "table2": (harness.table2_order_independence, {}),
        "table3": (harness.table3_optimizations, {}),
        "table4": (harness.table4_effectiveness, {"k": args.k}),
        "fig10": (harness.fig10_efficiency, {"k": args.k}),
        "fig11": (harness.fig11_batch_size, {"k": args.k}),
        "fig12": (harness.fig12_machines, {"k": args.k}),
        "fig13": (harness.fig13_updates, {}),
    }
    driver, kwargs = drivers[args.experiment]
    rows = driver(**kwargs)
    columns = list(rows[0].keys())
    print(format_table(rows, columns, title=f"experiment {args.experiment}"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    from repro.faults.chaos import PLAN_PRESETS

    parser = argparse.ArgumentParser(
        prog="repro-mis",
        description="Distributed near-maximum independent set maintenance "
        "(OIMIS/DOIMIS, ICDE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="static MIS of an edge-list file")
    compute.add_argument("graph", help="SNAP-style edge-list file")
    compute.add_argument("--algorithm", choices=("oimis", "dismis"), default="oimis")
    compute.add_argument("--engine", choices=("scaleg", "pregel"), default="scaleg")
    compute.add_argument("--workers", type=int, default=10)
    compute.add_argument("--strategy", choices=sorted(_STRATEGIES), default="ss")
    compute.add_argument(
        "--runtime", choices=("inline", "process"), default="inline",
        help="execution backend: inline (serial, default) or process "
        "(multi-core worker pool; bit-identical results; scaleg only)",
    )
    compute.add_argument(
        "--procs", type=int, default=None, metavar="N",
        help="worker process count for --runtime process "
        "(default: os.cpu_count())",
    )
    compute.add_argument("--output", "-o", help="write member ids to this file")
    compute.set_defaults(fn=_cmd_compute)

    maintain = sub.add_parser("maintain", help="apply an update stream")
    maintain.add_argument("updates", help="update stream (ins/del u v lines)")
    maintain.add_argument("--graph", help="SNAP-style edge-list file to start from")
    maintain.add_argument(
        "--workers", type=int, default=None,
        help="worker count (default 10; with --resume it must match the "
        "checkpoint's partitioning)",
    )
    maintain.add_argument("--strategy", choices=sorted(_STRATEGIES), default="ss")
    maintain.add_argument("--batch-size", type=int, default=1)
    maintain.add_argument("--verify", action="store_true")
    maintain.add_argument("--checkpoint", help="write a checkpoint after the stream")
    maintain.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="also write the checkpoint every N batches (needs --checkpoint)",
    )
    maintain.add_argument("--resume", help="resume from a checkpoint instead of a graph")
    maintain.add_argument(
        "--runtime", choices=("inline", "process"), default="inline",
        help="execution backend: inline (serial, default) or process "
        "(multi-core worker pool; bit-identical results)",
    )
    maintain.add_argument(
        "--procs", type=int, default=None, metavar="N",
        help="worker process count for --runtime process "
        "(default: os.cpu_count())",
    )
    maintain.add_argument("--output", "-o", help="write member ids to this file")
    maintain.set_defaults(fn=_cmd_maintain)

    generate = sub.add_parser("generate", help="write a synthetic graph")
    generate.add_argument("model", choices=("er", "ba", "chung_lu", "dataset"))
    generate.add_argument("--n", type=int, default=1000)
    generate.add_argument("--edges", type=int, help="edge count (er only)")
    generate.add_argument("--param", type=float, default=3.0,
                          help="attach count (ba) or average degree (chung_lu)")
    generate.add_argument("--dataset", choices=datasets.dataset_tags(),
                          help="stand-in tag when model=dataset")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", "-o", required=True)
    generate.add_argument("--workload", type=int, default=0,
                          help="also write a delete-reinsert workload of this k")
    generate.set_defaults(fn=_cmd_generate)

    ds = sub.add_parser("datasets", help="list the 16 dataset stand-ins")
    ds.set_defaults(fn=_cmd_datasets)

    bench = sub.add_parser("bench", help="run one experiment driver")
    bench.add_argument("experiment", choices=(
        "table2", "table3", "table4", "fig10", "fig11", "fig12", "fig13"))
    bench.add_argument("--k", type=int, default=100)
    bench.set_defaults(fn=_cmd_bench)

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeded fault schedules, assert the convergence oracle",
    )
    chaos.add_argument(
        "--preset", action="append", metavar="NAME",
        help="fault preset to run (repeatable; default: all — "
        f"{'/'.join(PLAN_PRESETS)})",
    )
    chaos.add_argument(
        "--seeds", type=int, default=1,
        help="sweep plan seeds 0..N-1 (default: 1)",
    )
    chaos.add_argument(
        "--seed", action="append", type=int, metavar="S",
        help="run exactly this plan seed (repeatable; overrides --seeds)",
    )
    chaos.add_argument("--format", choices=("table", "json"), default="table")
    chaos.set_defaults(fn=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the durable ingestion service on a seeded bursty trace "
        "(WAL + recovery, admission control, retry/quarantine, fixed-count "
        "windows)",
    )
    serve.add_argument(
        "--dataset", default="AM", metavar="TAG",
        help="stand-in dataset tag the trace runs over (default: AM)",
    )
    serve.add_argument("--ops", type=int, default=500,
                       help="trace length (default: 500)")
    serve.add_argument("--seed", type=int, default=0,
                       help="trace seed (default: 0)")
    serve.add_argument(
        "--poison-prob", type=float, default=0.0,
        help="probability an event is a poison operation destined for the "
        "dead-letter log (default: 0)",
    )
    # the service options below (all but --runtime/--procs, --chaos and
    # --format) default to None so that --chaos, whose oracle takes none
    # of them, can tell a given flag from an omitted one;
    # _check_serve_args fills in _SERVE_DEFAULTS otherwise
    serve.add_argument("--workers", type=int, help="default: 10")
    serve.add_argument(
        "--window", type=int, metavar="N",
        help="events per window, the paper's batch size b (default: 256); "
        "with --admission shed or error, at most --high-watermark")
    serve.add_argument(
        "--admission", choices=("block", "shed", "error"),
        help="what happens above the high watermark: block the producer "
        "while draining, shed the event, or raise (default: block)",
    )
    serve.add_argument("--high-watermark", type=int,
                       help="default: 512")
    serve.add_argument("--low-watermark", type=int,
                       help="default: 128")
    serve.add_argument(
        "--retries", type=int,
        help="failed-window retries before bisection (default: 2)")
    serve.add_argument(
        "--backoff", type=float,
        help="base retry backoff in event-time seconds (default: 0.5)")
    serve.add_argument(
        "--checkpoint-every", type=int, metavar="N",
        help="maintainer checkpoint every N committed windows "
        "(0: only the initial and closing checkpoints; default: 8)",
    )
    serve.add_argument(
        "--fsync", choices=("always", "commit", "never"),
        help="WAL durability: always (every record), commit (control "
        "records only, default), never (OS-buffered)",
    )
    serve.add_argument(
        "--wal-dir", metavar="DIR",
        help="log directory to create (kept afterwards; default: a "
        "temporary directory, removed on exit)",
    )
    serve.add_argument(
        "--runtime", choices=("inline", "process"), default="inline",
        help="execution backend (bit-identical results either way)",
    )
    serve.add_argument("--procs", type=int, default=None, metavar="N")
    serve.add_argument(
        "--read-mix", type=float, metavar="R",
        help="fraction of traffic served as reads, in [0, 1): interleave "
        "a seeded query stream (R/(1-R) reads per accepted write) against "
        "the epoch-consistent snapshot read path (default: 0 — read path "
        "off)",
    )
    serve.add_argument(
        "--read-batch", type=int, metavar="N",
        help="vertices per batch lookup; interleaved reads are 80%% point, "
        "10%% why-not and 10%% batch queries (default: 32)",
    )
    serve.add_argument(
        "--check", action="store_true", default=None,
        help="audit the WAL after the run: exit non-zero unless every "
        "accepted event applied or quarantined exactly once (with "
        "--read-mix, also assert reads were served from committed epochs)",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="run the crash/replay oracle instead: kill the service "
        "mid-window, recover from the WAL, assert bit-identity with an "
        "uninterrupted run",
    )
    serve.add_argument("--format", choices=("table", "json"), default="table")
    serve.set_defaults(fn=_cmd_serve)

    query = sub.add_parser(
        "query",
        help="answer point/batch/neighbourhood/why-not MIS queries against "
        "a maintainer checkpoint through the epoch snapshot read path",
    )
    query.add_argument("checkpoint",
                       help="maintainer checkpoint file to serve from")
    query.add_argument(
        "--vertex", action="append", type=int, metavar="V",
        help="point membership query (repeatable)",
    )
    query.add_argument(
        "--batch", metavar="V1,V2,...",
        help="comma-separated vertex ids for one vectorized batch lookup",
    )
    query.add_argument(
        "--neighborhood", type=int, default=None, metavar="V",
        help="list the maintained set within --hops of V",
    )
    query.add_argument(
        "--hops", type=int, default=1,
        help="neighbourhood radius (default: 1)",
    )
    query.add_argument(
        "--why-not", dest="why_not", type=int, default=None, metavar="V",
        help="membership certificate: the ≺-smaller in-set neighbour "
        "blocking V, or confirmation that V is a member",
    )
    query.add_argument(
        "--workers", type=int, default=None,
        help="worker count (must match the checkpoint's partitioning)",
    )
    query.add_argument("--format", choices=("table", "json"),
                       default="table")
    query.set_defaults(fn=_cmd_query)

    rebalance = sub.add_parser(
        "rebalance",
        help="script voluntary worker joins/drains mid-stream and assert "
        "the elastic-membership oracle (bit-identity + rebalance_* "
        "quarantine)",
    )
    rebalance.add_argument(
        "--dataset", choices=datasets.dataset_tags(), default="AM",
    )
    rebalance.add_argument("--k", type=int, default=25,
                           help="edges deleted then re-inserted (2k ops)")
    rebalance.add_argument("--batch-size", type=int, default=1)
    rebalance.add_argument("--workers", type=int, default=10)
    rebalance.add_argument("--seed", type=int, default=0,
                           help="workload seed")
    rebalance.add_argument(
        "--drain", action="append", metavar="WORKER[@RUN]",
        help="drain WORKER at the barrier of update run RUN (default 1); "
        "repeatable",
    )
    rebalance.add_argument(
        "--join", action="append", metavar="WORKER[@RUN]",
        help="join WORKER at the barrier of update run RUN (default 1); "
        "repeatable",
    )
    rebalance.add_argument(
        "--runtime", choices=("inline", "process"), default="inline",
    )
    rebalance.add_argument("--procs", type=int, default=None, metavar="N")
    rebalance.add_argument("--format", choices=("table", "json"),
                           default="table")
    rebalance.set_defaults(fn=_cmd_rebalance)

    bench_perf = sub.add_parser(
        "bench-perf",
        help="seeded perf microbenchmarks (write or --check BENCH_core.json)",
    )
    bench_perf.add_argument(
        "--output", "-o", default="BENCH_core.json",
        help="baseline JSON path (default: BENCH_core.json)",
    )
    bench_perf.add_argument(
        "--check", action="store_true",
        help="compare a fresh run against the baseline instead of writing it",
    )
    bench_perf.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    bench_perf.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run each scenario N times and record median/min wall time "
        "(default: 1; logical sections must be identical across repeats)",
    )
    bench_perf.add_argument(
        "--profile", metavar="DIR",
        help="also profile each scenario run with cProfile and dump "
        "<scenario>.pstats files into DIR",
    )
    bench_perf.set_defaults(fn=_cmd_bench_perf)

    lint = sub.add_parser(
        "lint", help="statically check vertex programs for BSP discipline"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the engine surface — "
        "src/repro plus src/repro/runtime and src/repro/faults)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (sarif emits SARIF 2.1.0 for CI annotation)",
    )
    lint.add_argument(
        "--rules", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to enable (default: all of "
        "D1,B1,A1,S1,P1..P4)",
    )
    lint.add_argument(
        "--family", action="append", default=[], metavar="LETTER",
        help="enable a whole rule family by letter (e.g. --family P for "
        "P1..P4; repeatable, combines with --rules)",
    )
    lint.set_defaults(fn=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="run chaos workloads under the superstep race sanitizer and "
        "assert zero races + bit-identity with the inline reference",
    )
    sanitize.add_argument(
        "preset", nargs="*",
        help="chaos preset(s) to run under the sanitizer (default: none — "
        "the fault-free schedule)",
    )
    sanitize.add_argument(
        "--procs", type=int, default=2, metavar="N",
        help="worker process count for the sanitized run (1 = inline; "
        "default: 2)",
    )
    sanitize.add_argument(
        "--workload", action="append", metavar="NAME",
        help="run only this chaos workload (repeatable; default: all)",
    )
    sanitize.add_argument(
        "--seeds", type=int, default=1,
        help="sweep plan seeds 0..N-1 (default: 1)",
    )
    sanitize.add_argument(
        "--seed", action="append", type=int, metavar="S",
        help="run exactly this plan seed (repeatable; overrides --seeds)",
    )
    sanitize.add_argument(
        "--start-method", choices=("spawn", "fork", "forkserver"),
        default=None,
        help="multiprocessing start method for the worker pool "
        "(default: spawn)",
    )
    sanitize.add_argument("--format", choices=("table", "json"), default="table")
    sanitize.set_defaults(fn=_cmd_sanitize)

    return parser


class _StdoutGuard:
    """``sys.stdout`` while :func:`main` runs.

    A reader that closes the pipe early (``repro-mis compute g.txt |
    head -1``) silences the rest of the output, which goes to
    ``os.devnull`` from then on, and the command runs to its end: it
    writes the files and checkpoints it was asked for and exits with the
    status it would have had if every line had been read.  No traceback.
    """

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            return self.stream.write(text)
        except BrokenPipeError:
            self._silence()
            return len(text)

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._silence()

    def _silence(self) -> None:
        # point the descriptor at /dev/null: what is still buffered, and
        # the interpreter's flush at exit, then go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, self.stream.fileno())
        finally:
            os.close(devnull)

    def __getattr__(self, name: str):
        return getattr(self.stream, name)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (returns the process exit code).  A closed stdout
    does not stop a command (see :class:`_StdoutGuard`)."""
    guard = _StdoutGuard(sys.stdout)
    sys.stdout = guard
    try:
        return _main(argv)
    finally:
        guard.flush()
        sys.stdout = guard.stream


#: the service options of ``serve`` and their defaults; the crash/replay
#: oracle (``serve --chaos``) runs its own service and takes none of them
_SERVE_DEFAULTS = {
    "workers": 10, "window": 256, "admission": "block",
    "high_watermark": 512, "low_watermark": 128, "retries": 2,
    "backoff": 0.5, "checkpoint_every": 8, "fsync": "commit",
    "wal_dir": None, "read_mix": 0.0, "read_batch": 32, "check": False,
}


def _check_serve_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> None:
    """Refuse ``serve`` options that would be ignored or could not apply
    an event, then fill in the defaults of the omitted ones."""
    given = [name for name in _SERVE_DEFAULTS
             if getattr(args, name) is not None]
    if args.chaos:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            parser.error(f"serve --chaos ignores {flags}: the crash/replay "
                         "oracle runs its own fixed service settings")
        return
    for name, default in _SERVE_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.admission != "block" and args.window > args.high_watermark:
        parser.error(
            f"--window {args.window} exceeds --high-watermark "
            f"{args.high_watermark} under --admission {args.admission}: "
            "the queue would never hold a full window"
        )


def _main(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "runtime", "process") != "process" \
            and args.procs is not None:
        parser.error("--procs only applies with --runtime process")
    if args.command == "serve":
        _check_serve_args(parser, args)
    if args.command == "maintain":
        if bool(args.resume) == bool(args.graph):
            parser.error("maintain needs exactly one of --graph or --resume")
        if args.checkpoint_every < 0:
            parser.error("--checkpoint-every must be >= 0")
        if args.checkpoint_every and not args.checkpoint:
            parser.error("--checkpoint-every needs --checkpoint PATH")
    if (args.command == "compute" and args.engine == "pregel"
            and args.runtime == "process"):
        parser.error("--engine pregel runs inline only; drop --runtime process")
    if args.command == "generate" and args.model == "dataset" and not args.dataset:
        parser.error("generate dataset needs --dataset TAG")
    if args.command == "query":
        if (not args.vertex and not args.batch
                and args.neighborhood is None and args.why_not is None):
            parser.error("query needs at least one of --vertex, --batch, "
                         "--neighborhood, --why-not")
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
