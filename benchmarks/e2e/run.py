"""End-to-end benchmark of the MIS maintenance service.

Run from anywhere in a checkout of the repository:

    python benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json OUT]

Each workload runs in a fresh process (``workloads.py``), one at a time,
with ``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and every ``REPRO_*``
variable removed, so the environment cannot change the program being
measured.  The runner prints every metric as ``workload metric value
unit`` with its sample count, then one JSON line: the end-to-end metrics
(``--trace 0``) or the per-layer metrics of the traced run
(``--trace 1``).  It exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from catalog import E2E_METRICS, LISTED_LAYERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: one workload process may take this long before it is killed
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_dir: Optional[str]) -> Dict[str, Any]:
    """Run one workload process and return the result it printed."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace_dir is not None:
        cmd += ["--trace-dir", trace_dir]
    # its own session, so stopping it also stops the runtime's workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _failure(name, f"timed out after {CHILD_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failure(name, f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def _failure(name: str, problem: str) -> Dict[str, Any]:
    return {"workload": name, "correct": False, "problems": [problem],
            "attempted": 0, "failed": 0}


def check_reported(result: Dict[str, Any], trace: bool) -> None:
    """A metric the workload could not report (too few samples) fails."""
    names = LISTED_LAYERS if trace else E2E_METRICS
    found = result.get("per_layer" if trace else "metrics", {})
    if "metrics" not in result and "per_layer" not in result:
        return  # the process itself failed; already a problem
    for name in names:
        if name not in found:
            result["correct"] = False
            result["problems"].append(
                f"{name}: not reported (fewer than 10 samples beyond the "
                "percentile)"
            )


def summary_line(results: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The last output line: one JSON object for the whole invocation."""
    names = LISTED_LAYERS if trace else E2E_METRICS
    key = "per_layer" if trace else "metrics"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for name in names:
            entry = result.get(key, {}).get(name)
            if entry is not None:
                metrics[prefix + name] = {"value": entry["value"],
                                          "unit": entry["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the MIS maintenance service."
    )
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="repeatable; all workloads by default")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir",
                        help="write spans.jsonl, trace.json and layers.json "
                             "per workload here (implies --trace 1)")
    parser.add_argument("--json", help="write every result to this file")
    args = parser.parse_args(argv)
    # a terminated runner unwinds, so run_workload stops its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    trace = bool(args.trace) or args.trace_dir is not None
    trace_dir = os.path.abspath(args.trace_dir) if args.trace_dir else None
    results = []
    for name in args.workload or list(WORKLOADS):
        result = run_workload(name, args.seed, args.seconds, trace, trace_dir)
        check_reported(result, trace)
        results.append(result)
        for metric, entry in sorted(
                result.get("per_layer" if trace else "metrics", {}).items()):
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']} "
                  f"n={entry['samples']}")
        for problem in result["problems"]:
            print(f"{name} FAILED {problem}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": trace, "results": results}, handle,
                      indent=1, sort_keys=True)
    summary = summary_line(results, trace)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
