"""``repro-mis sanitize`` driver: chaos scenarios under the race sanitizer.

One sanitize case replays a chaos workload (Fig. 10/11 shaped
delete-reinsert stream) under a named fault preset with the
:class:`~repro.analysis.parallel.sanitizer.RaceSanitizer` wrapped around
the execution backend, then asserts the combined oracle:

1. **zero races** — every violation the sanitizer collected is a failure;
2. **bit-identity** — the sanitized run's final set and logical meters
   equal the unsanitized inline reference (the sanitizer observes, never
   perturbs; the parallel backend must stay bit-identical to inline even
   while being watched).

The sanitizer runs in collecting mode (``strict=False``) so one case
surveys a whole run instead of stopping at the first race; each case also
reports the keyed-hash :meth:`trace digest
<repro.analysis.parallel.sanitizer.RaceSanitizer.trace_digest>` so two
hosts (or two ``PYTHONHASHSEED`` values) can diff their evidence logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.faults.chaos import (
    CHAOS_WORKLOADS,
    ChaosWorkload,
    Observables,
    _run_maintenance,
    plan_for,
    reference_run,
)
from repro.faults.injector import FaultInjector
from repro.analysis.parallel.sanitizer import RaceSanitizer


@dataclass
class SanitizeCaseResult:
    """Outcome of one (workload, preset, seed, procs) sanitized run."""

    workload: str
    preset: str
    seed: int
    procs: int
    supersteps_checked: int = 0
    trace_digest: str = ""
    races: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.races

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "preset": self.preset,
            "seed": self.seed,
            "procs": self.procs,
            "ok": self.ok,
            "supersteps_checked": self.supersteps_checked,
            "trace_digest": self.trace_digest,
            "races": list(self.races),
            "failures": list(self.failures),
        }


def _build_runtime(procs: int, start_method: Optional[str]):
    """The backend a sanitize case runs on (``procs <= 1`` stays inline)."""
    if procs <= 1:
        return None
    from repro.runtime.parallel import ParallelRuntime

    kwargs: Dict[str, Any] = {"procs": procs}
    if start_method is not None:
        kwargs["start_method"] = start_method
    return ParallelRuntime(**kwargs)


def run_sanitize_case(
    workload: ChaosWorkload,
    preset: str,
    seed: int,
    procs: int,
    reference: Optional[Observables] = None,
    start_method: Optional[str] = None,
) -> SanitizeCaseResult:
    """Replay ``workload`` under ``preset`` with the sanitizer watching.

    Never raises for a race or an oracle violation — both are reported on
    the result so a sweep surveys the whole grid.
    """
    if reference is None:
        reference = reference_run(workload)
    result = SanitizeCaseResult(
        workload=workload.name, preset=preset, seed=seed, procs=procs
    )
    injector = FaultInjector(plan_for(preset, seed))
    sanitizer = RaceSanitizer(strict=False)
    runtime = _build_runtime(procs, start_method)
    try:
        maintainer = _run_maintenance(
            workload, faults=injector, runtime=runtime, sanitize=sanitizer
        )
    except Exception as exc:  # noqa: BLE001 - survey, don't abort the sweep
        result.failures.append(f"run raised {type(exc).__name__}: {exc}")
        result.races = [str(v) for v in sanitizer.violations]
        result.supersteps_checked = sanitizer.supersteps_checked
        result.trace_digest = sanitizer.trace_digest()
        return result

    result.supersteps_checked = sanitizer.supersteps_checked
    result.trace_digest = sanitizer.trace_digest()
    result.races = [str(v) for v in sanitizer.violations]

    result.failures = reference.diff(Observables.of(maintainer), "sanitized")
    return result


def sanitize_suite(
    presets: Sequence[str] = ("none",),
    seeds: Iterable[int] = (0,),
    procs: int = 2,
    workloads: Sequence[ChaosWorkload] = CHAOS_WORKLOADS,
    start_method: Optional[str] = None,
) -> List[SanitizeCaseResult]:
    """Sweep ``presets x seeds`` over ``workloads`` under the sanitizer.

    The inline fault-free reference is computed once per workload (without
    the sanitizer — it is the bit-identity target, not the subject).
    Returns one :class:`SanitizeCaseResult` per case;
    callers decide whether any race/failure is fatal (``repro-mis
    sanitize`` exits non-zero).
    """
    results: List[SanitizeCaseResult] = []
    for workload in workloads:
        reference = reference_run(workload)
        for preset in presets:
            for seed in seeds:
                results.append(
                    run_sanitize_case(
                        workload, preset, seed, procs,
                        reference=reference, start_method=start_method
                    )
                )
    return results
