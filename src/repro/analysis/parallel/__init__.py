"""Parallel-safety analysis: static P-family rules + the race sanitizer.

Two halves of one guard-rail for the runtime layer:

- :mod:`repro.analysis.parallel.rules` — the **P family** of static AST
  rules (P1 sweep purity, P2 barrier ordering, P3 frame hygiene, P4
  merge-once), run by the linter over the engines and execution backends.
- :mod:`repro.analysis.parallel.sanitizer` — the **RaceSanitizer**, the
  one runtime checker: an opt-in (``sanitize=True``) backend wrapper that
  records per-worker read/write vertex sets each superstep and flags races
  and broken barrier isolation, with a keyed-hash trace log that replays
  under any ``PYTHONHASHSEED``, and checks each converged run's set for
  independence and maximality.
- :mod:`repro.analysis.parallel.sanitize` — the ``repro-mis sanitize``
  driver: chaos workloads under the sanitizer, asserting zero races and
  bit-identity with the inline reference.
"""

from repro.analysis.parallel.rules import check_parallel
from repro.analysis.parallel.sanitizer import (
    RaceSanitizer,
    SanitizedBackend,
    SuperstepTrace,
    resolve_sanitizer,
)

#: the sanitize driver imports the chaos harness (maintainer, datasets) —
#: load it lazily so engine construction, which resolves the sanitizer
#: through this package, never pulls the whole bench stack in
_DRIVER_EXPORTS = ("SanitizeCaseResult", "run_sanitize_case", "sanitize_suite")


def __getattr__(name):
    if name in _DRIVER_EXPORTS:
        from repro.analysis.parallel import sanitize

        return getattr(sanitize, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "check_parallel",
    "RaceSanitizer",
    "SanitizedBackend",
    "SuperstepTrace",
    "resolve_sanitizer",
    "SanitizeCaseResult",
    "run_sanitize_case",
    "sanitize_suite",
]
