"""Static and runtime correctness tooling for vertex programs and engines.

The paper's central results (Theorems 4.1/4.2/6.1) are *determinism*
claims: OIMIS/DOIMIS converge to the unique greedy fixpoint of the total
order ``≺`` regardless of execution or update order.  The proofs lean on a
coding discipline the engines cannot enforce by construction — deterministic
neighbour iteration, double-buffered state reads, activate-on-change,
no cross-superstep aliasing of mutable state.  This package enforces that
discipline two ways:

- :mod:`repro.analysis.linter` — an AST-based static linter over vertex
  programs and engine modules, reporting typed :class:`~repro.analysis.findings.Finding`
  objects for the rule families D1 (non-deterministic iteration), B1
  (double-buffer violations), A1 (activation discipline), S1 (sync
  hygiene) and the parallel-safety P family — P1 (sweep purity), P2
  (barrier ordering), P3 (frame hygiene), P4 (merge-once) from
  :mod:`repro.analysis.parallel.rules`.  Exposed on the CLI as
  ``repro-mis lint``.
- :mod:`repro.analysis.parallel` — the one runtime checker, an opt-in
  :class:`RaceSanitizer` that wraps the execution backend to record
  per-worker read/write vertex sets each superstep and flag races
  (write–write overlap, non-owned writes, mid-superstep commits — broken
  double-buffer isolation, naming the first moved vertex — and meter
  double-merges) with a keyed-hash trace log, and checks each converged
  run's reported set for independence and maximality.  Enable with an
  explicit ``sanitize=`` engine or maintainer argument; drive over chaos
  scenarios with ``repro-mis sanitize``.
"""

from repro.analysis.findings import (
    RULES,
    Finding,
    Rule,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.linter import (
    DEFAULT_LINT_PATHS,
    DEFAULT_RULES,
    default_lint_paths,
    lint_paths,
    lint_source,
)
from repro.analysis.parallel.sanitizer import (
    RaceSanitizer,
    SanitizedBackend,
    resolve_sanitizer,
)

__all__ = [
    "RULES",
    "Rule",
    "Finding",
    "render_text",
    "render_json",
    "render_sarif",
    "DEFAULT_RULES",
    "DEFAULT_LINT_PATHS",
    "default_lint_paths",
    "lint_paths",
    "lint_source",
    "RaceSanitizer",
    "SanitizedBackend",
    "resolve_sanitizer",
]
