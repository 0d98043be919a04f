"""Typed lint findings, the rule registry, suppressions, and rendering.

A :class:`Finding` pins one rule violation to ``path:line:col`` with the
offending symbol and a fix hint.  Findings are value objects so tests can
assert on exact ``(rule, line)`` pairs and the CLI can render them as text
or JSON without reformatting.

Suppression: a violation is silenced by a trailing comment on its line::

    for v in candidates:  # repro-lint: disable=D1
    x = hash(key)         # repro-lint: disable=all
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Set


@dataclass(frozen=True)
class Rule:
    """Metadata for one lint rule family."""

    id: str
    name: str
    summary: str
    hint: str


#: registry of every rule the linter can emit, keyed by rule id
RULES: Dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="D1",
            name="non-deterministic-iteration",
            summary=(
                "iteration over an unordered set (or use of hash()/id()/"
                "unseeded random) where order can leak into results"
            ),
            hint=(
                "wrap the iterable in sorted(...) (by the paper's order ≺ "
                "where relevant); seed randomness via random.Random(seed)"
            ),
        ),
        Rule(
            id="B1",
            name="double-buffer-violation",
            summary=(
                "vertex program reaches past the context API (engine/state "
                "internals, graph mutation), bypassing the double buffer "
                "and the compute-cost meter"
            ),
            hint=(
                "read neighbours only via ctx.neighbor_state / ctx.rank_of "
                "(ScaleG) or ctx.messages (Pregel); never touch _engine, "
                "_states, or mutate the graph from compute"
            ),
        ),
        Rule(
            id="A1",
            name="activation-discipline",
            summary=(
                "ScaleG program sets vertex state but never activates: a "
                "state change invisible to neighbours breaks fixpoint "
                "convergence (the engine never auto-activates)"
            ),
            hint=(
                "on state change, call ctx.activate(v) for every neighbour "
                "the change can influence (cf. Lemmas 5.1/5.2 for the "
                "+LR/+SS filters)"
            ),
        ),
        Rule(
            id="S1",
            name="sync-hygiene",
            summary=(
                "in-place mutation of the (aliased) vertex state object: "
                "mutable state shared across supersteps must be copied "
                "before modification, then republished via ctx.set_state"
            ),
            hint=(
                "copy first (e.g. new = dict(ctx.state)), mutate the copy, "
                "then ctx.set_state(new)"
            ),
        ),
        Rule(
            id="P1",
            name="sweep-purity",
            summary=(
                "worker-side sweep code mutates engine/graph/metrics state "
                "it did not create; writes must flow only through the "
                "returned sweep delta"
            ),
            hint=(
                "build the write into the ScaleGSweep result "
                "(new_states, changed, requests) and let the engine apply "
                "it at the barrier; keep worker-local scratch self-rooted"
            ),
        ),
        Rule(
            id="P2",
            name="barrier-ordering",
            summary=(
                "barrier reduce iterates worker/partition replies in "
                "insertion or hash order; the fold must run in sorted "
                "key order to stay bit-identical to the inline sweep"
            ),
            hint=(
                "iterate sorted(d) or sorted(d.items()); never fold "
                "d.values() — the key is lost and the order can never be "
                "reimposed"
            ),
        ),
        Rule(
            id="P3",
            name="frame-hygiene",
            summary=(
                "nondeterministic or unpicklable material on the worker "
                "side of a pickle frame: closures, open handles, locks, "
                "os.environ/wall-clock/unseeded-random reads"
            ),
            hint=(
                "ship only module-level functions/classes and plain data; "
                "draw randomness from a seeded generator or keyed hash "
                "carried in the frame; keep clocks and environ on the "
                "master"
            ),
        ),
        Rule(
            id="P4",
            name="merge-once",
            summary=(
                "a RunMetrics.merge_delta site is reachable more than once "
                "per worker per superstep (nested loops or a looped call "
                "into a looping merger), double-folding a worker's meters"
            ),
            hint=(
                "merge each worker's delta exactly once per barrier, in "
                "ascending worker order; hoist the merge out of inner "
                "loops or guard the call path"
            ),
        ),
        Rule(
            id="E0",
            name="parse-error",
            summary="file could not be parsed as Python",
            hint="fix the syntax error before linting",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str
    hint: str = field(default="")

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def format(self) -> str:
        hint = f"  [fix: {self.hint}]" if self.hint else ""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"({RULES[self.rule].name}) {self.message}{hint}"
        )


def make_finding(rule: str, path: str, node, symbol: str, message: str) -> Finding:
    """Build a finding from an AST node, inheriting the rule's fix hint."""
    return Finding(
        rule=rule,
        path=path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0) + 1,
        symbol=symbol,
        message=message,
        hint=RULES[rule].hint,
    )


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9,\s]+)")


def parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """Map line number -> suppressed rule ids (``None`` means all rules)."""
    suppressed: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = {tok.strip().upper() for tok in match.group(1).split(",") if tok.strip()}
        suppressed[lineno] = None if "ALL" in rules else rules
    return suppressed


def statement_extents(tree) -> Dict[int, int]:
    """Map continuation lines to the first physical line of their statement.

    A disable comment lives on the *first* line of a wrapped statement, but
    a finding inside the wrapped expression anchors to the line of its own
    AST node — possibly a continuation line.  This maps every continuation
    line of a multi-line statement to the statement's first line, with the
    *innermost* covering statement winning, so a comment on a compound
    header (``for``/``with``) covers its wrapped header expression but
    never leaks into the body statements (each maps to its own first line).
    """
    import ast

    spans = []
    starts: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        starts.add(node.lineno)
        end = getattr(node, "end_lineno", None) or node.lineno
        if end > node.lineno:
            spans.append((node.lineno, end))
    extents: Dict[int, int] = {}
    # ascending start order: inner (later-starting) statements overwrite
    # the outer statement's claim on their lines
    for start, end in sorted(spans):
        for line in range(start + 1, end + 1):
            extents[line] = start
    # a line that begins its own statement is never a continuation line
    for line in sorted(starts):
        extents.pop(line, None)
    return extents


def apply_suppressions(
    findings: Sequence[Finding],
    suppressed: Dict[int, Optional[Set[str]]],
    extents: Optional[Dict[int, int]] = None,
) -> List[Finding]:
    """Drop findings silenced by a matching disable comment.

    A comment silences findings on its own line and — when ``extents`` (from
    :func:`statement_extents`) is given — findings anchored to continuation
    lines of the statement it heads.
    """

    def silenced(line: int, rule: str) -> bool:
        rules = suppressed.get(line, ())
        return rules is None or rule in rules

    kept: List[Finding] = []
    for finding in findings:
        if silenced(finding.line, finding.rule):
            continue
        if extents:
            first = extents.get(finding.line)
            if first is not None and silenced(first, finding.rule):
                continue
        kept.append(finding)
    return kept


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [finding.format() for finding in findings]
    if findings:
        per_rule: Dict[str, int] = {}
        for finding in findings:
            per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
        breakdown = ", ".join(f"{r}={n}" for r, n in sorted(per_rule.items()))
        lines.append(f"{len(findings)} finding(s) ({breakdown})")
    else:
        lines.append("no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (stable field names, sorted input order)."""
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
        },
        indent=2,
    )


def render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 report (what CI uses to annotate PR diffs).

    Built from the same :class:`Finding` objects as the text/JSON
    renderers — the finding stays the single source of truth; this only
    reshapes it into the SARIF ``runs[].results[]`` schema.  Every
    registered rule is declared in the driver's rule table so viewers can
    show the summary/hint even for rules with no findings in this run.
    """
    results = []
    for finding in findings:
        message = finding.message
        if finding.hint:
            message = f"{message} [fix: {finding.hint}]"
        results.append(
            {
                "ruleId": finding.rule,
                "level": "error",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.path.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": max(finding.col, 1),
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproLint/v1": (
                        f"{finding.rule}:{finding.path}:"
                        f"{finding.line}:{finding.col}:{finding.symbol}"
                    ),
                },
            }
        )
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": [
                            {
                                "id": rule.id,
                                "name": rule.name,
                                "shortDescription": {"text": rule.summary},
                                "help": {"text": rule.hint},
                            }
                            for rule in RULES.values()
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)
