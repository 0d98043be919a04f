"""Rule family D1 — non-deterministic iteration and hashing.

Theorem 4.2's order-independence makes the *final fixpoint* immune to
execution order, but the cost meters, message/sync schedules, and every
intermediate structure are not: a ``for`` loop over a raw ``set`` whose body
does anything order-sensitive makes runs irreproducible, and turns latent
bugs (e.g. an activation filter that strands a conflict only under one
interleaving) into heisenbugs.  D1 therefore flags:

- ``for`` loops (and list/generator comprehensions feeding order-sensitive
  consumers) over provably unordered iterables, unless the loop body is
  itself order-insensitive (pure set accumulation / counters / constant
  returns);
- ``hash()`` and ``id()`` calls — both vary across processes
  (``PYTHONHASHSEED``, allocator), so any decision based on them is
  irreproducible;
- unseeded module-level ``random`` calls (``random.random()``,
  ``from random import shuffle; shuffle(...)``); seeded ``random.Random``
  instances are the sanctioned source of randomness.

The fix for iteration findings is ``sorted(...)`` — by vertex id, or by the
paper's total order ``≺`` where rank matters.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.findings import Finding, make_finding
from repro.analysis.settypes import SetNameCollector, expression_is_set

#: callables that consume an iterable order-insensitively
_ORDER_FREE_CONSUMERS = {
    "any", "all", "sum", "min", "max", "len", "sorted", "set", "frozenset",
    "Counter", "dict",
}

#: set-mutator methods allowed in an order-insensitive loop body
_ACCUMULATORS = {"add", "update", "discard"}

#: module-level ``random`` functions that are allowed (seeded generators)
_RANDOM_ALLOWED = {"Random", "SystemRandom", "seed", "getstate", "setstate"}


def _source(node, source: str) -> str:
    try:
        segment = ast.get_source_segment(source, node)
    except Exception:  # pragma: no cover - defensive
        segment = None
    if not segment:
        return "<expr>"
    segment = " ".join(segment.split())
    return segment if len(segment) <= 60 else segment[:57] + "..."


def _returns_constant(node: ast.Return) -> bool:
    return node.value is None or isinstance(node.value, ast.Constant)


def _body_order_insensitive(stmts) -> bool:
    """Whether executing ``stmts`` in any order yields identical effects.

    Recognized order-insensitive statements: set accumulation
    (``s.add/update/discard``), augmented assignments (counters), guards
    (``if``/``continue``/``pass``/``assert``), constant returns, raises, and
    nested loops built from the same.  Anything else — notably subscript
    assignment, list appends, sends — is treated as order-sensitive.
    """
    for stmt in stmts:
        if isinstance(stmt, (ast.Continue, ast.Pass, ast.Raise, ast.Assert)):
            continue
        if isinstance(stmt, ast.AugAssign):
            continue
        if isinstance(stmt, ast.Return):
            if _returns_constant(stmt):
                continue
            return False
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Constant):  # docstring
                continue
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _ACCUMULATORS
            ):
                continue
            return False
        if isinstance(stmt, ast.If):
            if _body_order_insensitive(stmt.body) and _body_order_insensitive(
                stmt.orelse
            ):
                continue
            return False
        if isinstance(stmt, (ast.For, ast.While)):
            if _body_order_insensitive(stmt.body) and _body_order_insensitive(
                stmt.orelse
            ):
                continue
            return False
        return False
    return True


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.findings: List[Finding] = []
        self._scope_known: List[Set[str]] = [set()]
        self._parents: Dict[ast.AST, ast.AST] = {}
        self._random_names: Set[str] = set()

    # -- scope handling -------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._scope_known = [SetNameCollector(node).known]
        self.generic_visit(node)

    def _visit_function(self, node) -> None:
        self._scope_known.append(SetNameCollector(node).known)
        self.generic_visit(node)
        self._scope_known.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    @property
    def _known(self) -> Set[str]:
        return self._scope_known[-1]

    # -- imports (for ``from random import shuffle``) --------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_ALLOWED:
                    self._random_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- iteration ------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if expression_is_set(node.iter, self._known) and not _body_order_insensitive(
            node.body
        ):
            self.findings.append(
                make_finding(
                    "D1",
                    self.path,
                    node,
                    _source(node.iter, self.source),
                    "iteration over unordered set "
                    f"'{_source(node.iter, self.source)}' with an "
                    "order-sensitive body",
                )
            )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list")
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        parent = self._parents.get(node)
        if isinstance(parent, ast.Call) and (
            (
                isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_FREE_CONSUMERS
            )
            or (
                # s.update(genexp) / s.add / s.discard: set accumulation is
                # order-free, matching the leniency _body_order_insensitive
                # grants the equivalent for-loop body
                isinstance(parent.func, ast.Attribute)
                and parent.func.attr in _ACCUMULATORS
            )
        ):
            self.generic_visit(node)
            return
        self._check_comprehension(node, "generator")
        self.generic_visit(node)

    def _check_comprehension(self, node, kind: str) -> None:
        for gen in node.generators:
            if expression_is_set(gen.iter, self._known):
                self.findings.append(
                    make_finding(
                        "D1",
                        self.path,
                        node,
                        _source(gen.iter, self.source),
                        f"{kind} built by iterating unordered set "
                        f"'{_source(gen.iter, self.source)}'",
                    )
                )

    # -- hashing / randomness -------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("hash", "id") and node.args:
                self.findings.append(
                    make_finding(
                        "D1",
                        self.path,
                        node,
                        func.id,
                        f"call to {func.id}() — value varies across "
                        "processes (PYTHONHASHSEED / allocator)",
                    )
                )
            elif func.id in self._random_names:
                self.findings.append(
                    make_finding(
                        "D1",
                        self.path,
                        node,
                        func.id,
                        f"unseeded random.{func.id}() call — use a seeded "
                        "random.Random instance",
                    )
                )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr not in _RANDOM_ALLOWED
        ):
            self.findings.append(
                make_finding(
                    "D1",
                    self.path,
                    node,
                    f"random.{func.attr}",
                    f"unseeded random.{func.attr}() call — use a seeded "
                    "random.Random instance",
                )
            )
        self.generic_visit(node)


def check_determinism(tree: ast.AST, path: str, source: str) -> List[Finding]:
    """Run the D1 rule family over one parsed module."""
    visitor = _DeterminismVisitor(path, source)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            visitor._parents[child] = parent
    visitor.visit(tree)
    return visitor.findings
