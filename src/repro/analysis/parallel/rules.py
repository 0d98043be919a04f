"""Rule family P1–P4 — parallel safety of the runtime layer.

PR 5's :class:`~repro.runtime.parallel.ParallelRuntime` made the paper's
determinism claims (Theorems 4.1/4.2/6.1) hang on an execution discipline
the engines cannot enforce by construction: worker sweeps must be pure
(writes flow only through returned delta objects), barrier reduces must
fold each worker's replies in a fixed order, nothing nondeterministic may
cross a pickle frame, and every :meth:`RunMetrics.merge_delta` site must be
reachable exactly once per worker per superstep.  These rules check that
discipline statically, the way the B1/A1/S1 family checks vertex programs.

Unlike the vertex-program rules, the P family is scoped **by construct**,
not by class ancestry, so ``repro-mis lint`` can run it over any tree
without false positives outside the runtime layer:

- **P1 (sweep purity)** fires inside *sweep scopes* — ``sweep_scaleg``
  methods and ``_worker_sweep_*`` functions.  Worker-side
  sweep code may not mutate engine/graph/metrics state it did not create:
  no attribute or subscript stores, no mutator-method calls, no ``del``
  against the engine/host/graph/states/metrics roots (or any alias of
  them).  Writes leave a sweep only through the returned delta object.
- **P2 (barrier ordering)** fires inside *barrier scopes* — methods of
  ``*Engine`` classes and of execution backends, plus ``_worker_*`` and
  ``_merge*`` functions.  A reduce loop must iterate replies in a sorted,
  keyed order: ``dict.values()`` folds are flagged outright (the key is
  lost, so the fold can never be re-sorted), and ``.items()``/``.keys()``
  iteration is flagged when the loop body is order-sensitive and the
  iterable is not wrapped in ``sorted(...)``.
- **P3 (frame hygiene)** fires inside *frame scopes* — ``_worker_*``
  functions and ``_Worker*`` classes (code that lives on the far side of a
  pickle frame), plus the argument lists of frame-shipping calls
  (``_send_msg``/``send_bytes``/``pickle.dumps``).  Flags reads of ambient
  process state that would silently diverge between master and workers —
  ``os.environ``/``os.getenv``, wall-clock calls, unseeded ``random`` —
  plus unpicklable or unshareable resources: ``open(...)`` handles,
  ``threading`` locks, and closures/lambdas shipped across a frame.
- **P4 (merge-once)** fires on every ``merge_delta`` call site, checked via
  a small intraprocedural call-graph walk: a site may sit under at most one
  loop in its own function, a function that reaches a looped merge site may
  not itself be called from inside a loop, and two merge-reaching
  statements in one function must be on mutually exclusive branches.
  Anything else risks folding one worker's meters twice per superstep,
  which silently breaks bit-identity across backends.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, make_finding

#: parameter names treated as foreign (engine-owned) roots in sweep scopes
_FOREIGN_PARAMS = {
    "engine", "host", "graph", "dgraph", "states", "metrics", "inbox",
}

#: method names that mutate their receiver in place
_MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
    "add_edge", "remove_edge", "add_vertex", "remove_vertex",
}

#: functions that ship their arguments across a pickle frame
_FRAME_CALLS = {"_send_msg", "send_bytes", "dumps"}

#: wall-clock / ambient-state calls banned on the worker side of a frame
_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("datetime", "now"), ("datetime", "today"),
    ("datetime", "utcnow"),
}

#: ``random`` module functions that are allowed in frame scopes (seeded
#: generator constructors; instances made from them are fine)
_RANDOM_ALLOWED = {"Random", "SystemRandom"}


def _iter_functions(tree: ast.AST) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
    """Yield every function with its immediately enclosing class (if any)."""
    class_of: Dict[ast.AST, Optional[ast.ClassDef]] = {}
    for parent in ast.walk(tree):
        enclosing = parent if isinstance(parent, ast.ClassDef) else class_of.get(parent)
        for child in ast.iter_child_nodes(parent):
            class_of[child] = enclosing
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, class_of.get(node)


def _is_sweep_scope(func: ast.FunctionDef, cls: Optional[ast.ClassDef]) -> bool:
    return (
        func.name == "sweep_scaleg"
        or func.name.startswith("_worker_sweep")
    )


def _is_barrier_scope(func: ast.FunctionDef, cls: Optional[ast.ClassDef]) -> bool:
    if func.name.startswith("_worker") or func.name.startswith("_merge"):
        return True
    if cls is None:
        return False
    if cls.name.endswith("Engine") or cls.name.endswith("Executor"):
        return True
    if cls.name.endswith("Runtime") or cls.name.endswith("Backend"):
        return True
    bases = " ".join(
        b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
        for b in cls.bases
    )
    return "ExecutionBackend" in bases


def _is_frame_scope(func: ast.FunctionDef, cls: Optional[ast.ClassDef]) -> bool:
    if func.name.startswith("_worker"):
        return True
    return cls is not None and cls.name.lstrip("_").startswith("Worker")


def _source(node, source: str) -> str:
    try:
        segment = ast.get_source_segment(source, node)
    except Exception:  # pragma: no cover - defensive
        segment = None
    if not segment:
        return "<expr>"
    segment = " ".join(segment.split())
    return segment if len(segment) <= 60 else segment[:57] + "..."


# ---------------------------------------------------------------------------
# P1 — sweep purity
# ---------------------------------------------------------------------------
def _foreign_roots(func: ast.FunctionDef) -> Set[str]:
    """Names bound at entry that denote engine-owned state."""
    roots: Set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg in _FOREIGN_PARAMS:
            roots.add(arg.arg)
    return roots


def _collect_foreign_aliases(func: ast.FunctionDef, roots: Set[str]) -> Set[str]:
    """Names provably aliasing foreign state (attribute/subscript chains).

    ``states = engine._states`` and ``home = host.dgraph._home`` alias;
    wrapping the right-hand side in any call copies (or at least takes
    responsibility), so the target is no alias.  Mirrors the S1 alias
    analysis: two passes, order-free, rebinding to a non-alias anywhere
    taints the name out of the set.
    """

    def is_foreign_expr(node, aliases: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in roots or node.id in aliases
        if isinstance(node, ast.Attribute):
            # self._engine.<...> chains are foreign regardless of roots
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr == "_engine"
            ):
                return True
            return is_foreign_expr(node.value, aliases)
        if isinstance(node, ast.Subscript):
            return is_foreign_expr(node.value, aliases)
        return False

    evidence: Set[str] = set()
    tainted: Set[str] = set()
    for _ in range(2):
        for stmt in ast.walk(func):
            targets = ()
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if is_foreign_expr(value, evidence):
                    evidence.add(target.id)
                else:
                    tainted.add(target.id)
    return evidence - tainted


def _check_p1(func: ast.FunctionDef, path: str, source: str) -> List[Finding]:
    roots = _foreign_roots(func)
    aliases = _collect_foreign_aliases(func, roots)

    def is_foreign(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in roots or node.id in aliases
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr == "_engine"
            ):
                return True
            return is_foreign(node.value)
        if isinstance(node, ast.Subscript):
            return is_foreign(node.value)
        return False

    findings: List[Finding] = []
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and is_foreign(
                    target.value
                ):
                    findings.append(
                        make_finding(
                            "P1",
                            path,
                            node,
                            _source(target, source),
                            "sweep writes engine-owned state "
                            f"'{_source(target, source)}' in place — worker "
                            "writes must flow through the returned sweep "
                            "delta",
                        )
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and is_foreign(
                    target.value
                ):
                    findings.append(
                        make_finding(
                            "P1",
                            path,
                            node,
                            _source(target, source),
                            "sweep deletes from engine-owned state "
                            f"'{_source(target, source)}'",
                        )
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
            and is_foreign(node.func.value)
        ):
            findings.append(
                make_finding(
                    "P1",
                    path,
                    node,
                    f"{_source(node.func.value, source)}.{node.func.attr}",
                    f"sweep calls mutator '{node.func.attr}' on engine-owned "
                    f"'{_source(node.func.value, source)}' — worker writes "
                    "must flow through the returned sweep delta",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# P2 — barrier ordering
# ---------------------------------------------------------------------------
def _dict_view_call(node) -> Optional[str]:
    """``d.values()``/``d.items()``/``d.keys()`` -> the view name."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "items", "keys")
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


def _body_order_insensitive(stmts) -> bool:
    # identical discipline to the D1 body analysis, duplicated locally so
    # the P family has no import-order coupling with rules_determinism
    from repro.analysis.rules_determinism import (
        _body_order_insensitive as _d1_body,
    )

    return _d1_body(stmts)


def _check_p2(func: ast.FunctionDef, path: str, source: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(func):
        iterables: List[Tuple[ast.AST, Optional[list]]] = []
        if isinstance(node, ast.For):
            iterables.append((node.iter, node.body))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                iterables.append((gen.iter, None))
        for iter_expr, body in iterables:
            view = _dict_view_call(iter_expr)
            if view is None:
                continue
            if view == "values":
                findings.append(
                    make_finding(
                        "P2",
                        path,
                        node,
                        _source(iter_expr, source),
                        "barrier reduce folds "
                        f"'{_source(iter_expr, source)}' — a .values() fold "
                        "loses the worker/partition key and can never be "
                        "re-sorted into the inline order",
                    )
                )
            elif body is None or not _body_order_insensitive(body):
                findings.append(
                    make_finding(
                        "P2",
                        path,
                        node,
                        _source(iter_expr, source),
                        "barrier reduce iterates "
                        f"'{_source(iter_expr, source)}' in insertion order "
                        "with an order-sensitive body — wrap in sorted(...) "
                        "to fold replies in worker/partition order",
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# P3 — frame hygiene
# ---------------------------------------------------------------------------
def _check_p3_scope(func: ast.FunctionDef, path: str, source: str) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                findings.append(
                    make_finding(
                        "P3",
                        path,
                        node,
                        "os.environ",
                        "worker-side read of os.environ — ambient process "
                        "state diverges between master and workers",
                    )
                )
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if isinstance(func_expr, ast.Name):
                if func_expr.id == "open":
                    findings.append(
                        make_finding(
                            "P3",
                            path,
                            node,
                            "open",
                            "worker-side open() — file handles cannot cross "
                            "a pickle frame and worker-local I/O breaks "
                            "replayability",
                        )
                    )
            elif isinstance(func_expr, ast.Attribute) and isinstance(
                func_expr.value, ast.Name
            ):
                pair = (func_expr.value.id, func_expr.attr)
                if pair in _CLOCK_CALLS:
                    findings.append(
                        make_finding(
                            "P3",
                            path,
                            node,
                            f"{pair[0]}.{pair[1]}",
                            f"worker-side wall-clock read {pair[0]}."
                            f"{pair[1]}() — frame contents must be a pure "
                            "function of the dispatched delta",
                        )
                    )
                elif pair[0] == "os" and pair[1] in ("getenv", "environ"):
                    findings.append(
                        make_finding(
                            "P3",
                            path,
                            node,
                            f"os.{pair[1]}",
                            "worker-side read of the process environment — "
                            "ambient state diverges between master and "
                            "workers",
                        )
                    )
                elif pair[0] == "random" and pair[1] not in _RANDOM_ALLOWED:
                    findings.append(
                        make_finding(
                            "P3",
                            path,
                            node,
                            f"random.{pair[1]}",
                            "worker-side unseeded random draw — ship a "
                            "seeded random.Random (or keyed-hash draws) in "
                            "the frame instead",
                        )
                    )
                elif pair[0] == "threading" and "Lock" in pair[1]:
                    findings.append(
                        make_finding(
                            "P3",
                            path,
                            node,
                            f"threading.{pair[1]}",
                            "lock created in worker-side frame scope — "
                            "locks are unpicklable and signal shared "
                            "mutable state across the frame",
                        )
                    )
    return findings


def _check_p3_frame_calls(tree: ast.AST, path: str, source: str) -> List[Finding]:
    """Lambdas/closures in the argument list of a frame-shipping call."""
    findings: List[Finding] = []
    local_defs = {
        node.name
        for outer in ast.walk(tree)
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(outer)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not outer
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
        if name not in _FRAME_CALLS:
            continue
        for arg in (*node.args, *(kw.value for kw in node.keywords)):
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda) or (
                    isinstance(sub, ast.Name) and sub.id in local_defs
                ):
                    symbol = (
                        "lambda" if isinstance(sub, ast.Lambda) else sub.id
                    )
                    findings.append(
                        make_finding(
                            "P3",
                            path,
                            sub,
                            symbol,
                            f"closure '{symbol}' shipped across a pickle "
                            "frame — only module-level functions and "
                            "classes may cross",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# P4 — merge-once
# ---------------------------------------------------------------------------
def _loop_depth_map(func: ast.FunctionDef) -> Dict[ast.AST, int]:
    """``for``-loop nesting depth of every node inside ``func`` (0 = none).

    Only ``for`` loops count.  A ``while`` loop is the superstep loop in
    both engines — the merge-once contract is *per superstep*, so a merge
    under ``while active: for w in workers:`` is the sanctioned shape
    (depth 1: one fold per worker per barrier), while a merge under two
    nested ``for`` loops (depth 2) double-folds within one barrier.
    """
    depths: Dict[ast.AST, int] = {}

    def walk(node, depth):
        for child in ast.iter_child_nodes(node):
            child_depth = depth
            if isinstance(child, ast.For):
                child_depth = depth + 1
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scopes analyzed separately
            depths[child] = child_depth
            walk(child, child_depth)

    walk(func, 0)
    return depths


def _branch_exclusive(func: ast.FunctionDef, a: ast.AST, b: ast.AST) -> bool:
    """Whether ``a`` and ``b`` sit in different arms of one ``if``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        in_body_a = any(a is d or a in ast.walk(d) for d in node.body)
        in_body_b = any(b is d or b in ast.walk(d) for d in node.body)
        in_else_a = any(a is d or a in ast.walk(d) for d in node.orelse)
        in_else_b = any(b is d or b in ast.walk(d) for d in node.orelse)
        if (in_body_a and in_else_b) or (in_else_a and in_body_b):
            return True
    return False


def _check_p4(tree: ast.AST, path: str, source: str) -> List[Finding]:
    findings: List[Finding] = []
    functions = list(_iter_functions(tree))
    #: function name -> max loop depth over its direct merge_delta sites
    merge_depth: Dict[str, int] = {}
    #: function name -> its direct merge_delta call nodes
    direct_sites: Dict[str, List[ast.Call]] = {}

    for func, _cls in functions:
        depths = _loop_depth_map(func)
        sites = [
            node
            for node in depths
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "merge_delta"
        ]
        if not sites:
            continue
        direct_sites[func.name] = sites
        merge_depth[func.name] = max(depths[s] for s in sites)
        for site in sites:
            if depths[site] >= 2:
                findings.append(
                    make_finding(
                        "P4",
                        path,
                        site,
                        "merge_delta",
                        "merge_delta under nested loops — a worker's meters "
                        "would fold more than once per superstep",
                    )
                )
        # two merge-reaching statements on one non-exclusive path
        looped = [s for s in sites if depths[s] >= 1]
        for i, a in enumerate(looped):
            for b in looped[i + 1:]:
                if not _branch_exclusive(func, a, b):
                    findings.append(
                        make_finding(
                            "P4",
                            path,
                            b,
                            "merge_delta",
                            "second looped merge_delta site on the same "
                            "path — each worker's meters must merge exactly "
                            "once per superstep",
                        )
                    )

    # intraprocedural call-graph walk: calling a function whose own merge
    # site already loops, from inside a loop, multiplies the merge count
    looping_mergers = {name for name, d in merge_depth.items() if d >= 1}
    if looping_mergers:
        for func, _cls in functions:
            if func.name in direct_sites:
                continue
            depths = _loop_depth_map(func)
            for node in depths:
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else getattr(callee, "attr", "")
                )
                if name in looping_mergers and depths[node] >= 1:
                    findings.append(
                        make_finding(
                            "P4",
                            path,
                            node,
                            name,
                            f"'{name}' already merges per-worker meters in "
                            "a loop; calling it from inside another loop "
                            "folds each worker's delta more than once per "
                            "superstep",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def check_parallel(
    tree: ast.AST, path: str, source: str, rules: Set[str]
) -> List[Finding]:
    """Run the enabled P1/P2/P3/P4 rules over one parsed module."""
    findings: List[Finding] = []
    for func, cls in _iter_functions(tree):
        if "P1" in rules and _is_sweep_scope(func, cls):
            findings.extend(_check_p1(func, path, source))
        if "P2" in rules and _is_barrier_scope(func, cls):
            findings.extend(_check_p2(func, path, source))
        if "P3" in rules and _is_frame_scope(func, cls):
            findings.extend(_check_p3_scope(func, path, source))
    if "P3" in rules:
        findings.extend(_check_p3_frame_calls(tree, path, source))
    if "P4" in rules:
        findings.extend(_check_p4(tree, path, source))
    return findings
