"""Parallel-safety rules (RPL401-RPL403): a static race detector.

``repro.parallel`` promises that ``workers=`` is a *pure performance
knob* — bit-identical outputs at any worker count.  That only holds
while every task shipped to a pool worker is (a) picklable, (b) free
of hidden shared state, and (c) observable through the
``obsmerge`` protocol.  The runtime can only discover a violation by
flaking; these rules prove the properties statically, before any test
runs:

* **RPL401** — the callable handed to ``parallel_map`` (or
  ``pool.submit``) must resolve to a *module-level* function, class,
  or method: lambdas, functions/classes defined inside another
  function, and closures do not pickle under the ``spawn`` start
  method and silently capture parent state under ``fork``.
* **RPL402** — worker-executed code (the task callable plus everything
  reachable from it through the project call graph) must not rebind or
  mutate module-level globals: each worker mutates its *own copy*, the
  parent never sees the writes, and results start depending on chunk
  placement.
* **RPL403** — worker-executed code must not ``emit(...)`` events:
  the obsmerge protocol ships metric values and span forests back to
  the parent, but the worker's ``EventStream`` ring buffer dies with
  the process, so events emitted there silently vanish from the live
  stream and every JSONL sink.

Resolution is best-effort and *precision-first*: a task expression the
index cannot resolve (a dynamically chosen callable, an unannotated
parameter) yields no finding — these rules never guess.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .base import FileContext
from .findings import Finding
from .symbols import (
    GraphRule,
    ModuleTable,
    ProjectIndex,
    Resolution,
)

#: Callables (matched on the last dotted segment) that ship their
#: first positional argument to pool workers.
TASK_CALLEES = frozenset({"parallel_map"})

#: Attribute calls that ship their first argument to a pool/executor.
SUBMIT_ATTRS = frozenset({"submit"})

#: Mutating container/object methods: called on a module-level name
#: inside worker code, the parent process never sees the change.
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)

#: Call-graph traversal cap; the real tree bottoms out far earlier.
MAX_DEPTH = 20


def dotted_chain(expr: ast.expr) -> str | None:
    """The raw dotted chain of a Name/Attribute expr (no aliasing)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass(frozen=True)
class TaskSite:
    """One call site that ships a callable to pool workers."""

    ctx: FileContext
    call: ast.Call
    task: ast.expr

    @property
    def where(self) -> str:
        return f"{self.ctx.relpath}:{self.call.lineno}"


@dataclass
class _Entry:
    """One function body that executes inside a pool worker."""

    table: ModuleTable
    fn: ast.FunctionDef | ast.AsyncFunctionDef
    cls: ast.ClassDef | None = None

    @property
    def qualname(self) -> str:
        prefix = f"{self.cls.name}." if self.cls is not None else ""
        return f"{self.table.module}.{prefix}{self.fn.name}"

    @property
    def key(self) -> tuple[str, str, str]:
        return (
            self.table.module,
            self.cls.name if self.cls is not None else "",
            self.fn.name,
        )


@dataclass
class _Classified:
    """Outcome of resolving one task expression."""

    #: ``entries`` worker bodies to analyze; empty when unresolvable.
    entries: list[_Entry] = field(default_factory=list)
    #: Why the task is structurally unpicklable (RPL401), if it is.
    bad: str | None = None
    #: The node the RPL401 finding anchors to.
    bad_node: ast.expr | None = None


class _FileScopes:
    """Per-file map: node -> (enclosing function, enclosing class)."""

    def __init__(self, tree: ast.Module) -> None:
        self.fn_of: dict[ast.AST, ast.AST | None] = {}
        self.cls_of: dict[ast.AST, ast.ClassDef | None] = {}
        self._walk(tree, None, None)

    def _walk(
        self,
        node: ast.AST,
        fn: ast.AST | None,
        cls: ast.ClassDef | None,
    ) -> None:
        for child in ast.iter_child_nodes(node):
            self.fn_of[child] = fn
            self.cls_of[child] = cls
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                self._walk(child, child, cls)
            elif isinstance(child, ast.ClassDef):
                self._walk(child, fn, child)
            else:
                self._walk(child, fn, cls)


def iter_task_sites(ctx: FileContext) -> Iterator[TaskSite]:
    """Every call in ``ctx`` that hands a callable to a pool."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        chain = dotted_chain(func)
        is_task = bool(
            chain and chain.rsplit(".", 1)[-1] in TASK_CALLEES
        )
        is_submit = (
            isinstance(func, ast.Attribute) and func.attr in SUBMIT_ATTRS
        )
        if is_task or is_submit:
            yield TaskSite(ctx=ctx, call=node, task=node.args[0])


class _Resolver:
    """Task-expression classification against the project index."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self._scopes: dict[str, _FileScopes] = {}

    def scopes(self, ctx: FileContext) -> _FileScopes:
        cached = self._scopes.get(ctx.relpath)
        if cached is None:
            cached = _FileScopes(ctx.tree)
            self._scopes[ctx.relpath] = cached
        return cached

    # -- local-scope helpers ----------------------------------------------

    def _local_assignment(
        self,
        fn: ast.AST | None,
        name: str,
        before_line: int,
    ) -> ast.expr | None:
        """The newest ``name = <expr>`` in ``fn`` before a line."""
        if fn is None:
            return None
        best: tuple[int, ast.expr] | None = None
        for node in ast.walk(fn):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id == name:
                        target, value = t, node.value
            elif isinstance(node, ast.AnnAssign) and node.value:
                if (
                    isinstance(node.target, ast.Name)
                    and node.target.id == name
                ):
                    target, value = node.target, node.value
            if (
                target is not None
                and value is not None
                and node.lineno <= before_line
                and (best is None or node.lineno >= best[0])
            ):
                best = (node.lineno, value)
        return best[1] if best else None

    def _nested_def(
        self, fn: ast.AST | None, name: str
    ) -> ast.AST | None:
        """A ``def name``/``class name`` nested inside ``fn``."""
        if fn is None:
            return None
        for node in ast.walk(fn):
            if (
                isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
                and node is not fn
                and node.name == name
            ):
                return node
        return None

    # -- class inference --------------------------------------------------

    def _class_of_value(
        self,
        site: TaskSite,
        value: ast.expr,
        depth: int = 0,
    ) -> Resolution | None:
        """The class a value expression constructs, if resolvable."""
        if depth > 4:
            return None
        if isinstance(value, ast.BoolOp):
            for candidate in reversed(value.values):
                resolved = self._class_of_value(
                    site, candidate, depth + 1
                )
                if resolved is not None:
                    return resolved
            return None
        if isinstance(value, ast.Call):
            chain = dotted_chain(value.func)
            if chain is None:
                return None
            resolved = self._resolve_chain(site, chain)
            if (
                resolved is not None
                and resolved.symbol.kind == "class"
                and not resolved.attr
            ):
                return resolved
            return None
        if isinstance(value, ast.Name):
            scopes = self.scopes(site.ctx)
            enclosing = scopes.fn_of.get(site.call)
            assigned = self._local_assignment(
                enclosing, value.id, value.lineno
            )
            if assigned is not None:
                return self._class_of_value(site, assigned, depth + 1)
        return None

    def _resolve_chain(
        self, site: TaskSite, chain: str
    ) -> Resolution | None:
        table = self.index.table_for(site.ctx)
        if table is not None:
            return self.index.resolve_local(table, chain)
        return self.index.resolve(chain)

    # -- entries ----------------------------------------------------------

    def _entries_for_symbol(
        self, resolved: Resolution, instance: bool
    ) -> list[_Entry]:
        symbol = resolved.symbol
        table = self.index.table_for(symbol.ctx)
        if table is None:
            return []
        if symbol.kind == "function" and not resolved.attr:
            return [_Entry(table=table, fn=symbol.node)]
        if symbol.kind == "class":
            cls = symbol.node
            if resolved.attr:
                method = symbol.methods.get(resolved.attr.split(".")[0])
                return (
                    [_Entry(table=table, fn=method, cls=cls)]
                    if method is not None
                    else []
                )
            entry_name = "__call__" if instance else "__init__"
            method = symbol.methods.get(entry_name)
            return (
                [_Entry(table=table, fn=method, cls=cls)]
                if method is not None
                else []
            )
        return []

    def classify(
        self, site: TaskSite, task: ast.expr | None = None, depth: int = 0
    ) -> _Classified:
        """Resolve one task expression (see module docstring)."""
        task = site.task if task is None else task
        if depth > 4:
            return _Classified()
        if isinstance(task, ast.Lambda):
            return _Classified(
                bad="a lambda (unpicklable under spawn; captures "
                "parent state under fork)",
                bad_node=task,
            )
        scopes = self.scopes(site.ctx)
        enclosing = scopes.fn_of.get(site.call)
        if isinstance(task, ast.Name):
            nested = self._nested_def(enclosing, task.id)
            if nested is not None:
                kind = (
                    "class"
                    if isinstance(nested, ast.ClassDef)
                    else "function"
                )
                return _Classified(
                    bad=f"{kind} `{task.id}` defined inside "
                    f"an enclosing function (a closure — unpicklable "
                    "under spawn)",
                    bad_node=task,
                )
            assigned = self._local_assignment(
                enclosing, task.id, task.lineno
            )
            if assigned is not None:
                if isinstance(assigned, ast.Lambda):
                    return _Classified(
                        bad=f"`{task.id}`, a name bound to a lambda "
                        "(unpicklable under spawn)",
                        bad_node=task,
                    )
                cls = self._class_of_value(site, assigned)
                if cls is not None:
                    return _Classified(
                        entries=self._entries_for_symbol(
                            cls, instance=True
                        )
                    )
                return _Classified()
            resolved = self._resolve_chain(site, task.id)
            if resolved is not None:
                instance = resolved.symbol.kind != "class"
                return _Classified(
                    entries=self._entries_for_symbol(
                        resolved, instance=instance
                    )
                )
            return _Classified()
        if isinstance(task, ast.Attribute):
            chain = dotted_chain(task)
            if chain is None:
                return _Classified()
            head = chain.split(".", 1)[0]
            if head == "self":
                cls = scopes.cls_of.get(site.call)
                if cls is not None:
                    method_name = chain.split(".")[-1]
                    for item in cls.body:
                        if (
                            isinstance(
                                item,
                                (ast.FunctionDef, ast.AsyncFunctionDef),
                            )
                            and item.name == method_name
                        ):
                            table = self.index.table_for(site.ctx)
                            if table is not None:
                                return _Classified(
                                    entries=[
                                        _Entry(
                                            table=table,
                                            fn=item,
                                            cls=cls,
                                        )
                                    ]
                                )
                return _Classified()
            receiver = task.value
            method_name = task.attr
            if isinstance(receiver, ast.Name):
                cls = self._class_of_value(site, receiver)
                if cls is not None:
                    with_method = Resolution(
                        symbol=cls.symbol, attr=method_name
                    )
                    return _Classified(
                        entries=self._entries_for_symbol(
                            with_method, instance=True
                        )
                    )
            resolved = self._resolve_chain(site, chain)
            if resolved is not None:
                instance = resolved.symbol.kind != "class"
                return _Classified(
                    entries=self._entries_for_symbol(
                        resolved, instance=instance
                    )
                )
            return _Classified()
        if isinstance(task, ast.Call):
            chain = dotted_chain(task.func)
            if chain is not None and chain.endswith("partial"):
                if task.args:
                    return self.classify(site, task.args[0], depth + 1)
                return _Classified()
            if chain is not None:
                resolved = self._resolve_chain(site, chain)
                if (
                    resolved is not None
                    and resolved.symbol.kind == "class"
                    and not resolved.attr
                ):
                    return _Classified(
                        entries=self._entries_for_symbol(
                            resolved, instance=True
                        )
                    )
        return _Classified()

    # -- reachability -----------------------------------------------------

    def reachable(self, entries: list[_Entry]) -> list[_Entry]:
        """Worker-executed bodies: entries + project call-graph closure."""
        queue: list[tuple[_Entry, int]] = [(e, 0) for e in entries]
        visited: dict[tuple[str, str, str], _Entry] = {}
        while queue:
            entry, depth = queue.pop(0)
            if entry.key in visited or depth > MAX_DEPTH:
                continue
            visited[entry.key] = entry
            for call in ast.walk(entry.fn):
                if not isinstance(call, ast.Call):
                    continue
                chain = dotted_chain(call.func)
                if chain is None:
                    continue
                head = chain.split(".", 1)[0]
                if head == "self" and entry.cls is not None:
                    method_name = chain.split(".")[-1]
                    for item in entry.cls.body:
                        if (
                            isinstance(
                                item,
                                (ast.FunctionDef, ast.AsyncFunctionDef),
                            )
                            and item.name == method_name
                        ):
                            queue.append(
                                (
                                    _Entry(
                                        table=entry.table,
                                        fn=item,
                                        cls=entry.cls,
                                    ),
                                    depth + 1,
                                )
                            )
                    continue
                resolved = self.index.resolve_local(entry.table, chain)
                if resolved is None:
                    # A locally constructed instance's method call:
                    # infer the receiver class from the local scope.
                    if isinstance(call.func, ast.Attribute) and isinstance(
                        call.func.value, ast.Name
                    ):
                        pseudo = TaskSite(
                            ctx=entry.table.ctx, call=call, task=call.func
                        )
                        cls = self._class_of_value(
                            pseudo, call.func.value
                        )
                        if cls is not None:
                            queue.extend(
                                (e, depth + 1)
                                for e in self._entries_for_symbol(
                                    Resolution(
                                        symbol=cls.symbol,
                                        attr=call.func.attr,
                                    ),
                                    instance=True,
                                )
                            )
                    continue
                symbol = resolved.symbol
                if symbol.kind == "function" and not resolved.attr:
                    table = self.index.table_for(symbol.ctx)
                    if table is not None:
                        queue.append(
                            (
                                _Entry(table=table, fn=symbol.node),
                                depth + 1,
                            )
                        )
                elif symbol.kind == "class":
                    # Constructing a class in a worker runs __init__
                    # there; a method chain runs the named method.
                    table = self.index.table_for(symbol.ctx)
                    if table is None:
                        continue
                    method_name = (
                        resolved.attr.split(".")[0]
                        if resolved.attr
                        else "__init__"
                    )
                    method = symbol.methods.get(method_name)
                    if method is not None:
                        queue.append(
                            (
                                _Entry(
                                    table=table,
                                    fn=method,
                                    cls=symbol.node,
                                ),
                                depth + 1,
                            )
                        )
        return list(visited.values())


def _is_infrastructure(ctx: FileContext) -> bool:
    """The ``repro.parallel`` package is the sanctioned machinery."""
    return "parallel" in ctx.parts


def _module_global_names(table: ModuleTable) -> frozenset[str]:
    return frozenset(
        name
        for name, symbol in table.defs.items()
        if symbol.kind == "assign"
    )


class TaskResolutionMixin:
    """Shared per-run walk: task sites -> classification -> closure."""

    def iter_classified(
        self, contexts: list[FileContext], index: ProjectIndex
    ) -> Iterator[tuple[TaskSite, _Classified, _Resolver]]:
        resolver = _Resolver(index)
        for ctx in contexts:
            if _is_infrastructure(ctx):
                continue
            for site in iter_task_sites(ctx):
                yield site, resolver.classify(site), resolver


class WorkerTaskPicklableRule(TaskResolutionMixin, GraphRule):
    """RPL401: pool task callables must be module-level."""

    id = "RPL401"
    name = "task-not-module-level"
    category = "parallel_safety"
    description = (
        "Callables handed to parallel_map/pool.submit must resolve to "
        "module-level functions, classes, or their (bound) methods; "
        "lambdas and defs nested inside functions cannot be pickled "
        "to spawn-started workers and silently capture enclosing "
        "state under fork."
    )
    fix_hint = (
        "Hoist the task to module level (a def or a small callable "
        "class like ml.forest._TreeFitter holding its inputs as "
        "attributes) so the pool can pickle it."
    )

    def check_graph(
        self, contexts: list[FileContext], index: ProjectIndex
    ) -> Iterable[Finding]:
        for site, classified, __ in self.iter_classified(
            contexts, index
        ):
            if classified.bad:
                yield self.finding(
                    site.ctx,
                    classified.bad_node or site.task,
                    f"pool task is {classified.bad}",
                )


class WorkerGlobalMutationRule(TaskResolutionMixin, GraphRule):
    """RPL402: worker-reachable code must not mutate module globals."""

    id = "RPL402"
    name = "worker-global-mutation"
    category = "parallel_safety"
    description = (
        "Code reachable from a pool task (through the project call "
        "graph) must not rebind or mutate module-level globals: every "
        "worker process mutates its own copy, the parent never "
        "observes the write, and results become a function of chunk "
        "placement — a data race the bitwise-parity suite can only "
        "catch by luck."
    )
    fix_hint = (
        "Pass state into the task explicitly and return derived "
        "values; merge in the parent (see parallel/obsmerge.py for "
        "the sanctioned pattern)."
    )

    def check_graph(
        self, contexts: list[FileContext], index: ProjectIndex
    ) -> Iterable[Finding]:
        seen: set[tuple[str, int]] = set()
        for site, classified, resolver in self.iter_classified(
            contexts, index
        ):
            for entry in resolver.reachable(classified.entries):
                yield from self._scan_entry(site, entry, seen)

    def _scan_entry(
        self,
        site: TaskSite,
        entry: _Entry,
        seen: set[tuple[str, int]],
    ) -> Iterator[Finding]:
        ctx = entry.table.ctx
        module_globals = _module_global_names(entry.table)

        def flag(node: ast.AST, what: str) -> Iterator[Finding]:
            key = (ctx.relpath, node.lineno)
            if key not in seen:
                seen.add(key)
                yield self.finding(
                    ctx,
                    node,
                    f"{what} in worker-executed "
                    f"{entry.qualname}() (task shipped at {site.where})",
                )

        for node in ast.walk(entry.fn):
            if isinstance(node, ast.Global):
                for name in node.names:
                    yield from flag(
                        node,
                        f"`global {name}` rebinds a module global",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_globals
                ):
                    yield from flag(
                        node,
                        f"module global `{func.value.id}` mutated via "
                        f".{func.attr}()",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    inner = target
                    if isinstance(
                        inner, (ast.Subscript, ast.Attribute)
                    ) and isinstance(inner.value, ast.Name):
                        if inner.value.id in module_globals:
                            yield from flag(
                                node,
                                "module global "
                                f"`{inner.value.id}` mutated via "
                                "item/attribute assignment",
                            )


class WorkerEventEmissionRule(TaskResolutionMixin, GraphRule):
    """RPL403: no event emission inside pool workers."""

    id = "RPL403"
    name = "worker-event-emission"
    category = "parallel_safety"
    description = (
        "emit(...) in code reachable from a pool task bypasses the "
        "obsmerge protocol: obsmerge ships metric values, span "
        "forests and health-engine alert events back to the parent, "
        "but any other event a worker emits never reaches the "
        "parent's EventStream or its subscribers — it vanishes with "
        "the process."
    )
    fix_hint = (
        "Return the facts to the parent and emit there (the pattern "
        "ml.model_selection.cross_validate uses for per-fold events), "
        "or record a counter/histogram instead — metrics do merge."
    )

    def check_graph(
        self, contexts: list[FileContext], index: ProjectIndex
    ) -> Iterable[Finding]:
        seen: set[tuple[str, int]] = set()
        for site, classified, resolver in self.iter_classified(
            contexts, index
        ):
            for entry in resolver.reachable(classified.entries):
                ctx = entry.table.ctx
                for node in ast.walk(entry.fn):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    is_emit = (
                        isinstance(func, ast.Name) and func.id == "emit"
                    ) or (
                        isinstance(func, ast.Attribute)
                        and func.attr == "emit"
                    )
                    if not is_emit:
                        continue
                    key = (ctx.relpath, node.lineno)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield self.finding(
                        ctx,
                        node,
                        "event emitted in worker-executed "
                        f"{entry.qualname}() (task shipped at "
                        f"{site.where}); worker events are not merged "
                        "by obsmerge",
                    )
