"""Seed-taint determinism rules (RPL007-RPL009).

The PR 2 determinism rules are syntactic: RPL004 checks that a
``default_rng(...)`` argument *mentions* a seed-ish name.  That
heuristic is blind to dataflow — ``seed = int(time.time())`` followed
by ``default_rng(seed)`` passes, and so does ``seed = 42`` hiding a
hard-coded stream behind a respectable name.  These rules run a small
taint analysis instead:

* **RPL007** — taint every value reaching an RNG constructor.  Seeds
  are classified on a four-point lattice (``CONST < UNKNOWN < SEED <
  ENTROPY``); construction from an ENTROPY value (wall clock,
  ``os.urandom``, ``uuid``, ``secrets``) is flagged anywhere, and a
  CONST value masquerading behind a seed-named binding is flagged in
  deterministic scope.  Taint follows assignments, arithmetic, and
  call edges across modules through the :class:`ProjectIndex`.
* **RPL008** — two sibling ``default_rng`` sites in one function scope
  built from *structurally identical* seed expressions produce
  identical streams; components that should explore independently end
  up mirrored.  (Sites whose seed expression references a name rebound
  inside the scope are skipped — the value plainly varies.)
* **RPL009** — iterating a ``set`` (directly, through a comprehension,
  or by materializing with ``list``/``tuple``/``enumerate``/``join``)
  exposes hash-salt/insertion order; in deterministic scope any such
  consumption is flagged unless the result is immediately
  order-normalized (``sorted``, ``len``, ``min``, aggregation).
  Set-ness is proven structurally: literals, ``set()`` calls, set
  operators, and — via the project index — calls to functions whose
  return annotation is ``set[...]``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from .base import FileContext, FileRule, call_name
from .determinism import WALLCLOCK_CALLS, _mentions_seed_or_rng
from .findings import Finding
from .parallel_rules import dotted_chain
from .symbols import GraphRule, ProjectIndex

#: Calls whose return value is host entropy — never a valid seed.
ENTROPY_CALLS = WALLCLOCK_CALLS | frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
        "secrets.randbelow",
    }
)

#: Taint lattice ranks (join = max).
CONST, UNKNOWN, SEED, ENTROPY = range(4)

#: Cross-module return-taint recursion cap.
MAX_TAINT_DEPTH = 6


@dataclass(frozen=True)
class Taint:
    """A lattice point plus the human-readable reason it was reached."""

    level: int
    why: str = ""

    def join(self, other: "Taint") -> "Taint":
        return self if self.level >= other.level else other


T_CONST = Taint(CONST, "constant")
T_UNKNOWN = Taint(UNKNOWN)
T_SEED = Taint(SEED, "seed-named binding")


def _is_seedish(name: str | None) -> bool:
    return bool(name) and (
        "seed" in name.lower() or "rng" in name.lower()
    )


def _rng_seed_expr(node: ast.Call) -> ast.expr | None:
    """The seed expression of a ``default_rng(...)`` call, if any."""
    if node.args:
        return node.args[0]
    for kw in node.keywords:
        if kw.arg:
            return kw.value
    return None


def iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[ast.AST, list[ast.stmt]]]:
    """Every taint scope in a file: the module plus each function."""
    yield tree, tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, node.body


def _initial_env(owner: ast.AST) -> dict[str, Taint]:
    env: dict[str, Taint] = {}
    if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = owner.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, [args.vararg, args.kwarg]),
        ]:
            env[arg.arg] = T_SEED if _is_seedish(arg.arg) else T_UNKNOWN
    return env


class TaintEngine:
    """Expression taint under an environment, with call-edge chasing."""

    def __init__(
        self, index: ProjectIndex | None, ctx: FileContext
    ) -> None:
        self.index = index
        self.ctx = ctx
        self._returns: dict[tuple[str, str], Taint] = {}

    def expr(
        self,
        node: ast.expr,
        env: dict[str, Taint],
        depth: int = 0,
        _seen: frozenset[tuple[str, str]] = frozenset(),
    ) -> Taint:
        if isinstance(node, ast.Constant):
            return T_CONST
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return T_SEED if _is_seedish(node.id) else T_UNKNOWN
        if isinstance(node, ast.Attribute):
            return T_SEED if _is_seedish(node.attr) else T_UNKNOWN
        if isinstance(node, ast.Call):
            return self._call(node, env, depth, _seen)
        if isinstance(node, ast.BinOp):
            return self.expr(node.left, env, depth, _seen).join(
                self.expr(node.right, env, depth, _seen)
            )
        if isinstance(node, ast.UnaryOp):
            return self.expr(node.operand, env, depth, _seen)
        if isinstance(node, ast.IfExp):
            return self.expr(node.body, env, depth, _seen).join(
                self.expr(node.orelse, env, depth, _seen)
            )
        if isinstance(node, ast.BoolOp):
            taint = T_CONST
            for value in node.values:
                taint = taint.join(self.expr(value, env, depth, _seen))
            return taint
        if isinstance(node, (ast.Tuple, ast.List)):
            taint = T_CONST
            for elt in node.elts:
                taint = taint.join(self.expr(elt, env, depth, _seen))
            return taint
        if isinstance(node, ast.Subscript):
            return self.expr(node.value, env, depth, _seen)
        if isinstance(node, ast.Starred):
            return self.expr(node.value, env, depth, _seen)
        return T_UNKNOWN

    def _call(
        self,
        node: ast.Call,
        env: dict[str, Taint],
        depth: int,
        _seen: frozenset[tuple[str, str]],
    ) -> Taint:
        resolved = call_name(self.ctx, node)
        if resolved in ENTROPY_CALLS:
            return Taint(ENTROPY, f"`{resolved}()`")
        chased = self._return_taint(node, depth, _seen)
        if chased is not None:
            return chased
        # Unresolved call (builtin conversion, numpy helper, ...):
        # assume the result derives from the arguments.
        taint = T_UNKNOWN if not (node.args or node.keywords) else T_CONST
        for arg in node.args:
            taint = taint.join(self.expr(arg, env, depth, _seen))
        for kw in node.keywords:
            taint = taint.join(self.expr(kw.value, env, depth, _seen))
        return taint

    def _return_taint(
        self,
        node: ast.Call,
        depth: int,
        _seen: frozenset[tuple[str, str]],
    ) -> Taint | None:
        """Taint of a resolved project function's return values."""
        if self.index is None or depth >= MAX_TAINT_DEPTH:
            return None
        chain = dotted_chain(node.func)
        if chain is None:
            return None
        table = self.index.table_for(self.ctx)
        resolved = (
            self.index.resolve_local(table, chain)
            if table is not None
            else self.index.resolve(chain)
        )
        if resolved is None:
            return None
        symbol = resolved.symbol
        if symbol.kind != "function" or resolved.attr:
            return None
        key = (symbol.module, symbol.name)
        if key in _seen:
            return None
        cached = self._returns.get(key)
        if cached is not None:
            return cached
        inner = TaintEngine(self.index, symbol.ctx)
        inner._returns = self._returns
        fn = symbol.node
        env = _initial_env(fn)
        taint = T_CONST
        saw_return = False
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                saw_return = True
                taint = taint.join(
                    inner.expr(
                        stmt.value, env, depth + 1, _seen | {key}
                    )
                )
        result = taint if saw_return else T_UNKNOWN
        if result.level == ENTROPY:
            result = Taint(
                ENTROPY, f"{result.why} via {symbol.qualname}()"
            )
        self._returns[key] = result
        return result


def _scan_scope(
    owner: ast.AST,
    body: list[ast.stmt],
    engine: TaintEngine,
) -> list[tuple[ast.Call, ast.expr, Taint]]:
    """``default_rng`` sites in one scope with their seed taints.

    Statements are processed in order so the environment reflects
    assignments made *before* each RNG construction; nested function
    and class bodies are skipped (they are their own scopes).
    """
    env = _initial_env(owner)
    sites: list[tuple[ast.Call, ast.expr, Taint]] = []

    def visit_expr(expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Call)
                and call_name(engine.ctx, node)
                == "numpy.random.default_rng"
            ):
                seed = _rng_seed_expr(node)
                if seed is not None:
                    sites.append((node, seed, engine.expr(seed, env)))

    def process(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    visit_expr(child)
            if isinstance(stmt, ast.Assign):
                taint = engine.expr(stmt.value, env)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = taint
            elif isinstance(stmt, ast.AnnAssign) and stmt.value:
                if isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = engine.expr(stmt.value, env)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = env.get(
                        stmt.target.id, T_UNKNOWN
                    ).join(engine.expr(stmt.value, env))
            elif isinstance(stmt, ast.For):
                if isinstance(stmt.target, ast.Name):
                    env[stmt.target.id] = T_UNKNOWN
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if isinstance(inner, list) and inner and isinstance(
                    inner[0], ast.stmt
                ):
                    process(inner)
            for handler in getattr(stmt, "handlers", []) or []:
                process(handler.body)

    process(body)
    return sites


class SeedTaintRule(GraphRule):
    """RPL007: RNG seeds must not be entropy or disguised constants."""

    id = "RPL007"
    name = "seed-taint"
    category = "determinism"
    description = (
        "Taint-track values reaching default_rng(...): construction "
        "from host entropy (time.time, os.urandom, uuid, secrets) — "
        "even through assignments and helper-function return values "
        "in other modules — yields an unreproducible stream; a "
        "seed-named binding that provably holds a hard-coded constant "
        "defeats the config-threaded seed plumbing the same way a "
        "bare literal would."
    )
    fix_hint = (
        "Thread the seed from SimulationConfig (or the caller) and "
        "derive sub-seeds arithmetically; never mix the wall clock or "
        "process identity into a seed."
    )

    def check_graph(
        self, contexts: list[FileContext], index: ProjectIndex
    ) -> Iterable[Finding]:
        for ctx in contexts:
            engine = TaintEngine(index, ctx)
            deterministic = ctx.in_deterministic_scope()
            for owner, body in iter_scopes(ctx.tree):
                for node, seed, taint in _scan_scope(
                    owner, body, engine
                ):
                    if taint.level == ENTROPY:
                        yield self.finding(
                            ctx,
                            node,
                            "RNG seeded from host entropy "
                            f"({taint.why}); the stream can never "
                            "be reproduced",
                        )
                    elif (
                        taint.level == CONST
                        and deterministic
                        and _mentions_seed_or_rng(iter([seed]))
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "seed expression "
                            f"`{ast.unparse(seed)}` is a hard-coded "
                            "constant hiding behind a seed-named "
                            "binding",
                        )


class SiblingSeedReuseRule(FileRule):
    """RPL008: sibling RNGs must not share one seed expression."""

    id = "RPL008"
    name = "sibling-seed-reuse"
    category = "determinism"
    description = (
        "Two default_rng(...) constructions in one function scope "
        "with structurally identical seed expressions produce "
        "identical random streams: components meant to vary "
        "independently (per-tree fitters, per-fold splits, jitter "
        "sources) end up perfectly correlated."
    )
    fix_hint = (
        "Derive a distinct sub-seed per sibling (seed + offset, or "
        "numpy.random.SeedSequence(seed).spawn(n))."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_deterministic_scope()

    def _rebound_names(self, body: list[ast.stmt]) -> set[str]:
        """Names assigned anywhere in the scope (own statements)."""
        rebound: set[str] = set()

        def collect(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt,
                    (
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                    ),
                ):
                    continue
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    targets = [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            rebound.add(node.id)
                for field in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field, None)
                    if isinstance(inner, list) and inner and isinstance(
                        inner[0], ast.stmt
                    ):
                        collect(inner)
                for handler in getattr(stmt, "handlers", []) or []:
                    collect(handler.body)

        collect(body)
        return rebound

    def _check_scope(
        self, ctx: FileContext, body: list[ast.stmt]
    ) -> Iterable[Finding]:
        rebound = self._rebound_names(body)
        sites: dict[str, ast.Call] = {}

        def visit(stmts: list[ast.stmt]) -> Iterator[ast.Call]:
            for stmt in stmts:
                if isinstance(
                    stmt,
                    (
                        ast.FunctionDef,
                        ast.AsyncFunctionDef,
                        ast.ClassDef,
                    ),
                ):
                    continue
                for child in ast.iter_child_nodes(stmt):
                    if not isinstance(child, ast.expr):
                        continue
                    for node in ast.walk(child):
                        if (
                            isinstance(node, ast.Call)
                            and call_name(ctx, node)
                            == "numpy.random.default_rng"
                        ):
                            yield node
                for field in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field, None)
                    if isinstance(inner, list) and inner and isinstance(
                        inner[0], ast.stmt
                    ):
                        yield from visit(inner)
                for handler in getattr(stmt, "handlers", []) or []:
                    yield from visit(handler.body)

        for node in visit(body):
            seed = _rng_seed_expr(node)
            if seed is None or isinstance(seed, ast.Constant):
                continue  # literal reuse is RPL004's finding
            if any(
                isinstance(sub, ast.Name) and sub.id in rebound
                for sub in ast.walk(seed)
            ):
                continue  # the expression's value varies in this scope
            key = ast.dump(seed)
            first = sites.get(key)
            if first is None:
                sites[key] = node
            elif node.lineno != first.lineno:
                yield self.finding(
                    ctx,
                    node,
                    "sibling RNG rebuilt from the identical seed "
                    f"expression `{ast.unparse(seed)}` (first "
                    f"constructed at line {first.lineno}); both "
                    "streams are bit-identical",
                )

    def visit_Module(
        self, ctx: FileContext, node: ast.Module
    ) -> Iterable[Finding]:
        yield from self._check_scope(ctx, node.body)

    def visit_FunctionDef(
        self, ctx: FileContext, node: ast.FunctionDef
    ) -> Iterable[Finding]:
        yield from self._check_scope(ctx, node.body)

    def visit_AsyncFunctionDef(
        self, ctx: FileContext, node: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        yield from self._check_scope(ctx, node.body)


#: Consumers for which set iteration order is observable.
ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "enumerate", "iter", "numpy.fromiter"}
)

#: Wrappers that normalize or never observe ordering.
ORDER_SAFE_CALLS = frozenset(
    {
        "sorted",
        "set",
        "frozenset",
        "len",
        "min",
        "max",
        "sum",
        "any",
        "all",
        "bool",
    }
)

#: Set methods returning sets.
SET_PRODUCING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_set_annotation(ann: ast.expr | None) -> bool:
    if ann is None:
        return False
    if isinstance(ann, ast.Name):
        return ann.id in {"set", "frozenset", "Set", "FrozenSet"}
    if isinstance(ann, ast.Attribute):
        return ann.attr in {"Set", "FrozenSet", "AbstractSet"}
    if isinstance(ann, ast.Subscript):
        return _is_set_annotation(ann.value)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[", 1)[0].strip()
        return head in {"set", "frozenset", "Set", "FrozenSet"}
    return False


class UnorderedIterationRule(GraphRule):
    """RPL009: set iteration order must never reach results."""

    id = "RPL009"
    name = "unordered-iteration"
    category = "determinism"
    description = (
        "Iterating a set (for-loop, comprehension, list()/tuple()/"
        "enumerate()/join() materialization) observes hash-salt and "
        "insertion order; in the deterministic packages any value "
        "derived from that order can silently differ between runs "
        "and between pool workers.  Set-ness is proven through "
        "literals, set() construction, set operators, annotations, "
        "and project-function return annotations."
    )
    fix_hint = (
        "Normalize first: iterate sorted(the_set) (the pattern "
        "labeling.neardup uses), or keep the collection a list if "
        "order matters."
    )

    def check_graph(
        self, contexts: list[FileContext], index: ProjectIndex
    ) -> Iterable[Finding]:
        for ctx in contexts:
            if not ctx.in_deterministic_scope():
                continue
            yield from self._check_file(ctx, index)

    # -- set-ness ---------------------------------------------------------

    def _returns_set(
        self, ctx: FileContext, index: ProjectIndex, call: ast.Call
    ) -> bool:
        chain = dotted_chain(call.func)
        if chain is None:
            return False
        table = index.table_for(ctx)
        resolved = (
            index.resolve_local(table, chain)
            if table is not None
            else index.resolve(chain)
        )
        if resolved is None:
            return False
        symbol = resolved.symbol
        if symbol.kind == "function" and not resolved.attr:
            return _is_set_annotation(symbol.node.returns)
        if symbol.kind == "class" and resolved.attr:
            method = symbol.methods.get(resolved.attr.split(".")[0])
            return method is not None and _is_set_annotation(
                method.returns
            )
        return False

    def _is_set_expr(
        self,
        ctx: FileContext,
        index: ProjectIndex,
        set_names: set[str],
        expr: ast.expr,
        depth: int = 0,
    ) -> bool:
        if depth > 4:
            return False
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in set_names
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(
                ctx, index, set_names, expr.left, depth + 1
            ) or self._is_set_expr(
                ctx, index, set_names, expr.right, depth + 1
            )
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in {
                "set",
                "frozenset",
            }:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in SET_PRODUCING_METHODS
                and self._is_set_expr(
                    ctx, index, set_names, func.value, depth + 1
                )
            ):
                return True
            return self._returns_set(ctx, index, expr)
        return False

    # -- scope scanning ---------------------------------------------------

    def _scope_set_names(
        self,
        ctx: FileContext,
        index: ProjectIndex,
        owner: ast.AST,
        body: list[ast.stmt],
    ) -> set[str]:
        names: set[str] = set()
        if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = owner.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _is_set_annotation(arg.annotation):
                    names.add(arg.arg)
        changed = True
        passes = 0
        while changed and passes < 3:
            changed = False
            passes += 1
            for stmt in self._own_statements(body):
                target: ast.expr | None = None
                value: ast.expr | None = None
                ann: ast.expr | None = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, ann = stmt.target, stmt.value, stmt.annotation
                if not isinstance(target, ast.Name):
                    continue
                is_set = _is_set_annotation(ann) or (
                    value is not None
                    and self._is_set_expr(ctx, index, names, value)
                )
                if is_set and target.id not in names:
                    names.add(target.id)
                    changed = True
        return names

    def _own_statements(
        self, body: list[ast.stmt]
    ) -> Iterator[ast.stmt]:
        for stmt in body:
            if isinstance(
                stmt,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            yield stmt
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if isinstance(inner, list) and inner and isinstance(
                    inner[0], ast.stmt
                ):
                    yield from self._own_statements(inner)
            for handler in getattr(stmt, "handlers", []) or []:
                yield from self._own_statements(handler.body)

    def _check_file(
        self, ctx: FileContext, index: ProjectIndex
    ) -> Iterable[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node

        def safely_wrapped(node: ast.AST) -> bool:
            """Whether an enclosing call normalizes the ordering."""
            current = parents.get(node)
            hops = 0
            while isinstance(current, ast.Call) and hops < 3:
                name = call_name(ctx, current) or ""
                tail = name.rsplit(".", 1)[-1]
                if tail in ORDER_SAFE_CALLS:
                    return True
                current = parents.get(current)
                hops += 1
            return False

        seen: set[int] = set()
        for owner, body in iter_scopes(ctx.tree):
            set_names = self._scope_set_names(ctx, index, owner, body)

            def is_set(expr: ast.expr) -> bool:
                return self._is_set_expr(ctx, index, set_names, expr)

            for stmt in self._own_statements(body):
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.For, ast.AsyncFor)):
                        if is_set(node.iter) and node.lineno not in seen:
                            seen.add(node.lineno)
                            yield self.finding(
                                ctx,
                                node,
                                "for-loop iterates a set "
                                f"(`{ast.unparse(node.iter)}`); "
                                "iteration order is salt- and "
                                "insertion-dependent",
                            )
                    elif isinstance(
                        node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                    ):
                        if safely_wrapped(node):
                            continue
                        for gen in node.generators:
                            if (
                                is_set(gen.iter)
                                and node.lineno not in seen
                            ):
                                seen.add(node.lineno)
                                yield self.finding(
                                    ctx,
                                    node,
                                    "comprehension iterates a set "
                                    f"(`{ast.unparse(gen.iter)}`) "
                                    "into an ordered result",
                                )
                    elif isinstance(node, ast.Call):
                        if safely_wrapped(node):
                            continue
                        name = call_name(ctx, node) or ""
                        tail = name.rsplit(".", 1)[-1]
                        sensitive = (
                            name in ORDER_SENSITIVE_CALLS
                            or tail in ORDER_SENSITIVE_CALLS
                            or (
                                isinstance(node.func, ast.Attribute)
                                and node.func.attr == "join"
                            )
                        )
                        if not sensitive or not node.args:
                            continue
                        if is_set(node.args[0]) and node.lineno not in seen:
                            seen.add(node.lineno)
                            if not tail and isinstance(
                                node.func, ast.Attribute
                            ):
                                tail = node.func.attr
                            yield self.finding(
                                ctx,
                                node,
                                f"`{tail}()` materializes a set "
                                f"(`{ast.unparse(node.args[0])}`) "
                                "in hash order",
                            )
