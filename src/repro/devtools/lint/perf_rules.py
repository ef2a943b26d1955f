"""Performance rules (RPL501): keep the hot loops columnar.

The columnar data plane moved per-account state into
struct-of-arrays columns precisely so the engine's hour loop and the
feature extractors never have to touch accounts one object at a time.
A ``for`` loop (or comprehension) over the whole account store inside
one of those hot modules quietly reintroduces the O(N-accounts)
Python-level iteration the refactor removed — at a million accounts
that is the difference between milliseconds and minutes per hour.

* **RPL501** — hot engine/extractor modules must not iterate the
  account store object-by-object.  Keyed lookups (a row through
  ``index_of[user_id]``) stay fine: the rule fires only on iteration
  (``for account in pop.accounts.values(): ...``), where a vectorized
  sweep over ``population.cols`` columns is the intended shape.
  Init-time or otherwise deliberately object-wise loops carry a
  ``# repro-lint: disable=RPL501 -- reason`` pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .base import FileContext, FileRule
from .findings import Finding

#: Module basenames whose loops run every simulated hour (or per
#: capture) — the paths the columnar refactor exists for.
HOT_MODULES = frozenset(
    {
        "engine.py",
        "sharded.py",
        "columnar.py",
        "extractor.py",
        "selection.py",
    }
)

#: Attribute/variable names that denote the whole account store.
_STORE_NAMES = frozenset({"accounts", "account_kind"})

_VIEW_METHODS = frozenset({"values", "items", "keys"})


def _store_segment(expr: ast.expr) -> str | None:
    """The account-store segment an iterable expression walks, if any.

    Matches ``pop.accounts``, ``population.accounts.values()``,
    ``truth.account_kind.items()`` and bare ``accounts`` — any dotted
    chain containing a store name, optionally wrapped in a dict-view
    call.
    """
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _VIEW_METHODS
        and not expr.args
    ):
        expr = expr.func.value
    node = expr
    while isinstance(node, ast.Attribute):
        if node.attr in _STORE_NAMES:
            return node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id in _STORE_NAMES:
        return node.id
    return None


class PerAccountLoopRule(FileRule):
    """RPL501: no object-by-object account iteration in hot modules."""

    id = "RPL501"
    name = "per-account-python-loop"
    category = "performance"
    description = (
        "Hot engine/extractor modules must not iterate the account "
        "store one object at a time; the columnar arrays exist so "
        "population-scale sweeps stay vectorized."
    )
    fix_hint = (
        "Sweep the population's columnar arrays (numpy) instead of "
        "looping over accounts one at a time; reach a single account "
        "as its row, index_of[user_id], and read that row of "
        "cols.column(name).  A deliberately object-wise loop (e.g. "
        "init-time, runs once) takes a "
        "`# repro-lint: disable=RPL501 -- reason` pragma."
    )
    severity = "warning"

    def applies_to(self, ctx: FileContext) -> bool:
        return (
            ctx.parts[-1] in HOT_MODULES
            and ctx.in_deterministic_scope()
        )

    def _check_iter(
        self, ctx: FileContext, owner: ast.AST, iterable: ast.expr
    ) -> Iterable[Finding]:
        segment = _store_segment(iterable)
        if segment is not None:
            yield self.finding(
                ctx,
                owner,
                f"per-account Python loop over `{segment}` in a hot "
                "module; iterate the columnar arrays instead",
            )

    def visit_For(
        self, ctx: FileContext, node: ast.For
    ) -> Iterable[Finding]:
        yield from self._check_iter(ctx, node, node.iter)

    def _visit_comp(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterable[Finding]:
        for gen in node.generators:
            yield from self._check_iter(ctx, node, gen.iter)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp
