"""Observability-contract rules (RPL201-RPL207).

PR 1's run reports are only diffable across PRs if the span/metric
namespace stays stable: every label fits the dotted taxonomy DESIGN.md
documents (``engine. / network. / label. / ml. / experiment.``), one
name never denotes two instrument kinds, the experiment phases all
open spans, and artifacts reach ``results/`` through ``RunReport``
alone.  These rules make that taxonomy mechanical instead of
documentation-only.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ...obs.alerts import SEVERITIES
from ...obs.taxonomy import (
    NAMESPACE_PREFIX_RE,
    NAMESPACES,
    TAXONOMY_RE,
)
from .base import (
    FileContext,
    FileRule,
    ProjectRule,
    call_name,
    joined_str_prefix,
    literal_str_arg,
    walk_with_trace_cover,
)
from .findings import Finding

# NAMESPACES / TAXONOMY_RE / NAMESPACE_PREFIX_RE now live in
# ``repro.obs.taxonomy`` (single source of truth shared with the
# runtime HealthRule validation) and are re-exported from here for the
# rule modules and tests that historically imported them.

#: MetricsRegistry get-or-create methods, i.e. instrument kinds.
INSTRUMENT_KINDS = ("counter", "gauge", "histogram")

#: Experiment methods that advance simulated time or platform state;
#: calling one outside a span leaves a hole in the phase tree.
MUTATOR_ATTRS = frozenset(
    {
        "run_hour",
        "run_hours",
        "deploy",
        "shutdown",
        "prepare_hour",
        "finish_hour",
    }
)


#: Span-opening callables: ``profile(...)`` is ``trace(...)`` plus CPU
#: accounting, so every span rule treats the two identically.
SPAN_OPENERS = frozenset({"trace", "profile"})


def _is_trace_call(expr: ast.expr) -> bool:
    """Whether ``expr`` opens a span (``trace(...)``/``profile(...)``)."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    return (
        isinstance(func, ast.Name) and func.id in SPAN_OPENERS
    ) or (
        isinstance(func, ast.Attribute) and func.attr in SPAN_OPENERS
    )


def _label_findings(
    rule: FileRule,
    ctx: FileContext,
    node: ast.Call,
    kind: str,
) -> Iterable[Finding]:
    """Taxonomy findings for the first argument of a labeled call."""
    if not node.args:
        return
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        if not TAXONOMY_RE.match(arg.value):
            yield rule.finding(
                ctx,
                node,
                f"{kind} name {arg.value!r} does not match the "
                "`<namespace>.<dotted_snake>` taxonomy "
                f"({'/'.join(NAMESPACES)})",
            )
    elif isinstance(arg, ast.JoinedStr):
        prefix = joined_str_prefix(arg)
        if not NAMESPACE_PREFIX_RE.match(prefix):
            yield rule.finding(
                ctx,
                node,
                f"{kind} f-string label must start with a literal "
                f"namespace prefix ({'/'.join(NAMESPACES)} + '.'), "
                f"got static prefix {prefix!r}",
            )


class SpanLabelRule(FileRule):
    """RPL201: every span label fits the taxonomy."""

    id = "RPL201"
    name = "span-label-taxonomy"
    category = "observability"
    description = (
        "trace(\"...\")/profile(\"...\") labels must be dotted "
        "lower_snake names under one of the documented namespaces; "
        "f-string labels must start with a literal namespace prefix."
    )
    fix_hint = (
        "Pick the layer's namespace from DESIGN.md's span-taxonomy "
        "table (engine/network/label/ml/experiment) and keep segments "
        "lower_snake."
    )

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        if _is_trace_call(node):
            yield from _label_findings(self, ctx, node, "span")


class MetricNameRule(FileRule):
    """RPL202: every registered metric name fits the taxonomy."""

    id = "RPL202"
    name = "metric-name-taxonomy"
    category = "observability"
    description = (
        "counter/gauge/histogram registrations must use dotted "
        "lower_snake names under a documented namespace, same "
        "taxonomy as spans."
    )
    fix_hint = (
        "Name instruments `<namespace>.<noun>` (e.g. "
        "network.captures); derive dynamic suffixes with an f-string "
        "whose literal prefix carries the namespace."
    )

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in INSTRUMENT_KINDS
        ):
            yield from _label_findings(self, ctx, node, func.attr)


class InstrumentKindConflictRule(ProjectRule):
    """RPL203: one metric name, one instrument kind, project-wide."""

    id = "RPL203"
    name = "instrument-kind-conflict"
    category = "observability"
    description = (
        "The same literal metric name must not be registered as two "
        "different instrument kinds anywhere in the tree; the "
        "registry would hold two instruments whose snapshots collide "
        "in dashboards and report diffs."
    )
    fix_hint = (
        "Rename one of the instruments (e.g. `engine.spam_rate` gauge "
        "vs `engine.spams` counter) so each dotted name maps to "
        "exactly one kind."
    )

    def check_project(
        self, contexts: list[FileContext]
    ) -> Iterable[Finding]:
        seen: dict[str, tuple[str, FileContext, ast.Call]] = {}
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    not isinstance(func, ast.Attribute)
                    or func.attr not in INSTRUMENT_KINDS
                ):
                    continue
                literal = literal_str_arg(node)
                if literal is None:
                    continue
                first = seen.setdefault(literal, (func.attr, ctx, node))
                if first[0] != func.attr:
                    yield self.finding(
                        ctx,
                        node,
                        f"metric {literal!r} registered as "
                        f"{func.attr} here but as {first[0]} at "
                        f"{first[1].relpath}:{first[2].lineno}",
                    )


class ExperimentSpanRule(FileRule):
    """RPL204: experiment mutators must run inside experiment spans."""

    id = "RPL204"
    name = "experiment-span-coverage"
    category = "observability"
    description = (
        "Every public method of an *Experiment class that advances "
        "the platform (run_hour(s), deploy, shutdown, prepare/"
        "finish_hour) must do so inside `with trace(\"experiment."
        "...\")`, so the phase tree accounts for all simulated time."
    )
    fix_hint = (
        "Wrap the method body (or at least the mutating calls) in "
        "`with trace(\"experiment.<method>\")` and set reconciliation "
        "attributes on the span."
    )

    def visit_ClassDef(
        self, ctx: FileContext, node: ast.ClassDef
    ) -> Iterable[Finding]:
        if not node.name.endswith("Experiment"):
            return
        for item in node.body:
            if not isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if item.name.startswith("_"):
                continue
            uncovered = self._uncovered_mutators(item)
            if uncovered:
                first = uncovered[0]
                yield self.finding(
                    ctx,
                    item,
                    f"public method {item.name}() calls "
                    f".{first.func.attr}() (line {first.lineno}) "
                    "outside any `with trace(\"experiment.*\")` block",
                )

    @staticmethod
    def _uncovered_mutators(
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.Call]:
        def is_experiment_trace(expr: ast.expr) -> bool:
            if not _is_trace_call(expr):
                return False
            arg = expr.args[0] if expr.args else None
            if isinstance(arg, ast.Constant) and isinstance(
                arg.value, str
            ):
                return arg.value.startswith("experiment.")
            if isinstance(arg, ast.JoinedStr):
                return joined_str_prefix(arg).startswith("experiment.")
            return False

        uncovered = []
        for child, covered in walk_with_trace_cover(
            method, False, is_experiment_trace
        ):
            if (
                not covered
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATOR_ATTRS
            ):
                uncovered.append(child)
        return uncovered


class ArtifactWriteRule(FileRule):
    """RPL205: library code must not write artifacts directly."""

    id = "RPL205"
    name = "artifact-write-bypass"
    category = "observability"
    description = (
        "Direct file writes (open(..., 'w'), Path.write_text/"
        "write_bytes, json.dump) are forbidden outside RunReport.save: "
        "artifacts that bypass RunReport are invisible to report "
        "diffing and smoke reconciliation."
    )
    fix_hint = (
        "Return data to the caller or export through "
        "RunReport.save()/export_report(); deliberate exceptions "
        "(e.g. a benchmark table writer) belong in lint-baseline.json "
        "with a justification."
    )

    #: Sanctioned artifact writers inside the observability layer:
    #: RunReport.save, the event JSONL sink, RunLedger.append, and the
    #: dashboard render.
    SANCTIONED = (
        ("obs", "report.py"),
        ("obs", "events.py"),
        ("obs", "ledger.py"),
        ("obs", "dashboard.py"),
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # The obs serializers are the sanctioned writers; CLI entry
        # points write wherever the user pointed them.
        if ctx.parts[-2:] in self.SANCTIONED:
            return False
        return ctx.parts[-1] not in ("cli.py", "__main__.py")

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            yield self.finding(
                ctx,
                node,
                f"direct artifact write via .{func.attr}()",
            )
            return
        resolved = call_name(ctx, node)
        if resolved == "json.dump":
            yield self.finding(
                ctx, node, "direct artifact write via json.dump()"
            )
            return
        is_open = resolved == "open" or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if is_open and self._open_mode_writes(node):
            yield self.finding(
                ctx, node, "open(..., mode with 'w'/'a'/'x')"
            )

    @staticmethod
    def _open_mode_writes(node: ast.Call) -> bool:
        """Whether an ``open``-ish call's mode argument writes."""
        mode: ast.expr | None = None
        if len(node.args) > 1:
            mode = node.args[1]
        elif node.args or isinstance(node.func, ast.Attribute):
            # Path("x").open("w") passes mode first; open(p) defaults
            # to read for both forms.
            if isinstance(node.func, ast.Attribute) and node.args:
                mode = node.args[0]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(ch in mode.value for ch in "wax")
        return False


class LedgerWriteRule(FileRule):
    """RPL207: ledger files are written via the RunLedger API only."""

    id = "RPL207"
    name = "ledger-write-bypass"
    category = "observability"
    description = (
        "Writes targeting results/ledger/ must go through "
        "RunLedger.append: the ledger is an append-only JSONL log "
        "whose schema marker, canonical serialization, and "
        "crash-tolerant line discipline are what make trajectories "
        "diffable — a raw open()/write_text/json.dump bypass can "
        "corrupt every downstream trend query."
    )
    fix_hint = (
        "Build a RunRecord (from_report) and call "
        "RunLedger.append(record, timestamp=...); read sides are fine "
        "(RunLedger.load already tolerates foreign lines by skipping "
        "them)."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        # The RunLedger implementation itself is the sanctioned writer.
        return ctx.parts[-2:] != ("obs", "ledger.py")

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        writes = False
        how = ""
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            writes = True
            how = f".{func.attr}()"
        elif call_name(ctx, node) == "json.dump":
            writes = True
            how = "json.dump()"
        else:
            is_open = call_name(ctx, node) == "open" or (
                isinstance(func, ast.Attribute) and func.attr == "open"
            )
            if is_open and ArtifactWriteRule._open_mode_writes(node):
                writes = True
                how = "open(..., write mode)"
        if writes and self._targets_ledger(node):
            yield self.finding(
                ctx,
                node,
                f"write under results/ledger/ via {how} bypasses "
                "the RunLedger API",
            )

    @staticmethod
    def _targets_ledger(node: ast.Call) -> bool:
        """Whether any literal in the call mentions the ledger dir."""
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and "results/ledger" in child.value
            ):
                return True
        return False


class EventNameRule(FileRule):
    """RPL206: every emitted event name fits the taxonomy."""

    id = "RPL206"
    name = "event-name-taxonomy"
    category = "observability"
    description = (
        "Event names passed to emit(...) (the repro.obs event-stream "
        "API) must be dotted lower_snake names under a documented "
        "namespace — the same taxonomy as spans and metrics — so the "
        "live stream, the phase tree, and the metrics snapshot stay "
        "mutually joinable."
    )
    fix_hint = (
        "Name events `<namespace>.<noun>` per the DESIGN.md event "
        "taxonomy (e.g. engine.hour_completed, network.switch, "
        "label.stage, ml.cv_fold); derive dynamic suffixes with an "
        "f-string whose literal prefix carries the namespace."
    )

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        is_emit = (
            isinstance(func, ast.Name) and func.id == "emit"
        ) or (isinstance(func, ast.Attribute) and func.attr == "emit")
        if is_emit:
            yield from _label_findings(self, ctx, node, "event")


def _is_emit_call(node: ast.Call) -> bool:
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "emit") or (
        isinstance(func, ast.Attribute) and func.attr == "emit"
    )


class HealthRuleRule(FileRule):
    """RPL208: health rules and alert events honor the alert contract."""

    id = "RPL208"
    name = "health-rule-contract"
    category = "observability"
    description = (
        "HealthRule declarations must carry a taxonomy-conformant "
        "dotted name and a literal severity from "
        "info/warn/critical, and every emitted `alert.*` event must "
        "declare a severity= attribute from the same set — the "
        "incident log, the dashboard's incidents panel, and the "
        "LiveMonitor alert lines all key off those two fields."
    )
    fix_hint = (
        "Name rules `<namespace>.<condition>` (e.g. "
        "stream.reconnect_storm), pass severity='info'|'warn'|"
        "'critical' literally, and stamp severity=... on every "
        "emit(\"alert.*\", ...) call."
    )

    def visit_Call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        is_ctor = (
            isinstance(func, ast.Name) and func.id == "HealthRule"
        ) or (
            isinstance(func, ast.Attribute)
            and func.attr == "HealthRule"
        )
        if is_ctor:
            yield from self._check_rule_ctor(ctx, node)
        elif _is_emit_call(node):
            literal = literal_str_arg(node)
            if literal is not None and literal.startswith("alert."):
                if not TAXONOMY_RE.match(literal):
                    yield self.finding(
                        ctx,
                        node,
                        f"alert event name {literal!r} does not "
                        "match the `<namespace>.<dotted_snake>` "
                        "taxonomy",
                    )
                yield from self._check_severity(
                    ctx, node, f"alert event {literal!r}"
                )

    def _check_rule_ctor(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterable[Finding]:
        name_expr = node.args[0] if node.args else None
        severity_expr = node.args[1] if len(node.args) > 1 else None
        for kw in node.keywords:
            if kw.arg == "name":
                name_expr = kw.value
            elif kw.arg == "severity":
                severity_expr = kw.value
        if isinstance(name_expr, ast.Constant) and isinstance(
            name_expr.value, str
        ):
            if not TAXONOMY_RE.match(name_expr.value):
                yield self.finding(
                    ctx,
                    node,
                    f"health rule name {name_expr.value!r} does not "
                    "match the `<namespace>.<dotted_snake>` taxonomy "
                    f"({'/'.join(NAMESPACES)})",
                )
        elif isinstance(name_expr, ast.JoinedStr):
            prefix = joined_str_prefix(name_expr)
            if not NAMESPACE_PREFIX_RE.match(prefix):
                yield self.finding(
                    ctx,
                    node,
                    "health rule f-string name must start with a "
                    "literal namespace prefix, got static prefix "
                    f"{prefix!r}",
                )
        if severity_expr is None:
            if not any(kw.arg is None for kw in node.keywords):
                yield self.finding(
                    ctx,
                    node,
                    "HealthRule declares no severity "
                    f"(one of {'/'.join(SEVERITIES)})",
                )
        elif isinstance(severity_expr, ast.Constant) and isinstance(
            severity_expr.value, str
        ):
            if severity_expr.value not in SEVERITIES:
                yield self.finding(
                    ctx,
                    node,
                    f"health rule severity {severity_expr.value!r} "
                    f"is not one of {'/'.join(SEVERITIES)}",
                )

    def _check_severity(
        self, ctx: FileContext, node: ast.Call, what: str
    ) -> Iterable[Finding]:
        severity_expr: ast.expr | None = None
        has_splat = False
        for kw in node.keywords:
            if kw.arg == "severity":
                severity_expr = kw.value
            elif kw.arg is None:
                has_splat = True
        if severity_expr is None:
            if not has_splat:
                yield self.finding(
                    ctx,
                    node,
                    f"{what} declares no severity= attribute "
                    f"(one of {'/'.join(SEVERITIES)})",
                )
        elif isinstance(severity_expr, ast.Constant) and isinstance(
            severity_expr.value, str
        ):
            if severity_expr.value not in SEVERITIES:
                yield self.finding(
                    ctx,
                    node,
                    f"{what} severity {severity_expr.value!r} is "
                    f"not one of {'/'.join(SEVERITIES)}",
                )
