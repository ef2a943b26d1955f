"""The lint driver: collect files, parse once, dispatch to rules.

Single-pass design: each file is read and parsed exactly once into a
:class:`FileContext`; every applicable :class:`FileRule` hook sees
every node of one ``ast.walk``; :class:`ProjectRule`\\ s then run over
the full context list, and :class:`GraphRule`\\ s share **one**
:class:`~repro.devtools.lint.symbols.ProjectIndex` built for the run —
adding dataflow rules does not add passes.  Keeping the whole tree
under the CI budget (<10s, enforced by ``--max-seconds``) is therefore
bounded by parse time plus one bounded graph traversal.

After the rules run, inline ``# repro-lint: disable=`` pragmas are
applied (and audited — stale or typo'd pragmas become RPL31x
findings), so :func:`lint_paths` returns the post-pragma view.
Pragmas are the one way to suppress a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .base import (
    FileContext,
    FileRule,
    ProjectRule,
    Rule,
    build_import_maps,
)
from .determinism import (
    NoBareSleepRule,
    NoBuiltinHashRule,
    NoStdlibRandomRule,
    NoWallClockRule,
    SeededRngRule,
    ThreadedSeedRule,
)
from .findings import Finding
from .hygiene import (
    MutableDefaultRule,
    NoPrintRule,
    SwallowedExceptionRule,
)
from .observability_rules import (
    ArtifactWriteRule,
    EventNameRule,
    ExperimentSpanRule,
    HealthRuleRule,
    InstrumentKindConflictRule,
    LedgerWriteRule,
    MetricNameRule,
    SpanLabelRule,
)
from .parallel_rules import (
    WorkerEventEmissionRule,
    WorkerGlobalMutationRule,
    WorkerTaskPicklableRule,
)
from .perf_rules import PerAccountLoopRule
from .schema_rules import KnownFeatureNameRule, SchemaShapeRule
from .seed_taint import (
    SeedTaintRule,
    SiblingSeedReuseRule,
    UnorderedIterationRule,
)
from .suppressions import (
    MissingReasonRule,
    UnknownSuppressedRule,
    UnusedSuppressionRule,
    apply_pragmas,
    collect_pragmas,
)
from .symbols import GraphRule, ProjectIndex

#: The full catalog, in rule-id order.
ALL_RULES: tuple[Rule, ...] = (
    NoStdlibRandomRule(),
    NoWallClockRule(),
    SeededRngRule(),
    ThreadedSeedRule(),
    NoBuiltinHashRule(),
    NoBareSleepRule(),
    SeedTaintRule(),
    SiblingSeedReuseRule(),
    UnorderedIterationRule(),
    SchemaShapeRule(),
    KnownFeatureNameRule(),
    SpanLabelRule(),
    MetricNameRule(),
    InstrumentKindConflictRule(),
    ExperimentSpanRule(),
    ArtifactWriteRule(),
    EventNameRule(),
    LedgerWriteRule(),
    HealthRuleRule(),
    MutableDefaultRule(),
    SwallowedExceptionRule(),
    NoPrintRule(),
    UnusedSuppressionRule(),
    UnknownSuppressedRule(),
    MissingReasonRule(),
    WorkerTaskPicklableRule(),
    WorkerGlobalMutationRule(),
    WorkerEventEmissionRule(),
    PerAccountLoopRule(),
)

#: Every catalog rule ID (pragma validation, CLI id validation).
KNOWN_RULE_IDS = frozenset(rule.id for rule in ALL_RULES)

PARSE_ERROR_RULE = "RPL000"

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Every ``*.py`` file under ``paths``, sorted, deduplicated."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            candidates: Iterable[Path] = [path]
        else:
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (set(p.parts) & _SKIP_DIRS)
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_context(path: Path, root: Path) -> FileContext | Finding:
    """Parse one file; a syntax error becomes an RPL000 finding."""
    source = path.read_text(encoding="utf-8")
    relpath = _relpath(path, root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_ERROR_RULE,
            category="parse",
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
            fix_hint="The file must parse before any invariant can "
            "be checked.",
        )
    ctx = FileContext(
        path=path, relpath=relpath, source=source, tree=tree
    )
    build_import_maps(ctx)
    ctx.pragmas = collect_pragmas(source, relpath)
    return ctx


class RuleSelectionError(ValueError):
    """Raised for a ``--select``/``--ignore`` id matching no rule."""


def validate_rule_ids(
    ids: Sequence[str] | None, known: Iterable[str] | None = None
) -> None:
    """Every id/prefix must match at least one catalog rule.

    Raises:
        RuleSelectionError: naming the first unmatched id, so a typo
            (``RPL40``, ``RLP205``) fails loudly instead of silently
            selecting nothing.
    """
    if not ids:
        return
    known_ids = set(known) if known is not None else set(KNOWN_RULE_IDS)
    for candidate in ids:
        if not any(rid.startswith(candidate) for rid in known_ids):
            raise RuleSelectionError(
                f"unknown rule id or prefix {candidate!r} "
                "(see --list-rules for the catalog)"
            )


def select_rules(
    rules: Sequence[Rule],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Rule]:
    """Filter the catalog by rule-id prefixes (``RPL0`` = family)."""
    chosen = list(rules)
    if select:
        chosen = [
            r for r in chosen if any(r.id.startswith(s) for s in select)
        ]
    if ignore:
        chosen = [
            r
            for r in chosen
            if not any(r.id.startswith(s) for s in ignore)
        ]
    return chosen


@dataclass
class LintResult:
    """Everything one lint run produced."""

    #: Findings still standing after inline pragmas (includes the
    #: RPL31x pragma-audit findings).
    findings: list[Finding]
    #: Findings an inline pragma suppressed.
    pragma_suppressed: list[Finding]
    n_files: int
    #: Every pragma seen, with per-rule usage marked.
    pragmas: list = field(default_factory=list)


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    root: str | Path | None = None,
) -> LintResult:
    """Lint ``paths`` with ``rules`` (default: the full catalog)."""
    rules = list(ALL_RULES) if rules is None else list(rules)
    root = Path(root) if root is not None else Path.cwd()
    file_rules = [r for r in rules if isinstance(r, FileRule)]
    graph_rules = [r for r in rules if isinstance(r, GraphRule)]
    project_rules = [
        r
        for r in rules
        if isinstance(r, ProjectRule) and not isinstance(r, GraphRule)
    ]
    pragma_rules = {
        r.id: r
        for r in rules
        if isinstance(
            r,
            (
                UnusedSuppressionRule,
                UnknownSuppressedRule,
                MissingReasonRule,
            ),
        )
    }

    findings: list[Finding] = []
    contexts: list[FileContext] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        loaded = load_context(path, root)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        contexts.append(loaded)

    for ctx in contexts:
        hooked: dict[str, list] = {}
        for rule in file_rules:
            if not rule.applies_to(ctx):
                continue
            for node_type, hook in rule.hooks().items():
                hooked.setdefault(node_type, []).append(hook)
        if not hooked:
            continue
        for node in ast.walk(ctx.tree):
            for hook in hooked.get(type(node).__name__, ()):
                findings.extend(hook(ctx, node))

    for rule in project_rules:
        findings.extend(rule.check_project(contexts))

    if graph_rules:
        index = ProjectIndex.build(contexts)
        for rule in graph_rules:
            findings.extend(rule.check_graph(contexts, index))

    pragmas = [p for ctx in contexts for p in ctx.pragmas]
    kept, suppressed = apply_pragmas(findings, pragmas)

    selected_ids = {r.id for r in rules}
    audit = pragma_rules.get("RPL311")
    if audit is not None:
        kept.extend(audit.check_pragmas(pragmas, set(KNOWN_RULE_IDS)))
    audit = pragma_rules.get("RPL312")
    if audit is not None:
        kept.extend(audit.check_pragmas(pragmas))
    audit = pragma_rules.get("RPL310")
    if audit is not None:
        kept.extend(audit.check_pragmas(pragmas, selected_ids))

    kept.sort(key=lambda f: f.sort_key)
    suppressed.sort(key=lambda f: f.sort_key)
    return LintResult(
        findings=kept,
        pragma_suppressed=suppressed,
        n_files=n_files,
        pragmas=pragmas,
    )


def run_lint(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    root: str | Path | None = None,
) -> tuple[list[Finding], int]:
    """Back-compat wrapper: ``(findings, n_files)`` of :func:`lint_paths`."""
    result = lint_paths(paths, rules=rules, root=root)
    return result.findings, result.n_files
