"""Inline ``# repro-lint: disable=...`` pragmas (RPL310-RPL312).

A pragma is the one way to suppress a finding.  It lives on the
offending line, travels with it through edits, and carries its
justification in the diff:

.. code-block:: python

    (results_dir / name).write_text(text)  # repro-lint: disable=RPL205 -- table render, not an artifact

    # repro-lint: disable=RPL303 -- progress line for interactive use
    print(f"{done}/{total}")

A trailing pragma suppresses matching findings on its own line; a
standalone comment line suppresses the next physical line.  Rule IDs
must be exact (``RPL205``) — prefixes are a query-language feature of
``--select``, not a suppression granularity.

Every pragma is audited, as warning-severity meta findings:

* **RPL310** — a pragma (with every named rule selected in this run)
  that suppressed nothing is dead weight: the violation was fixed but
  the excuse remained.
* **RPL311** — a pragma naming a rule ID that is not in the catalog
  suppresses nothing silently (usually a typo: ``RPL25``).
* **RPL312** — a pragma with no ``-- reason`` trailer; suppressions
  are only honest with a justification.

Pragmas are read from ``tokenize`` COMMENT tokens, never by regexing
raw lines, so pragma-shaped *strings* can't suppress anything.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .base import Rule
from .findings import Finding

PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass
class Pragma:
    """One parsed ``# repro-lint: disable=`` comment."""

    path: str
    #: Line the comment token sits on.
    line: int
    #: Line whose findings it suppresses.
    target: int
    rules: tuple[str, ...]
    reason: str = ""
    #: Rule IDs that actually suppressed a finding this run.
    used: set[str] = field(default_factory=set)


def collect_pragmas(source: str, relpath: str) -> list[Pragma]:
    """Every pragma in ``source``, with targets resolved.

    A comment with code before it on the line targets its own line; a
    standalone comment targets the next physical line.
    """
    pragmas: list[Pragma] = []
    lines = source.splitlines()
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError):
        return []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.match(token.string)
        if match is None:
            continue
        row, col = token.start
        prefix = lines[row - 1][:col] if row <= len(lines) else ""
        standalone = not prefix.strip()
        rules = tuple(
            part.strip()
            for part in match.group(1).split(",")
            if part.strip()
        )
        if not rules:
            continue
        pragmas.append(
            Pragma(
                path=relpath,
                line=row,
                target=row + 1 if standalone else row,
                rules=rules,
                reason=(match.group("reason") or "").strip(),
            )
        )
    return pragmas


def apply_pragmas(
    findings: Iterable[Finding], pragmas: Sequence[Pragma]
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into (kept, pragma_suppressed); mark usage."""
    by_site: dict[tuple[str, int], list[Pragma]] = {}
    for pragma in pragmas:
        by_site.setdefault((pragma.path, pragma.target), []).append(
            pragma
        )
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        hit = None
        for pragma in by_site.get((finding.path, finding.line), ()):
            if finding.rule in pragma.rules:
                hit = pragma
                break
        if hit is None:
            kept.append(finding)
        else:
            hit.used.add(finding.rule)
            suppressed.append(finding)
    return kept, suppressed


class _PragmaRule(Rule):
    """Meta rules report on pragmas, not AST nodes."""

    severity = "warning"
    category = "suppression"

    def pragma_finding(self, pragma: Pragma, message: str) -> Finding:
        return Finding(
            rule=self.id,
            category=self.category,
            path=pragma.path,
            line=pragma.line,
            col=0,
            message=message,
            fix_hint=self.fix_hint,
            severity=self.severity,
        )


class UnusedSuppressionRule(_PragmaRule):
    """RPL310: a pragma that suppressed nothing is stale."""

    id = "RPL310"
    name = "unused-suppression"
    description = (
        "An inline disable pragma whose rule fired nothing on its "
        "target line (with that rule enabled in this run) is stale: "
        "the violation it excused was fixed or moved, and the pragma "
        "now silently licenses a future regression."
    )
    fix_hint = "Delete the pragma (or the rule ID that no longer fires)."

    def check_pragmas(
        self, pragmas: Sequence[Pragma], selected_ids: set[str]
    ) -> Iterable[Finding]:
        for pragma in pragmas:
            stale = [
                rule_id
                for rule_id in pragma.rules
                if rule_id in selected_ids
                and rule_id not in pragma.used
            ]
            if stale:
                yield self.pragma_finding(
                    pragma,
                    "suppression of "
                    f"{', '.join(sorted(stale))} matched no finding "
                    f"on line {pragma.target}",
                )


class UnknownSuppressedRule(_PragmaRule):
    """RPL311: pragmas must name catalog rule IDs exactly."""

    id = "RPL311"
    name = "unknown-suppressed-rule"
    description = (
        "A disable pragma naming a rule ID outside the catalog "
        "suppresses nothing, silently — almost always a typo or a "
        "prefix where an exact ID is required."
    )
    fix_hint = (
        "Use an exact rule ID from --list-rules; pragmas do not "
        "accept prefixes."
    )

    def check_pragmas(
        self, pragmas: Sequence[Pragma], known_ids: set[str]
    ) -> Iterable[Finding]:
        for pragma in pragmas:
            unknown = [r for r in pragma.rules if r not in known_ids]
            if unknown:
                yield self.pragma_finding(
                    pragma,
                    f"unknown rule ID(s) {', '.join(sorted(unknown))} "
                    "in disable pragma",
                )


class MissingReasonRule(_PragmaRule):
    """RPL312: every suppression carries a reason."""

    id = "RPL312"
    name = "suppression-without-reason"
    description = (
        "A disable pragma with no `-- reason` trailer; a suppression "
        "records a justified exception, never a backlog."
    )
    fix_hint = (
        "Append ` -- <why this exception is sound>` to the pragma."
    )

    def check_pragmas(
        self, pragmas: Sequence[Pragma]
    ) -> Iterable[Finding]:
        for pragma in pragmas:
            if not pragma.reason:
                yield self.pragma_finding(
                    pragma,
                    "disable pragma for "
                    f"{', '.join(pragma.rules)} has no -- reason",
                )
