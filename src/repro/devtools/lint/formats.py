"""The CI-facing output format: SARIF 2.1.0.

SARIF is the interchange format GitHub code scanning (and most SARIF
viewers) ingest: one ``run`` with a ``tool.driver`` carrying the rule
catalog and a flat ``results`` list pointing back into it by
``ruleIndex``.  Only the schema subset those consumers actually read
is emitted — no optional noise.  CI uploads the lint lane's
``results/lint.sarif``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .base import Rule
from .findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-lint"

#: Finding severity -> SARIF result/notification level.
_LEVELS = {"error": "error", "warning": "warning"}


def _level(severity: str) -> str:
    return _LEVELS.get(severity, "error")


def to_sarif(
    findings: Sequence[Finding],
    rules: Iterable[Rule],
    tool_version: str = "2.0",
) -> dict:
    """The findings as a SARIF 2.1.0 log (one run).

    Every finding's rule appears in the driver catalog; findings from
    rules outside ``rules`` (the parse pseudo-rule RPL000, suppression
    audits) get catalog stubs so ``ruleIndex`` always resolves.
    """
    catalog: list[dict] = []
    index_of: dict[str, int] = {}
    for rule in rules:
        index_of[rule.id] = len(catalog)
        catalog.append(
            {
                "id": rule.id,
                "name": rule.name,
                "shortDescription": {"text": rule.description},
                "defaultConfiguration": {
                    "level": _level(rule.severity)
                },
                "help": {"text": rule.fix_hint},
            }
        )
    for finding in findings:
        if finding.rule not in index_of:
            index_of[finding.rule] = len(catalog)
            catalog.append(
                {
                    "id": finding.rule,
                    "name": finding.category,
                    "shortDescription": {"text": finding.category},
                    "defaultConfiguration": {
                        "level": _level(finding.severity)
                    },
                    "help": {"text": finding.fix_hint},
                }
            )

    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": index_of[finding.rule],
            "level": _level(finding.severity),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]

    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": tool_version,
                        "informationUri": (
                            "https://example.invalid/repro-lint"
                        ),
                        "rules": catalog,
                    }
                },
                "results": results,
            }
        ],
    }

