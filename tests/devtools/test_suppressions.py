"""Inline pragmas: parsing, suppression, and the RPL31x audits."""

from __future__ import annotations

from repro.devtools.lint import collect_pragmas, lint_paths

from tests.devtools.conftest import FIXTURES, rule_lines

WORLD = FIXTURES / "pragmas"


def lint_world():
    return lint_paths([WORLD], root=FIXTURES)


class TestCollectPragmas:
    def test_trailing_pragma_targets_own_line(self):
        [pragma] = collect_pragmas(
            "x = 1  # repro-lint: disable=RPL005 -- why\n", "f.py"
        )
        assert pragma.target == pragma.line == 1
        assert pragma.rules == ("RPL005",)
        assert pragma.reason == "why"

    def test_standalone_pragma_targets_next_line(self):
        source = "# repro-lint: disable=RPL001,RPL005\nimport x\n"
        [pragma] = collect_pragmas(source, "f.py")
        assert pragma.line == 1
        assert pragma.target == 2
        assert pragma.rules == ("RPL001", "RPL005")
        assert pragma.reason == ""

    def test_string_literals_are_not_pragmas(self):
        source = 's = "# repro-lint: disable=RPL005"\n'
        assert collect_pragmas(source, "f.py") == []

    def test_unrelated_comments_ignored(self):
        assert collect_pragmas("x = 1  # plain comment\n", "f.py") == []


class TestSuppression:
    def test_suppressed_findings_leave_active_set(self):
        result = lint_world()
        active_rpl005 = rule_lines(
            result.findings, "RPL005", "pragma_cases.py"
        )
        # Only the RPL999-mispragma'd hash() stays active.
        assert active_rpl005 == [18]
        suppressed = {
            (f.rule, f.line) for f in result.pragma_suppressed
        }
        assert suppressed == {
            ("RPL001", 9),
            ("RPL005", 12),
            ("RPL005", 14),
        }

    def test_lint_paths_returns_post_pragma_findings(self):
        # Pragma application happens inside lint_paths, so every
        # caller (the CLI, run_lint) sees only post-pragma findings.
        result = lint_world()
        active_keys = {(f.rule, f.line) for f in result.findings}
        assert ("RPL001", 9) not in active_keys


class TestAudits:
    def test_unused_pragma_is_rpl310(self):
        result = lint_world()
        assert rule_lines(
            result.findings, "RPL310", "pragma_cases.py"
        ) == [16]

    def test_unknown_id_is_rpl311(self):
        result = lint_world()
        assert rule_lines(
            result.findings, "RPL311", "pragma_cases.py"
        ) == [18]

    def test_missing_reason_is_rpl312(self):
        result = lint_world()
        assert rule_lines(
            result.findings, "RPL312", "pragma_cases.py"
        ) == [14]

    def test_audits_are_warning_severity(self):
        result = lint_world()
        audit = [
            f
            for f in result.findings
            if f.rule in {"RPL310", "RPL311", "RPL312"}
        ]
        assert audit and all(f.severity == "warning" for f in audit)

    def test_error_rules_are_error_severity(self):
        result = lint_world()
        [rpl005] = [
            f for f in result.findings if f.rule == "RPL005"
        ]
        assert rpl005.severity == "error"
