"""The repro-lint CLI: formats, selection, bad input, the budget."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from repro.devtools.lint.cli import main

from tests.devtools.conftest import FIXTURES, REPO_ROOT

BAD = FIXTURES / "core" / "bad_determinism.py"
GOOD = FIXTURES / "core" / "good_determinism.py"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_run_exits_zero(self):
        code, _ = run_cli(str(GOOD))
        assert code == 0

    def test_findings_exit_one(self):
        code, _ = run_cli(str(BAD))
        assert code == 1

    def test_missing_path_exits_two_and_names_it(self, capsys):
        # A mistyped path in a lint lane must not check nothing and
        # pass.
        missing = str(FIXTURES / "does" / "not" / "exist")
        code, out = run_cli(str(GOOD), missing)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert missing in err
        assert str(GOOD) not in err

    def test_empty_selection_exits_two(self):
        code, _ = run_cli(str(BAD), "--select", "NOPE")
        assert code == 2


class TestRuleIdValidation:
    def test_unknown_select_id_names_the_typo(self, capsys):
        code, _ = run_cli(str(GOOD), "--select", "RLP001")
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown rule id or prefix 'RLP001'" in err
        assert "--list-rules" in err

    def test_unknown_ignore_id_rejected(self, capsys):
        code, _ = run_cli(str(GOOD), "--ignore", "RPL99")
        assert code == 2
        assert "RPL99" in capsys.readouterr().err

    def test_valid_prefix_passes_validation(self):
        code, _ = run_cli(str(GOOD), "--select", "RPL0,RPL2")
        assert code == 0

    def test_typo_mixed_with_valid_ids_still_fails(self, capsys):
        code, _ = run_cli(str(GOOD), "--select", "RPL001,RPL40x")
        assert code == 2
        assert "RPL40x" in capsys.readouterr().err


class TestWallClockBudget:
    def test_over_budget_exits_one_even_when_clean(self, capsys):
        code, _ = run_cli(str(GOOD), "--max-seconds", "1e-9")
        assert code == 1
        err = capsys.readouterr().err
        assert "--max-seconds" in err and "budget" in err

    def test_generous_budget_keeps_clean_exit(self):
        code, _ = run_cli(str(GOOD), "--max-seconds", "60")
        assert code == 0

    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1", "fast"])
    def test_unusable_budget_rejected_when_parsed(self, budget, capsys):
        # `elapsed > nan` is always false: a NaN budget would never
        # trip, so it fails as a usage error before any file is read.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(str(GOOD), "--max-seconds", budget)
        assert exit_info.value.code == 2
        assert "--max-seconds" in capsys.readouterr().err


class TestJsonFormat:
    def test_payload_shape(self):
        code, out = run_cli(str(BAD), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["checked_files"] == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"RPL001", "RPL002", "RPL003", "RPL004"}
        first = payload["findings"][0]
        assert set(first) == {
            "rule",
            "category",
            "path",
            "line",
            "col",
            "message",
            "fix_hint",
            "severity",
        }

    def test_select_and_ignore_prefixes(self):
        _, out = run_cli(
            str(BAD), "--format", "json", "--select", "RPL001,RPL002"
        )
        rules = {
            f["rule"] for f in json.loads(out)["findings"]
        }
        assert rules == {"RPL001", "RPL002"}
        _, out = run_cli(
            str(BAD), "--format", "json", "--ignore", "RPL00"
        )
        assert json.loads(out)["findings"] == []


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else src
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.devtools.lint",
                str(GOOD),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["findings"] == []

    def test_list_rules_covers_all_families(self):
        code, out = run_cli("--list-rules")
        assert code == 0
        for family_member in ("RPL001", "RPL101", "RPL201", "RPL301"):
            assert family_member in out
