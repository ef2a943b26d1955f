"""SARIF schema shape and the CLI's SARIF output file."""

from __future__ import annotations

import json

from repro.devtools.lint import ALL_RULES, Finding, to_sarif
from repro.devtools.lint.cli import main as cli_main

from tests.devtools.conftest import FIXTURES

BAD = FIXTURES / "core" / "bad_determinism.py"

SAMPLE = [
    Finding(
        rule="RPL002",
        category="determinism",
        path="src/repro/core/x.py",
        line=10,
        col=4,
        message="wall-clock call `time.time()`",
        fix_hint="use the engine clock",
    ),
    Finding(
        rule="RPL310",
        category="suppression",
        path="scripts/y.py",
        line=3,
        col=0,
        message="stale pragma",
        severity="warning",
    ),
]


class TestSarifShape:
    def payload(self):
        return to_sarif(SAMPLE, ALL_RULES)

    def test_top_level_shape(self):
        doc = self.payload()
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_driver_catalog(self):
        driver = self.payload()["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids)  # catalog is in rule-id order
        assert {"RPL001", "RPL401", "RPL007", "RPL310"} <= set(ids)
        for rule in driver["rules"]:
            assert set(rule) == {
                "id",
                "name",
                "shortDescription",
                "defaultConfiguration",
                "help",
            }
            assert rule["defaultConfiguration"]["level"] in (
                "error",
                "warning",
            )

    def test_results_reference_catalog(self):
        run = self.payload()["runs"][0]
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert len(run["results"]) == len(SAMPLE)
        for result, finding in zip(run["results"], SAMPLE):
            assert ids[result["ruleIndex"]] == result["ruleId"]
            assert result["ruleId"] == finding.rule
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == finding.path
            assert location["region"]["startLine"] == finding.line
            assert location["region"]["startColumn"] == finding.col + 1

    def test_severity_maps_to_level(self):
        results = self.payload()["runs"][0]["results"]
        assert results[0]["level"] == "error"
        assert results[1]["level"] == "warning"

    def test_round_trips_through_json(self):
        assert json.loads(json.dumps(self.payload()))


class TestCliIntegration:
    def test_sarif_output_file(self, tmp_path, capsys):
        target = tmp_path / "out" / "lint.sarif"
        code = cli_main(
            [str(BAD), "--format", "sarif", "--output", str(target)]
        )
        assert code == 1  # findings exist; the report went to disk
        doc = json.loads(target.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]
        summary = capsys.readouterr().out
        assert "finding(s)" in summary
