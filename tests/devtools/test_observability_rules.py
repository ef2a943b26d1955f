"""RPL201-RPL207: observability-contract rules against fixtures."""

from __future__ import annotations

from repro.devtools.lint import TAXONOMY_RE, run_lint

from tests.devtools.conftest import FIXTURES, rule_lines

OBS = FIXTURES / "obs_world" / "monitor_stats.py"
EVENTS = FIXTURES / "obs_world" / "event_emitters.py"
WRITER = FIXTURES / "repro" / "report_writer.py"
CLEAN = FIXTURES / "repro" / "clean_library.py"
LEDGER = FIXTURES / "obs" / "bad_ledger_write.py"


def lint(*paths):
    findings, _ = run_lint(list(paths), root=FIXTURES)
    return findings


class TestSpanAndMetricTaxonomy:
    def test_malformed_span_labels_with_lines(self):
        findings = lint(OBS)
        assert rule_lines(findings, "RPL201", "monitor_stats.py") == [
            9,
            11,
            13,
        ]

    def test_metric_name_off_taxonomy(self):
        findings = lint(OBS)
        assert rule_lines(findings, "RPL202", "monitor_stats.py") == [
            17
        ]

    def test_kind_conflict_is_project_wide(self):
        findings = lint(OBS)
        (conflict,) = [f for f in findings if f.rule == "RPL203"]
        assert conflict.line == 19
        assert "engine.flips" in conflict.message
        assert "counter" in conflict.message

    def test_taxonomy_regex_accepts_the_documented_namespaces(self):
        for name in (
            "engine.spam_rate",
            "network.captures.promoted",
            "label.minhash",
            "ml.cv_fold_seconds",
            "experiment.run_plan",
            "pge.captures",
            "pge.garner.followers_count",
            "ledger.appended",
            "dashboard.rendered",
        ):
            assert TAXONOMY_RE.match(name), name
        for name in ("labeling.minhash", "engine", "ml.Fit", "x.y"):
            assert not TAXONOMY_RE.match(name), name


class TestExperimentSpanCoverage:
    def test_unwrapped_mutator_flagged_once_per_method(self):
        findings = lint(OBS)
        flagged = [f for f in findings if f.rule == "RPL204"]
        assert [f.line for f in flagged] == [24]
        assert "advance" in flagged[0].message
        assert "run_hours" in flagged[0].message

    def test_covered_and_private_methods_pass(self):
        messages = [
            f.message for f in lint(OBS) if f.rule == "RPL204"
        ]
        assert not any("covered" in m for m in messages)
        assert not any("_internal" in m for m in messages)


class TestEventNameTaxonomy:
    def test_off_taxonomy_emits_flagged_with_lines(self):
        findings = lint(EVENTS)
        assert rule_lines(findings, "RPL206", "event_emitters.py") == [
            10,
            11,
            12,
        ]

    def test_messages_name_the_event_kind(self):
        flagged = [f for f in lint(EVENTS) if f.rule == "RPL206"]
        assert all(f.message.startswith("event") for f in flagged)
        assert "hour.completed" in flagged[0].message

    def test_well_formed_emits_pass(self):
        findings = [f for f in lint(EVENTS) if f.rule == "RPL206"]
        assert all(f.line in (10, 11, 12) for f in findings)

    def test_emit_rule_does_not_double_report_spans(self):
        # The span fixture has no emit() calls: RPL206 stays silent.
        assert [f for f in lint(OBS) if f.rule == "RPL206"] == []


class TestArtifactWrites:
    def test_bypass_writes_flagged_with_lines(self):
        findings = lint(WRITER)
        assert rule_lines(findings, "RPL205", "report_writer.py") == [
            12,
            13,
            16,
        ]

    def test_read_open_passes(self):
        assert [f for f in lint(CLEAN) if f.rule == "RPL205"] == []

    def test_bench_module_is_no_longer_a_sanctioned_writer(
        self, tmp_path
    ):
        # Only the named obs serializers are exempt: a bench module or
        # the event stream gets flagged like any library code, the
        # ledger writer not.
        source = (
            "from pathlib import Path\n"
            "\n"
            "def save(path):\n"
            "    Path(path).write_text('{}')\n"
        )
        for name in ("bench.py", "events.py", "ledger.py"):
            module = tmp_path / "repro" / "obs" / name
            module.parent.mkdir(parents=True, exist_ok=True)
            module.write_text(source)
        findings, _ = run_lint([tmp_path / "repro"], root=tmp_path)
        assert rule_lines(findings, "RPL205", "bench.py") == [4]
        assert rule_lines(findings, "RPL205", "events.py") == [4]
        assert rule_lines(findings, "RPL205", "ledger.py") == []


class TestLedgerWrites:
    def test_raw_ledger_writes_flagged_with_lines(self):
        findings = lint(LEDGER)
        assert rule_lines(
            findings, "RPL207", "bad_ledger_write.py"
        ) == [7, 12, 16, 21]

    def test_reads_and_api_appends_pass(self):
        flagged = [f for f in lint(LEDGER) if f.rule == "RPL207"]
        # The read-mode open (line 25), RunLedger.append call (line
        # 30), and the non-ledger artifact write (line 31) all pass.
        assert all(f.line not in (25, 30, 31) for f in flagged)

    def test_non_ledger_writers_untouched(self):
        assert [f for f in lint(WRITER) if f.rule == "RPL207"] == []
        assert [f for f in lint(CLEAN) if f.rule == "RPL207"] == []

    def test_messages_point_at_the_api(self):
        flagged = [f for f in lint(LEDGER) if f.rule == "RPL207"]
        assert all("RunLedger" in f.message for f in flagged)


HEALTH = FIXTURES / "obs" / "bad_health_rules.py"


class TestHealthRuleContract:
    def test_violations_flagged_with_exact_lines(self):
        findings = lint(HEALTH)
        assert rule_lines(
            findings, "RPL208", "bad_health_rules.py"
        ) == [15, 21, 27, 32, 47, 48, 49]

    def test_good_rule_and_stamped_events_pass(self):
        # GOOD_RULE (line 38), the **payload splat (line 50), and the
        # well-formed alert.resolved (line 51) produce no findings —
        # the exact-line assertion above already excludes them, but
        # spell the clean lines out so the fixture stays honest.
        flagged = rule_lines(
            lint(HEALTH), "RPL208", "bad_health_rules.py"
        )
        assert all(line not in flagged for line in (38, 50, 51))

    def test_alert_and_health_namespaces_in_taxonomy(self):
        for name in (
            "alert.fired",
            "alert.resolved",
            "health.alerts_fired",
            "health.alerts_resolved",
        ):
            assert TAXONOMY_RE.match(name), name
        assert not TAXONOMY_RE.match("alerts.fired")

    def test_bad_alert_name_also_fails_event_taxonomy(self):
        # RPL206 and RPL208 agree: 'alert.Fired' breaks both.
        findings = lint(HEALTH)
        assert 49 in rule_lines(
            findings, "RPL206", "bad_health_rules.py"
        )
