"""The bench perf record: from_report capture, the diff gate, the CLI."""

import importlib.util
import math
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs import RunReport, trace
from repro.obs.ledger import (
    MIN_COMPARABLE_SECONDS,
    RunLedger,
    RunRecord,
    diff_trajectory,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()


def synthetic_report(**meta) -> RunReport:
    """A report with a couple of experiment phases of real duration."""
    with trace("experiment.fake_collect", hours=2):
        with trace("experiment.fake_plan"):
            sum(i * i for i in range(5_000))
        obs.get_registry().counter("network.captures").inc(7)
    with trace("experiment.fake_classify"):
        pass
    return RunReport.capture(**meta)


def record_with(phases: dict[str, float], runid: str) -> RunRecord:
    return RunRecord(
        runid=runid,
        kind="bench",
        meta={"scale": "micro", "workers": 0},
        phases={
            name: {"wall_s": wall, "cpu_s": wall, "calls": 1}
            for name, wall in phases.items()
        },
        totals={"wall_s": sum(phases.values()), "cpu_s": 0.0},
    )


def load_cli():
    spec = importlib.util.spec_from_file_location(
        "bench_cli_under_test", REPO_ROOT / "scripts" / "bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_workload(delay_s: float, phase: str = "experiment.fake_phase"):
    """A stand-in for ``run_bench_workload``; ``.reports`` keeps output."""

    def run(scale_name="tiny", seed=7, **meta):
        obs.reset()
        obs.set_enabled(True)
        with trace(phase):
            time.sleep(delay_s)
        obs.get_registry().counter("network.captures").inc(3)
        report = RunReport.capture(config_digest="c0ffee", seed=seed)
        run.reports.append(report)
        return report

    run.reports = []
    return run


class TestCapture:
    def test_phases_reconcile_with_the_span_tree(self):
        report = synthetic_report()
        record = RunRecord.from_report(
            report, "r1", kind="bench", scale="unit"
        )
        assert set(record.phases) == {
            "experiment.fake_collect",
            "experiment.fake_plan",
            "experiment.fake_classify",
        }
        (collect,) = report.find("experiment.fake_collect")
        entry = record.phases["experiment.fake_collect"]
        assert entry["wall_s"] == pytest.approx(
            collect.duration_s, abs=1e-6
        )
        assert entry["cpu_s"] >= 0
        assert entry["calls"] == 1
        # Totals sum root spans only: nested fake_plan is inside
        # fake_collect and must not double-count.
        roots = sum(span.duration_s for span in report.spans)
        assert record.totals["wall_s"] == pytest.approx(
            roots, abs=1e-6
        )
        assert record.metrics == report.metrics["counters"]
        assert record.metrics["network.captures"] == 7
        # The resource sampler's per-phase peak survives aggregation.
        assert all(
            entry["max_rss_kb"] > 0 for entry in record.phases.values()
        )
        assert (record.runid, record.kind) == ("r1", "bench")
        assert record.meta == {"scale": "unit"}

    def test_capture_requires_experiment_spans(
        self, tmp_path, monkeypatch
    ):
        cli = load_cli()
        monkeypatch.setattr(
            cli, "run_bench_workload", fake_workload(0.0, "network.deploy")
        )
        ledger_path = tmp_path / "ledger.jsonl"
        rc = cli.main(["--runid", "r1", "--ledger", str(ledger_path)])
        assert rc != 0
        assert not ledger_path.exists()


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        # The bench record survives its one storage format: a ledger
        # line, timings validated on the way back in.
        original = RunRecord.from_report(
            synthetic_report(), "r1", kind="bench"
        )
        ledger = RunLedger(tmp_path / "bench.jsonl")
        written = ledger.append(original, timestamp="T1")
        records, skipped = ledger.scan()
        assert (records, skipped) == ([written], 0)


class TestDiffGate:
    """``diff_trajectory`` against a one-record window."""

    def test_synthetic_slow_run_is_a_regression(self):
        previous = record_with({"experiment.collect": 1.0}, "a")
        current = record_with({"experiment.collect": 2.0}, "b")
        diff = diff_trajectory([previous], current, threshold=0.35)
        assert not diff.ok
        # Both the phase and the <total> row doubled.
        assert [d.phase for d in diff.regressions] == [
            "experiment.collect",
            "<total>",
        ]
        assert diff.regressions[0].ratio == pytest.approx(2.0)
        rendered = diff.render()
        assert "<< REGRESSION" in rendered
        assert "(vs median[1], threshold +35%)" in rendered

    def test_within_threshold_passes(self):
        previous = record_with({"experiment.collect": 1.0}, "a")
        current = record_with({"experiment.collect": 1.2}, "b")
        diff = diff_trajectory([previous], current, threshold=0.35)
        assert diff.ok
        rendered = diff.render()
        assert "not gated" not in rendered
        assert rendered.endswith("(vs median[1], threshold +35%)")

    def test_sub_noise_phases_are_not_gated(self):
        wall = MIN_COMPARABLE_SECONDS / 2
        previous = record_with({"experiment.collect": wall}, "a")
        current = record_with({"experiment.collect": wall * 10}, "b")
        diff = diff_trajectory([previous], current)
        assert diff.ok
        # The render tells "never compared" from "under threshold":
        # both rows (the phase and <total>) read as not gated.
        rendered = diff.render()
        rows = rendered.splitlines()[2:4]
        assert all(row.endswith("+900.0%  not gated") for row in rows)
        assert "<< REGRESSION" not in rendered
        assert rendered.endswith(
            "2 of 2 rows not gated: baseline under 0.05 s"
        )

    def test_total_row_and_disjoint_phases(self):
        previous = record_with(
            {"experiment.old": 1.0, "experiment.shared": 1.0}, "a"
        )
        current = record_with(
            {"experiment.new": 1.0, "experiment.shared": 1.0}, "b"
        )
        diff = diff_trajectory([previous], current)
        assert [d.phase for d in diff.deltas] == [
            "experiment.shared",
            "<total>",
        ]

    def test_negative_threshold_rejected(self):
        previous = record_with({"experiment.x": 1.0}, "a")
        current = record_with({"experiment.x": 1.0}, "b")
        with pytest.raises(ValueError):
            diff_trajectory([previous], current, threshold=-0.1)


class TestBenchCli:
    """scripts/bench.py end-to-end with a stubbed-out workload."""

    def test_gate_trips_on_a_slow_run(self, tmp_path, monkeypatch):
        cli = load_cli()
        # One historical run claims the phase used to take 50ms; the
        # stubbed current run sleeps 150ms -> x3 slowdown.
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record_with({"experiment.fake_phase": 0.05}, "a"))
        monkeypatch.setattr(cli, "run_bench_workload", fake_workload(0.15))
        argv = ["--scale", "micro", "--ledger", str(ledger.path)]
        assert cli.main([*argv, "--runid", "b"]) == 1
        assert cli.main([*argv, "--runid", "c", "--no-gate"]) == 0
        assert [r.runid for r in ledger.load()] == ["a", "b", "c"]

    def test_first_run_has_no_gate(self, tmp_path, monkeypatch, capsys):
        cli = load_cli()
        monkeypatch.setattr(cli, "run_bench_workload", fake_workload(0.0))
        ledger_path = tmp_path / "ledger.jsonl"
        rc = cli.main(["--runid", "run_a", "--ledger", str(ledger_path)])
        assert rc == 0
        assert "gate skipped" in capsys.readouterr().out
        records = RunLedger(ledger_path).trajectory(kind="bench")
        assert [record.runid for record in records] == ["run_a"]

    def test_appended_line_is_the_reports_record(
        self, tmp_path, monkeypatch
    ):
        cli = load_cli()
        workload = fake_workload(0.01)
        monkeypatch.setattr(cli, "run_bench_workload", workload)
        ledger_path = tmp_path / "ledger.jsonl"
        rc = cli.main(
            [
                "--scale",
                "micro",
                "--seed",
                "11",
                "--runid",
                "r1",
                "--ledger",
                str(ledger_path),
            ]
        )
        assert rc == 0
        (line,) = RunLedger(ledger_path).load()
        (report,) = workload.reports
        expected = RunRecord.from_report(report, "r1", kind="bench")
        assert line.phases == expected.phases
        assert all(
            "max_rss_kb" in entry for entry in line.phases.values()
        )
        for key in ("wall_s", "cpu_s"):
            assert line.totals[key] == expected.totals[key]
        assert line.metrics == report.metrics["counters"]
        assert line.metrics["network.captures"] == 3
        assert line.meta["config_digest"] == "c0ffee"
        assert (line.meta["scale"], line.meta["seed"]) == ("micro", 11)
        assert line.meta["workers"] == 0
        assert line.ts == "r1"

    def test_ledger_trajectory_gate_trips(self, tmp_path, monkeypatch):
        cli = load_cli()
        ledger_path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(ledger_path)
        # Three comparable historical runs (same scale + workers as
        # the CLI invocation below) at ~50ms median.
        for i, wall in enumerate((0.05, 0.055, 0.05)):
            ledger.append(
                record_with({"experiment.fake_phase": wall}, f"hist_{i}")
            )
        monkeypatch.setattr(
            cli, "run_bench_workload", fake_workload(0.15)
        )
        rc = cli.main(
            [
                "--scale",
                "micro",
                "--runid",
                "run_slow",
                "--ledger",
                str(ledger_path),
            ]
        )
        assert rc == 1
        # The slow run is still recorded: the ledger is the history,
        # the gate is advisory on top of it.
        records = ledger.trajectory(kind="bench")
        assert records[-1].runid == "run_slow"

    @pytest.mark.parametrize(
        "flag",
        [
            ("--threshold", "nan"),
            ("--threshold", "inf"),
            ("--threshold", "-0.1"),
            ("--threshold", "fast"),
            ("--last-k", "0"),
            ("--last-k", "1.5"),
        ],
        ids="=".join,
    )
    def test_bad_gate_inputs_rejected_before_the_run(
        self, tmp_path, monkeypatch, flag
    ):
        cli = load_cli()
        workload = fake_workload(0.0)
        monkeypatch.setattr(cli, "run_bench_workload", workload)
        ledger_path = tmp_path / "ledger.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*flag, "--ledger", str(ledger_path)])
        assert exit_info.value.code == 2
        assert workload.reports == []
        assert not ledger_path.exists()

    def test_unusable_history_is_counted_not_trusted(
        self, tmp_path, monkeypatch, capsys
    ):
        cli = load_cli()
        ledger = RunLedger(tmp_path / "ledger.jsonl")
        ledger.append(record_with({"experiment.fake_phase": 0.05}, "a"))
        # Two lines whose NaN walls would make the median NaN, which
        # no slowdown ever exceeds.
        for runid in ("nan_1", "nan_2"):
            line = record_with({"experiment.fake_phase": 0.05}, runid)
            line.phases["experiment.fake_phase"]["wall_s"] = math.nan
            line.totals["wall_s"] = math.nan
            ledger.append(line)
        monkeypatch.setattr(cli, "run_bench_workload", fake_workload(0.15))
        rc = cli.main(
            ["--scale", "micro", "--runid", "b", "--ledger", str(ledger.path)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "skipped 2 unusable line(s)" in captured.err
        assert "median[1]" in captured.out
