"""RunLedger/RunRecord: round-trip, recovery, and trajectory gating."""

import json
import math
from pathlib import Path

import pytest

from repro import obs
from repro.obs import RunLedger, RunRecord, diff_trajectory, stable_digest
from repro.obs.ledger import LEDGER_SCHEMA, LEDGER_SCHEMA_V1


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.set_enabled(True)
    yield
    obs.reset()


def record(runid, wall=1.0, kind="bench", **meta):
    return RunRecord(
        runid=runid,
        kind=kind,
        meta={"scale": "micro", "workers": 0, **meta},
        phases={
            "experiment.classify": {
                "wall_s": wall,
                "cpu_s": wall * 0.9,
                "calls": 1,
            }
        },
        metrics={"network.captures": 100},
        totals={"wall_s": wall * 2, "cpu_s": wall * 1.8},
    )


class TestRunRecord:
    def test_round_trip_via_dict(self):
        original = record("r1", meta_extra="x")
        clone = RunRecord.from_dict(original.to_dict())
        assert clone == original

    def test_canonical_json_is_byte_stable(self):
        assert (
            record("r1").canonical_json()
            == record("r1").canonical_json()
        )
        # Key insertion order must not leak into the serialization.
        a = RunRecord(runid="r", totals={"wall_s": 1.0, "cpu_s": 2.0})
        b = RunRecord(runid="r", totals={"cpu_s": 2.0, "wall_s": 1.0})
        assert a.canonical_json() == b.canonical_json()

    def test_ts_only_serialized_when_set(self):
        assert "ts" not in record("r1").to_dict()

    def test_wrong_schema_rejected(self):
        payload = record("r1").to_dict()
        payload["schema"] = "repro-ledger/999"
        with pytest.raises(ValueError, match="repro-ledger/2"):
            RunRecord.from_dict(payload)

    def test_writes_current_schema(self):
        assert record("r1").to_dict()["schema"] == LEDGER_SCHEMA

    def test_v1_record_reads_back_under_v2(self):
        # Pre-health trajectory lines have no incidents key and the old
        # schema marker; they must load untouched, not be skipped.
        payload = record("r1").to_dict()
        payload["schema"] = LEDGER_SCHEMA_V1
        del payload["incidents"]
        clone = RunRecord.from_dict(payload)
        assert clone.runid == "r1"
        assert clone.incidents == []

    def test_incidents_round_trip(self):
        rec = record("r1")
        rec.incidents = [
            {
                "rule": "capture.gap_loss",
                "severity": "critical",
                "fired_hour": 4,
                "resolved_hour": None,
                "attributes": {"lost": 2},
            }
        ]
        clone = RunRecord.from_dict(rec.to_dict())
        assert clone.incidents == rec.incidents
        assert clone == rec

    def test_missing_runid_rejected(self):
        payload = record("r1").to_dict()
        payload["runid"] = ""
        with pytest.raises(ValueError, match="runid"):
            RunRecord.from_dict(payload)

    def test_value_dotted_lookup(self):
        rec = record("r1", wall=3.0)
        assert rec.value("totals.wall_s") == 6.0
        assert rec.value("metrics.network.captures") == 100
        assert rec.value("meta.scale") == "micro"
        assert (
            rec.value("phases.experiment.classify.wall_s") == 3.0
        )
        assert rec.value("phases.experiment.classify.nope") is None
        assert rec.value("nonsense.key") is None

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -0.5, True, "1.0", None]
    )
    @pytest.mark.parametrize(
        "section, key",
        [
            ("totals", "wall_s"),
            ("totals", "max_rss_kb"),
            ("phases", "wall_s"),
            ("phases", "calls"),
        ],
    )
    def test_unusable_timings_rejected(self, section, key, bad):
        payload = record("r1").to_dict()
        if section == "phases":
            payload["phases"]["experiment.classify"][key] = bad
        else:
            payload["totals"][key] = bad
        with pytest.raises(ValueError, match="finite number >= 0"):
            RunRecord.from_dict(payload)

    def test_zero_and_integer_timings_accepted(self):
        payload = record("r1").to_dict()
        payload["totals"].update(wall_s=0, alerts_fired=3)
        payload["phases"]["experiment.classify"]["max_rss_kb"] = 0.0
        assert RunRecord.from_dict(payload).totals["alerts_fired"] == 3

    def test_committed_ledger_loads_without_skips(self):
        ledger = RunLedger.default(Path(__file__).resolve().parents[2])
        records, skipped = ledger.scan()
        assert len(records) >= 6
        assert skipped == 0


class TestStableDigest:
    def test_deterministic_and_order_insensitive(self):
        assert stable_digest({"a": 1, "b": 2}) == stable_digest(
            {"b": 2, "a": 1}
        )
        assert stable_digest({"a": 1}) != stable_digest({"a": 2})

    def test_length_parameter(self):
        assert len(stable_digest({"a": 1}, length=8)) == 8


class TestRunLedger:
    def test_append_then_load_round_trips(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = ledger.append(record("r1"), timestamp="T1")
        ledger.append(record("r2", wall=2.0))
        loaded = ledger.load()
        assert [rec.runid for rec in loaded] == ["r1", "r2"]
        assert loaded[0].ts == "T1" and first.ts == "T1"
        assert loaded[1].ts is None

    def test_identical_runs_write_identical_lines(self, tmp_path):
        a = RunLedger(tmp_path / "a.jsonl")
        b = RunLedger(tmp_path / "b.jsonl")
        a.append(record("same"), timestamp="T")
        b.append(record("same"), timestamp="T")
        assert a.path.read_bytes() == b.path.read_bytes()

    def test_append_emits_ledger_event(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record("r1"))
        event = obs.get_event_stream().last("ledger.appended")
        assert event is not None
        assert event.attributes["runid"] == "r1"
        assert event.attributes["kind"] == "bench"

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunLedger(tmp_path / "absent.jsonl").load() == []

    def test_corrupted_and_truncated_lines_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record("r1"))
        ledger.append(record("r2"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write("\n")
            fh.write(json.dumps({"schema": "wrong/1"}) + "\n")
            # A crash mid-append: valid JSON prefix, cut mid-object.
            fh.write(record("r3").canonical_json()[:40])
        records, skipped = ledger.scan()
        assert [rec.runid for rec in records] == ["r1", "r2"]
        assert skipped == 3
        assert ledger.load() == records

    def test_unusable_timing_lines_counted_as_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record("r1"))
        ledger.append(record("nan", wall=math.nan))
        ledger.append(record("neg", wall=-1.0))
        text = record("str").canonical_json().replace(
            '"wall_s":2.0', '"wall_s":"2.0"'
        )
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write(text + "\n")
        ledger.append(record("r2"))
        records, skipped = ledger.scan()
        assert [rec.runid for rec in records] == ["r1", "r2"]
        assert skipped == 3

    def test_empty_file_scans_clean(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(b"")
        records, skipped = RunLedger(path).scan()
        assert records == [] and skipped == 0

    def test_truncated_final_line_recovers_earlier_records(self, tmp_path):
        # The append-only failure mode: a crash mid-write leaves a
        # valid prefix cut mid-object as the last line.
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record("r1"))
        ledger.append(record("r2"))
        with ledger.path.open("a", encoding="utf-8") as fh:
            fh.write(record("r3").canonical_json()[:60])
        records, skipped = ledger.scan()
        assert [rec.runid for rec in records] == ["r1", "r2"]
        assert skipped == 1

    def test_v1_line_loads_in_a_v2_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        v1_payload = record("old").to_dict()
        v1_payload["schema"] = LEDGER_SCHEMA_V1
        del v1_payload["incidents"]
        ledger.path.write_text(
            json.dumps(v1_payload, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        ledger.append(record("new"))
        records, skipped = ledger.scan()
        assert [rec.runid for rec in records] == ["old", "new"]
        assert skipped == 0
        assert records[0].incidents == []

    def test_trajectory_filters_by_kind(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record("b1"))
        ledger.append(record("e1", kind="experiment"))
        ledger.append(record("b2"))
        assert [
            rec.runid for rec in ledger.trajectory(kind="bench")
        ] == ["b1", "b2"]
        assert len(ledger.trajectory()) == 3


class TestDiffTrajectory:
    def test_gates_against_the_median(self):
        history = [
            record("h1", wall=1.0),
            record("h2", wall=1.1),
            record("h3", wall=0.9),
        ]
        current = record("new", wall=1.05)
        diff = diff_trajectory(history, current, threshold=0.35)
        (phase_delta, total_delta) = diff.deltas
        assert phase_delta.previous_wall_s == 1.0  # median, not mean
        assert total_delta.phase == "<total>"
        assert diff.ok
        assert diff.previous_runid == "median[3]"

    def test_one_outlier_cannot_flip_the_gate(self):
        # A single anomalously fast baseline run: the old
        # single-baseline diff would flag the current run; the median
        # shrugs it off.
        history = [
            record("h1", wall=1.0),
            record("h2", wall=0.2),
            record("h3", wall=1.0),
        ]
        current = record("new", wall=1.1)
        assert diff_trajectory(history, current, threshold=0.35).ok

    def test_real_regression_still_trips(self):
        history = [record(f"h{i}", wall=1.0) for i in range(5)]
        current = record("new", wall=2.0)
        diff = diff_trajectory(history, current, threshold=0.35)
        assert not diff.ok
        assert {d.phase for d in diff.regressions} == {
            "experiment.classify",
            "<total>",
        }

    def test_window_respects_k_and_excludes_current(self):
        history = [record(f"h{i}", wall=10.0) for i in range(3)] + [
            record(f"h{i}", wall=1.0) for i in range(3, 6)
        ]
        # Stale slow history beyond k is ignored; a same-runid record
        # (re-run of this gate) never serves as its own baseline.
        history.append(record("new", wall=50.0))
        diff = diff_trajectory(
            history, record("new", wall=1.0), threshold=0.35, k=3
        )
        assert diff.deltas[0].previous_wall_s == 1.0
        assert diff.ok

    def test_accepts_a_ledger_and_a_bench_result(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        for i in range(3):
            ledger.append(record(f"h{i}", wall=1.0))
        assert diff_trajectory(ledger, record("new", kind="bench")).ok

    def test_unusable_history_cannot_pass_a_slow_run(self, tmp_path):
        # NaN walls would make the median NaN (no ratio exceeds it)
        # and a negative one would fall under the comparability
        # floor; the ledger skips both, so the good line gates.
        ledger = RunLedger(tmp_path / "runs.jsonl")
        ledger.append(record("good", wall=1.0))
        ledger.append(record("nan_1", wall=math.nan))
        ledger.append(record("nan_2", wall=math.nan))
        ledger.append(record("negative", wall=-1.0))
        diff = diff_trajectory(ledger, record("new", wall=100.0))
        assert diff.previous_runid == "median[1]"
        assert not diff.ok

    def test_validates_inputs(self):
        history = [record("h1")]
        with pytest.raises(ValueError):
            diff_trajectory(history, record("new"), threshold=-1.0)
        # A NaN threshold makes every ratio comparison false, so a
        # 100x slower run would pass.
        for threshold in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                diff_trajectory(
                    history, record("new"), threshold=threshold
                )
        with pytest.raises(ValueError):
            diff_trajectory(history, record("new"), k=0)
        with pytest.raises(ValueError, match="no baseline"):
            diff_trajectory([], record("new"))
        with pytest.raises(ValueError, match="no baseline"):
            # Only the current run's own line on the ledger.
            diff_trajectory([record("new")], record("new"))
