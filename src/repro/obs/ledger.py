"""The run ledger: a schema-versioned, append-only JSONL trajectory.

The ledger is the repo's one perf record.  A perf "trajectory" has to
accumulate across machines and commits, and one noisy run must not
poison the regression gate, so:

* every run appends one :class:`RunRecord` — run identity (seed,
  workers, config/fault-plan digests), per-phase timings (wall, CPU,
  peak RSS), the counter snapshot, and totals — as one JSON line under
  ``results/ledger/`` (deliberately **not** gitignored);
  ``scripts/bench.py`` and ``export_report(ledger=...)`` both build
  that record with :meth:`RunRecord.from_report`;
* :class:`RunLedger` is the only sanctioned writer (lint rule RPL207
  flags raw ``open()`` writes under ``results/ledger/``), and its
  readers are *recovering*: a corrupted or truncated trailing line —
  the expected failure mode of append-only files — or a record whose
  timings are not finite non-negative numbers is skipped and counted,
  never fatal and never trusted;
* :func:`diff_trajectory` gates a run against the **median of the
  last K** comparable records, so one outlier run cannot flip the
  regression gate.

Determinism contract: record bodies never read the wall clock — a
timestamp is *injected* by the caller (``append(record,
timestamp=...)``), so two records distilled from identical seeded runs
serialize byte-identically, and resume/replay flows stay stable.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .report import RunReport

#: Format marker written into every ledger line.  v2 added the
#: ``incidents`` list (health-engine alert lifetimes) and the
#: ``totals.alerts_fired`` trend key.
LEDGER_SCHEMA = "repro-ledger/2"

#: The pre-health schema; still accepted by :meth:`RunRecord.from_dict`
#: so trajectories written before the bump keep loading (their records
#: read back with an empty ``incidents`` list).
LEDGER_SCHEMA_V1 = "repro-ledger/1"

_ACCEPTED_SCHEMAS = (LEDGER_SCHEMA, LEDGER_SCHEMA_V1)

#: Repo-relative home of ledger files (kept OUT of .gitignore so the
#: trajectory survives across checkouts and CI runs).
LEDGER_DIRNAME = "results/ledger"

#: Default ledger file for benchmark runs (``scripts/bench.py``).
BENCH_LEDGER_NAME = "bench.jsonl"

#: Default trajectory window of :func:`diff_trajectory`.
DEFAULT_LAST_K = 5

#: Default regression gate: fail on >35% wall-clock slowdown.  Tiny
#: workloads are seconds long, so tighter gates would trip on machine
#: noise; calibrate down as workloads grow.
DEFAULT_THRESHOLD = 0.35

#: Phases faster than this are pure noise; the gate skips them.
MIN_COMPARABLE_SECONDS = 0.05


def stable_digest(obj: object, length: int = 12) -> str:
    """A short, content-addressed digest of any JSON-able object.

    Used to stamp config / fault-plan identity into ledger records so
    trend queries can group comparable runs without carrying the whole
    configuration in every line.
    """
    payload = json.dumps(
        obj, sort_keys=True, default=str, separators=(",", ":")
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=8
    ).hexdigest()[:length]


def _is_timing(value: object) -> bool:
    """Whether ``value`` is a finite, non-negative number.

    A ``NaN`` or negative wall would let any slowdown through the
    gate, and a string one would crash the median; ``bool`` is an
    ``int`` subclass but never a timing.
    """
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value >= 0
    )


@dataclass
class RunRecord:
    """One ledger line: a run's identity, timings, and key metrics."""

    runid: str
    #: Record flavor: ``experiment`` (export_report) or ``bench``.
    kind: str = "experiment"
    #: Run identity: seed, workers, scale, config/fault-plan digests.
    meta: dict[str, object] = field(default_factory=dict)
    #: phase name -> {"wall_s", "cpu_s", "calls"[, "max_rss_kb"]}.
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Key run metrics (counter snapshot), e.g. ``network.captures``.
    metrics: dict[str, float] = field(default_factory=dict)
    totals: dict[str, float] = field(default_factory=dict)
    #: Health-engine alert lifetimes for the run, in firing order —
    #: each entry is one ``Incident.to_dict()``
    #: (:meth:`repro.obs.alerts.IncidentLog.to_payload`).  New in v2;
    #: v1 records read back with an empty list.
    incidents: list[dict] = field(default_factory=list)
    #: Caller-injected timestamp; never read from the wall clock here.
    ts: str | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_report(
        cls,
        report: RunReport,
        runid: str,
        kind: str = "experiment",
        **meta: object,
    ) -> "RunRecord":
        """Distill a :class:`RunReport` into one ledger record.

        Phase timings aggregate every ``experiment.*`` span by name
        and keep the per-phase peak RSS the resource sampler stamped;
        totals sum the *root* spans only (nested phases would
        double-count); metrics copy the counter snapshot
        (gauges/histograms are run-shape, not trajectory material).
        """
        phases: dict[str, dict[str, float]] = {}
        for span in report.phase_spans():
            entry = phases.setdefault(
                span.name, {"wall_s": 0.0, "cpu_s": 0.0, "calls": 0}
            )
            entry["wall_s"] += span.duration_s
            cpu = span.attributes.get("cpu_s")
            if isinstance(cpu, (int, float)):
                entry["cpu_s"] += float(cpu)
            entry["calls"] += 1
            rss = span.attributes.get("max_rss_kb")
            if isinstance(rss, (int, float)):
                entry["max_rss_kb"] = max(
                    float(entry.get("max_rss_kb", 0.0)), float(rss)
                )
        for entry in phases.values():
            entry["wall_s"] = round(entry["wall_s"], 6)
            entry["cpu_s"] = round(entry["cpu_s"], 6)
        totals = {
            "wall_s": round(
                sum(span.duration_s for span in report.spans), 6
            ),
            "cpu_s": round(
                sum(
                    float(span.attributes.get("cpu_s", 0.0) or 0.0)
                    for span in report.spans
                ),
                6,
            ),
        }
        record_meta = {
            key: value
            for key, value in report.meta.items()
            if isinstance(value, (str, int, float, bool))
        }
        record_meta.update(meta)
        return cls(
            runid=runid,
            kind=kind,
            meta=record_meta,
            phases=phases,
            metrics=dict(report.metrics.get("counters", {})),
            totals=totals,
        )

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "schema": LEDGER_SCHEMA,
            "runid": self.runid,
            "kind": self.kind,
            "meta": dict(self.meta),
            "phases": {
                name: dict(entry)
                for name, entry in sorted(self.phases.items())
            },
            "metrics": dict(sorted(self.metrics.items())),
            "totals": dict(self.totals),
            "incidents": [dict(entry) for entry in self.incidents],
        }
        if self.ts is not None:
            data["ts"] = self.ts
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`.

        Accepts both the current schema and ``repro-ledger/1``
        (pre-health records have no ``incidents`` key).

        Raises:
            ValueError: on a payload with an unknown schema marker, no
                runid, or a ``phases.<name>.*`` / ``totals.*`` value
                that is not a finite, non-negative number.
        """
        if not isinstance(data, dict) or (
            data.get("schema") not in _ACCEPTED_SCHEMAS
        ):
            raise ValueError(
                f"not a {LEDGER_SCHEMA} payload: "
                f"schema={data.get('schema')!r}"
                if isinstance(data, dict)
                else "not a ledger payload"
            )
        runid = str(data.get("runid", ""))
        if not runid:
            raise ValueError("ledger record has no runid")
        phases = {
            name: dict(entry)
            for name, entry in dict(data.get("phases", {})).items()
        }
        totals = dict(data.get("totals", {}))
        sections = [("totals", totals)] + [
            (f"phases.{name}", entry) for name, entry in phases.items()
        ]
        for prefix, section in sections:
            for key, value in section.items():
                if not _is_timing(value):
                    raise ValueError(
                        f"ledger record {runid!r}: {prefix}.{key} = "
                        f"{value!r} is not a finite number >= 0"
                    )
        return cls(
            runid=runid,
            kind=str(data.get("kind", "experiment")),
            meta=dict(data.get("meta", {})),
            phases=phases,
            metrics=dict(data.get("metrics", {})),
            totals=totals,
            incidents=[
                dict(entry) for entry in data.get("incidents", [])
            ],
            ts=data.get("ts"),
        )

    def canonical_json(self) -> str:
        """The exact line :meth:`RunLedger.append` writes (no newline).

        Sorted keys + fixed separators make serialization a pure
        function of the record's content: identical runs yield
        byte-identical lines.
        """
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    # -- queries ----------------------------------------------------------

    def value(self, key: str) -> object | None:
        """Dotted lookup into one record, ``None`` when absent.

        ``key`` is ``<section>.<name>`` where section is ``totals`` /
        ``metrics`` / ``meta`` / ``phases``; for ``phases`` the last
        dotted segment selects the field, e.g.
        ``phases.experiment.classify.wall_s``.
        """
        section, __, rest = key.partition(".")
        if section == "phases":
            phase, __, fieldname = rest.rpartition(".")
            entry = self.phases.get(phase)
            return None if entry is None else entry.get(fieldname)
        mapping = {
            "totals": self.totals,
            "metrics": self.metrics,
            "meta": self.meta,
        }.get(section)
        return None if mapping is None else mapping.get(rest)


class RunLedger:
    """Append-only JSONL run trajectory with recovering readers.

    One ledger is one file; by convention they live under
    ``results/ledger/`` (``RunLedger.default(...)``), but any path
    works — tests and the CI smoke lane point at temp dirs.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @classmethod
    def default(
        cls, root: str | Path = ".", name: str = BENCH_LEDGER_NAME
    ) -> "RunLedger":
        """The conventional ledger location under a repo root."""
        return cls(Path(root) / LEDGER_DIRNAME / name)

    # -- writing ----------------------------------------------------------

    def append(
        self, record: RunRecord, timestamp: str | None = None
    ) -> RunRecord:
        """Append one record (atomic at line granularity).

        Args:
            record: the record to persist.
            timestamp: optional caller-supplied stamp recorded as
                ``ts`` — the ledger itself never reads the wall
                clock, keeping record bodies reproducible.

        Returns:
            The record as written (with ``ts`` applied).
        """
        from . import emit

        if timestamp is not None:
            record = RunRecord(
                runid=record.runid,
                kind=record.kind,
                meta=record.meta,
                phases=record.phases,
                metrics=record.metrics,
                totals=record.totals,
                incidents=record.incidents,
                ts=timestamp,
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(record.canonical_json() + "\n")
        emit(
            "ledger.appended",
            path=str(self.path),
            runid=record.runid,
            kind=record.kind,
        )
        return record

    # -- reading ----------------------------------------------------------

    def scan(self) -> tuple[list[RunRecord], int]:
        """All parseable records plus the count of skipped lines.

        A half-written trailing line (crash mid-append), stray blank
        lines, a corrupted record, or one with unusable timings (see
        :meth:`RunRecord.from_dict`) are skipped — an append-only log
        must degrade to its valid prefix, not refuse to load, and a
        gate must never trust a timing it cannot compare.
        """
        if not self.path.exists():
            return [], 0
        records: list[RunRecord] = []
        skipped = 0
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(RunRecord.from_dict(json.loads(line)))
                except (ValueError, TypeError):
                    skipped += 1
        return records, skipped

    def load(self) -> list[RunRecord]:
        """All parseable records, oldest first (corruption skipped)."""
        return self.scan()[0]

    def trajectory(self, kind: str | None = None) -> list[RunRecord]:
        """The run series, optionally filtered by record kind."""
        records = self.load()
        if kind is None:
            return records
        return [record for record in records if record.kind == kind]


@dataclass(frozen=True)
class PhaseDelta:
    """One phase's before/after comparison."""

    phase: str
    previous_wall_s: float
    current_wall_s: float

    @property
    def ratio(self) -> float:
        """current/previous wall-clock (1.0 = unchanged)."""
        if self.previous_wall_s <= 0:
            return 1.0
        return self.current_wall_s / self.previous_wall_s

    @property
    def change_pct(self) -> float:
        return 100.0 * (self.ratio - 1.0)


@dataclass
class BenchDiff:
    """Phase-by-phase comparison of a run against its baseline."""

    previous_runid: str
    current_runid: str
    threshold: float
    deltas: list[PhaseDelta] = field(default_factory=list)

    @property
    def regressions(self) -> list[PhaseDelta]:
        """Deltas slower than the threshold on comparable phases."""
        return [
            delta
            for delta in self.deltas
            if delta.previous_wall_s >= MIN_COMPARABLE_SECONDS
            and delta.ratio > 1.0 + self.threshold
        ]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """Aligned text table of every compared phase."""
        headers = ("Phase", "Prev s", "Curr s", "Change")
        rows = [
            (
                delta.phase,
                f"{delta.previous_wall_s:.3f}",
                f"{delta.current_wall_s:.3f}",
                f"{delta.change_pct:+.1f}%"
                + (
                    "  << REGRESSION"
                    if delta in self.regressions
                    else ""
                ),
            )
            for delta in self.deltas
        ]
        table = [headers, *rows]
        widths = [
            max(len(row[i]) for row in table) for i in range(len(headers))
        ]
        lines = [
            "  ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            )
            for row in table
        ]
        lines.insert(1, "  ".join("-" * width for width in widths))
        lines.append(
            f"(vs {self.previous_runid}, threshold "
            f"+{100.0 * self.threshold:.0f}%)"
        )
        return "\n".join(lines)


def diff_trajectory(
    baseline: Iterable[RunRecord] | RunLedger,
    current: RunRecord,
    threshold: float = DEFAULT_THRESHOLD,
    k: int = DEFAULT_LAST_K,
) -> BenchDiff:
    """Gate ``current`` against the median of the last ``k`` records.

    Per phase, the baseline is the **median** wall-clock across the
    newest ``k`` baseline records carrying that phase (the current
    runid is excluded if present) — one anomalously slow or fast
    historical run therefore cannot swing the gate.  Phases present
    on only one side are skipped (a new phase has no baseline; a
    removed one has no current cost); the wall total is compared as
    a ``<total>`` row.

    Raises:
        ValueError: on a threshold that is negative or not finite, a
            non-positive ``k``, or an empty baseline (no comparable
            history).
    """
    if not math.isfinite(threshold) or threshold < 0:
        raise ValueError("threshold must be a finite number >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(baseline, RunLedger):
        baseline = baseline.load()
    window = [r for r in baseline if r.runid != current.runid][-k:]
    if not window:
        raise ValueError("no baseline records to diff against")
    diff = BenchDiff(
        previous_runid=f"median[{len(window)}]",
        current_runid=current.runid,
        threshold=threshold,
    )
    for name in sorted(current.phases):
        history = [
            float(record.phases[name].get("wall_s", 0.0))
            for record in window
            if name in record.phases
        ]
        if not history:
            continue
        diff.deltas.append(
            PhaseDelta(
                phase=name,
                previous_wall_s=statistics.median(history),
                current_wall_s=float(
                    current.phases[name].get("wall_s", 0.0)
                ),
            )
        )
    total_history = [
        float(record.totals["wall_s"])
        for record in window
        if record.totals.get("wall_s")
    ]
    if total_history and current.totals.get("wall_s"):
        diff.deltas.append(
            PhaseDelta(
                phase="<total>",
                previous_wall_s=statistics.median(total_history),
                current_wall_s=float(current.totals["wall_s"]),
            )
        )
    return diff


__all__ = [
    "BENCH_LEDGER_NAME",
    "BenchDiff",
    "DEFAULT_LAST_K",
    "DEFAULT_THRESHOLD",
    "LEDGER_DIRNAME",
    "LEDGER_SCHEMA",
    "LEDGER_SCHEMA_V1",
    "MIN_COMPARABLE_SECONDS",
    "PhaseDelta",
    "RunLedger",
    "RunRecord",
    "diff_trajectory",
    "stable_digest",
]
