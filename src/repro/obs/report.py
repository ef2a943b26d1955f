"""Structured run reports: the phase tree + metrics snapshot as JSON.

A :class:`RunReport` is the durable artifact of one instrumented run:
the completed span forest (phase tree), the metrics snapshot, and
free-form metadata.  ``PseudoHoneypotExperiment.export_report`` writes
one; perf PRs diff them; ``scripts/smoke_report.py`` emits one as a CI
smoke artifact.

The JSON schema is the natural nesting of :meth:`Span.to_dict`:

.. code-block:: json

    {
      "meta": {"scale": "small"},
      "spans": [
        {"name": "experiment.collect_ground_truth",
         "duration_s": 12.3,
         "attributes": {"captures": 4211, "node_hours": 800},
         "children": [{"name": "network.deploy", "...": "..."}]}
      ],
      "metrics": {"counters": {"network.captures": 9876},
                  "gauges": {}, "histograms": {}}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import MetricsRegistry
from .tracing import TIMING_ATTRS, Span, Tracer

#: Column order of :meth:`RunReport.summary_rows`.
SUMMARY_HEADERS = (
    "Phase",
    "Seconds",
    "Captures",
    "Node-hours",
    "Captures/node-hour",
)

#: Metadata keys that vary per invocation rather than per seed.
TIMING_META = frozenset({"runid", "created_at"})


@dataclass
class RunReport:
    """One run's phase tree, metrics snapshot, and metadata."""

    meta: dict[str, object] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)

    # -- construction -----------------------------------------------------

    @classmethod
    def capture(
        cls,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        **meta: object,
    ) -> "RunReport":
        """Snapshot the (global, unless given) registry and tracer."""
        from . import get_registry, get_tracer

        registry = registry if registry is not None else get_registry()
        tracer = tracer if tracer is not None else get_tracer()
        return cls(
            meta=dict(meta),
            spans=list(tracer.roots),
            metrics=registry.snapshot(),
        )

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "meta": dict(self.meta),
            "spans": [span.to_dict() for span in self.spans],
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        if not isinstance(data, dict) or not (
            data.keys() & {"meta", "spans", "metrics"}
        ):
            raise ValueError("not a RunReport payload")
        return cls(
            meta=dict(data.get("meta", {})),
            spans=[Span.from_dict(s) for s in data.get("spans", ())],
            metrics=dict(data.get("metrics", {})),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`.

        Raises:
            json.JSONDecodeError: on malformed input.
        """
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the report JSON to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunReport":
        """Read a report previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def normalized(self) -> "RunReport":
        """A deep copy with every nondeterministic timing stripped.

        Wall-clock offsets/durations are zeroed, the span attributes
        every span is stamped with (``TIMING_ATTRS``: ``cpu_s`` and
        ``max_rss_kb``) are removed, and ``*_seconds`` histograms are
        dropped from the metrics snapshot.  Two runs of the same seed
        then serialize to *identical* JSON, so checked-in smoke
        artifacts stop churning on re-runs.
        """

        def scrub(span: Span) -> Span:
            return Span(
                name=span.name,
                started_at=0.0,
                duration_s=0.0,
                attributes={
                    key: value
                    for key, value in span.attributes.items()
                    if key not in TIMING_ATTRS
                },
                children=[scrub(child) for child in span.children],
            )

        metrics = {
            kind: {
                name: value
                for name, value in entries.items()
                if not name.endswith("_seconds")
            }
            for kind, entries in self.metrics.items()
        }
        meta = {
            key: value
            for key, value in self.meta.items()
            if key not in TIMING_META
        }
        return RunReport(
            meta=meta,
            spans=[scrub(root) for root in self.spans],
            metrics=metrics,
        )

    # -- queries ----------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All spans named ``name``, depth-first across the forest."""
        return [
            span
            for root in self.spans
            for span in root.walk()
            if span.name == name
        ]

    def phase_spans(self) -> list[Span]:
        """The ``experiment.*`` phase spans, in recorded order."""
        return [
            span
            for root in self.spans
            for span in root.walk()
            if span.name.startswith("experiment.")
        ]

    def summary_rows(self) -> list[tuple]:
        """Per-phase efficiency rows (:data:`SUMMARY_HEADERS` order).

        Captures per node-hour is the report-level analogue of the
        paper's PGE numerator/denominator, so phases are directly
        comparable on garner efficiency.
        """
        rows = []
        for span in self.phase_spans():
            captures = span.attributes.get("captures")
            node_hours = span.attributes.get("node_hours")
            per_node_hour = (
                captures / node_hours
                if isinstance(captures, (int, float))
                and isinstance(node_hours, (int, float))
                and node_hours
                else None
            )
            rows.append(
                (
                    span.name,
                    round(span.duration_s, 3),
                    captures if captures is not None else "-",
                    node_hours if node_hours is not None else "-",
                    round(per_node_hour, 3)
                    if per_node_hour is not None
                    else "-",
                )
            )
        return rows

    def render_summary(self) -> str:
        """Dependency-free aligned text table of :meth:`summary_rows`."""
        rows = [tuple(str(c) for c in row) for row in self.summary_rows()]
        table = [tuple(SUMMARY_HEADERS), *rows]
        widths = [
            max(len(row[i]) for row in table)
            for i in range(len(SUMMARY_HEADERS))
        ]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in table
        ]
        lines.insert(1, "  ".join("-" * width for width in widths))
        return "\n".join(lines)
