"""Zero-dependency HTML dashboard over a ledger + live event stream.

Adaptive-honeypot deployments steer by a *live view* of garner rates,
not by post-hoc tables; this module turns the durable half (the
:class:`~repro.obs.ledger.RunLedger`) and the live half (the events of
the in-process :class:`~repro.obs.events.EventStream`) into one
self-contained ``results/dashboard.html``:

* **metric trajectories** — inline-SVG sparklines per ledger series
  (wall/CPU totals plus every counter seen in 2+ runs);
* **phase waterfall** — the latest record's per-phase wall-clock as
  horizontal bars, with CPU and peak-RSS annotations;
* **garner heat table** — per-band tweets/users/node-hours and garner
  rate from the newest ``pge.snapshot`` event, shaded by rate;
* **degraded-mode panel** — reconnects, backfills, losses, and
  deferred switches tallied from fault/stream/capture events;
* **incidents panel** — health-engine alert lifetimes (rule,
  severity, fired/resolved hour, payload) from the latest ledger
  record's ``incidents`` list, falling back to folding ``alert.*``
  events out of the stream for runs not yet on the ledger.

Every panel renders an explicit "no data" placeholder instead of
raising on an empty ledger, a missing ``pge.snapshot``, or an
alert-free run.

Everything is inlined — no external stylesheets, scripts, fonts, or
images — so the file renders fully offline (the smoke tests assert
there is no ``http``/``https`` reference at all).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Iterable, Sequence

from .alerts import SEVERITIES, IncidentLog
from .events import Event
from .ledger import RunRecord

#: Sparkline viewport (CSS pixels).
SPARK_W = 220
SPARK_H = 36

#: Ledger counters rendered as sparklines, besides the totals, are
#: capped to keep the page readable on metric-heavy runs.
MAX_SPARKLINES = 24

#: Heat-table band rows are capped to the strongest garner bands.
MAX_HEAT_ROWS = 40

#: Event names counted in the degraded-mode panel.
DEGRADED_EVENTS = (
    "stream.reconnect",
    "stream.reconnect_failed",
    "network.switch_deferred",
    "faults.injected",
)

_STYLE = """
body { font-family: ui-monospace, monospace; margin: 1.5rem;
       background: #14161a; color: #d7dae0; }
h1 { font-size: 1.2rem; } h2 { font-size: 1rem; margin-top: 2rem;
     border-bottom: 1px solid #3a3f47; padding-bottom: 0.3rem; }
table { border-collapse: collapse; font-size: 0.8rem; }
th, td { padding: 0.25rem 0.6rem; text-align: right;
         border-bottom: 1px solid #262a30; }
th { color: #8b93a0; font-weight: normal; }
td.name, th.name { text-align: left; }
.bar { fill: #5b8dd9; } .spark { stroke: #5b8dd9; fill: none;
       stroke-width: 1.5; } .dot { fill: #e0b050; }
.muted { color: #8b93a0; } .ok { color: #7bc47f; }
.warn { color: #e0b050; } .critical { color: #e06c5b; }
.info { color: #5b8dd9; }
"""


def _esc(value: object) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: object) -> str:
    """Compact numeric rendering for table cells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return _esc(value)
    if isinstance(value, int):
        return f"{value:,}"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) < 0.01:
        return f"{value:.4f}"
    return f"{value:.3f}"


def sparkline_svg(values: Sequence[float]) -> str:
    """An inline-SVG polyline of one series (last point highlighted)."""
    if not values:
        return '<svg width="220" height="36"></svg>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = SPARK_W / max(n - 1, 1)
    points = []
    for i, value in enumerate(values):
        x = i * step if n > 1 else SPARK_W / 2
        y = (SPARK_H - 4) * (1.0 - (value - lo) / span) + 2
        points.append(f"{x:.1f},{y:.1f}")
    last_x, last_y = points[-1].split(",")
    return (
        f'<svg width="{SPARK_W}" height="{SPARK_H}">'
        f'<polyline class="spark" points="{" ".join(points)}">'
        "</polyline>"
        f'<circle class="dot" cx="{last_x}" cy="{last_y}" r="2.5">'
        "</circle></svg>"
    )


def _heat_style(ratio: float) -> str:
    """Cell shading from near-black to warm for normalized rates."""
    ratio = min(max(ratio, 0.0), 1.0)
    red = int(40 + 180 * ratio)
    green = int(40 + 110 * ratio)
    return f"background: rgb({red},{green},40);"


def _trajectory_keys(records: Sequence[RunRecord]) -> list[str]:
    """Dotted series keys worth charting, totals first."""
    keys = ["totals.wall_s", "totals.cpu_s"]
    counts: dict[str, int] = {}
    for record in records:
        for name in record.metrics:
            counts[name] = counts.get(name, 0) + 1
    shared = sorted(
        name for name, count in counts.items() if count >= 2
    )
    keys.extend(f"metrics.{name}" for name in shared[:MAX_SPARKLINES])
    return keys


def _series(
    records: Sequence[RunRecord], key: str
) -> list[tuple[str, float]]:
    points = []
    for record in records:
        value = record.value(key)
        if isinstance(value, (int, float)) and not isinstance(
            value, bool
        ):
            points.append((record.runid, float(value)))
    return points


def _render_trajectories(records: Sequence[RunRecord]) -> list[str]:
    parts = ["<h2>Metric trajectories</h2>"]
    if not records:
        parts.append('<p class="muted">ledger is empty</p>')
        return parts
    parts.append(
        "<table><tr><th class=\"name\">series</th><th>runs</th>"
        "<th>min</th><th>latest</th><th>max</th>"
        "<th class=\"name\">trend</th></tr>"
    )
    for key in _trajectory_keys(records):
        points = _series(records, key)
        if not points:
            continue
        values = [value for __, value in points]
        parts.append(
            f'<tr><td class="name">{_esc(key)}</td>'
            f"<td>{len(values)}</td><td>{_fmt(min(values))}</td>"
            f"<td>{_fmt(values[-1])}</td><td>{_fmt(max(values))}</td>"
            f'<td class="name">{sparkline_svg(values)}</td></tr>'
        )
    parts.append("</table>")
    return parts


def _render_waterfall(record: RunRecord | None) -> list[str]:
    parts = ["<h2>Phase waterfall (latest run)</h2>"]
    if record is None or not record.phases:
        parts.append('<p class="muted">no phase timings recorded</p>')
        return parts
    longest = max(
        entry.get("wall_s", 0.0) for entry in record.phases.values()
    )
    parts.append(
        "<table><tr><th class=\"name\">phase</th><th>wall s</th>"
        "<th>cpu s</th><th>peak rss</th><th class=\"name\"></th></tr>"
    )
    for name, entry in record.phases.items():
        wall = float(entry.get("wall_s", 0.0))
        width = int(260 * wall / longest) if longest else 0
        rss = entry.get("max_rss_kb")
        rss_text = f"{rss / 1024:.0f} MiB" if rss else "-"
        parts.append(
            f'<tr><td class="name">{_esc(name)}</td>'
            f"<td>{_fmt(wall)}</td>"
            f"<td>{_fmt(float(entry.get('cpu_s', 0.0)))}</td>"
            f"<td>{_esc(rss_text)}</td>"
            f'<td class="name"><svg width="264" height="12">'
            f'<rect class="bar" width="{max(width, 1)}" height="12">'
            "</rect></svg></td></tr>"
        )
    parts.append("</table>")
    return parts


def _latest_snapshot(events: Sequence[Event]) -> Event | None:
    snapshot = None
    for event in events:
        if event.name == "pge.snapshot":
            snapshot = event
    return snapshot


def _render_garner(events: Sequence[Event]) -> list[str]:
    parts = ["<h2>Per-band garner heat table</h2>"]
    snapshot = _latest_snapshot(events)
    bands = list(snapshot.attributes.get("bands", ())) if snapshot else []
    if not bands:
        parts.append(
            '<p class="muted">no pge.snapshot events in stream</p>'
        )
        return parts
    kind = snapshot.attributes.get("kind", "live")
    hour = snapshot.attributes.get("hour", "?")
    parts.append(
        f'<p class="muted">snapshot kind={_esc(kind)} '
        f"hour={_esc(hour)} ({len(bands)} bands)</p>"
    )
    rate_key = "pge" if kind == "final" else "rate"
    garner_key = "spammers" if kind == "final" else "users"
    top = sorted(
        bands,
        key=lambda band: -float(band.get(rate_key, 0.0)),
    )[:MAX_HEAT_ROWS]
    peak = max(float(band.get(rate_key, 0.0)) for band in top) or 1.0
    parts.append(
        "<table><tr><th class=\"name\">band</th>"
        f"<th>{_esc(garner_key)}</th><th>node-hours</th>"
        f"<th>{_esc(rate_key)}</th></tr>"
    )
    for band in top:
        rate = float(band.get(rate_key, 0.0))
        parts.append(
            f'<tr><td class="name">{_esc(band.get("band", "?"))}</td>'
            f"<td>{_fmt(band.get(garner_key, 0))}</td>"
            f"<td>{_fmt(band.get('node_hours', 0))}</td>"
            f'<td style="{_heat_style(rate / peak)}">'
            f"{_fmt(rate)}</td></tr>"
        )
    parts.append("</table>")
    return parts


def _render_degraded(events: Sequence[Event]) -> list[str]:
    parts = ["<h2>Degraded-mode counters</h2>"]
    tallies: dict[str, int] = {}
    lost = backfilled = 0
    for event in events:
        if event.name in DEGRADED_EVENTS:
            tallies[event.name] = tallies.get(event.name, 0) + 1
        if event.name == "stream.reconnect":
            lost += int(event.attributes.get("lost", 0) or 0)
            backfilled += int(
                event.attributes.get("backfilled", 0) or 0
            )
    if not tallies:
        parts.append(
            '<p class="ok">clean run: no fault or recovery events</p>'
        )
        return parts
    parts.append(
        "<table><tr><th class=\"name\">event</th><th>count</th></tr>"
    )
    for name in sorted(tallies):
        parts.append(
            f'<tr><td class="name warn">{_esc(name)}</td>'
            f"<td>{tallies[name]}</td></tr>"
        )
    parts.append(
        f'<tr><td class="name">captures backfilled</td>'
        f"<td>{backfilled}</td></tr>"
        f'<tr><td class="name">captures lost</td><td>{lost}</td></tr>'
    )
    parts.append("</table>")
    return parts


def _incident_rows(
    record: RunRecord | None, events: Sequence[Event]
) -> list[dict]:
    """Incident dicts to render: ledger first, stream as fallback."""
    if record is not None and record.incidents:
        return [dict(entry) for entry in record.incidents]
    return IncidentLog.from_events(events).to_payload()


def _render_incidents(
    record: RunRecord | None, events: Sequence[Event]
) -> list[str]:
    parts = ["<h2>Incidents</h2>"]
    rows = _incident_rows(record, events)
    if not rows:
        parts.append(
            '<p class="ok">no alerts fired (healthy run, or no '
            "health engine attached)</p>"
        )
        return parts
    open_count = sum(
        1 for row in rows if row.get("resolved_hour") is None
    )
    parts.append(
        f'<p class="muted">{len(rows)} alert(s) fired, '
        f"{open_count} still open</p>"
    )
    parts.append(
        "<table><tr><th class=\"name\">rule</th><th>severity</th>"
        "<th>fired</th><th>resolved</th>"
        "<th class=\"name\">payload</th></tr>"
    )
    for row in rows:
        severity = str(row.get("severity", "info"))
        css = severity if severity in SEVERITIES else "info"
        resolved = row.get("resolved_hour")
        resolved_text = (
            '<span class="warn">open</span>'
            if resolved is None
            else f"h{_esc(resolved)}"
        )
        payload = "  ".join(
            f"{_esc(key)}={_fmt(value)}"
            for key, value in sorted(
                dict(row.get("attributes", {})).items()
            )
        )
        parts.append(
            f'<tr><td class="name {css}">'
            f"{_esc(row.get('rule', '?'))}</td>"
            f'<td class="{css}">{_esc(severity)}</td>'
            f"<td>h{_esc(row.get('fired_hour', '?'))}</td>"
            f"<td>{resolved_text}</td>"
            f'<td class="name muted">{payload or "-"}</td></tr>'
        )
    parts.append("</table>")
    return parts


def render_dashboard(
    records: Iterable[RunRecord],
    events: Iterable[Event] = (),
    title: str = "pseudo-honeypot run dashboard",
) -> str:
    """Render ledger + events into one self-contained HTML page."""
    records = list(records)
    events = list(events)
    latest = records[-1] if records else None
    head = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]
    if latest is not None:
        meta_bits = " ".join(
            f"{_esc(key)}={_esc(value)}"
            for key, value in sorted(latest.meta.items())
        )
        head.append(
            f'<p class="muted">{len(records)} run(s) on ledger · '
            f"latest {_esc(latest.runid)} [{_esc(latest.kind)}] "
            f"{meta_bits}</p>"
        )
    else:
        head.append('<p class="muted">0 runs on ledger</p>')
    body = (
        _render_trajectories(records)
        + _render_waterfall(latest)
        + _render_incidents(latest, events)
        + _render_garner(events)
        + _render_degraded(events)
    )
    return "\n".join(head + body + ["</body></html>"]) + "\n"


def save_dashboard(
    path: str | Path,
    records: Iterable[RunRecord],
    events: Iterable[Event] = (),
    title: str = "pseudo-honeypot run dashboard",
) -> Path:
    """Render and write the dashboard; returns the written path."""
    from . import emit

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = render_dashboard(records, events, title=title)
    path.write_text(text, encoding="utf-8")
    emit("dashboard.rendered", path=str(path), bytes=len(text))
    return path
