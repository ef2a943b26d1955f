"""Per-layer tracing from outside the program.

``install(recorder)`` replaces each layer's public entry point -- the
class attribute or module name the program calls through -- with a
timed wrapper, and puts every original back on exit.  Nothing under
``src/`` changes.  A stack of open calls gives each layer its self
time (busy time minus the busy time of the wrapped calls it made), so
within a phase the layers' self times plus the phase's own remainder
add up to the phase's wall time.

Calls made once per hour, batch or stage become spans with parent
links.  Calls made once per tweet or row (stream callbacks, monitor,
extraction) only add busy time and a count to their parent span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import repro.core.experiment as experiment_module
from repro.core.monitor import PseudoHoneypotMonitor
from repro.core.network import PseudoHoneypotNetwork
from repro.core.selection import AttributeSelector
from repro.features.extractor import FeatureExtractor
from repro.labeling.pipeline import GroundTruthLabeler
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_registry, get_tracer
from repro.service.sniffer import SnifferService
from repro.twittersim.engine import TwitterEngine

#: The program's ``label.*`` spans reported as labeling stages.
LABEL_STAGES = (
    "suspended",
    "clustering",
    "rule_based",
    "manual",
    "dhash",
    "neardup",
    "minhash",
)


@dataclass
class LayerTotals:
    """One layer's busy time, self time, calls and work counts."""

    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counts: Counter = field(default_factory=Counter)


class _Call:
    __slots__ = ("layer", "start", "child_s", "elapsed_s", "span")

    def __init__(self, layer: str, start: float, span: dict | None):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.elapsed_s = 0.0
        self.span = span


class Recorder:
    """In-memory spans and per-phase layer totals of one traced run."""

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        #: Phase name -> layer name -> totals.
        self.phases: dict[str, defaultdict[str, LayerTotals]] = {}
        self.spans: list[dict] = []
        self._calls: list[_Call] = []
        self._open_spans: list[dict] = []
        self._open_layers: Counter = Counter()
        self._totals = self.phases.setdefault(
            "outside", defaultdict(LayerTotals)
        )

    def enter(self, layer: str, span: bool) -> _Call:
        start = time.perf_counter()
        record = None
        if span:
            record = {
                "id": len(self.spans),
                "parent": (
                    self._open_spans[-1]["id"] if self._open_spans else None
                ),
                "name": layer,
                "start_s": start - self._epoch,
                "duration_s": 0.0,
                "rows": {},
            }
            self.spans.append(record)
            self._open_spans.append(record)
        call = _Call(layer, start, record)
        self._calls.append(call)
        self._open_layers[layer] += 1
        return call

    def exit(self, call: _Call) -> LayerTotals:
        elapsed = call.elapsed_s = time.perf_counter() - call.start
        self._calls.pop()
        self._open_layers[call.layer] -= 1
        totals = self._totals[call.layer]
        if not self._open_layers[call.layer]:
            # Only the outermost call of a re-entered layer is busy time.
            totals.busy_s += elapsed
        totals.self_s += elapsed - call.child_s
        totals.calls += 1
        if self._calls:
            self._calls[-1].child_s += elapsed
        if call.span is not None:
            call.span["duration_s"] = elapsed
            self._open_spans.pop()
        elif self._open_spans:
            row = self._open_spans[-1]["rows"].setdefault(
                call.layer, {"busy_s": 0.0, "count": 0}
            )
            row["busy_s"] += elapsed
            row["count"] += 1
        return totals

    def timed(
        self,
        layer: str,
        fn: Callable,
        span: bool,
        count: Callable[[tuple, object], dict] | None = None,
    ) -> Callable:
        """``fn`` timed as one call of ``layer``; ``count(args, result)``
        gives the work counts the call adds."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = enter(layer, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                totals = exit_(call)
            if count is not None:
                totals.counts.update(count(args, result))
            return result

        return wrapper

    def unaccounted_s(self, phase: str) -> float:
        """Phase wall time minus the sum of its layers' self times."""
        totals = self.phases[phase]
        wall = totals[f"bench.{phase}"].busy_s
        return wall - sum(layer.self_s for layer in totals.values())

    def write(self, path: Path, **meta: object) -> None:
        """Write the spans and layer totals out as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        phases = {
            phase: {
                layer: {
                    "busy_s": t.busy_s,
                    "self_s": t.self_s,
                    "calls": t.calls,
                    "counts": dict(t.counts),
                }
                for layer, t in sorted(totals.items())
                if t.calls
            }
            for phase, totals in self.phases.items()
        }
        payload = {**meta, "phases": phases, "spans": self.spans}
        # repro-lint: disable=RPL205 -- the benchmark's own span trace
        path.write_text(json.dumps(payload, indent=1) + "\n")


class Phase:
    """The root call of one phase; a stopwatch with ``start``/``wall_s``.

    Also reads, over the phase, the program's profile-memo counters and
    the ``label.*`` spans its own tracer records.
    """

    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name
        self.start = 0.0
        self.wall_s = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Stage name -> summed duration of the program's label spans.
        self.label_stage_s: dict[str, float] = {}

    def __enter__(self) -> "Phase":
        recorder = self.recorder
        self._outer = recorder._totals
        recorder._totals = recorder.phases.setdefault(
            self.name, defaultdict(LayerTotals)
        )
        self._roots = len(get_tracer().roots)
        self._cache = _profile_cache_counts()
        self._call = recorder.enter(f"bench.{self.name}", span=True)
        self.start = self._call.start
        return self

    def __exit__(self, *exc_info: object) -> None:
        recorder = self.recorder
        recorder.exit(self._call)
        self.wall_s = self._call.elapsed_s
        recorder._totals = self._outer
        hits, misses = _profile_cache_counts()
        self.cache_hits = hits - self._cache[0]
        self.cache_misses = misses - self._cache[1]
        for root in get_tracer().roots[self._roots :]:
            for span in root.walk():
                stage = span.name.removeprefix("label.")
                if stage in LABEL_STAGES:
                    self.label_stage_s[stage] = (
                        self.label_stage_s.get(stage, 0.0) + span.duration_s
                    )


def _profile_cache_counts() -> tuple[int, int]:
    registry = get_registry()
    return (
        int(registry.counter_value("features.profile_cache.hits")),
        int(registry.counter_value("features.profile_cache.misses")),
    )


def _monitor_wrapper(recorder: Recorder, on_tweet: Callable) -> Callable:
    """``on_tweet`` timed per call, counting the captures it appends."""
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(on_tweet)
    def wrapper(monitor, tweet):
        before = len(monitor.captured)
        call = enter("core.monitor", False)
        try:
            on_tweet(monitor, tweet)
        finally:
            totals = exit_(call)
        totals.counts["captures"] += len(monitor.captured) - before

    return wrapper


def _service_counts(args: tuple, stats) -> dict:
    return {
        "ingested": stats.ingested,
        "scored": stats.scored,
        "batches": stats.batches,
        "dropped": stats.dropped,
    }


def _fit_counts(args: tuple, forest) -> dict:
    rows = len(args[1])
    return {"rows": rows, "tree_rows": forest.n_estimators * rows}


#: Entry points timed as one call of a layer: owner, attribute, layer,
#: whether each call is a span, and the work counts of one call.
ENTRY_POINTS = (
    (experiment_module, "build_population", "twittersim.population",
     True, None),
    (TwitterEngine, "run_hour", "twittersim.engine", True,
     lambda args, stats: {"tweets": stats.total_tweets}),
    (AttributeSelector, "select", "core.selection", True,
     lambda args, nodes: {
         "selected": len(nodes),
         "requested": args[1].total_requested,
     }),
    (PseudoHoneypotNetwork, "run_hour", "core.network", True, None),
    (GroundTruthLabeler, "label", "labeling", True,
     lambda args, dataset: {"tweets": len(args[1])}),
    (FeatureExtractor, "extract", "features.extract", False, None),
    (RandomForestClassifier, "fit", "ml.fit", True, _fit_counts),
    (RandomForestClassifier, "predict_proba", "ml.infer", True,
     lambda args, proba: {"rows": len(args[1])}),
    (SnifferService, "run_network", "service", True, _service_counts),
    (SnifferService, "replay", "service", True, _service_counts),
)


@contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer's entry point for the duration of the block."""
    subscribe = TwitterEngine.subscribe
    unsubscribe = TwitterEngine.unsubscribe
    # Stream callbacks are wrapped as they subscribe; unsubscribing
    # maps the program's callback back to the wrapper in the list.
    wrapped: dict[Callable, Callable] = {}

    def traced_subscribe(engine, callback):
        wrapped[callback] = recorder.timed(
            "twittersim.streaming", callback, False
        )
        subscribe(engine, wrapped[callback])

    def traced_unsubscribe(engine, callback):
        unsubscribe(engine, wrapped.pop(callback, callback))

    patches = [
        (owner, name, recorder.timed(layer, vars(owner)[name], span, count))
        for owner, name, layer, span, count in ENTRY_POINTS
    ]
    patches += [
        (TwitterEngine, "subscribe", traced_subscribe),
        (TwitterEngine, "unsubscribe", traced_unsubscribe),
        (
            PseudoHoneypotMonitor,
            "on_tweet",
            _monitor_wrapper(recorder, PseudoHoneypotMonitor.on_tweet),
        ),
    ]
    originals = [
        (owner, name, vars(owner)[name]) for owner, name, __ in patches
    ]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield recorder
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    timed: Phase,
    untraced_wall_s: float,
    batch_gaps_ms: list[float],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric: name -> (value, unit).

    Layers are measured over the traced timed phase, except the world
    build, which only runs in set-up.  ``untraced_wall_s`` is the
    untraced timed-phase median; ``batch_gaps_ms`` come from the
    untraced repetitions too.
    """
    build = recorder.phases["setup"]["twittersim.population"]
    layers = recorder.phases["timed"]
    engine = layers["twittersim.engine"]
    stream = layers["twittersim.streaming"]
    monitor = layers["core.monitor"]
    selection = layers["core.selection"]
    labeling = layers["labeling"]
    extract = layers["features.extract"]
    fit = layers["ml.fit"]
    infer = layers["ml.infer"]
    service = layers["service"]
    root = layers["bench.timed"]
    tweets = engine.counts["tweets"]
    captures = monitor.counts["captures"]
    labeled = labeling.counts["tweets"]
    tree_rows = fit.counts["tree_rows"]
    inferred = infer.counts["rows"]
    metrics = {
        "twittersim.population.build_s": (build.busy_s, "s"),
        "twittersim.engine.self_s": (engine.self_s, "s"),
        "twittersim.engine.tweets": (tweets, "count"),
        "twittersim.engine.us_per_tweet": (
            _per(engine.self_s, tweets, 1e6),
            "us",
        ),
        "twittersim.streaming.busy_s": (stream.busy_s, "s"),
        "twittersim.streaming.self_s": (stream.self_s, "s"),
        "twittersim.streaming.tweets_examined": (stream.calls, "count"),
        "core.monitor.busy_s": (monitor.busy_s, "s"),
        "core.monitor.captures": (captures, "count"),
        "core.monitor.capture_ratio": (_per(captures, stream.calls), "ratio"),
        "core.selection.busy_s": (selection.busy_s, "s"),
        "core.selection.calls": (selection.calls, "count"),
        "core.selection.ms_per_call": (
            _per(selection.busy_s, selection.calls, 1e3),
            "ms",
        ),
        "core.selection.fill_ratio": (
            _per(
                selection.counts["selected"], selection.counts["requested"]
            ),
            "ratio",
        ),
        "core.network.self_s": (layers["core.network"].self_s, "s"),
        "labeling.busy_s": (labeling.busy_s, "s"),
        "labeling.tweets": (labeled, "count"),
        "labeling.us_per_tweet": (_per(labeling.busy_s, labeled, 1e6), "us"),
    }
    for stage in LABEL_STAGES:
        metrics[f"labeling.{stage}.busy_s"] = (
            timed.label_stage_s.get(stage, 0.0),
            "s",
        )
    lookups = timed.cache_hits + timed.cache_misses

    def gap_ms(q: float) -> float:
        """Nearest-rank percentile of the batch gaps."""
        if not batch_gaps_ms:
            return 0.0
        return float(
            np.percentile(batch_gaps_ms, q, method="inverted_cdf")
        )

    metrics.update(
        {
            "features.extract.busy_s": (extract.busy_s, "s"),
            "features.extract.rows": (extract.calls, "count"),
            "features.extract.us_per_row": (
                _per(extract.busy_s, extract.calls, 1e6),
                "us",
            ),
            "features.profile_cache.hit_ratio": (
                _per(timed.cache_hits, lookups),
                "ratio",
            ),
            "ml.fit.busy_s": (fit.busy_s, "s"),
            "ml.fit.tree_rows": (tree_rows, "count"),
            "ml.fit.ns_per_tree_row": (_per(fit.busy_s, tree_rows, 1e9), "ns"),
            "ml.infer.busy_s": (infer.busy_s, "s"),
            "ml.infer.rows": (inferred, "count"),
            "ml.infer.us_per_row": (_per(infer.busy_s, inferred, 1e6), "us"),
            "service.self_s": (service.self_s, "s"),
            "service.batches": (service.counts["batches"], "count"),
            "service.rows_per_batch": (
                _per(service.counts["scored"], service.counts["batches"]),
                "count",
            ),
            "service.dropped": (service.counts["dropped"], "count"),
            "service.batch_gap_p50_ms": (gap_ms(50), "ms"),
            "service.batch_gap_p90_ms": (gap_ms(90), "ms"),
            "trace.wall_s": (root.busy_s, "s"),
            "trace.remainder_s": (root.self_s, "s"),
            "trace.overhead_share": (
                _per(root.busy_s, untraced_wall_s) - 1.0,
                "ratio",
            ),
        }
    )
    return metrics
