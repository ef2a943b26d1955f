"""Always-on sniffer service: async ingestion + online scoring.

The deployment shape of the paper's detector: a deterministic
event-driven loop (:mod:`.scheduler`) feeds captured tweets through a
bounded queue (:mod:`.queues`) into incremental feature extraction
backed by the shared LRU memo (:mod:`.cache`), scoring batches through
the compiled forest (:mod:`repro.ml.compiled`) — see
:class:`~repro.service.sniffer.SnifferService`.  :mod:`.health` adds
the service watchdog rules and :mod:`.soak` the chaos soak harness.

This ``__init__`` resolves its exports lazily (PEP 562): the feature
extractor imports :class:`LRUCache` from :mod:`.cache`, and an eager
package body importing :mod:`.sniffer` (which imports the extractor)
would close that cycle at import time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "BoundedQueue": ".queues",
    "EventScheduler": ".scheduler",
    "LRUCache": ".cache",
    "ScoredTweet": ".sniffer",
    "ServiceStats": ".sniffer",
    "SnifferService": ".sniffer",
    "SoakOutcome": ".soak",
    "cache_hit_collapse_rule": ".health",
    "queue_saturation_rule": ".health",
    "run_service_soak": ".soak",
    "service_rules": ".health",
    "synthetic_detector": ".soak",
}

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers
    from .cache import LRUCache
    from .health import (
        cache_hit_collapse_rule,
        queue_saturation_rule,
        service_rules,
    )
    from .queues import BoundedQueue
    from .scheduler import EventScheduler
    from .sniffer import ScoredTweet, ServiceStats, SnifferService
    from .soak import SoakOutcome, run_service_soak, synthetic_detector

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    return getattr(import_module(module, __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
