"""Always-on sniffer service: async ingestion + online scoring.

The deployment shape of the paper's detector: a deterministic
event-driven loop (:mod:`.scheduler`) feeds captured tweets through a
bounded queue (:mod:`.queues`) into the detector's one scoring kernel
(:meth:`repro.core.detector.PseudoHoneypotDetector.score`: incremental
feature extraction against a long-lived extractor, then the compiled
forest) — see :class:`~repro.service.sniffer.SnifferService`.
:mod:`.health` adds the service watchdog rule and :mod:`.soak` the
chaos soak harness.
"""

from .health import queue_saturation_rule, service_rules
from .queues import BoundedQueue
from .scheduler import EventScheduler
from .sniffer import ScoredTweet, ServiceStats, SnifferService
from .soak import SoakOutcome, run_service_soak, synthetic_detector

__all__ = [
    "BoundedQueue",
    "EventScheduler",
    "ScoredTweet",
    "ServiceStats",
    "SnifferService",
    "SoakOutcome",
    "queue_saturation_rule",
    "run_service_soak",
    "service_rules",
    "synthetic_detector",
]
