"""Always-on sniffer service: async ingestion + online scoring.

The deployment shape of the paper's detector: one deterministic loop
on a virtual clock serves captured tweets in arrival order through a
bounded queue into the detector's one scoring kernel
(:meth:`repro.core.detector.PseudoHoneypotDetector.score`: incremental
feature extraction against a long-lived extractor, then the compiled
forest) — see :class:`~repro.service.sniffer.SnifferService`.
:mod:`.health` adds the service watchdog rule and :mod:`.soak` the
chaos soak harness.
"""

from .health import queue_saturation_rule, service_rules
from .sniffer import ScoredTweet, ServiceStats, SnifferService
from .soak import SoakOutcome, run_service_soak, synthetic_detector

__all__ = [
    "ScoredTweet",
    "ServiceStats",
    "SnifferService",
    "SoakOutcome",
    "queue_saturation_rule",
    "run_service_soak",
    "service_rules",
    "synthetic_detector",
]
