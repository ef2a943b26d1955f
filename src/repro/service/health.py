"""Service-mode health rule: queue saturation.

Extends the stock rule pack with the degraded mode an always-on
deployment adds: the ingestion queue shedding load (overflow drops).
It follows the engine's determinism contract — judged on sim-hour
ticks, reading event counts only.
"""

from __future__ import annotations

from ..obs.health import HealthContext, HealthRule, default_rules


def queue_saturation_rule(
    window: int = 1, min_dropped: int = 1
) -> HealthRule:
    """Ingestion overflow: the bounded queue refused arrivals.

    Every refused arrival emits one ``service.overflow`` event, so the
    windowed event count *is* the drop count.
    """

    def predicate(ctx: HealthContext) -> object:
        dropped = ctx.count("service.overflow")
        if dropped >= min_dropped:
            return {"dropped": dropped}
        return False

    return HealthRule(
        name="service.queue_saturation",
        severity="critical",
        predicate=predicate,
        window_hours=window,
        description=(
            f">= {min_dropped} ingestion drop(s) within {window}h: "
            "the bounded queue is shedding load"
        ),
    )


def service_rules() -> tuple[HealthRule, ...]:
    """The stock health rules plus the service watchdog."""
    return (*default_rules(), queue_saturation_rule())


__all__ = [
    "queue_saturation_rule",
    "service_rules",
]
