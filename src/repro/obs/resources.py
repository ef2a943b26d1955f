"""Per-phase process-resource sampling (``resource.getrusage``).

Spans record how long each phase ran and how much CPU it burned; the
run ledger also wants to know how *big* each phase was — a
million-account world lives or dies on peak RSS.  This module is the
zero-dependency sampler behind that:

* :func:`sample` returns one :class:`ResourceSample` — peak RSS in
  KiB plus cumulative user/system CPU seconds — normalized across
  platforms (Linux reports ``ru_maxrss`` in KiB, macOS in bytes);
* ``trace(...)`` stamps ``max_rss_kb`` onto every span at exit, next
  to ``cpu_s``;
* ``RunReport.normalized()`` strips the attribute with the other
  timing data, so deterministic artifacts stay byte-stable, while
  raw reports — and the :class:`~repro.obs.ledger.RunRecord`\\ s
  distilled from them — keep the per-phase peak.

``ru_maxrss`` is a process-lifetime *high-water mark*, not a gauge:
per-phase values are monotone within one run and the interesting
signal is the phase at which the peak jumps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]


@dataclass(frozen=True, slots=True)
class ResourceSample:
    """One ``getrusage`` reading, platform-normalized."""

    #: Peak resident set size of the process so far, in KiB.
    max_rss_kb: int
    #: Cumulative user-mode CPU seconds.
    user_cpu_s: float
    #: Cumulative kernel-mode CPU seconds.
    system_cpu_s: float

    @property
    def cpu_s(self) -> float:
        """Total CPU seconds (user + system)."""
        return self.user_cpu_s + self.system_cpu_s


def available() -> bool:
    """Whether this platform exposes ``resource.getrusage``."""
    return _resource is not None


def sample() -> ResourceSample:
    """One reading for the current process (zeros where unsupported)."""
    if _resource is None:  # pragma: no cover - non-POSIX fallback
        return ResourceSample(0, 0.0, 0.0)
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    max_rss = int(usage.ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        max_rss //= 1024
    return ResourceSample(
        max_rss_kb=max_rss,
        user_cpu_s=float(usage.ru_utime),
        system_cpu_s=float(usage.ru_stime),
    )
