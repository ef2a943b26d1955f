"""Environment score (Section IV-A).

Each pseudo-honeypot attribute i carries a *group likelihood score*
p_i — the running probability that attribute i attracts spam, i.e.
spams found under that attribute over tweets captured under it.  A
tweet's environment score is the maximum p_i over the attributes of
the node that captured it, or a small constant τ when no spam has yet
been seen under any of those attributes.  Scores update online as the
detector confirms new spam, closing the paper's reverse-engineering
feedback loop.
"""

from __future__ import annotations

from collections import defaultdict


class EnvironmentScoreTracker:
    """Running group-likelihood scores per selection attribute."""

    def __init__(self, tau: float = 0.01) -> None:
        if not 0 <= tau <= 1:
            raise ValueError("tau must be in [0, 1]")
        self.tau = tau
        self._tweets: dict[str, int] = defaultdict(int)
        self._spams: dict[str, int] = defaultdict(int)

    def record_capture(self, attributes: tuple[str, ...]) -> None:
        """Count one captured tweet under each capturing attribute."""
        for attribute in attributes:
            self._tweets[attribute] += 1

    def record_spam(self, attributes: tuple[str, ...]) -> None:
        """Count one confirmed spam under each capturing attribute."""
        for attribute in attributes:
            self._spams[attribute] += 1

    def likelihood(self, attribute: str) -> float | None:
        """p_i for one attribute, or None if no spam seen under it."""
        spams = self._spams.get(attribute, 0)
        if spams == 0:
            return None
        return spams / max(self._tweets.get(attribute, spams), spams)

    def score(self, attributes: tuple[str, ...]) -> float:
        """Environment score: max p_i over attributes, else τ."""
        best = None
        for attribute in attributes:
            p = self.likelihood(attribute)
            if p is not None and (best is None or p > best):
                best = p
        return self.tau if best is None else best

    def snapshot(self) -> dict[str, float]:
        """Current p_i for every attribute with at least one spam."""
        return {
            attribute: self.likelihood(attribute)
            for attribute in self._spams
        }
