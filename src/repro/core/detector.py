"""The pseudo-honeypot spam detector (Section IV).

Couples the 58-feature extractor with a pluggable classifier (the paper
deploys Random Forest with 70 trees after the Table-IV comparison).

Every scoring caller runs one kernel, the paper's online
reverse-engineering loop: :func:`time_order` puts captures in time
order, :func:`extract_rows` extracts each capture's row (feeding a
training label back right after its own row), and
:meth:`PseudoHoneypotDetector.score` classifies one chunk and feeds its
confirmed spams into the environment-score tracker before the next
chunk.  Training (``fit``), batch classification (``classify``) and the
always-on service (:class:`repro.service.sniffer.SnifferService`) all
go through it, so their rows and verdicts agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..features.environment import EnvironmentScoreTracker
from ..features.extractor import FeatureExtractor
from ..features.schema import N_FEATURES
from ..labeling.pipeline import LabeledDataset
from ..ml.base import Classifier
from ..ml.forest import RandomForestClassifier
from ..obs import get_registry, trace
from .monitor import CapturedTweet

#: A row is flagged as spam at this probability or above: ``predict``'s
#: rule for the forest and the decision tree the detector is built with.
SPAM_THRESHOLD = 0.5


def time_order(captures: list[CapturedTweet]) -> np.ndarray:
    """Indices that put captures in time order; ties keep input order.

    Ties are real: the engine clamps spam that reacts to an earlier
    hour's post to the hour's first instant, so several captures can
    share one stamp.
    """
    return np.argsort([c.tweet.created_at for c in captures], kind="stable")


def extract_rows(
    extractor: FeatureExtractor,
    captures: list[CapturedTweet],
    labels: np.ndarray | None = None,
) -> np.ndarray:
    """(n, 58) feature rows of time-ordered captures, one row each.

    With ``labels`` (training), each labeled spam reaches the
    environment tracker right after its own row, as it would during
    live collection.
    """
    rows = np.empty((len(captures), N_FEATURES))
    for i, capture in enumerate(captures):
        rows[i] = extractor.extract(
            capture.tweet, capture.attribute_keys, capture.node_user_ids
        )
        if labels is not None and labels[i]:
            extractor.environment.record_spam(capture.attribute_keys)
    return rows


def join_labels(
    captures: list[CapturedTweet], dataset: LabeledDataset
) -> tuple[list[CapturedTweet], np.ndarray]:
    """The captures ``dataset`` labeled, in time order, with their labels.

    Captures whose tweets the dataset never labeled are skipped.
    """
    label_of = {
        tweet.tweet_id: int(label)
        for tweet, label in zip(dataset.tweets, dataset.tweet_labels)
    }
    kept = [c for c in captures if c.tweet.tweet_id in label_of]
    kept = [kept[i] for i in time_order(kept)]
    return kept, np.array([label_of[c.tweet.tweet_id] for c in kept])


def default_classifier(seed: int = 0) -> RandomForestClassifier:
    """The paper's deployed configuration: RF, 70 trees, depth 700."""
    return RandomForestClassifier(
        n_estimators=70, max_depth=700, seed=seed
    )


@dataclass
class ClassificationOutcome:
    """Result of classifying a captured stream."""

    captures: list[CapturedTweet]
    is_spam: np.ndarray
    spammer_ids: set[int] = field(default_factory=set)

    @property
    def n_spams(self) -> int:
        return int(self.is_spam.sum())

    @property
    def n_spammers(self) -> int:
        return len(self.spammer_ids)

    @property
    def n_tweets(self) -> int:
        return len(self.captures)


class PseudoHoneypotDetector:
    """Feature pipeline + classifier, trained on labeled captures.

    Args:
        classifier: any :class:`repro.ml.base.Classifier`; defaults to
            the paper's RF(70, depth 700).
        environment: shared group-likelihood tracker (fresh if omitted);
            the same tracker must be used for training and deployment so
            environment scores stay comparable.
    """

    def __init__(
        self,
        classifier: Classifier | None = None,
        environment: EnvironmentScoreTracker | None = None,
    ) -> None:
        self.classifier: Classifier = classifier or default_classifier()
        self.environment = environment or EnvironmentScoreTracker()
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """Whether the detector is ready to classify."""
        return self._fitted

    @classmethod
    def from_fitted_classifier(
        cls,
        classifier: Classifier,
        environment: EnvironmentScoreTracker | None = None,
    ) -> "PseudoHoneypotDetector":
        """Wrap an already-fitted classifier, ready to classify.

        The service/soak harnesses fit classifiers outside the
        capture-labeling flow (e.g. on synthetic matrices) and only
        need the extraction + feedback plumbing around them.
        """
        detector = cls(classifier=classifier, environment=environment)
        detector._fitted = True
        return detector

    # ------------------------------------------------------------------

    def extract_features(
        self, captures: list[CapturedTweet], labels: np.ndarray | None = None
    ) -> np.ndarray:
        """(n, 58) features of captures, in time order.

        When ``labels`` is given (training, aligned with ``captures``),
        labeled spams update the environment tracker as they stream
        past, exactly as they would during live collection.
        """
        order = time_order(captures)
        return extract_rows(
            FeatureExtractor(environment=self.environment),
            [captures[i] for i in order],
            None if labels is None else np.asarray(labels)[order],
        )

    def fit(
        self, captures: list[CapturedTweet], labels: np.ndarray
    ) -> "PseudoHoneypotDetector":
        """Train on labeled captures; returns self.

        Raises:
            ValueError: on empty or misaligned input.
        """
        if len(captures) != len(labels):
            raise ValueError("captures and labels must align")
        if len(captures) == 0:
            raise ValueError("cannot fit on an empty capture set")
        with trace("ml.fit") as span:
            with trace("ml.extract_features") as extract_span:
                X = self.extract_features(captures, labels)
                extract_span.set(n_rows=X.shape[0], n_features=X.shape[1])
            y = np.asarray(labels)[time_order(captures)]
            self.classifier.fit(X, y)
            span.set(
                n_samples=len(captures),
                n_spam_labels=int(y.sum()),
                classifier=type(self.classifier).__name__,
            )
        get_registry().counter("ml.fits").inc()
        self._fitted = True
        return self

    def fit_from_ground_truth(
        self, captures: list[CapturedTweet], dataset: LabeledDataset
    ) -> "PseudoHoneypotDetector":
        """Train using a :class:`LabeledDataset` keyed by tweet id.

        Captures whose tweets the dataset never labeled are skipped.
        """
        return self.fit(*join_labels(captures, dataset))

    def score(
        self, extractor: FeatureExtractor, chunk: list[CapturedTweet]
    ) -> tuple[np.ndarray, np.ndarray, list[bool]]:
        """Feature rows, spam probabilities and verdicts of one chunk.

        A capture's verdict is ``p_spam >= SPAM_THRESHOLD``, decided
        here once per chunk for every caller.  The rows see the
        environment as of the previous chunk; the chunk's verdicts then
        reach the extractor's environment tracker before the next
        chunk — the paper's online feedback loop at batch granularity,
        which keeps inference vectorized.  Where chunks close does
        change verdicts: under the service's default 900 s flush
        deadline, one verdict in about 29k flips at seed 2 against full
        batches (``sniffbench/METRICS.md``; ROADMAP item 4).
        """
        X = extract_rows(extractor, chunk)
        p_spam = np.asarray(self.classifier.predict_proba(X))[:, 1]
        is_spam = (p_spam >= SPAM_THRESHOLD).tolist()
        record_spam = extractor.environment.record_spam
        for capture, spam in zip(chunk, is_spam):
            if spam:
                record_spam(capture.attribute_keys)
        return X, p_spam, is_spam

    def classify(
        self, captures: list[CapturedTweet], chunk_size: int = 2_000
    ) -> ClassificationOutcome:
        """Classify a captured stream; spams update environment scores.

        The stream is scored in time-ordered chunks of ``chunk_size``
        through :meth:`score`, one extractor across all of them.

        Raises:
            RuntimeError: if the detector was never fitted.
            ValueError: if ``chunk_size`` is not an int >= 1 (bools
                included), which would otherwise score nothing.
        """
        if not self._fitted:
            raise RuntimeError("detector must be fit before classifying")
        if (
            not isinstance(chunk_size, int)
            or isinstance(chunk_size, bool)
            or chunk_size < 1
        ):
            raise ValueError(
                f"chunk_size must be an int >= 1, got {chunk_size!r}"
            )
        ordered = [captures[i] for i in time_order(captures)]
        extractor = FeatureExtractor(environment=self.environment)
        is_spam = np.zeros(len(ordered), dtype=np.int64)
        for start in range(0, len(ordered), chunk_size):
            chunk = ordered[start : start + chunk_size]
            __, __, spam = self.score(extractor, chunk)
            is_spam[start : start + len(chunk)] = spam
        return ClassificationOutcome(
            captures=ordered,
            is_spam=is_spam,
            spammer_ids={
                c.sender_id for c, spam in zip(ordered, is_spam) if spam
            },
        )
