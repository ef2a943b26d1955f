"""Grouping MinHash signatures: one dict bucket on (scope, signature).

Two texts are the same exactly when their signatures agree (§IV-B), so
grouping needs no candidate scan.  The contract under test: groups
come out in first-appearance order with members ascending, never span
two scopes, and are byte-stable at any worker count.
"""

from __future__ import annotations

import pytest

from repro.labeling.minhash import (
    MinHasher,
    group_by_signature,
    group_signatures,
)
from repro.obs import reset, set_enabled


@pytest.fixture(autouse=True)
def clean_obs():
    reset()
    set_enabled(True)
    yield
    reset()


class TestGroupSignatures:
    def test_groups_full_signature_matches(self):
        signatures = [
            (1, 2, 3, 4),
            (9, 9, 9, 9),
            (1, 2, 3, 4),
            (5, 6, 7, 8),
            (9, 9, 9, 9),
            (1, 2, 3, 4),
            (1, 2, 3, 5),
        ]
        groups = group_signatures(signatures)
        # First-appearance order, members ascending; agreeing on all
        # but one minimum is not the same text.
        assert groups == [[0, 2, 5], [1, 4]]
        # A group whose second member comes first still sorts by its
        # first member.
        assert group_signatures([(1,), (2,), (2,), (1,)]) == [[0, 3], [1, 2]]

    def test_scopes_split_groups(self):
        signatures = [(1, 2), (1, 2), (1, 2)]
        groups = group_signatures(signatures, scopes=[0, 0, 1])
        assert groups == [[0, 1]]


class TestWorkerCountInvariance:
    TEXTS = [
        "win big cash now http://spam.example/a",
        "completely unrelated words about gardening today",
        "win big cash now http://spam.example/b",
        "the weather is lovely in the mountains",
        "win big cash now join fast",
        "another benign sentence with enough length",
    ] * 4

    def test_groups_identical_at_any_worker_count(self):
        hasher = MinHasher(seed=5)
        base = group_by_signature(self.TEXTS, hasher=hasher, workers=0)
        assert base
        for workers in (2, 4):
            assert (
                group_by_signature(
                    self.TEXTS, hasher=hasher, workers=workers
                )
                == base
            )
