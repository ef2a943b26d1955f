"""MinHash over tri-gram shingles for near-duplicate text (Section IV-B).

User descriptions (and tweet bodies, for the near-duplicate tweet
check) are normalized, cut into character tri-gram shingles, and each
shingle is hashed by k functions; the signature is the vector of
per-function minima.  Following the paper, two texts are considered
identical when their signatures agree, so grouping is one dictionary
bucket on ``(scope, signature)``, where the scope is the tweet check's
day window (descriptions have none).

The k functions are ``h_i(s) = (a_i * s + b_i) mod p`` with
``p = 2**61 - 1``, but evaluated in int64: ``a_i < 2**61`` and the
shingle hash ``s < 2**63``, so ``a_i * s + b_i`` wraps modulo
``2**64`` (two's complement) before the non-negative ``mod p``.  The
family is therefore not the textbook universal family; every signature,
and so every label downstream, depends on the wrapped values, which a
golden test pins.

Shingles are hashed with :func:`stable_hash64`, not builtin
``hash()``: the builtin is salted per process (``PYTHONHASHSEED``),
so its signatures would disagree across pool workers and across
reruns — exactly the nondeterminism lint rule RPL005 bans.
"""

from __future__ import annotations

from collections import defaultdict
from hashlib import blake2b

import numpy as np

from ..features.textstats import strip_for_shingling
from ..parallel import parallel_map

_MERSENNE_PRIME = (1 << 61) - 1

#: Texts per whole-array pass (and per pool task): bounds the gathered
#: (shingles x k) block one ``np.minimum.reduceat`` reads.
_CHUNK = 256

#: Distinct shingles a hasher's table holds before a chunk starts it
#: over; one chunk may add its own shingles past the cap.
_TABLE_CAP = 1 << 16


def stable_hash64(text: str) -> int:
    """Process-stable 63-bit hash of a text (blake2b-derived).

    Identical across interpreter runs, ``PYTHONHASHSEED`` values, and
    pool workers — the property builtin ``hash()`` deliberately lacks.
    The top bit is masked off so values fit ``np.int64``.
    """
    digest = blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


class MinHasher:
    """k-function MinHash signatures over character tri-grams.

    :meth:`signatures` is the batch kernel and the one way to sign
    texts.  The k hash values of every distinct shingle
    are kept in a bounded per-hasher table (tri-grams draw from a small
    alphabet: labeling the train benchmark's ~9.7k tweets meets about
    1.2k distinct shingles among ~0.7M occurrences).  The table is a
    pure cache that never changes a signature, and it is left out of
    pickled state, so a hasher shipped to a pool worker starts empty.

    Args:
        n_hashes: signature length k (more = stricter identity).
        shingle_size: character n-gram size (paper: tri-grams).
        seed: seeds the hash coefficients ``a`` and ``b``.
    """

    def __init__(
        self, n_hashes: int = 16, shingle_size: int = 3, seed: int = 0
    ) -> None:
        if n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")
        if shingle_size < 1:
            raise ValueError("shingle_size must be >= 1")
        self.n_hashes = n_hashes
        self.shingle_size = shingle_size
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _MERSENNE_PRIME, size=n_hashes, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=n_hashes, dtype=np.int64)
        self._clear_table()

    def _clear_table(self) -> None:
        self._row_of: dict[str, int] = {}
        self._table = np.empty((0, self.n_hashes), dtype=np.int64)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_row_of"], state["_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_table()

    def _add_rows(self, shingles: list[str]) -> None:
        """Give new shingles table rows holding their k hash values."""
        start = len(self._row_of)
        end = start + len(shingles)
        self._row_of.update(zip(shingles, range(start, end)))
        if end > len(self._table):
            grown = np.empty(
                (max(end, 2 * len(self._table)), self.n_hashes), np.int64
            )
            grown[:start] = self._table[:start]
            self._table = grown
        hashed = np.fromiter(
            map(stable_hash64, shingles), dtype=np.int64, count=end - start
        )
        # int64 on purpose: the product wraps (see the module docstring).
        self._table[start:end] = (
            hashed[:, None] * self._a[None, :] + self._b[None, :]
        ) % _MERSENNE_PRIME

    def _signature_chunk(self, texts: list[str]) -> list[tuple[int, ...]]:
        if len(self._row_of) >= _TABLE_CAP:
            self._clear_table()
        k = self.shingle_size
        shingles: list[str] = []
        starts: list[int] = []
        for text in texts:
            starts.append(len(shingles))
            normalized = strip_for_shingling(text)
            if len(normalized) < k:
                shingles.append(normalized)
            else:
                shingles += [
                    normalized[i : i + k]
                    for i in range(len(normalized) - k + 1)
                ]
        row_of = self._row_of
        new = [
            shingle
            for shingle in dict.fromkeys(shingles)
            if shingle not in row_of
        ]
        if new:
            self._add_rows(new)
        rows = np.fromiter(
            map(row_of.__getitem__, shingles),
            dtype=np.intp,
            count=len(shingles),
        )
        minima = np.minimum.reduceat(self._table[rows], starts, axis=0)
        return [tuple(signature) for signature in minima.tolist()]

    def signatures(self, texts: list[str]) -> list[tuple[int, ...]]:
        """MinHash signatures of ``texts``, in order.

        Each chunk of at most 256 texts costs one gather of its
        shingles' table rows and one ``np.minimum.reduceat`` over them;
        only shingles new to the table are hashed.
        """
        return [
            signature
            for start in range(0, len(texts), _CHUNK)
            for signature in self._signature_chunk(
                texts[start : start + _CHUNK]
            )
        ]


def group_signatures(
    signatures: list[tuple[int, ...]], scopes: list | None = None
) -> list[list[int]]:
    """Group the indices of equal signatures.

    One dict bucket keyed on ``(scope, signature)``: ``scopes`` (e.g.
    the tweet's day window) keeps a group inside one scope.

    Returns:
        Groups of indices (size >= 2) in first-appearance order, with
        members ascending.
    """
    if scopes is None:
        scopes = [None] * len(signatures)
    buckets: dict[tuple, list[int]] = defaultdict(list)
    for idx, key in enumerate(zip(scopes, signatures)):
        buckets[key].append(idx)
    return [members for members in buckets.values() if len(members) >= 2]


def _distinct_signatures(
    texts: list[str],
    hasher: MinHasher,
    workers: int | None,
    label: str,
) -> list[tuple[int, ...]]:
    """Signatures of ``texts``, hashing each distinct string once.

    The signature is a pure function of the text and campaign blasts
    repeat texts heavily, so signatures are computed per distinct
    string (in first-appearance order) and fanned back out.  The
    distinct strings go to ``workers`` in chunks of at most 256, one
    :meth:`MinHasher.signatures` call each, so results are
    positionally identical at any worker count.
    """
    slot_of: dict[str, int] = {}
    distinct: list[str] = []
    for text in texts:
        if text not in slot_of:
            slot_of[text] = len(distinct)
            distinct.append(text)
    chunks = [
        distinct[start : start + _CHUNK]
        for start in range(0, len(distinct), _CHUNK)
    ]
    computed = [
        signature
        for batch in parallel_map(
            hasher.signatures, chunks, workers=workers, label=label
        )
        for signature in batch
    ]
    return [computed[slot_of[text]] for text in texts]


def group_by_signature(
    texts: list[str],
    hasher: MinHasher | None = None,
    workers: int | None = None,
) -> list[list[int]]:
    """Group indices of texts with identical MinHash signatures.

    Empty (post-normalization) texts are never grouped: a blank bio is
    not evidence of affiliation.

    Signatures are computed once per distinct text, in chunks that
    fan out over ``workers`` pool processes (0 = sequential; ``None``
    defers to the ambient :func:`repro.parallel.resolve_workers`
    rule), and grouped by :func:`group_signatures`, so the groups are
    the same at any worker count.

    Returns:
        Groups of indices, each of size >= 2, in first-appearance
        order.
    """
    hasher = hasher or MinHasher()
    eligible = [
        (idx, text)
        for idx, text in enumerate(texts)
        if strip_for_shingling(text)
    ]
    signatures = _distinct_signatures(
        [text for __, text in eligible], hasher, workers, "minhash"
    )
    return [
        [eligible[i][0] for i in members]
        for members in group_signatures(signatures)
    ]
