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

Inside the kernel a tri-gram is one int64: its three code points, 21
bits each (U+10FFFF < 2**21).  A text shorter than three characters is
padded with a code above U+10FFFF, so it stays one shingle of its own,
hashed as the short string itself.
"""

from __future__ import annotations

from collections.abc import Callable
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

#: Bits per code point in a packed tri-gram, and their mask.
_POINT_BITS = 21
_POINT_MASK = (1 << _POINT_BITS) - 1

#: The code that pads a text shorter than a tri-gram: above U+10FFFF,
#: so no character has it.
_PAD = 0x110000

#: Follows each text in a chunk's joined string and reads as a pad:
#: :func:`strip_for_shingling` keeps only alphanumeric characters and
#: single spaces, so no stripped text holds a NUL.
_TEXT_END = "\0" * 3


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
    texts; it strips them and signs the stripped forms through
    ``_sign_stripped``, which a caller holding them already (the
    description grouping) calls directly.  The k hash values of every
    distinct shingle are kept in a bounded per-hasher table (tri-grams
    draw from a small alphabet: labeling the train benchmark's ~9.7k
    tweets meets about 1.2k distinct shingles among ~0.7M
    occurrences), whose rows are found by a sorted search over the
    packed tri-gram codes.  The table is a
    pure cache that never changes a signature, and it is left out of
    pickled state, so a hasher shipped to a pool worker starts empty.

    Args:
        n_hashes: signature length k (more = stricter identity).
        seed: seeds the hash coefficients ``a`` and ``b``.
    """

    def __init__(self, n_hashes: int = 16, *, seed: int = 0) -> None:
        if n_hashes < 1:
            raise ValueError("n_hashes must be >= 1")
        self.n_hashes = n_hashes
        rng = np.random.default_rng(seed)
        self._a = rng.integers(1, _MERSENNE_PRIME, size=n_hashes, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE_PRIME, size=n_hashes, dtype=np.int64)
        self._clear_table()

    def _clear_table(self) -> None:
        #: Packed tri-gram code of each table row, and the row order
        #: that sorts them.
        self._codes = np.empty(0, dtype=np.int64)
        self._sorter = np.empty(0, dtype=np.intp)
        self._table = np.empty((0, self.n_hashes), dtype=np.int64)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_codes"], state["_sorter"], state["_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._clear_table()

    def _rows_of(self, codes: np.ndarray) -> np.ndarray:
        """Table rows of ``codes``; -1 for a code the table lacks."""
        if not len(self._codes):
            return np.full(len(codes), -1, dtype=np.intp)
        slots = np.searchsorted(self._codes, codes, sorter=self._sorter)
        rows = self._sorter[np.minimum(slots, len(self._codes) - 1)]
        rows[self._codes[rows] != codes] = -1
        return rows

    def _add_rows(self, codes: np.ndarray) -> np.ndarray:
        """Give new tri-gram codes table rows holding their k hash
        values, and return those rows; only these codes are decoded
        and hashed."""
        start = len(self._codes)
        end = start + len(codes)
        if end > len(self._table):
            grown = np.empty(
                (max(end, 2 * len(self._table)), self.n_hashes), np.int64
            )
            grown[:start] = self._table[:start]
            self._table = grown
        hashed = np.fromiter(
            (stable_hash64(_shingle_text(code)) for code in codes.tolist()),
            dtype=np.int64,
            count=end - start,
        )
        # int64 on purpose: the product wraps (see the module docstring).
        self._table[start:end] = (
            hashed[:, None] * self._a[None, :] + self._b[None, :]
        ) % _MERSENNE_PRIME
        self._codes = np.concatenate([self._codes, codes])
        self._sorter = np.argsort(self._codes)
        return np.arange(start, end)

    def _signature_chunk(self, stripped: list[str]) -> list[tuple[int, ...]]:
        if len(self._codes) >= _TABLE_CAP:
            self._clear_table()
        lengths = np.fromiter(
            map(len, stripped), dtype=np.intp, count=len(stripped)
        )
        points = np.frombuffer(
            (_TEXT_END.join(stripped) + _TEXT_END).encode("utf-32-le"),
            dtype="<u4",
        ).astype(np.int64)
        points[points == 0] = _PAD
        # Text t's tri-grams start at its first character and number
        # max(len - 2, 1): one padded shingle when shorter than three.
        counts = np.maximum(lengths - 2, 1)
        starts = np.cumsum(counts) - counts
        spans = lengths + len(_TEXT_END)
        firsts = np.cumsum(spans) - spans
        at = np.arange(starts[-1] + counts[-1]) + np.repeat(
            firsts - starts, counts
        )
        codes = (
            points[at] << 2 * _POINT_BITS
            | points[at + 1] << _POINT_BITS
            | points[at + 2]
        )
        unique, inverse = np.unique(codes, return_inverse=True)
        rows = self._rows_of(unique)
        new = rows < 0
        if new.any():
            rows[new] = self._add_rows(unique[new])
        minima = np.minimum.reduceat(
            self._table[rows[inverse]], starts, axis=0
        )
        return [tuple(signature) for signature in minima.tolist()]

    def signatures(self, texts: list[str]) -> list[tuple[int, ...]]:
        """MinHash signatures of ``texts``, in order.

        Each text is stripped for shingling (:func:`strip_for_shingling`)
        and signed by :meth:`_sign_stripped`.
        """
        return self._sign_stripped(
            [strip_for_shingling(text) for text in texts]
        )

    def _sign_stripped(self, stripped: list[str]) -> list[tuple[int, ...]]:
        """Signatures of texts already stripped for shingling.

        Each chunk of at most 256 texts costs one gather of its
        shingles' table rows and one ``np.minimum.reduceat`` over them;
        only shingles new to the table are hashed.
        """
        return [
            signature
            for start in range(0, len(stripped), _CHUNK)
            for signature in self._signature_chunk(
                stripped[start : start + _CHUNK]
            )
        ]


def _shingle_text(code: int) -> str:
    """The string a packed tri-gram code stands for, pads dropped."""
    return "".join(
        chr(point)
        for point in (
            code >> 2 * _POINT_BITS,
            (code >> _POINT_BITS) & _POINT_MASK,
            code & _POINT_MASK,
        )
        if point != _PAD
    )


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
    # Each key's first index, and a list only for a key that repeats:
    # most texts are distinct, so most keys never need one.
    first: dict[tuple, int] = {}
    groups: dict[int, list[int]] = {}
    for idx, key in enumerate(zip(scopes, signatures)):
        head = first.setdefault(key, idx)
        if head != idx:
            groups.setdefault(head, [head]).append(idx)
    return [groups[head] for head in sorted(groups)]


def _distinct_signatures(
    texts: list[str],
    sign: Callable[[list[str]], list[tuple[int, ...]]],
    workers: int | None,
    label: str,
) -> list[tuple[int, ...]]:
    """Signatures of ``texts``, hashing each distinct string once.

    ``sign`` is a hasher's :meth:`MinHasher.signatures`, or its
    ``_sign_stripped`` for texts already stripped for shingling.  The
    signature is a pure function of the text and campaign blasts
    repeat texts heavily, so signatures are computed per distinct
    string (in first-appearance order) and fanned back out.  The
    distinct strings go to ``workers`` in chunks of at most 256, one
    ``sign`` call each, so results are positionally identical at any
    worker count.
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
        for batch in parallel_map(sign, chunks, workers=workers, label=label)
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
    # Each text is stripped once: the form both drops blank bios and is
    # what the hasher signs.
    stripped = [strip_for_shingling(text) for text in texts]
    eligible = [idx for idx, form in enumerate(stripped) if form]
    signatures = _distinct_signatures(
        [stripped[idx] for idx in eligible],
        hasher._sign_stripped,
        workers,
        "minhash",
    )
    return [
        [eligible[i] for i in members]
        for members in group_signatures(signatures)
    ]
