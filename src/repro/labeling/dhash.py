"""Difference-hash (dHash) profile-image fingerprinting (Section IV-B).

Following the paper: the image is reduced to 9x9 grayscale, adjacent
pixels are compared horizontally and vertically (8x8 bits each), and
the two 64-bit values are concatenated into a 128-bit hash.  Two images
belong to the same group when the Hamming distance of their hashes is
below a threshold (paper: 5).

Pairwise comparison over all captured avatars would be O(n²); grouping
uses the pigeonhole trick instead: a 128-bit hash is cut into
``threshold + 1`` segments, and any two hashes within the threshold
must agree on at least one whole segment, so candidate pairs are found
by bucketing on segments and verified exactly.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

#: Paper's grouping threshold on Hamming distance.
DEFAULT_THRESHOLD = 5

_HASH_BITS = 128

#: Side of the grayscale reduction (9x9 gives 8x8 neighbour pairs).
_SIZE = 9

#: Images stacked per kernel call: bounds the stacked copy and its
#: int64 block sums, which count against peak memory.
_CHUNK = 256


def _dhash_stack(stack: np.ndarray) -> list[int]:
    """dHashes of a stack of same-shape images, in stack order.

    ``stack`` is ``(n, h, w)`` grayscale or ``(n, h, w, c)`` colour;
    a colour image hashes as the mean of its channels.  Block sums of
    integer pixels are exact (int64), so each block mean is the
    correctly rounded ``sum / count`` that a per-block ``mean()``
    returns, and every neighbour comparison is exact.
    """
    n, h, w = stack.shape[:3]
    if h < _SIZE or w < _SIZE:
        raise ValueError(
            f"image {stack.shape[1:]} smaller than {_SIZE}x{_SIZE}"
        )
    exact = stack.dtype.kind in "biu"
    rows = np.linspace(0, h, _SIZE + 1).astype(int)
    cols = np.linspace(0, w, _SIZE + 1).astype(int)
    sums = np.add.reduceat(
        stack, rows[:-1], axis=1, dtype=np.int64 if exact else np.float64
    )
    sums = np.add.reduceat(sums, cols[:-1], axis=2)
    counts = np.outer(np.diff(rows), np.diff(cols))
    if sums.ndim == 4:
        counts = counts * sums.shape[3]
        sums = sums.sum(axis=3)
    means = sums / counts
    left = means[:, :8, :8]
    horizontal = left > means[:, :8, 1:]
    vertical = left > means[:, 1:, :8]
    bits = np.concatenate(
        [horizontal.reshape(n, 64), vertical.reshape(n, 64)], axis=1
    )
    packed = np.packbits(bits, axis=1)
    return [int.from_bytes(row.tobytes(), "big") for row in packed]


def dhash_many(images: list[np.ndarray]) -> list[int]:
    """128-bit difference hash of every image, in input order.

    Each image is reduced to 9x9 block means; the horizontal pass
    compares the 8x8 left/right neighbour pairs, the vertical pass
    the top/bottom pairs, and the bits are concatenated
    horizontal-first, most significant first.  Same-shape images are
    hashed together by one whole-array pass per chunk of at most 256.

    Raises:
        ValueError: on an image smaller than 9x9 or not 2-D/3-D.
    """
    arrays = [np.asarray(image) for image in images]
    by_shape: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for idx, array in enumerate(arrays):
        if array.ndim not in (2, 3):
            raise ValueError(f"image {array.shape} is not 2-D or 3-D")
        by_shape[array.shape].append(idx)
    hashes = [0] * len(arrays)
    for members in by_shape.values():
        for start in range(0, len(members), _CHUNK):
            chunk = members[start : start + _CHUNK]
            stack = np.stack([arrays[idx] for idx in chunk])
            for idx, value in zip(chunk, _dhash_stack(stack)):
                hashes[idx] = value
    return hashes


def dhash(image: np.ndarray) -> int:
    """128-bit difference hash of one image (see :func:`dhash_many`)."""
    return dhash_many([image])[0]


def hamming_distance(hash_a: int, hash_b: int) -> int:
    """Number of differing bits between two hashes."""
    return (hash_a ^ hash_b).bit_count()


def _segments(value: int, n_segments: int) -> list[tuple[int, int]]:
    """Split a 128-bit value into (segment_index, segment_bits) keys."""
    seg_bits = _HASH_BITS // n_segments
    mask = (1 << seg_bits) - 1
    return [
        (i, (value >> (i * seg_bits)) & mask) for i in range(n_segments)
    ]


class _UnionFind:
    """Disjoint-set forest with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def group_by_dhash(
    hashes: list[int], threshold: int = DEFAULT_THRESHOLD
) -> list[list[int]]:
    """Group hash indices whose pairwise Hamming distance <= threshold.

    Grouping is transitive (single-linkage through the union-find), as
    in campaign detection: A~B and B~C put A, C in one campaign even if
    A and C differ by slightly more than the threshold.

    Returns:
        Groups of *indices into the input list*, each of size >= 2.
    """
    n_segments = threshold + 1
    if _HASH_BITS % n_segments:
        # Round up to a divisor of 128 so segments are equal-sized.
        while _HASH_BITS % n_segments:
            n_segments += 1
    buckets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for idx, value in enumerate(hashes):
        for key in _segments(value, n_segments):
            buckets[key].append(idx)
    uf = _UnionFind(len(hashes))
    for members in buckets.values():
        if len(members) < 2:
            continue
        # Single linkage: each member meets every earlier bucket-mate
        # it is not already linked to, so groups do not depend on the
        # input order.
        for pos, other in enumerate(members):
            root = uf.find(other)
            for earlier in members[:pos]:
                if (
                    uf.find(earlier) != root
                    and hamming_distance(hashes[earlier], hashes[other])
                    <= threshold
                ):
                    uf.union(earlier, other)
                    root = uf.find(other)
    groups: dict[int, list[int]] = defaultdict(list)
    for idx in range(len(hashes)):
        groups[uf.find(idx)].append(idx)
    return [members for members in groups.values() if len(members) >= 2]
