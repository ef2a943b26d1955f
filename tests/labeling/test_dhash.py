"""Tests for dHash image fingerprinting and grouping."""

import numpy as np
import pytest

from repro.labeling.dhash import (
    dhash,
    dhash_many,
    group_by_dhash,
    hamming_distance,
)
from repro.twittersim.images import ImageStore, perturb_image


@pytest.fixture
def store():
    return ImageStore(np.random.default_rng(7))


def _reference_resize(image: np.ndarray, size: int = 9) -> np.ndarray:
    """The per-block loop the kernel replaced: 9x9 float block means."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim == 3:
        image = image.mean(axis=2)
    h, w = image.shape
    if h < size or w < size:
        raise ValueError(f"image {image.shape} smaller than {size}x{size}")
    row_edges = np.linspace(0, h, size + 1).astype(int)
    col_edges = np.linspace(0, w, size + 1).astype(int)
    out = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            block = image[
                row_edges[i] : row_edges[i + 1],
                col_edges[j] : col_edges[j + 1],
            ]
            out[i, j] = block.mean()
    return out


def _reference_dhash(image: np.ndarray) -> int:
    """The per-bit loop the kernel replaced."""
    small = _reference_resize(image)
    horizontal = (small[:8, :8] > small[:8, 1:9]).flatten()
    vertical = (small[:8, :8] > small[1:9, :8]).flatten()
    value = 0
    for bit in np.concatenate([horizontal, vertical]):
        value = (value << 1) | int(bit)
    return value


class TestKernelMatchesReference:
    """Bit-identical to the block-mean loop on integer images."""

    def test_random_uint8_32x32(self):
        rng = np.random.default_rng(3)
        # More than one 256-image chunk.
        images = [
            rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
            for __ in range(600)
        ]
        assert dhash_many(images) == [_reference_dhash(i) for i in images]

    def test_int64_18x18(self):
        rng = np.random.default_rng(11)
        images = [rng.integers(0, 256, size=(18, 18)) for __ in range(24)]
        assert dhash_many(images) == [_reference_dhash(i) for i in images]

    def test_non_square_37x50(self):
        rng = np.random.default_rng(5)
        images = [
            rng.integers(0, 256, size=(37, 50), dtype=np.uint8)
            for __ in range(40)
        ]
        assert dhash_many(images) == [_reference_dhash(i) for i in images]

    def test_image_store_avatars(self, store):
        images = [store.get(store.new_random_image()) for __ in range(50)]
        images += [
            store.get(store.new_campaign_variant(1)) for __ in range(10)
        ]
        assert dhash_many(images) == [_reference_dhash(i) for i in images]

    @pytest.mark.parametrize("value", [0, 255])
    def test_constant_images(self, value):
        image = np.full((32, 32), value, dtype=np.uint8)
        assert dhash(image) == _reference_dhash(image) == 0

    def test_rgb_stack(self, store):
        grays = [store.get(store.new_random_image()) for __ in range(8)]
        rgbs = [np.stack([gray, gray, gray], axis=2) for gray in grays]
        assert dhash_many(rgbs) == [_reference_dhash(i) for i in rgbs]
        assert dhash_many(rgbs) == dhash_many(grays)

    def test_rgb_hashes_its_exact_channel_sum(self):
        """Colour block means are compared exactly, not after rounding."""
        rng = np.random.default_rng(8)
        rgb = rng.integers(0, 4, size=(20, 32, 32, 3), dtype=np.uint8)
        assert dhash_many(list(rgb)) == dhash_many(
            list(rgb.sum(axis=3, dtype=np.int64))
        )

    def test_mixed_shapes_keep_input_order(self):
        rng = np.random.default_rng(13)
        shapes = [(32, 32), (18, 18), (37, 50), (32, 32, 3), (18, 18)]
        images = [
            rng.integers(0, 256, size=shapes[i % len(shapes)])
            for i in range(23)
        ]
        for image in images:
            if image.ndim == 3:
                image[..., 1] = image[..., 2] = image[..., 0]
        assert dhash_many(images) == [_reference_dhash(i) for i in images]

    def test_empty_list(self):
        assert dhash_many([]) == []

    @pytest.mark.parametrize("shape", [(8, 8), (4, 30), (30, 8)])
    def test_below_9x9_raises(self, shape):
        with pytest.raises(ValueError):
            dhash_many([np.zeros((32, 32)), np.zeros(shape)])


class TestDhash:
    def test_hash_is_128_bits(self, store):
        value = dhash(store.get(store.new_random_image()))
        assert 0 <= value < (1 << 128)

    def test_hash_deterministic(self, store):
        image = store.get(store.new_random_image())
        assert dhash(image) == dhash(image.copy())

    def test_identical_images_distance_zero(self, store):
        image = store.get(store.new_random_image())
        assert hamming_distance(dhash(image), dhash(image)) == 0

    def test_small_perturbation_small_distance(self, store):
        rng = np.random.default_rng(1)
        base = store.get(store.new_random_image())
        variant = perturb_image(base, rng, noise_std=2.0)
        assert hamming_distance(dhash(base), dhash(variant)) <= 5

    def test_different_images_large_distance(self, store):
        a = dhash(store.get(store.new_random_image()))
        b = dhash(store.get(store.new_random_image()))
        assert hamming_distance(a, b) > 10

    def test_rejects_tiny_image(self):
        with pytest.raises(ValueError):
            dhash(np.zeros((4, 4)))

    def test_rgb_images_accepted(self, store):
        gray = store.get(store.new_random_image())
        rgb = np.stack([gray, gray, gray], axis=2)
        assert dhash(rgb) == dhash(gray)


class TestHamming:
    def test_counts_differing_bits(self):
        assert hamming_distance(0b1010, 0b0110) == 2
        assert hamming_distance(0, (1 << 128) - 1) == 128

    def test_symmetric(self):
        assert hamming_distance(12345, 67890) == hamming_distance(67890, 12345)


class TestGrouping:
    def test_groups_campaign_variants(self, store):
        base_id = store.new_campaign_base()
        variant_ids = [store.new_campaign_variant(base_id) for __ in range(5)]
        unrelated = [store.new_random_image() for __ in range(20)]
        all_ids = [base_id] + variant_ids + unrelated
        hashes = [dhash(store.get(i)) for i in all_ids]
        groups = group_by_dhash(hashes)
        campaign_indices = set(range(6))
        # Exactly one group containing all campaign images.
        matching = [g for g in groups if campaign_indices <= set(g)]
        assert len(matching) == 1
        # No unrelated image joins the campaign group (overwhelmingly).
        assert len(matching[0]) <= 7

    def test_no_groups_among_unrelated_images(self, store):
        hashes = [
            dhash(store.get(store.new_random_image())) for __ in range(30)
        ]
        groups = group_by_dhash(hashes)
        assert all(len(g) < 3 for g in groups)

    def test_two_campaigns_stay_separate(self, store):
        base_a = store.new_campaign_base()
        base_b = store.new_campaign_base()
        ids = (
            [base_a]
            + [store.new_campaign_variant(base_a) for __ in range(4)]
            + [base_b]
            + [store.new_campaign_variant(base_b) for __ in range(4)]
        )
        hashes = [dhash(store.get(i)) for i in ids]
        groups = {frozenset(g) for g in group_by_dhash(hashes)}
        a_set = frozenset(range(5))
        b_set = frozenset(range(5, 10))
        assert any(a_set <= g for g in groups)
        assert any(b_set <= g for g in groups)
        assert not any(a_set <= g and b_set <= g for g in groups)

    def test_empty_input(self):
        assert group_by_dhash([]) == []

    def test_groups_do_not_depend_on_input_order(self):
        """Single linkage: C links A and B although A, B are 10 apart.

        All three share segments 0-2 (bits 0-47), so every such bucket
        holds all three; the flipped bits spread over segments 3-7.
        """
        c = 0x0123_4567_89AB_CDEF_FEDC_BA98_7654_3210
        a = c ^ sum(1 << bit for bit in (48, 64, 80, 96, 112))
        b = c ^ sum(1 << bit for bit in (49, 65, 81, 97, 113))
        assert hamming_distance(a, c) == hamming_distance(b, c) == 5
        assert hamming_distance(a, b) == 10
        assert group_by_dhash([a, b, c]) == [[0, 1, 2]]
        assert group_by_dhash([c, a, b]) == [[0, 1, 2]]
