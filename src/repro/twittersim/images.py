"""Synthetic profile images.

The clustering stage of ground-truth labeling (Section IV-B) groups
accounts whose profile images are near-duplicates under dHash.  To give
that code real pixels to hash, the simulator stores small grayscale
images (numpy uint8 arrays) in an :class:`ImageStore`:

* normal users get independently drawn random images (smooth random
  fields, so dHash signatures are well spread);
* campaign accounts share a per-campaign base image with light noise
  (spam campaigns reuse artwork with small edits [13]), so their dHash
  Hamming distances fall under the paper's threshold of 5.
"""

from __future__ import annotations

import numpy as np

#: Side length of stored profile images.  dHash later downsamples to 9x9.
IMAGE_SIZE = 32

#: Image id reserved for the platform's default avatar ("egg").
DEFAULT_IMAGE_ID = 0


def _smooth_random_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """A random low-frequency grayscale image.

    Low-pass filtering (block upsampling of a coarse grid) ensures the
    image has structure at the 9x9 scale dHash inspects, instead of
    pure noise that would hash to near-random bits.
    """
    coarse = rng.uniform(0, 255, size=(8, 8))
    factor = size // 8
    image = coarse.repeat(factor, axis=0).repeat(factor, axis=1)
    image += rng.normal(0, 4, size=image.shape)
    return np.clip(image, 0, 255).astype(np.uint8)


def perturb_image(
    base: np.ndarray, rng: np.random.Generator, noise_std: float = 3.0
) -> np.ndarray:
    """A lightly edited copy of ``base`` (campaign-style reuse)."""
    noisy = base.astype(np.float64) + rng.normal(0, noise_std, size=base.shape)
    return np.clip(noisy, 0, 255).astype(np.uint8)


class ImageStore:
    """Registry of profile images keyed by integer image id.

    Id 0 is the platform default avatar; accounts using it have
    ``default_profile_image=True`` in their profiles.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._images: dict[int, np.ndarray] = {
            DEFAULT_IMAGE_ID: np.full(
                (IMAGE_SIZE, IMAGE_SIZE), 128, dtype=np.uint8
            )
        }
        self._next_id = 1

    def __len__(self) -> int:
        return len(self._images)

    def get(self, image_id: int) -> np.ndarray:
        """Fetch the pixels of an image id.

        Raises:
            KeyError: if the id was never registered.
        """
        return self._images[image_id]

    def add(self, image: np.ndarray) -> int:
        """Register explicit pixels and return the new image id."""
        image_id = self._next_id
        self._next_id += 1
        self._images[image_id] = image
        return image_id

    def new_random_image(self) -> int:
        """Create and register an independent random avatar."""
        return self.add(_smooth_random_image(self._rng, IMAGE_SIZE))

    def new_campaign_base(self) -> int:
        """Create and register a campaign's shared base artwork."""
        return self.new_random_image()

    def new_campaign_variant(self, base_id: int, noise_std: float = 3.0) -> int:
        """Register a lightly perturbed copy of a campaign base image."""
        variant = perturb_image(self.get(base_id), self._rng, noise_std)
        return self.add(variant)
