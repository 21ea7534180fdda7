"""Named deterministic RNG streams derived from a single root seed.

Every random draw in the package comes from a stream addressed by a
(root seed, path) pair, where the path mixes string labels and integer
indices (step number, group index, ...). Identical (seed, path) always
yields an identical stream, independent of call order or parallelism.
"""

from __future__ import annotations

import zlib

import numpy as np


_WORD = 0xFFFFFFFF


def stream_key(label: str) -> int:
    """Stable 32-bit key for a stream label (process-independent)."""
    return zlib.crc32(label.encode("utf-8"))


def named_stream(root_seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator addressed by (root_seed, *path).

    Path components may be non-negative ints or string labels; labels are
    hashed with crc32 so the addressing never depends on Python's salted
    hash(). The stream is SeedSequence([root_seed, *keys]): its entropy is
    handed over as the uint32 array numpy would derive from that list,
    each key as its 32-bit words, least significant first (0 is one word).
    """
    words = []
    for key in (int(root_seed), *(stream_key(p) if isinstance(p, str) else int(p)
                                  for p in path)):
        if key < 0:
            raise ValueError("stream seeds and path integers must be non-negative")
        words.append(key & _WORD)
        while key > _WORD:
            key >>= 32
            words.append(key & _WORD)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
