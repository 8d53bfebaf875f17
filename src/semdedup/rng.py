"""Seeded pseudo-randomness for every seeded choice in the package.

``hash_u64`` / ``hashed_uniform`` hash ``(seed, key...)`` tuples through the
SplitMix64 finalizer. A draw is a pure function of the seed and a stable
key (a point or cluster id), never of an array position or a call order, so
results are reproducible across platforms, runs, thread counts and row
permutations.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


def hash_u64(seed: int, *keys: int) -> int:
    """Fold integer keys into a seed; each key passes through the finalizer."""
    z = seed & MASK64
    for key in keys:
        z = mix64((z + GOLDEN_GAMMA * ((key & MASK64) + 1)) & MASK64)
    return z


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix finalizer over a uint64 array (wraps mod 2**64)."""
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def hashed_uniform(seed: int, tag: int, keys: np.ndarray) -> np.ndarray:
    """Per-key uniforms in (0, 1], a pure function of (seed, tag, key).

    Independent of the order or position of ``keys``, which is what makes
    seeded choices permutation-invariant over point ids.
    """
    base = np.uint64(hash_u64(seed, tag))
    z = keys.astype(np.uint64) + np.uint64(1)
    z *= np.uint64(GOLDEN_GAMMA)
    z += base
    bits = mix64_array(z) >> np.uint64(11)
    return (bits.astype(np.float64) + 1.0) * (2.0 ** -53)
