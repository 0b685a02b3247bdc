"""Counter-based keyed hashing for reproducible randomness.

Every random decision in the package is a pure function of (seed, counter),
so generation order, segmentation, and worker count never change results.
The mixer is the splitmix64 finalizer, which passes the usual avalanche
tests and vectorizes cleanly over uint64 arrays.
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def mix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Hash each uint64 counter with the seed; returns uint64 array."""
    offset = ((seed + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = counters.astype(np.uint64, copy=True)
    z += np.uint64(offset)
    tmp = np.empty_like(z)  # one scratch buffer serves the three xor-shifts
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z

