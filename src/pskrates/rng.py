"""Seeded, counter-based random streams.

All randomness in the package flows through Philox (a 64-bit counter-based
generator), keyed by ``(seed, stream)``. Distinct stream indices give
statistically independent substreams of the same seed, which is how the
Monte-Carlo samplers keep one stream per input symbol. Normal deviates are
produced with the Box-Muller transform on Philox uniforms, so a sampled
value depends only on (seed, stream, draw index).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def philox(seed: int, stream: int) -> np.random.Generator:
    """Generator backed by Philox with a (seed, stream) composite key."""
    key = (int(seed) & _MASK64) | ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` standard normal deviates via Box-Muller.

    Pairs are generated from uniforms u1 in (0, 1] and u2 in [0, 1):
    z = sqrt(-2 ln u1) * (cos, sin)(2 pi u2).
    """
    m = (n + 1) // 2
    u1 = 1.0 - gen.random(m)
    u2 = gen.random(m)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * m)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]
