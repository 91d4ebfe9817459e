"""Deterministic seed derivation for independent random streams.

A single user-facing seed fans out into per-purpose integer seeds and
per-purpose Philox keys by hashing the seed together with a context string.
Derived streams are independent of each other and stable across runs,
platforms, and worker counts.
"""

from __future__ import annotations

import hashlib

import numpy as np


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _digest(seed: int, context: str) -> bytes:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return hashlib.sha256(f"{seed}|{context}".encode()).digest()


def derive_seed(seed: int, context: str) -> int:
    """A 63-bit integer seed unique to (seed, context)."""
    return int.from_bytes(_digest(seed, context)[:8], "little") >> 1


def derive_key(seed: int, context: str) -> np.ndarray:
    """A 128-bit Philox key for (seed, context) as two uint64 words."""
    return np.frombuffer(_digest(seed, context)[:16], dtype=np.uint64)


def counter_uniforms(seed: int, context: str, start: int, count: int,
                     words: int = 4) -> np.ndarray:
    """Open-interval (0, 1) uniforms indexed by Philox counter, shape (count, words).

    Row i holds the first `words` draws of the Philox block at counter start + i under
    the key of (seed, context), each column contiguous.  Philox increments its counter
    once per 4-word block, so values depend only on (seed, context, counter): not on
    how a range is chunked across calls or workers.  Each call builds its own
    generator, so threads share no state.
    """
    if start < 0 or count < 0 or not 1 <= words <= 4:
        raise ValueError(f"need start, count >= 0 and words in 1..4, got {start}, {count}, {words}")
    philox = np.random.Philox(key=derive_key(seed, context), counter=[start, 0, 0, 0])
    return unit_interval(philox.random_raw(4 * count).reshape(count, 4).T[:words].copy()).T


def unit_interval(bits: np.ndarray) -> np.ndarray:
    """Map uint64 words into the open interval (0, 1); consumes `bits`.

    The top 53 bits k give (k + 1/2) * 2**-53.  In double precision that sum
    rounds to 1.0 for k = 2**53 - 1 alone, so that value is clamped to the
    largest double below 1, which no other k produces.
    """
    bits >>= np.uint64(11)
    u = bits * 2.0**-53
    u += 2.0**-54
    return np.minimum(u, _BELOW_ONE, out=u)
