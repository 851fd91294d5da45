"""Deterministic, stream-indexed randomness.

One :class:`Rng` wraps a numpy PCG64 generator keyed by (seed, stream).
Streams derive through ``SeedSequence(seed, spawn_key=(stream,))``, so run
``i`` of a batch draws from stream ``i`` regardless of execution order, and
parallel batches reproduce serial ones. Identical seed, stream and call
sequence give identical outputs on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import CountExceedsPoolError

_U64_MASK = (1 << 64) - 1


class Rng:
    """PCG64 stream for one simulation run."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _U64_MASK
        self.stream = int(stream)
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def random(self, size: int | None = None):
        """One uniform draw in [0, 1), or with ``size`` an array of that many.

        ``random(k)`` gives the values of ``k`` calls to ``random()`` and
        leaves the stream where they would.
        """
        if size is None:
            return float(self._gen.random())
        return self._gen.random(size)

    def sample(self, pool, count: int) -> np.ndarray:
        """Uniform sample without replacement, returned in ascending order.

        ``count == 0`` returns an empty array without consuming any
        generator state; callers relying on replay determinism can
        therefore skip degenerate draws freely.
        """
        arr = np.asarray(pool, dtype=np.int64)
        if count > arr.size:
            raise CountExceedsPoolError(f"sample {count} from pool of {arr.size}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        picked = self._gen.choice(arr, size=int(count), replace=False)
        picked.sort()
        return picked
