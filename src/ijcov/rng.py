"""Deterministic RNG streams for parallel Monte Carlo.

All randomness in the package flows through counter-based Philox generators
keyed by ``SeedSequence(entropy=seed, spawn_key=(kind, index, ...))``.  A
(seed, kind, index) triple therefore names one independent stream, no matter
which worker consumes it or in which order replicates finish.  Stream kinds:

====  =======================================
kind  used by
====  =======================================
0     posterior chains
1     bootstrap replicates
2     ground-truth replicates
3     block-bootstrap resampling
4     data simulation
5     reserved (unused, never reassigned)
6     reserved (unused, never reassigned)
====  =======================================
"""

from __future__ import annotations

import numpy as np

# Stream kinds, kept here so every module derives substreams consistently.
KIND_CHAIN = 0
KIND_BOOT = 1
KIND_GROUND_TRUTH = 2
KIND_BLOCK_BOOT = 3
KIND_SIMULATE = 4


def seed_sequence(seed, *key: int) -> np.random.SeedSequence:
    """SeedSequence for stream `key` under root `seed`.

    `seed` may be an int or an existing SeedSequence (spawned further).
    """
    if isinstance(seed, np.random.SeedSequence):
        if not key:
            return seed
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=tuple(seed.spawn_key) + tuple(key)
        )
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))


def stream(seed, *key: int) -> np.random.Generator:
    """Independent Philox generator for stream `key` under root `seed`."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *key)))
