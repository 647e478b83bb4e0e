"""Reproducible random streams: one seed tree.

Every stream is a Philox (counter-based) generator keyed by the master seed
and a tuple of small integers, passed to SeedSequence as its spawn key, so
distinct (seed, key) pairs give independent streams: neither a longer key
with zeros appended nor a seed of 2**32 or more collides with another pair.

Only the cli module makes streams; the library takes Generators.  Every
stream it draws has a key of one length, (point, column, purpose): the sweep
grid index (0 for the one-point commands), the simulated column (COLUMNS),
and what the stream draws (TRACE, SHOTS or BOOTSTRAP).  simulate and tomo
key their trace alike, so at one config and seed tomo tomographs the very
trace simulate checks.
"""

from __future__ import annotations

import numpy as np

from .process import _check_int

COLUMNS = {"classical": 0, "quantum": 1, "noisy": 2}
TRACE, SHOTS, BOOTSTRAP = 0, 1, 2


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """The stream of the given seed and key, each an integer >= 0."""
    sequence = np.random.SeedSequence(_check_int("seed", seed, 0),
                                      spawn_key=tuple(_check_int("key", k, 0) for k in key))
    return np.random.Generator(np.random.Philox(sequence))
