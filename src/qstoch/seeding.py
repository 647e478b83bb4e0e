"""Reproducible random streams: one seed tree.

Every stream is a standard-library random.Random (MT19937) seeded with one
integer that encodes the master seed and a tuple of small integers with no
hash: each part as its count of 32-bit words, then those words, and the
number of parts on top, so distinct (seed, key) pairs seed distinct
integers: neither a longer key with zeros appended nor a seed of 2**32 or
more collides with another pair.  An integer seed reaches MT19937's
init_by_array as its 32-bit words, the same on every CPython 3 release.

Only the cli module makes streams; the library takes them.  Every stream it
draws has a key of one length, (point, column, purpose): the sweep grid
index (0 for the one-point commands), the simulated column (COLUMNS), and
what the stream draws (TRACE, SHOTS or BOOTSTRAP).  simulate and tomo key
their trace alike, so at one config and seed tomo tomographs the very trace
simulate checks.
"""

from __future__ import annotations

import random

from .process import _check_int

COLUMNS = {"classical": 0, "quantum": 1, "noisy": 2}
TRACE, SHOTS, BOOTSTRAP = 0, 1, 2


def make_rng(seed: int, *key: int) -> random.Random:
    """The stream of the given seed and key, each an integer >= 0."""
    parts = (_check_int("seed", seed, 0), *(_check_int("key", k, 0) for k in key))
    words = []
    for part in parts:
        size = (part.bit_length() + 31) // 32
        words += [size, *((part >> (32 * i)) & 0xFFFFFFFF for i in range(size))]
    words.append(len(parts))        # never 0, so no word of the encoding is dropped
    return random.Random(sum(word << (32 * i) for i, word in enumerate(words)))
