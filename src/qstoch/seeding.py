"""Reproducible random streams.

All stochastic code draws from a Philox (counter-based) generator, so a
stream is fully determined by its integer seed path: the same seed gives
the same draws on every run.  Each sweep point derives its seed as
``seed XOR grid_index``; see the cli module.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the given seed, optionally sub-keyed by stream indices."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), *map(int, stream)))))


def xor_seed(seed: int, index: int) -> int:
    """Per-grid-point seed of the sweep."""
    return int(seed) ^ int(index)
