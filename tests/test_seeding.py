"""The seed tree: every (seed, key) pair names its own stream."""

import itertools

from qstoch.seeding import BOOTSTRAP, COLUMNS, SHOTS, TRACE, make_rng

SEEDS = (0, 1, 42, 43, 2 ** 32, 2 ** 32 + 1)
# keys of the CLI's one length, and shorter keys they must not alias: an
# entropy tuple made (42), (42, 0) and (42, 0, 0) one stream, and (2**32, 5)
# the stream of (0, 1, 5)
CLI_KEYS = list(itertools.product(range(4), COLUMNS.values(), (TRACE, SHOTS, BOOTSTRAP)))
SHORT_KEYS = [(), (0,), (0, 0), (1,), (5,), (1, 5), (0, 1), (0, 5)]


def first_draws(seed, key):
    rng = make_rng(seed, *key)
    return rng.getrandbits(64), rng.getrandbits(64)


def test_distinct_seed_and_key_pairs_draw_distinct_streams():
    pairs = [(seed, key) for seed in SEEDS for key in CLI_KEYS + SHORT_KEYS]
    draws = {first_draws(seed, key) for seed, key in pairs}
    assert len(draws) == len(pairs)

