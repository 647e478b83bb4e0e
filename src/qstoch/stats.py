"""Statistical checks of block counts against exact machine laws.

Blocks are taken disjoint (non-overlapping) from a single trajectory, so
successive block indicators are autocorrelated through the Markov chain.
The per-cell standard deviations used here are therefore the exact ones for
that sampling scheme, rather than plain multinomial values; a test at N_SIGMA
of them keeps its nominal meaning.  Their lag-1 covariance is read off the
exact law of two adjacent windows, a block of length 2L, so the checks take
L in [1, MAX_BLOCK_LEN // 2].  The counts come in one sequence per length,
tallied from a trace by the circuit module, and every number here is a
plain Python int or float.  sample_std is the spread of tomo's bootstrap.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .process import MAX_BLOCK_LEN, CausalMachine, _check_int, block_distribution

N_SIGMA = 4.0             # per-cell tolerance of every check, in exact standard deviations
_MAX_CHECK_LEN = MAX_BLOCK_LEN // 2   # the sigma needs the law of 2L-blocks


class BlockLawCheck(namedtuple("BlockLawCheck", "freqs probs tv tv_bound passed")):
    """Per-cell comparison of disjoint-block counts with the exact law: each
    cell's count over the blocks counted (freqs), the exact law (probs), the
    total variation distance of the two (tv), the bound that half the sum of
    the per-cell tolerances implies (tv_bound), and whether every cell passed."""

    __slots__ = ()


def sample_std(values: list[float]) -> float:
    """Sample standard deviation (ddof=1) of two or more floats, each
    sum taken with math.fsum."""
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / (len(values) - 1))


def _lag_weight_sum(m: int, r: float) -> float:
    """sum_{k=1}^{m-1} (m - k) r^(k-1), for r in [-1, 1].

    The r -> 1 limit is m(m-1)/2; the closed form cancels catastrophically
    there, so a whole neighbourhood (relative error below ~4e-4) takes the
    limiting value instead.
    """
    if r > 0.0 and m * (1.0 - r) < 1e-3:
        return 0.5 * m * (m - 1)
    return (m * (1.0 - r) - (1.0 - r ** m)) / (1.0 - r) ** 2


def block_count_sigma(machine: CausalMachine, block_len: int,
                      n_blocks: int) -> tuple[float, ...]:
    """Exact std of each block count over m disjoint windows of one trajectory.

    Var(N_b) = m p (1-p) + 2 sum_k (m-k) Cov_k.  Window k+1 starts where
    window k ends, so Cov_1 = P(b twice in a row) - p_b^2: the 2L-block law
    at code b (2^L + 1), which needs L <= MAX_BLOCK_LEN // 2.  The two-state
    chain obeys T^g = Pi + lam2^g (I - Pi) with lam2 = 1 - p_right - p_left,
    so the lag-k covariance is Cov_1 * (lam2^L)^(k-1) and the whole sum has a
    closed form.  This stays exact for non-mixing parameters (|lam2| = 1)
    where a truncated lag sum would badly understate the variance.
    """
    _check_int("block length", block_len, 1, _MAX_CHECK_LEN)
    n_blocks = _check_int("n_blocks", n_blocks, 1)
    twice = block_distribution(machine, 2 * block_len)[::2 ** block_len + 1]   # codes b b
    decay = (1.0 - machine.p_right - machine.p_left) ** block_len
    lags = _lag_weight_sum(n_blocks, decay)
    sigma = []
    for p, p_twice in zip(block_distribution(machine, block_len), twice):
        cov1 = p_twice - p * p
        sigma.append(math.sqrt(max(n_blocks * p * (1.0 - p) + 2.0 * cov1 * lags, 0.0)))
    return tuple(sigma)


def block_law_check(machine: CausalMachine, counts) -> BlockLawCheck:
    """N_SIGMA per-cell test of disjoint-block counts vs the exact law.

    counts holds the tallies of all 2**L blocks (one length of a trace's
    window tally), each an integer >= 0 (a row of a 2-D array is none), in
    a sequence or a 1-D array; L in [1, _MAX_CHECK_LEN] is read off their
    number.  An all-zero tally, a trace with no whole window, is refused.
    """
    counts = [_check_int("block count", c, 0) for c in counts]
    block_len = len(counts).bit_length() - 1
    if not 1 <= block_len <= _MAX_CHECK_LEN or len(counts) != 2 ** block_len:
        raise ValueError(f"need 2**L block counts with L in [1, {_MAX_CHECK_LEN}], "
                         f"got {len(counts)}")
    m = sum(counts)
    if m < 1:
        raise ValueError("no blocks counted")
    probs = block_distribution(machine, block_len)
    tol = [N_SIGMA * s for s in block_count_sigma(machine, block_len, m)]
    # zero-variance cells must match exactly (up to count rounding)
    ok = all(abs(c - m * p) <= max(t, 1e-9) for c, p, t in zip(counts, probs, tol))
    freqs = tuple(c / m for c in counts)
    tv = 0.5 * math.fsum(abs(f - p) for f, p in zip(freqs, probs))
    tv_bound = 0.5 * math.fsum(tol) / m
    return BlockLawCheck(freqs=freqs, probs=probs, tv=tv, tv_bound=tv_bound, passed=ok)
