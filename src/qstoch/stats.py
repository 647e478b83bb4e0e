"""Statistical checks of block counts against exact machine laws.

Blocks are taken disjoint (non-overlapping) from a single trajectory, so
successive block indicators are autocorrelated through the Markov chain.
The per-cell standard deviations used here are therefore the exact ones for
that sampling scheme, rather than plain multinomial values; a test at N_SIGMA
of them keeps its nominal meaning.  Their lag-1 covariance is read off the
exact law of two adjacent windows, a block of length 2L, so the checks take
L in [1, MAX_BLOCK_LEN // 2].  The counts come in as arrays, one per
length, tallied from a trace by the circuit module.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .process import MAX_BLOCK_LEN, CausalMachine, _check_int, block_distribution

N_SIGMA = 4.0             # per-cell tolerance of every check, in exact standard deviations
_MAX_CHECK_LEN = MAX_BLOCK_LEN // 2   # the sigma needs the law of 2L-blocks


class BlockLawCheck(NamedTuple):
    """Per-cell comparison of disjoint-block counts with the exact law."""

    freqs: np.ndarray
    probs: np.ndarray
    tv: float            # total variation distance, frequencies vs exact law
    tv_bound: float      # implied bound: half the sum of per-cell tolerances
    passed: bool


def _lag_weight_sum(m: int, r: float) -> float:
    """sum_{k=1}^{m-1} (m - k) r^(k-1), for r in [-1, 1].

    The r -> 1 limit is m(m-1)/2; the closed form cancels catastrophically
    there, so a whole neighbourhood (relative error below ~4e-4) takes the
    limiting value instead.
    """
    if r > 0.0 and m * (1.0 - r) < 1e-3:
        return 0.5 * m * (m - 1)
    return (m * (1.0 - r) - (1.0 - r ** m)) / (1.0 - r) ** 2


def block_count_sigma(machine: CausalMachine, block_len: int, n_blocks: int) -> np.ndarray:
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
    probs = block_distribution(machine, block_len)
    twice = np.arange(2 ** block_len) * (2 ** block_len + 1)
    cov1 = block_distribution(machine, 2 * block_len)[twice] - probs ** 2
    decay = (1.0 - machine.p_right - machine.p_left) ** block_len
    var = n_blocks * probs * (1.0 - probs)
    var += 2.0 * cov1 * _lag_weight_sum(n_blocks, decay)
    return np.sqrt(np.maximum(var, 0.0))


def block_law_check(machine: CausalMachine, counts: np.ndarray) -> BlockLawCheck:
    """N_SIGMA per-cell test of disjoint-block counts vs the exact law.

    counts holds the tallies of all 2**L blocks (one length of a trace's
    window tally) in an integer dtype, none negative; L is read off its
    size.
    """
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"block counts must have an integer dtype, got {counts.dtype}: "
                         f"{counts!r}")
    block_len = counts.size.bit_length() - 1
    # 0.0, not 0: a float64 comparison is loaded already, an int64 one costs 0.3 MB RSS
    if (counts.ndim != 1 or not (2 <= counts.size <= 2 ** _MAX_CHECK_LEN)
            or counts.size != 2 ** block_len or not (counts >= 0.0).all()):
        raise ValueError(f"need 2**L block counts >= 0 with L in [1, {_MAX_CHECK_LEN}], "
                         f"got shape {counts.shape}: {counts!r}")
    m = int(counts.sum())
    if m < 1:
        raise ValueError("no blocks counted")
    probs = block_distribution(machine, block_len)
    dev = np.abs(counts - m * probs)
    tol = N_SIGMA * block_count_sigma(machine, block_len, m)
    # zero-variance cells must match exactly (up to count rounding)
    ok = bool(np.all(dev <= np.maximum(tol, 1e-9)))
    freqs = counts / m
    tv = 0.5 * float(np.abs(freqs - probs).sum())
    tv_bound = 0.5 * float(tol.sum()) / m
    return BlockLawCheck(freqs=freqs, probs=probs, tv=tv, tv_bound=tv_bound, passed=ok)
