"""Statistical checks of empirical block laws against exact machine laws.

Blocks are taken disjoint (non-overlapping) from a single trajectory, so
successive block indicators are autocorrelated through the Markov chain.
The per-cell standard deviations used here are therefore the exact ones for
that sampling scheme, computed from the known transition matrix, rather than
plain multinomial values; an n-sigma test then keeps its nominal meaning.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .process import MAX_BLOCK_LEN, CausalMachine, block_distribution, conditional_block_probs

_COUNT_CHUNK = 1 << 16    # windows coded and counted at a time


@dataclass(frozen=True)
class BlockLawCheck:
    """Per-cell comparison of disjoint-block counts with the exact law."""

    block_len: int
    n_blocks: int
    counts: np.ndarray
    freqs: np.ndarray
    probs: np.ndarray
    count_sigma: np.ndarray
    n_sigma: float
    tv: float            # total variation distance, frequencies vs exact law
    tv_bound: float      # implied bound: half the sum of per-cell tolerances
    passed: bool


def disjoint_block_counts(outputs: np.ndarray, block_len: int) -> np.ndarray:
    """Counts of the 2**L possible blocks over consecutive disjoint windows
    of a bit array; a trace in chunks goes to stream_block_counts."""
    counts, = stream_block_counts((outputs,), (block_len,))
    return counts


def stream_block_counts(chunks: Iterable, block_lens: Sequence[int]) -> list[np.ndarray]:
    """Disjoint-window block counts at several lengths, in one pass over a
    trace that arrives in chunks.

    A window cut by a chunk boundary is completed from the next chunk: the
    bits after a chunk's last whole window (fewer than L) are carried over,
    so the counts are those of the concatenated trace.  Windows are coded
    (first bit most significant) and counted a fixed-size chunk at a time,
    so temporaries stay bounded however long the trace: column j of the
    windows is the strided view bits[j::L], shifted into one reused uint16
    code buffer without a copy.  L = 1 needs no codes, only the ones.
    """
    for block_len in block_lens:
        if not (1 <= block_len <= MAX_BLOCK_LEN):
            raise ValueError(f"block length must be in [1, {MAX_BLOCK_LEN}], got {block_len!r}")
    counts = [np.zeros(2 ** block_len, dtype=np.int64) for block_len in block_lens]
    carries = [np.empty(0, dtype=np.int8) for _ in block_lens]
    codes = np.empty(0, dtype=np.uint16)     # L <= MAX_BLOCK_LEN fits; grown on demand
    for chunk in chunks:
        chunk = np.asarray(chunk).reshape(-1)
        for i, block_len in enumerate(block_lens):
            if block_len == 1:
                ones = np.count_nonzero(chunk)
                counts[i] += (chunk.shape[0] - ones, ones)
                continue
            bits = np.concatenate([carries[i], chunk]) if carries[i].size else chunk
            n_blocks = bits.shape[0] // block_len
            need = min(n_blocks, _COUNT_CHUNK)
            if codes.shape[0] < need:
                codes = np.empty(need, dtype=np.uint16)
            for first in range(0, n_blocks, _COUNT_CHUNK):
                stop = min(first + _COUNT_CHUNK, n_blocks)
                windows = bits[first * block_len: stop * block_len]
                part = codes[: stop - first]
                np.copyto(part, windows[::block_len], casting="unsafe")
                for j in range(1, block_len):
                    part <<= 1
                    np.bitwise_or(part, windows[j::block_len], out=part, casting="unsafe")
                counts[i] += np.bincount(part, minlength=2 ** block_len)
            carries[i] = bits[n_blocks * block_len:].copy()
    for block_len, tally in zip(block_lens, counts):
        if tally.sum() == 0:
            raise ValueError(f"trace too short for blocks of length {block_len}")
    return counts


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

    Var(N_b) = m p (1-p) + 2 sum_k (m-k) Cov_k.  Window k+1 starts in the end
    state of window k (the last emitted bit), and the two-state chain obeys
    T^g = Pi + lam2^g (I - Pi) with lam2 = 1 - p_right - p_left, so the lag-k
    covariance is Cov_1 * (lam2^L)^(k-1) and the whole sum has a closed form.
    This stays exact for non-mixing parameters (|lam2| = 1) where a truncated
    lag sum would badly understate the variance.
    """
    probs = block_distribution(machine, block_len)
    cond = conditional_block_probs(machine, block_len)
    codes = np.arange(2 ** block_len)
    ends = codes & 1
    cov1 = probs * (cond[codes, ends] - probs)
    decay = (1.0 - machine.p_right - machine.p_left) ** block_len
    var = n_blocks * probs * (1.0 - probs)
    var += 2.0 * cov1 * _lag_weight_sum(n_blocks, decay)
    return np.sqrt(np.maximum(var, 0.0))


def block_law_check(machine: CausalMachine, counts: np.ndarray,
                    n_sigma: float = 4.0) -> BlockLawCheck:
    """n-sigma per-cell test of disjoint-block counts vs the exact law.

    counts holds the tallies of all 2**L blocks (disjoint_block_counts, or
    stream_block_counts for several lengths at once); L is read off its size.
    """
    counts = np.asarray(counts)
    block_len = counts.size.bit_length() - 1
    if (counts.ndim != 1 or not (1 <= block_len <= MAX_BLOCK_LEN)
            or counts.size != 2 ** block_len):
        raise ValueError(f"need 2**L block counts with L in [1, {MAX_BLOCK_LEN}], "
                         f"got shape {counts.shape}")
    m = int(counts.sum())
    if m < 1:
        raise ValueError("no blocks counted")
    probs = block_distribution(machine, block_len)
    sigma = block_count_sigma(machine, block_len, m)
    dev = np.abs(counts - m * probs)
    tol = n_sigma * sigma
    # zero-variance cells must match exactly (up to count rounding)
    ok = bool(np.all(dev <= np.maximum(tol, 1e-9)))
    freqs = counts / m
    tv = 0.5 * float(np.abs(freqs - probs).sum())
    tv_bound = 0.5 * float(tol.sum()) / m
    return BlockLawCheck(block_len=block_len, n_blocks=m, counts=counts,
                         freqs=freqs, probs=probs, count_sigma=sigma,
                         n_sigma=n_sigma, tv=tv, tv_bound=tv_bound, passed=ok)


def two_sample_block_check(machine: CausalMachine, outputs_a: np.ndarray,
                           outputs_b: np.ndarray, block_len: int,
                           n_sigma: float = 4.0) -> bool:
    """n-sigma consistency of two trace block laws for the same machine."""
    ca = disjoint_block_counts(outputs_a, block_len)
    cb = disjoint_block_counts(outputs_b, block_len)
    ma, mb = int(ca.sum()), int(cb.sum())
    sa = block_count_sigma(machine, block_len, ma) / ma
    sb = block_count_sigma(machine, block_len, mb) / mb
    diff = np.abs(ca / ma - cb / mb)
    return bool(np.all(diff <= n_sigma * np.hypot(sa, sb) + 1e-12))
