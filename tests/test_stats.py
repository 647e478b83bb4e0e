"""Exact block-count deviations vs brute-force ensembles of independent runs."""

import numpy as np
import pytest

from qstoch.process import CausalMachine, block_distribution
from qstoch.seeding import make_rng
from qstoch.stats import (
    block_count_sigma,
    block_law_check,
    stream_block_counts,
)

from conftest import packed, trace_outputs
from oracle import disjoint_block_counts, enumerated_count_sigma, two_sample_block_check


class TestDisjointBlockCounts:
    def test_hand_counted_example(self):
        outputs = np.array([1, 0, 1, 1, 0, 1, 0])   # windows: 10, 11, 01; tail dropped
        counts = disjoint_block_counts(outputs, 2)
        np.testing.assert_array_equal(counts, [0, 1, 1, 1])

    @pytest.mark.parametrize("block_len", range(1, 13))
    def test_equals_whole_trace_formula(self, block_len):
        # 800k steps in one block, against an int64 matrix product of the windows
        outputs = np.random.default_rng(5).integers(0, 2, 800_011).astype(np.int8)
        n_blocks = len(outputs) // block_len
        windows = outputs[: n_blocks * block_len].astype(np.int64).reshape(n_blocks, block_len)
        codes = windows @ (1 << np.arange(block_len - 1, -1, -1))
        np.testing.assert_array_equal(disjoint_block_counts(outputs, block_len),
                                      np.bincount(codes, minlength=2 ** block_len))

    @pytest.mark.parametrize("block_len", range(1, 13))
    def test_chunked_equals_whole(self, block_len):
        # chunk sizes that are not multiples of L, so windows straddle chunk
        # boundaries, plus chunks shorter than L and an empty one
        outputs = np.random.default_rng(6).integers(0, 2, 200_003).astype(np.int8)
        cuts = np.cumsum([1, 0, 11, 65_537, 3, 7_919, 65_536, 5])
        chunks = np.split(outputs, cuts)
        counts, = stream_block_counts(map(packed, chunks), (block_len,))
        np.testing.assert_array_equal(counts, disjoint_block_counts(outputs, block_len))

    def test_one_pass_over_several_lengths(self):
        outputs = np.random.default_rng(7).integers(0, 2, 100_001).astype(np.int8)
        lengths = (1, 2, 3, 4)
        got = stream_block_counts(map(packed, np.array_split(outputs, 7)), lengths)
        for block_len, counts in zip(lengths, got):
            np.testing.assert_array_equal(counts, disjoint_block_counts(outputs, block_len))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            disjoint_block_counts(np.array([1, 0]), 3)

    @pytest.mark.parametrize("block_len", [0, 13])
    def test_block_length_out_of_range_rejected(self, block_len):
        # lengths stop at MAX_BLOCK_LEN = 12 bits, as the exact block law does
        with pytest.raises(ValueError):
            disjoint_block_counts(np.zeros(100, dtype=np.int8), block_len)


def column_loop_counts(chunks, block_len):
    """Reference tally: the column-by-column coding loop, one copy per column.

    The carried bits are prepended to each chunk, its whole windows reshaped
    into rows, and each window column cast to uint16 and shifted into the
    codes, first bit most significant.
    """
    counts = np.zeros(2 ** block_len, dtype=np.int64)
    carry = np.empty(0, dtype=np.int8)
    for chunk in chunks:
        bits = np.concatenate([carry, np.asarray(chunk).reshape(-1)])
        n_blocks = bits.shape[0] // block_len
        windows = bits[: n_blocks * block_len].reshape(n_blocks, block_len)
        codes = np.zeros(n_blocks, dtype=np.uint16)
        for column in windows.T:
            codes <<= 1
            codes |= column.astype(np.uint16)
        counts += np.bincount(codes, minlength=2 ** block_len)
        carry = bits[n_blocks * block_len:]
    return counts


@pytest.fixture(scope="module")
def long_trace():
    """A 2M-step trace of an asymmetric chain, one whole array."""
    return trace_outputs(CausalMachine(0.9, 0.3), "classical", 2_000_000, make_rng(31))


class TestTallyOracle:
    """stream_block_counts must count exactly what the column loop counts."""

    @pytest.mark.parametrize("block_len", range(1, 13))
    @pytest.mark.parametrize("multiples", [True, False], ids=["multiple-of-L", "ragged"])
    def test_chunked_stream_equals_column_loop(self, block_len, multiples):
        outputs = np.random.default_rng(40 + block_len).integers(0, 2, 150_001).astype(np.int8)
        if multiples:
            sizes = [block_len * k for k in (1, 0, 3, 2_000, 0, 9_001)]
        else:
            # chunks shorter than L (1 and L - 1), empty ones, and sizes
            # that leave a window straddling the boundary
            sizes = [1, 0, block_len - 1, block_len + 1, 0, 7_919, 65_537, 3]
        chunks = np.split(outputs, np.cumsum(sizes))
        got, = stream_block_counts(map(packed, chunks), (block_len,))
        np.testing.assert_array_equal(got, column_loop_counts(chunks, block_len))

    @pytest.mark.parametrize("block_len", range(1, 13))
    def test_whole_long_trace_equals_column_loop(self, long_trace, block_len):
        # one block of 2M steps, every window split out of one mask
        np.testing.assert_array_equal(disjoint_block_counts(long_trace, block_len),
                                      column_loop_counts([long_trace], block_len))


class TestSeveralLengths:
    """Several lengths are counted in one pass, each carrying its own cut window."""

    @pytest.mark.parametrize("lengths", [(1, 2, 3, 4), (2, 3), (4, 6, 12), (1, 12), (5, 7)],
                             ids=["1-2-3-4", "2-3", "4-6-12", "1-12", "5-7"])
    def test_several_lengths_equal_column_loop(self, lengths):
        # ragged chunks that cut windows of every length, and a tail shorter
        # than a window of some of them
        outputs = np.random.default_rng(60).integers(0, 2, 150_007).astype(np.int8)
        sizes = [1, 0, 5, 13, 0, 7_919, 65_537, 3]
        chunks = np.split(outputs, np.cumsum(sizes))
        got = stream_block_counts(map(packed, chunks), lengths)
        for block_len, counts in zip(lengths, got):
            np.testing.assert_array_equal(counts, column_loop_counts(chunks, block_len))

    @pytest.mark.parametrize("block_len", [0, 13])
    def test_length_out_of_range_rejected_before_reading(self, block_len):
        consumed = []

        def blocks():
            for block in (packed(np.zeros(35, dtype=np.int8)),) * 2:
                consumed.append(block)
                yield block
        with pytest.raises(ValueError, match=r"block lengths must be in \[1, 12\]"):
            stream_block_counts(blocks(), (5, block_len))
        assert consumed == []


class TestBlockCountSigma:
    @pytest.mark.parametrize("probs", [(0.9, 0.3), (0.8, 0.8), (1.0, 1.0), (1.0, 0.0),
                                       (0.5, 0.5), (0.3, 0.7), (0.05, 0.6)],
                             ids=["0.9-0.3", "0.8-0.8", "1-1", "1-0", "0.5-0.5",
                                  "0.3-0.7", "0.05-0.6"])
    @pytest.mark.parametrize("block_len", [1, 2, 3, 4])
    def test_equals_path_enumeration(self, probs, block_len):
        # oracle: every output path of m L = 12 steps, weighted exactly
        machine = CausalMachine(*probs)
        m = 12 // block_len
        np.testing.assert_allclose(block_count_sigma(machine, block_len, m),
                                   enumerated_count_sigma(machine, block_len, m),
                                   rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("probs,block_len", [((0.8, 0.8), 2), ((0.2, 0.2), 1),
                                                 ((0.9, 0.3), 3)])
    def test_matches_independent_trace_ensemble(self, probs, block_len):
        # oracle: the empirical count spread over thousands of separate runs
        machine = CausalMachine(*probs)
        n_steps = 240
        m = n_steps // block_len
        reps = 3000
        all_counts = np.empty((reps, 2 ** block_len))
        for i in range(reps):
            outputs = trace_outputs(machine, "classical", n_steps, make_rng(10_000 + i))
            all_counts[i] = disjoint_block_counts(outputs, block_len)
        empirical = all_counts.std(axis=0, ddof=1)
        predicted = block_count_sigma(machine, block_len, m)
        np.testing.assert_allclose(empirical, predicted, rtol=0.12)

    def test_period_two_machine_exact(self):
        # deterministic alternation: every length-2 window is 01 or 10 for the
        # whole run, decided by the start state, so the count std is m/2
        machine = CausalMachine(1.0, 1.0)
        m = 500
        sigma = block_count_sigma(machine, 2, m)
        np.testing.assert_allclose(sigma[0b01], m / 2, atol=1e-9)
        np.testing.assert_allclose(sigma[0b10], m / 2, atol=1e-9)
        np.testing.assert_allclose(sigma[0b00], 0.0, atol=1e-9)

    def test_period_two_trace_passes_check(self):
        machine = CausalMachine(1.0, 1.0)
        outputs = trace_outputs(machine, "classical", 50_000, make_rng(77))
        for block_len in (1, 2, 3, 4):
            assert block_law_check(machine, disjoint_block_counts(outputs, block_len)).passed

    def test_nearly_frozen_machine_is_finite(self):
        sigma = block_count_sigma(CausalMachine(1e-6, 1e-6), 2, 10_000)
        assert np.all(np.isfinite(sigma))

    def test_iid_case_reduces_to_multinomial(self):
        machine = CausalMachine(0.5, 0.5)
        m = 1000
        probs = block_distribution(machine, 2)
        expected = np.sqrt(m * probs * (1 - probs))
        np.testing.assert_allclose(block_count_sigma(machine, 2, m), expected,
                                   atol=1e-9)


class TestChecks:
    def test_matching_traces_pass(self):
        machine = CausalMachine(0.8, 0.8)
        a = trace_outputs(machine, "classical", 40_000, make_rng(1))
        b = trace_outputs(machine, "classical", 40_000, make_rng(2))
        for block_len in (1, 2, 3):
            assert two_sample_block_check(machine, a, b, block_len)

    def test_mismatched_law_detected(self):
        machine = CausalMachine(0.8, 0.8)
        other = trace_outputs(CausalMachine(0.6, 0.6), "classical", 40_000, make_rng(3))
        check = block_law_check(machine, disjoint_block_counts(other, 2))
        assert not check.passed
        assert check.tv > check.tv_bound

    def test_check_from_tallied_counts(self):
        machine = CausalMachine(0.9, 0.3)
        counts = disjoint_block_counts(trace_outputs(machine, "classical", 30_000, make_rng(5)), 3)
        check = block_law_check(machine, counts)
        np.testing.assert_array_equal(check.freqs, counts / 10_000)

    @pytest.mark.parametrize("size", [1, 3, 8192])
    def test_counts_not_of_a_block_length_rejected(self, size):
        # 2**L cells for L in [1, 6]: 8192 = 2**13 is a power of two far too long
        with pytest.raises(ValueError, match="block counts"):
            block_law_check(CausalMachine(0.9, 0.3), np.ones(size, dtype=np.int64))

    def test_block_longer_than_half_the_law_rejected(self):
        # the sigma needs the law of 2L-blocks, which stops at 12 bits
        machine = CausalMachine(0.9, 0.3)
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            block_law_check(machine, np.ones(2 ** 7, dtype=np.int64))
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            block_count_sigma(machine, 7, 100)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="no blocks"):
            block_law_check(CausalMachine(0.9, 0.3), np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize("counts", [[-5, 10], [3, -1, 2, 4]])
    def test_negative_counts_rejected(self, counts):
        # [-5, 10] would read as freqs (-1, 2), judged and failed at tv 1.25
        with pytest.raises(ValueError, match="block counts >= 0"):
            block_law_check(CausalMachine(0.9, 0.3), counts)

    @pytest.mark.parametrize("counts", [[2.5, 1.6], [3.0, 1.0], [True, False]])
    def test_counts_of_no_integer_dtype_rejected(self, counts):
        # [2.5, 1.6] would be judged at m = int(4.1) = 4, freqs summing to 1.025
        message = f"block counts must have an integer dtype, got {np.asarray(counts).dtype}"
        with pytest.raises(ValueError, match=message):
            block_law_check(CausalMachine(0.9, 0.3), counts)

    def test_check_fields_consistent(self):
        machine = CausalMachine(0.9, 0.3)
        outputs = trace_outputs(machine, "classical", 30_000, make_rng(4))
        check = block_law_check(machine, disjoint_block_counts(outputs, 3))
        assert check.passed
        assert abs(check.freqs.sum() - 1.0) < 1e-12
        assert 0.0 <= check.tv <= 1.0
