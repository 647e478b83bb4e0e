"""Exact block-count deviations vs brute-force ensembles of independent runs."""

import math
import re

import numpy as np
import pytest

from qstoch.process import CausalMachine, block_distribution
from qstoch.seeding import make_rng
from qstoch.stats import block_count_sigma, block_law_check, sample_std

from conftest import trace_outputs
from oracle import (disjoint_block_counts, enumerated_count_sigma, numpy_block_law,
                    two_sample_block_check)


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
        probs = np.array(block_distribution(machine, 2))
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

    @pytest.mark.parametrize("n_blocks", [0, -3])
    def test_no_windows_rejected(self, n_blocks):
        # 0 or -3 windows would read as four sigmas of 0
        with pytest.raises(ValueError, match=f"n_blocks must be an integer >= 1, got {n_blocks}$"):
            block_count_sigma(CausalMachine(0.9, 0.3), 2, n_blocks)

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="no blocks"):
            block_law_check(CausalMachine(0.9, 0.3), np.zeros(4, dtype=np.int64))

    @pytest.mark.parametrize("counts", [[-5, 10], [3, -1, 2, 4]])
    def test_negative_counts_rejected(self, counts):
        # [-5, 10] would read as freqs (-1, 2), judged and failed at tv 1.25
        bad = next(c for c in counts if c < 0)
        with pytest.raises(ValueError, match=f"block count must be an integer >= 0, got {bad}$"):
            block_law_check(CausalMachine(0.9, 0.3), counts)

    @pytest.mark.parametrize("counts", [[2.5, 1.6], [3.0, 1.0], [True, False]])
    def test_counts_of_no_integer_dtype_rejected(self, counts):
        # [2.5, 1.6] would be judged at m = int(4.1) = 4, freqs summing to 1.025
        message = re.escape(f"block count must be an integer >= 0, got {counts[0]!r}") + "$"
        with pytest.raises(ValueError, match=message):
            block_law_check(CausalMachine(0.9, 0.3), counts)

    @pytest.mark.parametrize("form", [list, tuple, np.array], ids=["list", "tuple", "array"])
    @pytest.mark.parametrize("cells, named", [
        ([True, False], 0), ([2.5, 1.5], 0), ([float("nan"), 3.0], 0), ([3, -1, 2, 4], 1),
        ([1, 2, 3], None), ([[1, 2], [3, 4]], 0),
    ], ids=["bool", "float", "nan", "negative", "length", "2-D"])
    def test_refused_in_every_form(self, form, cells, named):
        # a list, a tuple and an array of each are refused alike, a bad cell
        # (a row of a 2-D input among them) by name, in the form it arrives in
        counts = form(cells)
        message = (r"need 2\*\*L block counts with L in \[1, 6\], got 3$" if named is None else
                   re.escape(f"block count must be an integer >= 0, got {counts[named]!r}") + "$")
        with pytest.raises(ValueError, match=message):
            block_law_check(CausalMachine(0.9, 0.3), counts)

    @pytest.mark.parametrize("probs", [(0.9, 0.3), (0.8, 0.8), (0.2, 0.2), (1.0, 1.0),
                                       (0.5, 0.5)])
    @pytest.mark.parametrize("block_len", [1, 2, 3, 4, 6])
    def test_fields_equal_numpy_reference(self, probs, block_len):
        # the same products and quotients as numpy's, so probs and freqs are
        # equal; tv and tv_bound are math.fsum sums, numpy's pairwise ones
        # agree to 1e-15
        machine = CausalMachine(*probs)
        outputs = trace_outputs(machine, "classical", 30_000, make_rng(8))
        counts = disjoint_block_counts(outputs, block_len)
        check, want = block_law_check(machine, counts), numpy_block_law(machine, counts)
        assert check.probs == tuple(want.probs.tolist())
        assert check.freqs == tuple(want.freqs.tolist())
        assert check.tv == pytest.approx(want.tv, rel=1e-15, abs=0)
        assert check.tv_bound == pytest.approx(want.tv_bound, rel=1e-15, abs=0)

    def test_check_fields_consistent(self):
        machine = CausalMachine(0.9, 0.3)
        outputs = trace_outputs(machine, "classical", 30_000, make_rng(4))
        check = block_law_check(machine, disjoint_block_counts(outputs, 3))
        assert check.passed
        assert abs(math.fsum(check.freqs) - 1.0) < 1e-12
        assert 0.0 <= check.tv <= 1.0


class TestSampleStd:
    def test_two_values(self):
        # ddof=1: the spread of (0, 1) is sqrt(1/2), not 1/2
        assert sample_std([0.0, 1.0]) == math.sqrt(0.5)
