"""Ground-truth switch process, causal machine reduction, exact block laws."""

import itertools
import math

import numpy as np
import pytest

from qstoch.circuit import trace_blocks
from qstoch.process import (
    CausalMachine,
    MERGE_TOL,
    block_distribution,
    classical_complexity,
    excess_entropy,
    stationary_distribution,
    states_merge,
)
from qstoch.seeding import make_rng

from conftest import ScriptedBits, trace_outputs
from oracle import (
    SwitchConfig,
    block_excess_entropy,
    naive_switch_entropy,
    reduce_to_causal_machine,
    two_switch_block_distribution,
    two_switch_stationary,
    two_switch_step,
)


def binary_entropy(p):
    terms = [q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0]
    return -sum(terms)


# ---------------------------------------------------------------------------
# independent oracles, written against the raw switch-pair description
# ---------------------------------------------------------------------------

def switch_transition(cfg, flip_probs):
    """All (next config, probability) branches of one switch step."""
    parity = cfg[0] ^ cfg[1]
    p = flip_probs[parity]
    branches = [((cfg[0] ^ 1, cfg[1]), 0.5 * p), ((cfg[0], cfg[1] ^ 1), 0.5 * p)]
    branches.append((cfg, 1.0 - p))
    return branches


def switch_stationary_power_iteration(flip_probs, sweeps=6000):
    """Stationary 4-config law from a uniform start, no parity shortcut."""
    configs = list(itertools.product((0, 1), repeat=2))
    index = {c: i for i, c in enumerate(configs)}
    t = np.zeros((4, 4))
    for c in configs:
        for nxt, prob in switch_transition(c, flip_probs):
            t[index[nxt], index[c]] += prob
    pi = np.full(4, 0.25)
    for _ in range(sweeps):
        pi = t @ pi
    return {c: pi[index[c]] for c in configs}


def switch_block_law_bruteforce(flip_probs, block_len):
    """Exact block law by enumerating every switch path of the given length."""
    stationary = switch_stationary_power_iteration(flip_probs)
    law = np.zeros(2 ** block_len)
    frontier = [(cfg, prob, 0) for cfg, prob in stationary.items()]
    for _ in range(block_len):
        nxt = []
        for cfg, prob, code in frontier:
            for new_cfg, branch_prob in switch_transition(cfg, flip_probs):
                bit = new_cfg[0] ^ new_cfg[1]
                nxt.append((new_cfg, prob * branch_prob, code * 2 + bit))
        frontier = nxt
    for _, prob, code in frontier:
        law[code] += prob
    return law


# ---------------------------------------------------------------------------
# switch dynamics
# ---------------------------------------------------------------------------

class TestTwoSwitchStep:
    def test_zero_flip_probability_freezes(self):
        machine = CausalMachine(0.0, 0.0)
        cfg = SwitchConfig(0, 0)
        rng = make_rng(1)
        for _ in range(50):
            cfg, bit = two_switch_step(cfg, machine, rng)
            assert (cfg.b1, cfg.b2, bit) == (0, 0, 0)

    def test_certain_flip_alternates_parity(self):
        machine = CausalMachine(1.0, 1.0)
        cfg = SwitchConfig(0, 0)
        rng = make_rng(2)
        expected = 1
        for _ in range(50):
            cfg, bit = two_switch_step(cfg, machine, rng)
            assert cfg.parity == expected
            assert bit == expected
            expected ^= 1

    def test_flip_frequency_matches_binomial(self):
        machine = CausalMachine(0.8, 0.8)
        rng = make_rng(3)
        cfg = SwitchConfig(0, 0)
        n = 100_000
        flips = 0
        for _ in range(n):
            before = cfg.parity
            cfg, _ = two_switch_step(cfg, machine, rng)
            flips += cfg.parity != before
        sigma = np.sqrt(0.8 * 0.2 / n)
        assert abs(flips / n - 0.8) < 3 * sigma

    def test_emitted_bit_is_new_parity(self):
        machine = CausalMachine(0.6, 0.2)
        rng = make_rng(4)
        cfg = SwitchConfig(1, 0)
        for _ in range(200):
            cfg, bit = two_switch_step(cfg, machine, rng)
            assert bit == cfg.parity


class TestReduction:
    def test_symmetric_reduction(self):
        assert reduce_to_causal_machine(0.3) == CausalMachine(0.3, 0.3)

    def test_asymmetric_reduction(self):
        assert reduce_to_causal_machine(0.9, 0.3) == CausalMachine(0.9, 0.3)

    def test_block_laws_match_bruteforce_L6(self):
        machine = reduce_to_causal_machine(0.8)
        oracle = switch_block_law_bruteforce((0.8, 0.8), 6)
        reduced = block_distribution(machine, 6)
        four_state = two_switch_block_distribution(machine, 6)
        assert 0.5 * np.abs(oracle - reduced).sum() < 1e-12
        assert 0.5 * np.abs(oracle - four_state).sum() < 1e-12

    @pytest.mark.parametrize("probs", [(0.1, 0.1), (0.5, 0.5), (0.9, 0.9),
                                       (0.9, 0.3), (0.3, 0.9), (0.2, 0.7)])
    def test_block_law_equivalence_grid(self, probs):
        machine = reduce_to_causal_machine(*probs)
        for block_len in range(1, 7):
            tv = 0.5 * np.abs(two_switch_block_distribution(machine, block_len)
                              - block_distribution(machine, block_len)).sum()
            assert tv < 1e-12


class TestMerge:
    def test_fair_coin_merges(self):
        assert states_merge(CausalMachine(0.5, 0.5))

    def test_complementary_probabilities_merge(self):
        # both states emit 1 with probability 0.7
        assert states_merge(CausalMachine(0.7, 0.3))

    def test_distinct_states_kept(self):
        assert not states_merge(CausalMachine(0.9, 0.3))

    @pytest.mark.parametrize("offset, merged", [(0.5 * MERGE_TOL, True), (2 * MERGE_TOL, False)],
                             ids=["inside", "outside"])
    def test_merge_tolerance(self, offset, merged):
        machine = CausalMachine(0.7 + offset, 0.3)
        assert states_merge(machine) is merged
        assert (classical_complexity(machine) == 0.0) is merged


class TestStationary:
    def test_symmetric(self):
        assert stationary_distribution(CausalMachine(0.8, 0.8)) == (0.5, 0.5)

    def test_asymmetric_balance(self):
        w0, w1 = stationary_distribution(CausalMachine(0.9, 0.3))
        assert (w0, w1) == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_absorbing_state(self):
        assert stationary_distribution(CausalMachine(0.0, 0.3)) == (1.0, 0.0)

    def test_period_two_chain(self):
        assert stationary_distribution(CausalMachine(1.0, 1.0)) == (0.5, 0.5)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError, match="stationary distribution is not unique"):
            stationary_distribution(CausalMachine(0.0, 0.0))

    def test_detailed_balance_on_grid(self):
        for pr in np.linspace(0.1, 0.9, 9):
            for pl in np.linspace(0.1, 0.9, 9):
                w0, w1 = stationary_distribution(CausalMachine(pr, pl))
                assert abs(w0 * pr - w1 * pl) < 1e-12
                assert abs(w0 + w1 - 1.0) < 1e-12


class TestComplexities:
    def test_symmetric_is_one_bit(self):
        for p in [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]:
            assert classical_complexity(CausalMachine(p, p)) == 1.0

    def test_fair_coin_is_free(self):
        assert classical_complexity(CausalMachine(0.5, 0.5)) == 0.0

    def test_asymmetric_value(self):
        expected = binary_entropy(0.25)
        assert classical_complexity(CausalMachine(0.9, 0.3)) == pytest.approx(expected, abs=1e-12)
        assert classical_complexity(CausalMachine(0.9, 0.3)) == pytest.approx(0.8113, abs=5e-5)

    def test_naive_symmetric_two_bits(self):
        assert naive_switch_entropy(CausalMachine(0.8, 0.8)) == pytest.approx(2.0, abs=1e-12)

    def test_naive_asymmetric_vs_power_iteration(self):
        oracle_law = switch_stationary_power_iteration((0.9, 0.3))
        expected = -sum(p * np.log2(p) for p in oracle_law.values() if p > 0)
        value = naive_switch_entropy(CausalMachine(0.9, 0.3))
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(1.0 + binary_entropy(0.25), abs=1e-12)

    def test_naive_absorbing(self):
        assert naive_switch_entropy(CausalMachine(0.0, 0.3)) == pytest.approx(1.0, abs=1e-12)

    def test_four_config_stationary_split(self):
        law = two_switch_stationary(CausalMachine(0.9, 0.3))
        np.testing.assert_allclose(law, [0.125, 0.375, 0.375, 0.125], atol=1e-12)


class TestBlockDistribution:
    def test_single_bit_symmetric(self):
        np.testing.assert_allclose(block_distribution(CausalMachine(0.8, 0.8), 1),
                                   [0.5, 0.5], atol=1e-15)

    def test_two_bit_flip_mass(self):
        law = block_distribution(CausalMachine(0.8, 0.8), 2)
        assert law[0b01] + law[0b10] == pytest.approx(0.8, abs=1e-12)

    def test_fair_coin_uniform(self):
        np.testing.assert_allclose(block_distribution(CausalMachine(0.5, 0.5), 2),
                                   np.full(4, 0.25), atol=1e-15)

    def test_normalization_all_lengths(self):
        machine = CausalMachine(0.7, 0.2)
        for block_len in range(1, 13):
            assert abs(math.fsum(block_distribution(machine, block_len)) - 1.0) < 1e-12

    def test_length_bounds(self):
        machine = CausalMachine(0.5, 0.5)
        with pytest.raises(ValueError):
            block_distribution(machine, 0)
        with pytest.raises(ValueError):
            block_distribution(machine, 13)


class TestExcessEntropy:
    def test_iid_has_no_memory(self):
        assert excess_entropy(CausalMachine(0.5, 0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_one_step_window(self):
        expected = 1.0 - binary_entropy(0.8)
        assert excess_entropy(CausalMachine(0.8, 0.8)) == pytest.approx(expected, abs=1e-12)
        assert excess_entropy(CausalMachine(0.8, 0.8)) == pytest.approx(0.2781, abs=5e-5)
        assert excess_entropy(CausalMachine(0.9, 0.3)) == pytest.approx(0.0331, abs=5e-5)

    def test_nondecreasing_in_window(self):
        values = [block_excess_entropy(CausalMachine(0.8, 0.8), half) for half in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_block_route_equals_closed_form(self):
        # every window gives I(X_0; X_1): the outputs are a Markov chain's states
        grid = [p / 10 for p in range(11)]
        machines = [(pr, pl) for pr in grid for pl in grid if (pr, pl) != (0.0, 0.0)]
        machines += [(0.3, 0.7), (0.25, 0.75), (1e-12, 1.0 - 1e-12)]   # the merged line
        for probs in machines:
            machine = CausalMachine(*probs)
            closed_form = excess_entropy(machine)
            for half in range(1, 7):
                assert block_excess_entropy(machine, half) == pytest.approx(closed_form,
                                                                            abs=1e-12)

    def test_bounded_by_classical_complexity(self):
        for pr in np.linspace(0.1, 0.9, 5):
            for pl in np.linspace(0.1, 0.9, 5):
                machine = CausalMachine(pr, pl)
                assert excess_entropy(machine) <= classical_complexity(machine) + 1e-9


class TestClassicalTrace:
    def test_reducible_without_start_rejected(self):
        # the stream checks the chain on its first next(), before anything
        # is drawn: the script has nothing to give
        with pytest.raises(ValueError, match="stationary distribution is not unique"):
            next(trace_blocks(CausalMachine(0.0, 0.0), 10, ScriptedBits()))

    def test_seed_determinism(self):
        a = trace_outputs(CausalMachine(0.8, 0.8), "classical", 500, make_rng(9))
        b = trace_outputs(CausalMachine(0.8, 0.8), "classical", 500, make_rng(9))
        assert np.array_equal(a, b)

    def test_two_block_frequencies_within_4_sigma(self):
        machine = CausalMachine(0.8, 0.8)
        outputs = trace_outputs(machine, "classical", 100_000, make_rng(13))
        pairs = outputs[: 2 * (len(outputs) // 2)].reshape(-1, 2)
        codes = pairs[:, 0] * 2 + pairs[:, 1]
        counts = np.bincount(codes, minlength=4)
        m = counts.sum()
        probs = np.array(block_distribution(machine, 2))
        # blocks of a chain are autocorrelated; 4x the multinomial sigma is
        # still generous here because adjacent-block correlation is negative
        sigma = np.sqrt(m * probs * (1 - probs))
        assert np.all(np.abs(counts - m * probs) <= 4 * sigma)


class TestSwitchConfig:
    def test_parity_labels(self):
        assert SwitchConfig(0, 0).parity == 0
        assert SwitchConfig(1, 1).parity == 0
        assert SwitchConfig(0, 1).parity == 1

    def test_bits_validated(self):
        with pytest.raises(ValueError):
            SwitchConfig(2, 0)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            CausalMachine(1.2, 0.5)
