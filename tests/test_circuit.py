"""Step circuits: measurement collapse, stepping, noise, calibration, traces,
the trace block sampler and the block tally."""

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qstoch.circuit import (
    RunResult,
    _DRAW_BLOCK,
    calibrate_noise,
    run_trace,
    sampled_machine,
    stream_block_counts,
    trace_blocks,
)
from qstoch.cli import main
from qstoch.process import CausalMachine, stationary_distribution
from qstoch.qmodel import construct_cu, quantum_causal_states
from qstoch.tomo import ensemble_density
from qstoch.seeding import make_rng
from qstoch.stats import block_law_check

from conftest import BlockUniforms, ScriptedBits, chain_outputs, packed, trace_outputs, unpacked
from oracle import (
    CNOT4,
    KET0,
    KET1,
    CircuitState,
    Ket,
    apply_noise,
    bell_fidelity,
    bell_state,
    bloch_vector,
    classical_step,
    controlled,
    density,
    depolarizing_average,
    disjoint_block_counts,
    emission_chain,
    from_mixing_rate,
    ket_model,
    measure_qubit,
    noisy_bell_average,
    projector,
    quantum_emission_probs,
    quantum_step,
    tensor,
    to_mixing_rate,
    two_sample_block_check,
)


def kraus_average_oracle(rho, lam):
    """Average channel built in-test from the literal Kraus definition."""
    eye = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    singles = (eye, x, y, z)
    out = (1.0 - lam) * rho
    for i, j in itertools.product(range(4), repeat=2):
        if (i, j) == (0, 0):
            continue
        pauli = np.kron(singles[i], singles[j])
        out += (lam / 15.0) * (pauli @ rho @ pauli.conj().T)
    return out


class TestMeasureQubit:
    def test_uniform_model_marginal(self):
        plus = Ket(np.array([1, 1]) / np.sqrt(2))
        joint = tensor(plus, Ket([1.0, 0.0]))
        rng = make_rng(31)
        n = 20_000
        ones = 0
        for _ in range(n):
            outcome, collapsed = measure_qubit(CircuitState(joint), "model", rng)
            ones += outcome
            assert collapsed.joint.shape == (2,)
        sigma = np.sqrt(0.25 / n)
        assert abs(ones / n - 0.5) < 3 * sigma

    def test_entangled_meter_statistics_and_collapse(self):
        joint = np.array([np.sqrt(0.2), 0.0, 0.0, np.sqrt(0.8)], dtype=complex)
        rng = make_rng(32)
        n = 20_000
        ones = 0
        for _ in range(n):
            outcome, collapsed = measure_qubit(CircuitState(joint), "meter", rng)
            ones += outcome
            expected = [0.0, 1.0] if outcome else [1.0, 0.0]
            np.testing.assert_allclose(np.abs(collapsed.joint) ** 2, expected, atol=1e-12)
        sigma = np.sqrt(0.8 * 0.2 / n)
        assert abs(ones / n - 0.8) < 3 * sigma

    def test_deterministic_branch(self):
        joint = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        rng = make_rng(33)
        outcome, collapsed = measure_qubit(CircuitState(joint), "meter", rng)
        assert outcome == 0
        np.testing.assert_allclose(collapsed.joint, [1, 0], atol=1e-15)

    def test_single_qubit_state_rejected(self):
        with pytest.raises(ValueError):
            measure_qubit(CircuitState(np.array([1.0, 0.0])), "meter", make_rng(0))


class TestClassicalStep:
    def test_frozen(self):
        rng = make_rng(41)
        for _ in range(20):
            assert classical_step(0, CausalMachine(0.0, 0.5), rng) == (0, 0)

    def test_certain_flip(self):
        rng = make_rng(42)
        for _ in range(20):
            assert classical_step(0, CausalMachine(1.0, 0.5), rng) == (1, 1)

    def test_flip_frequency(self):
        rng = make_rng(43)
        n = 100_000
        ones = sum(classical_step(0, CausalMachine(0.8, 0.8), rng)[0] for _ in range(n))
        sigma = np.sqrt(0.8 * 0.2 / n)
        assert abs(ones / n - 0.8) < 3 * sigma


class TestQuantumStep:
    def test_orthogonal_encoding_is_deterministic(self):
        model = ket_model(CausalMachine(0.0, 0.3))
        rng = make_rng(51)
        for _ in range(20):
            outcome, memory = quantum_step(model.ket0, model, rng)
            assert outcome == 0
            np.testing.assert_allclose(memory.amplitudes, [1, 0], atol=1e-12)

    def test_certain_transition(self):
        model = ket_model(CausalMachine(1.0, 0.3))
        rng = make_rng(52)
        outcome, memory = quantum_step(model.ket0, model, rng)
        assert outcome == 1
        np.testing.assert_allclose(memory.amplitudes, model.ket1.amplitudes, atol=1e-12)

    @staticmethod
    def outcomes_either_side(p_one, memory, model, gate="cnot"):
        """quantum_step's outcomes for uniforms a hair below and above
        p_one: 1 then 0 exactly when its Born P(1|s) is p_one to 1e-12,
        since the step reads 1 when u < P(1|s)."""
        script = ScriptedBits([p_one - 1e-12, p_one + 1e-12])
        steps = [quantum_step(memory, model, script, gate=gate) for _ in range(2)]
        # the memory is reprepared as the encoding of the output bit
        assert all(kept is (model.ket0, model.ket1)[outcome] for outcome, kept in steps)
        return [outcome for outcome, _ in steps]

    @pytest.mark.parametrize("gate", ["cnot", "cu"])
    def test_symmetric_output_law(self, gate):
        # P(1|0) = p_right = 0.8
        model = ket_model(CausalMachine(0.8, 0.8))
        assert self.outcomes_either_side(0.8, model.ket0, model, gate) == [1, 0]

    def test_asymmetric_output_law_from_state_one(self):
        # P(1|1) = 1 - p_left = 0.7
        model = ket_model(CausalMachine(0.9, 0.3))
        assert self.outcomes_either_side(0.7, model.ket1, model) == [1, 0]

    def test_collapse_leaves_logical_state_on_model(self):
        # before the discard, the model qubit must have collapsed to |x>
        model = ket_model(CausalMachine(0.8, 0.8))
        joint = CNOT4 @ tensor(model.ket0, Ket([1.0, 0.0]))
        rng = make_rng(55)
        for _ in range(50):
            outcome, collapsed = measure_qubit(CircuitState(joint), "meter", rng)
            expected = np.zeros(2)
            expected[outcome] = 1.0
            np.testing.assert_allclose(np.abs(collapsed.joint) ** 2, expected, atol=1e-12)

    def test_gate_validated(self):
        model = ket_model(CausalMachine(0.8, 0.8))
        with pytest.raises(ValueError):
            quantum_step(model.ket0, model, make_rng(0), gate="cz")


class TestApplyNoise:
    def test_zero_rate_is_identity(self):
        state = CircuitState(bell_state())
        out = apply_noise(state, 0.0, make_rng(61))
        assert out is state

    def test_full_rate_average_matches_kraus_oracle(self):
        bell = bell_state()
        rng = make_rng(62)
        state = CircuitState(bell)
        acc = np.zeros((4, 4), dtype=complex)
        n = 60_000
        for _ in range(n):
            psi = apply_noise(state, 1.0, rng).joint
            acc += np.outer(psi, psi.conj())
        difference = acc / n - kraus_average_oracle(projector(bell), 1.0)
        # trace distance: half the sum of the difference's singular values
        assert 0.5 * np.linalg.norm(difference, "nuc") < 0.02

    def test_exact_channel_matches_kraus_oracle(self):
        bell_rho = projector(bell_state())
        for lam in (0.0, 0.04, 0.3, 1.0):
            got = depolarizing_average(bell_rho, lam)
            np.testing.assert_allclose(got, kraus_average_oracle(bell_rho, lam), atol=1e-14)

    def test_monte_carlo_bell_fidelity_near_exact(self):
        lam = 0.04
        rng = make_rng(63)
        bell = bell_state()
        state = CircuitState(bell)
        n = 100_000
        hits = 0.0
        for _ in range(n):
            psi = apply_noise(state, lam, rng).joint
            hits += abs(np.vdot(bell, psi)) ** 2
        exact = bell_fidelity(depolarizing_average(projector(bell), lam))
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert abs(hits / n - exact) < 4 * sigma

    def test_rate_conversions(self):
        assert to_mixing_rate(15 / 16) == pytest.approx(1.0, abs=1e-15)
        assert from_mixing_rate(to_mixing_rate(0.3)) == pytest.approx(0.3, abs=1e-15)


class TestCalibrateNoise:
    def test_perfect_gate(self):
        assert calibrate_noise(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_benchmark_target(self):
        # closed form under this Pauli convention: F = 1 - (3/4)(16/15) lam
        lam = calibrate_noise(0.97)
        assert lam == pytest.approx(0.03 / 0.8, abs=1e-10)
        assert bell_fidelity(noisy_bell_average(lam)) == pytest.approx(0.97, abs=1e-12)

    def test_maximally_mixed_target(self):
        # fidelity 0.25 needs the full replace-with-maximally-mixed channel,
        # which is trajectory rate 15/16 in the 15-Pauli parameterization
        lam = calibrate_noise(0.25)
        assert lam == pytest.approx(15 / 16, abs=1e-10)
        assert to_mixing_rate(lam) == pytest.approx(1.0, abs=1e-10)

    def test_unachievable_rejected(self):
        with pytest.raises(ValueError):
            calibrate_noise(0.2)
        with pytest.raises(ValueError):
            calibrate_noise(1.1)

    def test_fidelity_strictly_decreasing_in_rate(self):
        grid = np.linspace(0.0, 1.0, 21)
        values = [bell_fidelity(noisy_bell_average(lam)) for lam in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestRunTrace:
    def test_seed_determinism(self):
        machine = CausalMachine(0.9, 0.3)
        a = run_trace(machine, "quantum", 2000, make_rng(71))
        b = run_trace(machine, "quantum", 2000, make_rng(71))
        assert np.array_equal(trace_outputs(machine, "quantum", 2000, make_rng(71)),
                              trace_outputs(machine, "quantum", 2000, make_rng(71)))
        assert a.ones == b.ones
        for r_a, r_b in zip(a.vectors, b.vectors):
            assert np.array_equal(r_a, r_b)

    def test_noisy_trace_starts_from_its_own_chain(self):
        # (0.9, 0.3) at lam = 0.0375 samples (0.884, 0.308): P(start in 0) is
        # 0.2584 there, 0.25 for the noiseless machine; make_rng(331)'s first
        # uniform, 0.2552, falls between the two
        machine, lam = CausalMachine(0.9, 0.3), 0.0375
        chain = sampled_machine(machine, "quantum", lam)
        assert stationary_distribution(chain)[0] == pytest.approx(0.2584, abs=1e-4)
        assert make_rng(331).random() == pytest.approx(0.2552, abs=1e-4)
        (start, _, _), = trace_blocks(chain, 10, make_rng(331))
        assert start == 0
        assert run_trace(machine, "quantum", 1, make_rng(331), lam).ones == 0

    def test_quantum_two_block_law(self):
        machine = CausalMachine(0.8, 0.8)
        outputs = trace_outputs(machine, "quantum", 100_000, make_rng(72))
        assert block_law_check(machine, disjoint_block_counts(outputs, 2)).passed

    def test_classical_matches_quantum_blocks(self):
        machine = CausalMachine(0.8, 0.8)
        qu = trace_outputs(machine, "quantum", 100_000, make_rng(73))
        cl = trace_outputs(machine, "classical", 100_000, make_rng(74))
        for block_len in range(1, 5):
            assert two_sample_block_check(machine, qu, cl, block_len)

    def test_cnot_and_cu_statistics_agree(self):
        # each trace samples the law its gate's literal circuit gives
        machine = CausalMachine(0.9, 0.3)
        a = chain_outputs(emission_chain(machine, "cnot"), 100_000, make_rng(75))
        b = chain_outputs(emission_chain(machine, "cu"), 100_000, make_rng(76))
        for block_len in range(1, 5):
            assert two_sample_block_check(machine, a, b, block_len)

    def test_noiseless_ensemble_holds_encoded_states(self):
        machine = CausalMachine(0.9, 0.3)
        run = run_trace(machine, "quantum", 5000, make_rng(77))
        for got, encoded in zip(run.vectors, quantum_causal_states(machine)):
            np.testing.assert_array_equal(got, encoded)
        # encoded state of step j is the output bit of step j-1, and step 0
        # enters in the single start state
        outputs = trace_outputs(machine, "quantum", 5000, make_rng(77))
        assert run.ones - int(outputs[:-1].sum()) in (0, 1)

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_density_equals_per_step_ket_average(self, mode):
        machine = CausalMachine(0.9, 0.3)
        run = run_trace(machine, mode, 20_000, make_rng(79))
        blocks = list(trace_blocks(sampled_machine(machine, mode), 20_000, make_rng(79)))
        outputs = np.concatenate([unpacked(bits, m) for _, bits, m in blocks])
        # rebuild the per-step ket array: step j enters in the state step
        # j - 1 emitted, step 0 in the start state
        entering = np.concatenate([[blocks[0][0]], outputs[:-1]])
        kets = np.array([ket.amplitudes for ket in prepared_kets(machine, mode)])[entering]
        reference = np.einsum("ni,nj->ij", kets, kets.conj()) / len(kets)
        np.testing.assert_allclose(density(ensemble_density(run)).entries, reference,
                                   rtol=0, atol=1e-12)

    def test_classical_ensemble_holds_logical_states(self):
        machine = CausalMachine(0.8, 0.8)
        run = run_trace(machine, "classical", 5000, make_rng(78))
        np.testing.assert_array_equal(run.vectors, [[0, 0, 1], [0, 0, -1]])

    def test_block_law_error_shrinks_with_trace_length(self):
        for machine in (CausalMachine(0.8, 0.8), CausalMachine(0.9, 0.3)):
            tvs = []
            for n in (1_000, 100_000):
                outputs = trace_outputs(machine, "quantum", n, make_rng(81))
                check = block_law_check(machine, disjoint_block_counts(outputs, 3))
                assert check.passed
                tvs.append(check.tv)
            # two decades of steps must shrink the empirical-law error
            assert tvs[1] < tvs[0] / 3.0

    def test_argument_validation(self):
        machine = CausalMachine(0.8, 0.8)
        with pytest.raises(ValueError):
            run_trace(machine, "hybrid", 10, make_rng(1))
        with pytest.raises(ValueError):
            run_trace(machine, "quantum", 0, make_rng(1))
        # the chain checks mode and lam, the stream its length on its first
        # next(), before anything is drawn: the script has nothing to give
        with pytest.raises(ValueError):
            sampled_machine(machine, "hybrid")
        with pytest.raises(ValueError):
            next(trace_blocks(machine, 0, ScriptedBits()))

    @pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
    def test_noise_rate_validated(self, lam):
        with pytest.raises(ValueError, match="lam"):
            sampled_machine(CausalMachine(0.8, 0.8), "quantum", lam)

    def test_result_vectors_frozen(self):
        run = run_trace(CausalMachine(0.8, 0.8), "quantum", 10, make_rng(80))
        assert isinstance(run, RunResult)
        with pytest.raises(TypeError):
            run.vectors[0][0] = 1.0


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees while fn runs,
    above what was already allocated when it started."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


class TestBoundedMemory:
    """A run holds a few draw blocks of temporaries, never the trace: the
    peak stays under a fixed bound and does not grow with the step count."""

    BOUND = 500_000

    @staticmethod
    def run(n):
        run_trace(CausalMachine(0.8, 0.8), "classical", n, make_rng(1))

    @staticmethod
    def simulate(n):
        args = ["simulate", "--p", "0.8", "--mode", "classical", "--steps", str(n),
                "--seed", "1", "--out", os.devnull]
        return main(args)

    @pytest.mark.parametrize("work", ["run", "simulate"])
    def test_peak_is_flat_in_steps(self, work):
        fn = getattr(self, work)
        # one-time set-up (caches, first allocations) out of the way; its
        # verdict is not read: two L = 4 windows of a 10-step trace fail the
        # 4-sigma check whenever a rare block shows (ROADMAP item 8)
        fn(10)
        codes = []
        short = traced_peak(lambda: codes.append(fn(200_000)))
        long = traced_peak(lambda: codes.append(fn(2_000_000)))
        if work == "simulate":
            assert codes == [0, 0]
        assert long < self.BOUND
        assert long <= short + 65_536


def emission_law(machine, mode, lam):
    """(P(1|0), P(1|1)) of the chain sampled_machine says a run samples."""
    chain = sampled_machine(machine, mode, lam)
    return chain.p_right, 1.0 - chain.p_left


ORACLE_MACHINES = [CausalMachine(0.9, 0.3), CausalMachine(0.8, 0.8), CausalMachine(0.3, 0.9)]
ORACLE_IDS = ["0.9-0.3", "0.8-0.8", "0.3-0.9"]


def prepared_kets(machine, mode):
    """The oracle's kets for the states a run of this mode prepares."""
    if mode == "classical":
        return KET0, KET1
    model = ket_model(machine)
    return model.ket0, model.ket1


def step_oracle(machine, mode, gate, n, seed):
    """Outputs and entering memory kets from stepping the single-step
    circuit, each step's Born draw the uniform the trace compares."""
    rng = BlockUniforms(machine, n, make_rng(seed))
    w0, _ = stationary_distribution(machine)
    state = 0 if rng.random() < w0 else 1
    outputs = np.empty(n, dtype=np.int8)
    kets = np.empty((n, 2), dtype=complex)
    if mode == "classical":
        logical = np.eye(2, dtype=complex)
        for j in range(n):
            kets[j] = logical[state]
            outputs[j], state = classical_step(state, machine, rng)
    else:
        model = ket_model(machine)
        memory = (model.ket0, model.ket1)[state]
        for j in range(n):
            kets[j] = memory.amplitudes
            outputs[j], memory = quantum_step(memory, model, rng, gate=gate)
    return outputs, kets


def assert_same_ensemble(run, prepared, kets):
    """Every per-step oracle ket is one of the two prepared kets, the run's
    vectors are theirs, and the run's state-1 count is how many steps
    entered with the second."""
    for r, ket in zip(run.vectors, prepared):
        np.testing.assert_allclose(r, bloch_vector(ket.projector()), rtol=0, atol=1e-15)
    amplitudes = np.array([ket.amplitudes for ket in prepared])
    is_one = np.all(kets == amplitudes[1], axis=1)
    assert np.all(is_one | np.all(kets == amplitudes[0], axis=1))
    assert run.ones == int(is_one.sum())


class TestTraceMatchesStepOracle:
    @pytest.mark.parametrize("gate", ["cnot", "cu"])
    @pytest.mark.parametrize("machine", ORACLE_MACHINES, ids=ORACLE_IDS)
    def test_quantum_pathwise(self, machine, gate):
        # one library trace for both gates, each gate's circuit stepped against it
        run = run_trace(machine, "quantum", 3000, make_rng(85))
        outputs, kets = step_oracle(machine, "quantum", gate, 3000, seed=85)
        np.testing.assert_array_equal(
            trace_outputs(machine, "quantum", 3000, make_rng(85)), outputs)
        assert_same_ensemble(run, prepared_kets(machine, "quantum"), kets)

    @pytest.mark.parametrize("machine", ORACLE_MACHINES, ids=ORACLE_IDS)
    def test_classical_pathwise(self, machine):
        run = run_trace(machine, "classical", 3000, make_rng(86))
        outputs, kets = step_oracle(machine, "classical", "cnot", 3000, seed=86)
        np.testing.assert_array_equal(trace_outputs(machine, "classical", 3000, make_rng(86)),
                                      outputs)
        assert_same_ensemble(run, prepared_kets(machine, "classical"), kets)

    @pytest.mark.parametrize("gate", ["cnot", "cu"])
    def test_noisy_emission_law_is_exact_channel_average(self, gate):
        machine = CausalMachine(0.9, 0.3)
        model = ket_model(machine)
        lam = 0.0375
        if gate == "cnot":
            meter_in, gate4, frame = np.array([1.0, 0.0]), CNOT4, np.eye(4)
        else:
            v, u = construct_cu(machine)
            meter_in, gate4 = v[:, 0], controlled(u)
            frame = np.kron(np.eye(2), v.T)
        via_channel = []
        for ket in (model.ket0, model.ket1):
            joint = gate4 @ np.kron(ket.amplitudes, meter_in)
            rho = depolarizing_average(projector(joint), lam)
            rho = frame @ rho @ frame.conj().T
            via_channel.append(np.real(rho[1, 1] + rho[3, 3]))
        closed_form = [p + (16 * lam / 15) * (0.5 - p) for p in (0.9, 1 - 0.3)]
        circuit = quantum_emission_probs(model, gate, lam)
        got = emission_law(machine, "quantum", lam)
        np.testing.assert_allclose(circuit, via_channel, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, via_channel, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, closed_form, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, [0.884, 1 - 0.308], rtol=0, atol=1e-12)
        sampled = sampled_machine(machine, "quantum", lam)
        np.testing.assert_allclose([sampled.p_right, sampled.p_left], [0.884, 0.308],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode,gate", [("classical", "cnot"), ("quantum", "cnot"),
                                           ("quantum", "cu")])
    @pytest.mark.parametrize("probs", [(0.9, 0.3), (1.0, 1e-12), (0.0, 1.0), (1.0, 1.0)])
    def test_sampled_machine_without_noise_is_the_machine(self, probs, mode, gate):
        # exactly: simulate checks the very chain it was asked for, and each
        # gate's noiseless circuit emits with that law
        machine = CausalMachine(*probs)
        assert sampled_machine(machine, mode) == machine
        if mode == "quantum":
            np.testing.assert_allclose(emission_law(machine, mode, 0.0),
                                       quantum_emission_probs(ket_model(machine),
                                                              gate, 0.0),
                                       rtol=0, atol=1e-12)


PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
ORACLE_EDGES = [(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1e-12), (0.5, 0.5)]


def with_oracle_edges(test):
    for p_right, p_left in ORACLE_EDGES:
        for lam in (0.0, 0.0375, 1.0):
            test = example(p_right=p_right, p_left=p_left, lam=lam)(test)
    return test


class TestClosedFormLaw:
    """Each gate's circuit against the one closed-form emission law, over
    random machines and noise rates; (0, 0) has no stationary law."""

    @settings(max_examples=100, deadline=None)
    @given(p_right=PROB, p_left=PROB, lam=PROB)
    @with_oracle_edges
    @pytest.mark.parametrize("gate", ["cnot", "cu"])
    def test_oracle_circuit_equals_closed_form(self, gate, p_right, p_left, lam):
        assume((p_right, p_left) != (0.0, 0.0))
        machine = CausalMachine(p_right, p_left)
        circuit = quantum_emission_probs(ket_model(machine), gate, lam)
        got = emission_law(machine, "quantum", lam)
        closed_form = [p + (16 * lam / 15) * (0.5 - p) for p in (p_right, 1 - p_left)]
        np.testing.assert_allclose(got, closed_form, rtol=0, atol=1e-15)
        np.testing.assert_allclose(circuit, got, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(p_right=PROB, p_left=PROB, lam=PROB)
    @with_oracle_edges
    def test_law_stays_in_unit_interval(self, p_right, p_left, lam):
        assume((p_right, p_left) != (0.0, 0.0))
        machine = CausalMachine(p_right, p_left)
        for mode in ("classical", "quantum"):
            # the sampled chain is a valid machine, no clipping needed
            p1 = emission_law(machine, mode, lam)
            assert all(0.0 <= p <= 1.0 for p in p1)


def scan_path(chain, n, rng):
    """trace_blocks of the chain unpacked and concatenated into the path
    step_loop_path returns: the start state, then the n bits.  Every block
    holds at most _DRAW_BLOCK steps, no bit at or above its step count, and
    enters in the state the block before it left."""
    blocks = list(trace_blocks(CausalMachine(*chain), n, rng))
    for (_, before, m), (entering, _, _) in zip(blocks, blocks[1:]):
        assert entering == before >> (m - 1)
    assert all(0 < m <= _DRAW_BLOCK and bits >> m == 0 for _, bits, m in blocks)
    return np.concatenate([[blocks[0][0]], *(unpacked(bits, m) for _, bits, m in blocks)]
                          ).astype(np.int8)


def step_loop_path(chain, n, rng):
    """Per-step reference for trace_blocks on the same stream: the start
    state (0 iff the start uniform is below w0), then each step's state, 1
    iff its uniform (BlockUniforms) is below P(1|state)."""
    uniforms = BlockUniforms(chain, n, rng)
    w0, _ = stationary_distribution(CausalMachine(*chain))
    p1 = (chain[0], 1.0 - chain[1])
    state = 0 if uniforms.random() < w0 else 1
    path = [state]
    for _ in range(n):
        state = 1 if uniforms.random() < p1[state] else 0
        path.append(state)
    return np.array(path, dtype=np.int8)


def scripted_blocks(chain, start, planes, m):
    """The one block of an m-step trace of the chain drawn from a script:
    the start uniform, then the bit planes, every one of them used."""
    script = ScriptedBits([start], planes)
    (block,) = trace_blocks(CausalMachine(*chain), m, script)
    assert script.planes == [], "the sampler left scripted planes undrawn"
    return block


# both states emit alike where p_right = 1 - p_left, and the band is empty;
# a dyadic p keeps 1 - (1 - p) == p exactly, so (p, 1 - p) ties in floats
TIES = st.integers(0, 2 ** 20).map(lambda k: (k / 2 ** 20, 1.0 - k / 2 ** 20))
# dyadic machines, whose bounds a uniform ties past their last digit
DYADIC = st.tuples(st.integers(1, 16), st.integers(0, 16)).map(
    lambda pair: (pair[0] / 16, pair[1] / 16))
CHAINS = st.one_of(st.tuples(PROB, PROB).filter(lambda chain: chain != (0.0, 0.0)), TIES,
                   DYADIC)
UNIFORM = st.one_of(st.sampled_from([0.0, 1.0 - 2.0 ** -53]),
                    st.floats(0.0, 1.0, exclude_max=True))


class TestSamplePathScan:
    @settings(max_examples=20, deadline=None)
    @given(chain=CHAINS, n=st.sampled_from([_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1,
                                            2 * _DRAW_BLOCK + 3]),
           start=UNIFORM, seed=st.integers(0, 2 ** 32 - 1))
    def test_scan_equals_step_loop(self, chain, n, start, seed):
        # every P(1|s) pair is some chain's; the script's first uniform forces
        # the start state, 0 below w0 and 1 at or above it, and its bit
        # planes come from one seeded stream
        got = scan_path(chain, n, ScriptedBits([start], rest=make_rng(seed)))
        want = step_loop_path(chain, n, ScriptedBits([start], rest=make_rng(seed)))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("chain", [(0.9, 0.3), (0.3, 0.9), (0.0, 1.0), (1.0, 1.0),
                                       (0.4, 0.6)])
    @pytest.mark.parametrize("n", [1, 7])
    def test_short_paths(self, chain, n):
        got = scan_path(chain, n, make_rng(12))
        np.testing.assert_array_equal(got, step_loop_path(chain, n, make_rng(12)))

    def test_tie_past_a_dyadic_bound_is_not_below_it(self):
        # P(1|s) = (0.25, 0.75): lo = 0.01 and hi = 0.11 in binary, so two
        # planes decide every step.  Step 0 reads u = 0.01..., tied with lo
        # past its last digit, so u >= lo and it stays in the band; step 1
        # (0.00...) is below lo and sets 1; step 2 (0.11...) ties hi, so
        # u >= hi and it sets 0; step 3 (0.10...) stays in the band
        entering, bits, m = scripted_blocks((0.25, 0.25), 0.3, [0b1100, 0b0101], 4)
        assert (entering, bits, m) == (0, 0b0010, 4)

    def test_equal_dyadic_bounds_take_one_plane(self):
        # lo == hi == 0.5: the band is empty, one plane decides every step,
        # and a step emits 1 exactly where the plane's bit is 0
        assert scripted_blocks((0.5, 0.5), 0.3, [0b0110], 4) == (0, 0b1001, 4)

    @pytest.mark.parametrize("chain, entering, bits", [((1.0, 1.0), 0, 0b0101),
                                                       ((1.0, 0.0), 1, 0b1111),
                                                       ((0.0, 1.0), 0, 0b0000)],
                             ids=["flips", "always-1", "always-0"])
    def test_bounds_0_and_1_draw_no_plane(self, chain, entering, bits):
        # every uniform is below 1 and none below 0, so a chain whose P(1|s)
        # are 0 or 1 draws its start and nothing else (w0 is 1/2, 0 and 1)
        assert scripted_blocks(chain, 0.3, [], 4) == (entering, bits, 4)

    @pytest.mark.parametrize("machine", [(0.9, 0.3), (0.45, 0.45), (0.1, 0.1)],
                             ids=["0.9-0.3", "0.45-0.45", "0.1-0.1"])
    def test_transition_frequencies_at_2m_steps(self, machine):
        # given how many steps leave state s, how many of them emit 1 is
        # Binomial(that count, P(1|s)) exactly; each lies within 5 sigma
        n = 2_000_000
        path = scan_path(machine, n, make_rng(2024))
        for state, p in enumerate((machine[0], 1.0 - machine[1])):
            after = path[1:][path[:-1] == state]
            leaving, ones = after.size, int(after.sum())
            assert abs(ones - leaving * p) <= 5.0 * np.sqrt(leaving * p * (1.0 - p)), state

    @pytest.mark.parametrize("chain", [(0.9, 0.7), (0.3, 0.1)], ids=["flips", "keeps"])
    def test_kept_blocks_are_not_reused(self, chain):
        # the bits each block yields are Python ints, which no later draw
        # can change, so blocks a caller keeps survive the draws after them
        n = 3 * _DRAW_BLOCK + 5
        kept = list(trace_blocks(CausalMachine(*chain), n, make_rng(21)))
        assert len(kept) == 4
        assert all(type(bits) is int for _, bits, _ in kept)
        np.testing.assert_array_equal(np.concatenate([unpacked(bits, m) for _, bits, m in kept]),
                                      step_loop_path(chain, n, make_rng(21))[1:])

    @pytest.mark.parametrize("machine", [(0.9, 0.3), (0.3, 0.3)], ids=["flips", "keeps"])
    def test_numpy_probabilities_sample_as_python_floats(self, machine):
        # p1 of np.float64 probabilities would compare to numpy bools, which
        # the sampler's big-integer carry chain must not take; the machine
        # stores them as Python floats
        n = _DRAW_BLOCK + 5
        want = list(trace_blocks(CausalMachine(*machine), n, make_rng(5)))
        got = list(trace_blocks(CausalMachine(*np.array(machine)), n, make_rng(5)))
        assert got == want

    @pytest.mark.parametrize("chain", [(0.9, 0.7), (0.3, 0.1)], ids=["flips", "keeps"])
    @pytest.mark.parametrize("last", ["sets-1", "sets-0"])
    @pytest.mark.parametrize("start", [0.2, 0.7], ids=["from-0", "from-1"])
    def test_only_reset_on_a_blocks_last_step(self, chain, last, start):
        # P(1|s) is (0.9, 0.3) or (0.3, 0.9), with 0.3 = 0.0100110... and
        # 0.9 = 0.1110011... in binary, and every uniform but one reads
        # 0.10..., inside the band [0.3, 0.9) after two planes.  So the
        # carry chain propagates the state (kept or flipped) through the
        # whole first block until its last step generates (0.00..., below
        # 0.3) or kills (0.1111..., at or above 0.9, tied with it for three
        # planes) the carry, and the next block enters with that step's
        # output, s >> (m - 1)
        n = _DRAW_BLOCK + 5
        full, top = (1 << _DRAW_BLOCK) - 1, 1 << (_DRAW_BLOCK - 1)
        first = [full ^ top, 0] if last == "sets-1" else [full, top, top, top]
        planes = first + [0b11111, 0]
        want = step_loop_path(chain, n, ScriptedBits([start], planes))
        script = ScriptedBits([start], planes)
        blocks = list(trace_blocks(CausalMachine(*chain), n, script))
        assert script.planes == []
        assert [m for _, _, m in blocks] == [_DRAW_BLOCK, 5]
        assert [entering for entering, _, _ in blocks] == [want[0], want[_DRAW_BLOCK]]
        assert want[0] == (start > 0.5) and want[_DRAW_BLOCK] == (last == "sets-1")
        np.testing.assert_array_equal(
            np.concatenate([unpacked(bits, m) for _, bits, m in blocks]), want[1:])


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
        # a trace with no whole window tallies to all zeros, like any other
        # tally; the block-law check alone refuses it
        counts = disjoint_block_counts(np.array([1, 0]), 3)
        np.testing.assert_array_equal(counts, [0] * 8)
        with pytest.raises(ValueError, match="^no blocks counted$"):
            block_law_check(CausalMachine(0.9, 0.3), counts)

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
        with pytest.raises(ValueError,
                           match=rf"block length must be an integer in \[1, 12\], got {block_len}$"):
            stream_block_counts(blocks(), (5, block_len))
        assert consumed == []
