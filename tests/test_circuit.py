"""Step circuits: measurement collapse, stepping, noise, calibration, traces."""

import itertools
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qstoch.circuit import (
    RunResult,
    calibrate_noise,
    run_trace,
    sampled_machine,
    trace_blocks,
)
from qstoch.cli import main
from qstoch.process import CausalMachine, stationary_distribution
from qstoch.qmodel import construct_cu, quantum_causal_states
from qstoch.tomo import ensemble_density
from qstoch.seeding import make_rng
from qstoch.stats import block_law_check

from conftest import ScriptedUniforms, chain_outputs, trace_outputs, unpacked
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
        script = ScriptedUniforms([p_one - 1e-12, p_one + 1e-12])
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
        # 0.2584 there, 0.25 for the noiseless machine; make_rng(12)'s first
        # uniform, 0.2550, falls between the two
        machine, lam = CausalMachine(0.9, 0.3), 0.0375
        chain = sampled_machine(machine, "quantum", lam)
        assert stationary_distribution(chain)[0] == pytest.approx(0.2584, abs=1e-4)
        assert make_rng(12).random() == pytest.approx(0.2550, abs=1e-4)
        (start, _, _), = trace_blocks(chain, 10, make_rng(12))
        assert start == 0
        assert run_trace(machine, "quantum", 1, make_rng(12), lam).ones == 0

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
        # the chain checks mode and lam, the stream its length when it is
        # made, before any block is drawn
        with pytest.raises(ValueError):
            sampled_machine(machine, "hybrid")
        with pytest.raises(ValueError):
            trace_blocks(machine, 0, make_rng(1))

    @pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
    def test_noise_rate_validated(self, lam):
        with pytest.raises(ValueError, match="lam"):
            sampled_machine(CausalMachine(0.8, 0.8), "quantum", lam)

    def test_result_vectors_frozen(self):
        run = run_trace(CausalMachine(0.8, 0.8), "quantum", 10, make_rng(80))
        assert isinstance(run, RunResult)
        with pytest.raises(ValueError):
            run.vectors[0][0] = 1.0


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees (numpy buffers included) while fn runs,
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
        assert main(args) == 0

    @pytest.mark.parametrize("work", ["run", "simulate"])
    def test_peak_is_flat_in_steps(self, work):
        fn = getattr(self, work)
        fn(10)      # one-time set-up (caches, first allocations) out of the way
        short = traced_peak(lambda: fn(200_000))
        long = traced_peak(lambda: fn(2_000_000))
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
    """Outputs and entering memory kets from stepping the single-step circuit."""
    rng = make_rng(seed)
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
