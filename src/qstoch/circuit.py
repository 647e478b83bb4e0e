"""Two-qubit step circuits: classical bit version and quantum statevector version.

One simulation step entangles the memory with a fresh meter, reads the meter
out in the logical basis (Born rule, destructive), discards the collapsed
memory qubit and freshly prepares the encoding of the observed output bit.
Because each output bit equals the destination causal state, repreparing by
output bit reproduces the process law exactly.

Gate imperfections are Pauli trajectories: with probability lam, one of the
15 non-identity two-qubit Paulis (uniformly chosen) hits the state right
after the entangling gate.  The single steps run circuit and trajectories
literally and are the reference oracle; run_trace samples the equivalent
two-state chain, whose emission probabilities average the exact channel.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qmath
from .process import CausalMachine, _sample_blocks, stationary_distribution
from .qmodel import QuantumModel, construct_cu, quantum_causal_states
from .qmath import DensityMatrix, Ket
from .seeding import make_rng

GATES = ("cnot", "cu")
MODES = ("classical", "quantum")

# model qubit is the first (most significant) factor and controls the meter
CNOT4 = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=complex)

_SINGLE_PAULIS = (qmath.IDENTITY2, qmath.PAULI_X, qmath.PAULI_Y, qmath.PAULI_Z)
TWO_QUBIT_PAULIS = tuple(
    np.kron(_SINGLE_PAULIS[i], _SINGLE_PAULIS[j])
    for i in range(4) for j in range(4) if (i, j) != (0, 0)
)


def bell_state() -> Ket:
    """(|00> + |11>) / sqrt(2)."""
    return Ket(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))


@dataclass(frozen=True)
class CircuitState:
    """Joint statevector of the step circuit.

    Fresh states hold both qubits (dim 4, model (x) meter); after a
    destructive measurement only the surviving qubit remains (dim 2).
    """

    joint: Ket


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing trajectory rate: per-gate probability of a random Pauli."""

    lam: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must be in [0, 1], got {self.lam!r}")


@dataclass(frozen=True)
class RunResult:
    """The sufficient statistic of an n-step run's memory.

    Every step enters with one of two prepared kets, the encoding of the
    causal state it starts from, so the memory ensemble is fixed by how many
    steps entered in state 1.  The outputs themselves are not kept: stream
    them with trace_blocks.
    """

    steps: int
    ones: int                   # steps whose entering state was 1
    kets: tuple[Ket, Ket]       # the prepared memory of state 0 and state 1

    def density(self) -> DensityMatrix:
        """Average memory state over the steps: (n0 P0 + n1 P1) / n."""
        n = self.steps
        return qmath.mixture([(n - self.ones) / n, self.ones / n], self.kets)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _born_pick(p_one: float, rng: np.random.Generator) -> int:
    return int(rng.random() < p_one)


def measure_qubit(state: CircuitState, which: str,
                  rng: np.random.Generator) -> tuple[int, CircuitState]:
    """Logical-basis measurement of one qubit of a dim-4 state.

    Destructive: the outcome is Born-sampled, the measured qubit is removed,
    and the surviving qubit is returned renormalized as a dim-2 state.
    """
    if state.joint.dim != 4:
        raise ValueError("measure_qubit needs both qubits present (dim-4 state)")
    if which not in ("model", "meter"):
        raise ValueError(f"which must be 'model' or 'meter', got {which!r}")
    psi = state.joint.amplitudes
    if which == "model":
        branches = (psi[0:2], psi[2:4])
    else:
        branches = (psi[0::2], psi[1::2])
    p_one = float(np.real(np.vdot(branches[1], branches[1])))
    outcome = _born_pick(p_one, rng)
    kept = branches[outcome]
    norm = np.sqrt(np.real(np.vdot(kept, kept)))
    assert norm > 0.0, "Born rule selected a zero-norm branch"
    return outcome, CircuitState(joint=Ket(kept / norm))


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def classical_step(s: int, machine: CausalMachine,
                   rng: np.random.Generator) -> tuple[int, int]:
    """One step of the classical bit circuit: returns (output bit, next state).

    The destination state is 1 iff a uniform falls below P(1|s) (p_right
    from state 0, 1 - p_left from state 1); it is XORed onto a fresh zero
    meter bit, and the meter readout is both the output and the next state.
    """
    if s not in (0, 1):
        raise ValueError(f"causal state must be 0 or 1, got {s!r}")
    p_one = machine.p_right if s == 0 else 1.0 - machine.p_left
    meter = 0 ^ int(rng.random() < p_one)
    return meter, meter


@lru_cache(maxsize=None)
def _step_operators(machine: CausalMachine, gate: str):
    """(meter input ket, entangling 4x4, pre-readout 4x4 frame or None).

    The cnot path uses a plain |0> meter and no extra frame.  The cu path
    prepares the meter in v|0> and reads it out in the v-rotated basis
    (realized as an inverse rotation before the logical measurement); this
    folding of the rotation into preparation and readout is what makes the
    controlled-u statistics match the cnot ones exactly.
    """
    if gate == "cnot":
        return np.array([1.0, 0.0], dtype=complex), CNOT4, None
    ops = construct_cu(machine)
    v = ops.v.entries
    meter_in = v[:, 0].copy()
    frame = np.kron(np.eye(2, dtype=complex), v.conj().T)
    return meter_in, ops.cu.entries, frame


def _apply_noise_raw(psi: np.ndarray, lam: float, rng: np.random.Generator) -> np.ndarray:
    if rng.random() < lam:
        return TWO_QUBIT_PAULIS[int(rng.integers(15))] @ psi
    return psi


def _meter_one_prob(psi: np.ndarray, frame) -> float:
    """Born probability of meter readout 1 from the post-gate joint state."""
    if frame is not None:
        psi = frame @ psi
    odd = psi[1::2]
    return float(np.real(np.vdot(odd, odd)))


def quantum_step(memory: Ket, model: QuantumModel, rng: np.random.Generator,
                 gate: str = "cnot",
                 noise: NoiseModel | None = None) -> tuple[int, Ket]:
    """One quantum step: entangle, read the meter, reprepare by output bit.

    The memory (dim 2) meets a fresh meter, the chosen two-qubit gate runs
    with the model qubit as control, trajectory noise may strike, and the
    meter is measured in the logical basis.  The collapsed model qubit is
    discarded and the returned memory is the encoding of the output bit.
    """
    if memory.dim != 2:
        raise ValueError("memory must be a single-qubit ket")
    if gate not in GATES:
        raise ValueError(f"gate must be one of {GATES}, got {gate!r}")
    noise = noise or NoiseModel()
    meter_in, gate4, frame = _step_operators(model.machine, gate)
    psi = gate4 @ np.kron(memory.amplitudes, meter_in)
    if noise.lam > 0.0:
        psi = _apply_noise_raw(psi, noise.lam, rng)
    outcome = _born_pick(_meter_one_prob(psi, frame), rng)
    return outcome, (model.ket0, model.ket1)[outcome]


def apply_noise(state: CircuitState, noise: NoiseModel,
                rng: np.random.Generator) -> CircuitState:
    """Depolarizing trajectory: with probability lam, a random non-identity
    two-qubit Pauli hits the joint state; otherwise it passes unchanged."""
    if state.joint.dim != 4:
        raise ValueError("apply_noise acts on the two-qubit joint state")
    psi = _apply_noise_raw(state.joint.amplitudes, noise.lam, rng)
    if psi is state.joint.amplitudes:
        return state
    return CircuitState(joint=Ket(psi))


# ---------------------------------------------------------------------------
# exact noise channel and calibration
# ---------------------------------------------------------------------------

def depolarizing_average(rho: DensityMatrix, lam: float) -> DensityMatrix:
    """Exact trajectory average: (1 - lam) rho + (lam / 15) sum_P P rho P."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must be in [0, 1], got {lam!r}")
    if rho.dim != 4:
        raise ValueError("depolarizing_average acts on two-qubit states")
    arr = rho.entries
    acc = np.zeros_like(arr)
    for pauli in TWO_QUBIT_PAULIS:
        acc += pauli @ arr @ pauli.conj().T
    return DensityMatrix((1.0 - lam) * arr + (lam / 15.0) * acc)


def to_mixing_rate(lam: float) -> float:
    """Equivalent replace-with-maximally-mixed rate: 16 lam / 15."""
    return 16.0 * lam / 15.0


def from_mixing_rate(rate: float) -> float:
    """Pauli-trajectory rate matching a replace-with-maximally-mixed rate."""
    return 15.0 * rate / 16.0


def noisy_bell_average(lam: float) -> DensityMatrix:
    """Average state from the noisy entangler on separable Bell-prep inputs."""
    plus = Ket(np.array([1.0, 1.0]) / np.sqrt(2.0))
    ideal = Ket(CNOT4 @ np.kron(plus.amplitudes, np.array([1.0, 0.0], dtype=complex)))
    return depolarizing_average(ideal.projector(), lam)


def calibrate_noise(target_fidelity: float) -> NoiseModel:
    """Trajectory rate whose exact channel average hits a Bell fidelity target.

    Closed form of that average: F = 1 - (3/4)(16/15) lam = 1 - 0.8 lam.
    Targets below 0.25 are rejected as unachievable.
    """
    if not (0.25 <= target_fidelity <= 1.0):
        raise ValueError(f"target fidelity must be in [0.25, 1], got {target_fidelity!r}")
    return NoiseModel(lam=(1.0 - target_fidelity) / 0.8)


# ---------------------------------------------------------------------------
# trace runs
# ---------------------------------------------------------------------------

def _quantum_emission_probs(model: QuantumModel, gate: str,
                            lam: float) -> tuple[float, float]:
    """(P(1|0), P(1|1)) of one quantum step, noise channel averaged exactly.

    Runs the circuit once per encoded state with quantum_step's Born
    arithmetic; (1 - lam) p_I + lam / 15 sum_P p_P is the exact outcome law
    because the memory is reprepared from the output bit.
    """
    meter_in, gate4, frame = _step_operators(model.machine, gate)
    probs = []
    for ket in (model.ket0, model.ket1):
        psi = gate4 @ np.kron(ket.amplitudes, meter_in)
        hit = sum(_meter_one_prob(pauli @ psi, frame) for pauli in TWO_QUBIT_PAULIS)
        probs.append((1.0 - lam) * _meter_one_prob(psi, frame) + (lam / 15.0) * hit)
    return probs[0], probs[1]


def _emission_law(machine: CausalMachine, mode: str, gate: str,
                  noise: NoiseModel | None) -> tuple[tuple[float, float], tuple[Ket, Ket]]:
    """Checked mode and gate, then (P(1|0), P(1|1)) and the prepared kets.

    Classical steps prepare the logical basis states and emit with the
    machine's own law (noise does not act on them); quantum steps prepare
    the encoded causal states and emit with the circuit's channel-averaged
    law.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if gate not in GATES:
        raise ValueError(f"gate must be one of {GATES}, got {gate!r}")
    if mode == "classical":
        return (machine.p_right, 1.0 - machine.p_left), (qmath.KET0, qmath.KET1)
    model = quantum_causal_states(machine)
    lam = noise.lam if noise is not None else 0.0
    return _quantum_emission_probs(model, gate, lam), (model.ket0, model.ket1)


def _blocks(machine: CausalMachine, p1: tuple[float, float], n: int,
            seed: int) -> Iterator[tuple[int, np.ndarray]]:
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n!r}")
    w0, _ = stationary_distribution(machine)
    return _sample_blocks(p1, n, make_rng(seed), w0=w0)


def sampled_machine(machine: CausalMachine, mode: str, gate: str = "cnot",
                    noise: NoiseModel | None = None) -> CausalMachine:
    """The two-state chain a run of this circuit samples.

    Its 0 -> 1 probability is the circuit's P(1|0) and its 1 -> 0
    probability is 1 - P(1|1): the machine itself up to rounding without
    noise, the channel-averaged machine with it.
    """
    p1, _ = _emission_law(machine, mode, gate, noise)
    return CausalMachine(min(max(p1[0], 0.0), 1.0), min(max(1.0 - p1[1], 0.0), 1.0))


def trace_blocks(machine: CausalMachine, mode: str, n: int, seed: int,
                 gate: str = "cnot",
                 noise: NoiseModel | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """The outputs of run_trace with the same arguments, streamed.

    Yields (the state entering the block's first step, the block's int8
    output bits) for consecutive blocks of at most 65536 steps, so a trace
    of any length is read in bounded memory.  The arguments are checked
    here, before the first block is drawn.
    """
    p1, _ = _emission_law(machine, mode, gate, noise)
    return _blocks(machine, p1, n, seed)


def run_trace(machine: CausalMachine, mode: str, n: int, seed: int,
              gate: str = "cnot", noise: NoiseModel | None = None) -> RunResult:
    """Sample n steps of the step circuit from a stationary start.

    Returns the memory ensemble: the kets prepared for each state (encoded
    causal states in quantum mode, logical basis states in classical mode)
    and how many steps entered in state 1.  That ensemble is what
    tomography measures.
    Outputs follow the two-state chain with the circuit's per-state emission
    probabilities, one uniform per step: stepping classical_step or noiseless
    quantum_step on the same generator gives them bit for bit, and
    trace_blocks streams them.  The count is summed block by block, so
    memory stays bounded however large n is.
    Reproducible for a fixed seed.
    """
    p1, kets = _emission_law(machine, mode, gate, noise)
    # step j enters in the state step j - 1 emitted, step 0 in the start state
    ones = sum(entering + int(np.count_nonzero(bits[:-1]))
               for entering, bits in _blocks(machine, p1, n, seed))
    return RunResult(steps=n, ones=ones, kets=kets)
