"""Reference oracle: the literal step circuits and the two-switch ground truth.

qstoch samples every run as the two-state chain with the closed-form
emission law of circuit.sampled_machine, and works on the parity machine of
process.  This module keeps, for the tests to compare against, what those
abbreviate:
  * the statevector step circuits, with Born measurement, collapse and
    Pauli-trajectory gate noise, the exact noise channel, and the emission
    law evaluated by running the circuit once per encoded state;
  * the ground-truth pair of switches, stepped one draw at a time, and its
    exact block law from the 4-configuration chain;
  * the block route 2 H_L - H_2L to the excess entropy, block counts and
    a two-sample block-law check of whole bit arrays, and the exact spread
    of disjoint-block counts by enumerating every output path;
  * the kets, density matrices and Pauli matrices that qstoch's Bloch
    vectors stand for, and the matrix route (eigenvalues, <t|rho|t>) to
    the entropy, trace distance and fidelity the vectors give in closed form;
  * numpy's route to the numbers qstoch computes in plain Python: the
    bootstrap's spread from its draws as one (3, rounds) array, and the
    fields of a block-law check from whole arrays;
  * the linear-algebra helpers only these need.

qstoch's states are Bloch vectors and its gates qubit operators.
Two-qubit objects exist only here, as plain numpy arrays ordered
model (x) meter: the model qubit is the first, most significant tensor
factor and controls the entangling gate, and the meter is its target.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from qstoch.circuit import stream_block_counts
from qstoch.cli import GATES
from qstoch.process import (MAX_BLOCK_LEN, CausalMachine, block_distribution,
                            stationary_distribution)
from qstoch.qmath import (ATOL_DIST, ATOL_UNIT, EIG_ZERO, shannon_entropy,
                          von_neumann_entropy)
from qstoch.qmodel import construct_cu
from qstoch.stats import N_SIGMA, _lag_weight_sum, block_count_sigma
from qstoch.tomo import binomial

from conftest import packed

ATOL_PSD = 1e-10       # most negative eigenvalue tolerated in a density matrix


# ---------------------------------------------------------------------------
# single-qubit kets and density matrices: immutable named tuples whose
# __new__ runs the checks
# ---------------------------------------------------------------------------

def _as_qubit(values, what: str, shape: tuple) -> np.ndarray:
    """values as a complex array of a qubit's shape, (2,) or (2, 2)."""
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    return arr


class Ket(namedtuple("Ket", "amplitudes")):
    """Unit-norm complex amplitude vector of a qubit."""

    __slots__ = ()

    def __new__(cls, amplitudes):
        amp = _as_qubit(amplitudes, "ket", (2,))
        norm_sq = float((amp.real ** 2 + amp.imag ** 2).sum())
        if abs(norm_sq - 1.0) > ATOL_UNIT:
            raise ValueError(f"ket is not normalized: sum |a|^2 = {norm_sq!r}")
        amp.setflags(write=False)
        return super().__new__(cls, amp)

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


class DensityMatrix(namedtuple("DensityMatrix", "entries")):
    """Hermitian, unit-trace, positive-semidefinite 2x2 matrix."""

    __slots__ = ()

    def __new__(cls, entries):
        m = _as_qubit(entries, "density matrix", (2, 2))
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has a non-finite entry")
        if np.abs(m - m.conj().T).max() > ATOL_UNIT:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ATOL_UNIT:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        if float(_hermitian_eigvals(m).min()) < -ATOL_PSD:
            raise ValueError("density matrix is not positive semidefinite")
        m.setflags(write=False)
        return super().__new__(cls, m)


KET0 = Ket(np.array([1.0, 0.0]))
KET1 = Ket(np.array([0.0, 1.0]))

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _hermitian_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 Hermitian matrix, descending: the closed form
    mean +- hypot((a - c) / 2, |b|)."""
    a, c = m[0, 0].real, m[1, 1].real
    mean, disc = 0.5 * (a + c), np.hypot(0.5 * (a - c), abs(m[0, 1]))
    return np.array([mean + disc, mean - disc])


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Pauli expectations (<X>, <Y>, <Z>) of a single-qubit state."""
    m = rho.entries
    return np.array([2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


def density(r) -> DensityMatrix:
    """The state (I + r.sigma) / 2 of Bloch vector r."""
    return DensityMatrix(0.5 * (IDENTITY2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z))


def ket_mixture(weights, kets) -> DensityMatrix:
    """Weighted mixture of pure states: sum_i w_i |k_i><k_i|."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > ATOL_DIST:
        raise ValueError(f"mixture weights must be a distribution, got {w!r}")
    rho = np.zeros((2, 2), dtype=complex)
    for wi, ki in zip(w, kets):
        rho += wi * np.outer(ki.amplitudes, ki.amplitudes.conj())
    return DensityMatrix(rho)


def matrix_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log2 rho) from rho's eigenvalues, those below 1e-12 counted as 0."""
    spectrum = _hermitian_eigvals(rho.entries)
    return shannon_entropy(np.where(spectrum < EIG_ZERO, 0.0, spectrum))


def matrix_trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b, from its eigenvalues."""
    return 0.5 * float(np.abs(_hermitian_eigvals(a.entries - b.entries)).sum())


def matrix_fidelity(rho: DensityMatrix, target: Ket) -> float:
    """<target| rho |target> of a pure target."""
    t = target.amplitudes
    return float(np.vdot(t, rho.entries @ t).real)


class KetModel(NamedTuple):
    """A machine's causal states encoded as kets, with its equilibrium law:
    the kets whose Bloch vectors qmodel.quantum_causal_states returns."""

    machine: CausalMachine
    ket0: Ket
    ket1: Ket
    stationary: tuple[float, float]


def ket_model(machine: CausalMachine) -> KetModel:
    """State 0 as (sqrt(1 - p_right), sqrt(p_right)), state 1 as
    (sqrt(p_left), sqrt(1 - p_left))."""
    pr, pl = machine.p_right, machine.p_left
    return KetModel(machine, Ket([math.sqrt(1.0 - pr), math.sqrt(pr)]),
                    Ket([math.sqrt(pl), math.sqrt(1.0 - pl)]),
                    stationary_distribution(machine))


def steady_density(model: KetModel) -> DensityMatrix:
    """Memory state averaged over the equilibrium causal-state law."""
    return ket_mixture(model.stationary, (model.ket0, model.ket1))


# ---------------------------------------------------------------------------
# linear-algebra helpers
# ---------------------------------------------------------------------------


def overlap(a: Ket, b: Ket) -> complex:
    """Inner product <a|b>."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def same_state(a: Ket, b: Ket, atol: float = ATOL_UNIT) -> bool:
    """State equality up to global phase, via |<a|b>| = 1."""
    return abs(abs(overlap(a, b)) - 1.0) <= atol


def tensor(a, b) -> np.ndarray:
    """Tensor product of two qubit objects; first factor is most significant.

    Ket (x) Ket -> 4 amplitudes, 2x2 array (x) 2x2 array -> 4x4 matrix.
    """
    if isinstance(a, Ket) and isinstance(b, Ket):
        return np.kron(a.amplitudes, b.amplitudes)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError("tensor expects two Kets or two operator arrays")


def projector(psi: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a pure state's amplitudes."""
    return np.outer(psi, psi.conj())


def controlled(u: np.ndarray) -> np.ndarray:
    """4x4 gate applying u to the meter when the model qubit reads |1>:
    |0><0| (x) I + |1><1| (x) u."""
    return (np.kron(np.diag([1.0, 0.0]), IDENTITY2)
            + np.kron(np.diag([0.0, 1.0]), u))


# ---------------------------------------------------------------------------
# step circuits
# ---------------------------------------------------------------------------

# model qubit is the first (most significant) factor and controls the meter
CNOT4 = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=complex)

_SINGLE_PAULIS = (IDENTITY2, PAULI_X, PAULI_Y, PAULI_Z)
TWO_QUBIT_PAULIS = tuple(
    np.kron(_SINGLE_PAULIS[i], _SINGLE_PAULIS[j])
    for i in range(4) for j in range(4) if (i, j) != (0, 0)
)


def bell_state() -> np.ndarray:
    """(|00> + |11>) / sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def bell_fidelity(rho: np.ndarray) -> float:
    """Fidelity <bell| rho |bell> of a 4x4 two-qubit density matrix."""
    bell = bell_state()
    return float(np.vdot(bell, rho @ bell).real)


@dataclass(frozen=True)
class CircuitState:
    """Joint statevector amplitudes of the step circuit.

    Fresh states hold both qubits (4 amplitudes, model (x) meter); after a
    destructive measurement only the surviving qubit remains (2 amplitudes).
    """

    joint: np.ndarray


def _born_pick(p_one: float, rng: random.Random) -> int:
    return int(rng.random() < p_one)


def measure_qubit(state: CircuitState, which: str,
                  rng: random.Random) -> tuple[int, CircuitState]:
    """Logical-basis measurement of one qubit of a two-qubit state.

    Destructive: the outcome is Born-sampled, the measured qubit is removed,
    and the surviving qubit is returned renormalized as a one-qubit state.
    """
    if state.joint.shape != (4,):
        raise ValueError("measure_qubit needs both qubits present (4 amplitudes)")
    if which not in ("model", "meter"):
        raise ValueError(f"which must be 'model' or 'meter', got {which!r}")
    psi = state.joint
    if which == "model":
        branches = (psi[0:2], psi[2:4])
    else:
        branches = (psi[0::2], psi[1::2])
    p_one = float(np.real(np.vdot(branches[1], branches[1])))
    outcome = _born_pick(p_one, rng)
    kept = branches[outcome]
    norm = np.sqrt(np.real(np.vdot(kept, kept)))
    assert norm > 0.0, "Born rule selected a zero-norm branch"
    return outcome, CircuitState(joint=kept / norm)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def classical_step(s: int, machine: CausalMachine,
                   rng: random.Random) -> tuple[int, int]:
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
    v, u = construct_cu(machine)
    meter_in = v[:, 0].copy()
    frame = np.kron(IDENTITY2, v.T)
    return meter_in, controlled(u), frame


def _apply_noise_raw(psi: np.ndarray, lam: float, rng: random.Random) -> np.ndarray:
    if rng.random() < lam:
        return TWO_QUBIT_PAULIS[rng.randrange(15)] @ psi
    return psi


def _meter_one_prob(psi: np.ndarray, frame) -> float:
    """Born probability of meter readout 1 from the post-gate joint state."""
    if frame is not None:
        psi = frame @ psi
    odd = psi[1::2]
    return float(np.real(np.vdot(odd, odd)))


def quantum_step(memory: Ket, model: KetModel, rng: random.Random,
                 gate: str = "cnot", lam: float = 0.0) -> tuple[int, Ket]:
    """One quantum step: entangle, read the meter, reprepare by output bit.

    The memory qubit meets a fresh meter, the chosen two-qubit gate runs
    with the model qubit as control, trajectory noise may strike (a Pauli
    with probability lam), and the meter is measured in the logical basis.
    The collapsed model qubit is discarded and the returned memory is the
    encoding of the output bit.
    """
    if gate not in GATES:
        raise ValueError(f"gate must be one of {GATES}, got {gate!r}")
    meter_in, gate4, frame = _step_operators(model.machine, gate)
    psi = gate4 @ np.kron(memory.amplitudes, meter_in)
    if lam > 0.0:
        psi = _apply_noise_raw(psi, lam, rng)
    outcome = _born_pick(_meter_one_prob(psi, frame), rng)
    return outcome, (model.ket0, model.ket1)[outcome]


def apply_noise(state: CircuitState, lam: float,
                rng: random.Random) -> CircuitState:
    """Depolarizing trajectory: with probability lam, a random non-identity
    two-qubit Pauli hits the joint state; otherwise it passes unchanged."""
    if state.joint.shape != (4,):
        raise ValueError("apply_noise acts on the two-qubit joint state")
    psi = _apply_noise_raw(state.joint, lam, rng)
    if psi is state.joint:
        return state
    return CircuitState(joint=psi)


def depolarizing_average(rho: np.ndarray, lam: float) -> np.ndarray:
    """Exact trajectory average of a 4x4 two-qubit density matrix:
    (1 - lam) rho + (lam / 15) sum_P P rho P."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must be in [0, 1], got {lam!r}")
    if rho.shape != (4, 4):
        raise ValueError("depolarizing_average acts on two-qubit states")
    acc = sum(pauli @ rho @ pauli.conj().T for pauli in TWO_QUBIT_PAULIS)
    return (1.0 - lam) * rho + (lam / 15.0) * acc


def to_mixing_rate(lam: float) -> float:
    """Equivalent replace-with-maximally-mixed rate: 16 lam / 15."""
    return 16.0 * lam / 15.0


def from_mixing_rate(rate: float) -> float:
    """Pauli-trajectory rate matching a replace-with-maximally-mixed rate."""
    return 15.0 * rate / 16.0


def noisy_bell_average(lam: float) -> np.ndarray:
    """Average state from the noisy entangler on separable Bell-prep inputs."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    ideal = CNOT4 @ np.kron(plus, np.array([1.0, 0.0], dtype=complex))
    return depolarizing_average(projector(ideal), lam)


def quantum_emission_probs(model: KetModel, gate: str,
                           lam: float) -> tuple[float, float]:
    """(P(1|0), P(1|1)) of one quantum step, noise channel averaged exactly.

    Runs the circuit once per encoded state with quantum_step's Born
    arithmetic; (1 - lam) p_I + lam / 15 sum_P p_P is the exact outcome law
    because the memory is reprepared from the output bit.  The closed form
    of circuit.sampled_machine equals it up to rounding.
    """
    meter_in, gate4, frame = _step_operators(model.machine, gate)
    probs = []
    for ket in (model.ket0, model.ket1):
        psi = gate4 @ np.kron(ket.amplitudes, meter_in)
        hit = sum(_meter_one_prob(pauli @ psi, frame) for pauli in TWO_QUBIT_PAULIS)
        probs.append((1.0 - lam) * _meter_one_prob(psi, frame) + (lam / 15.0) * hit)
    return probs[0], probs[1]


def emission_chain(machine: CausalMachine, gate: str) -> CausalMachine:
    """The chain one gate's noiseless literal circuit samples: (p_right,
    p_left) read off quantum_emission_probs."""
    p_one = quantum_emission_probs(ket_model(machine), gate, 0.0)
    return CausalMachine(p_one[0], 1.0 - p_one[1])


# ---------------------------------------------------------------------------
# two-switch ground truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchConfig:
    """Settings of the two ground-truth switches."""

    b1: int
    b2: int

    def __post_init__(self):
        if self.b1 not in (0, 1) or self.b2 not in (0, 1):
            raise ValueError(f"switch settings must be bits, got ({self.b1!r}, {self.b2!r})")

    @property
    def parity(self) -> int:
        """Causal-state label: 0 when the switches agree."""
        return self.b1 ^ self.b2


def two_switch_step(cfg: SwitchConfig, machine: CausalMachine,
                    rng: random.Random) -> tuple[SwitchConfig, int]:
    """Advance the switch pair one step; returns (new config, emitted bit).

    One switch is chosen uniformly and flipped with probability p_right when
    the switches currently agree, p_left otherwise.  Two RNG draws are
    consumed per call regardless of outcome, keeping streams aligned.
    """
    flip_prob = machine.p_right if cfg.parity == 0 else machine.p_left
    which = rng.getrandbits(1)
    do_flip = rng.random() < flip_prob
    b1, b2 = cfg.b1, cfg.b2
    if do_flip:
        if which == 0:
            b1 ^= 1
        else:
            b2 ^= 1
    new_cfg = SwitchConfig(b1, b2)
    return new_cfg, new_cfg.parity


def reduce_to_causal_machine(p_align: float, p_anti: float | None = None) -> CausalMachine:
    """Minimal parity machine for a two-switch process.

    p_align is the flip probability when the switches agree, p_anti when they
    disagree (defaults to p_align for the symmetric process).  Flipping either
    switch toggles the parity, so the parity chain transitions 0 -> 1 with
    p_align and 1 -> 0 with p_anti; length-L output block laws of the 4-state
    switch chain and of the returned machine coincide exactly.
    """
    if p_anti is None:
        p_anti = p_align
    return CausalMachine(p_right=p_align, p_left=p_anti)


def _emission_resolved_4state(machine: CausalMachine) -> tuple[np.ndarray, np.ndarray]:
    """t4[x][c_next, c] for the 4-config chain; configs indexed (b1 << 1) | b2."""
    t4 = np.zeros((2, 4, 4))
    for c in range(4):
        parity = ((c >> 1) & 1) ^ (c & 1)
        p = machine.p_right if parity == 0 else machine.p_left
        stay = 1.0 - p
        t4[parity, c, c] += stay                       # no flip: parity unchanged
        for flipped in (c ^ 2, c ^ 1):                 # flip b1 / flip b2
            new_parity = ((flipped >> 1) & 1) ^ (flipped & 1)
            t4[new_parity, flipped, c] += p / 2.0
    return t4[0], t4[1]


def two_switch_stationary(machine: CausalMachine) -> np.ndarray:
    """Stationary law over the four switch configs [00, 01, 10, 11].

    The dynamics are symmetric under flipping both switches, so the two
    configs within each parity class carry equal mass; boundary cases where
    the 4-state chain is not irreducible inherit this uniform-within-class
    convention from the parity chain.
    """
    w0, w1 = stationary_distribution(machine)
    return np.array([w0 / 2.0, w1 / 2.0, w1 / 2.0, w0 / 2.0])


def two_switch_block_distribution(machine: CausalMachine, block_len: int) -> np.ndarray:
    """Exact length-L output block law of the 4-state switch chain.

    Computed by propagating emission-resolved 4x4 transition matrices from
    the stationary configuration law; independent of the reduced 2-state
    path in block_distribution.
    """
    if not (1 <= block_len <= MAX_BLOCK_LEN):
        raise ValueError(f"block length must be in [1, {MAX_BLOCK_LEN}], got {block_len!r}")
    t_emit0, t_emit1 = _emission_resolved_4state(machine)
    vecs = two_switch_stationary(machine)[np.newaxis, :]    # (n_prefixes, 4)
    for _ in range(block_len):
        nxt = np.empty((vecs.shape[0] * 2, 4))
        nxt[0::2] = vecs @ t_emit0.T
        nxt[1::2] = vecs @ t_emit1.T
        vecs = nxt
    return vecs.sum(axis=1)


def block_excess_entropy(machine: CausalMachine, half_window: int) -> float:
    """Mutual information (bits) between L past and L future outputs by the
    block route: I(X_1..X_L ; X_{L+1}..X_2L) = 2 H_L - H_2L by stationarity,
    on exact block laws; block_distribution limits L to MAX_BLOCK_LEN / 2."""
    h_half = shannon_entropy(block_distribution(machine, half_window))
    h_full = shannon_entropy(block_distribution(machine, 2 * half_window))
    return max(2.0 * h_half - h_full, 0.0)


def naive_switch_entropy(machine: CausalMachine) -> float:
    """Memory cost of tracking both switches: entropy of the 4-config law."""
    return shannon_entropy(two_switch_stationary(machine))


# ---------------------------------------------------------------------------
# block counts of a whole bit array
# ---------------------------------------------------------------------------

def disjoint_block_counts(outputs: np.ndarray, block_len: int) -> np.ndarray:
    """Counts of the 2**L possible blocks over consecutive disjoint windows
    of a bit array, by circuit.stream_block_counts of the array packed as one
    block, as an int64 array."""
    counts, = stream_block_counts((packed(outputs),), (block_len,))
    return np.array(counts, dtype=np.int64)


def two_sample_block_check(machine: CausalMachine, outputs_a: np.ndarray,
                           outputs_b: np.ndarray, block_len: int) -> bool:
    """N_SIGMA consistency of two trace block laws for the same machine."""
    ca = disjoint_block_counts(outputs_a, block_len)
    cb = disjoint_block_counts(outputs_b, block_len)
    ma, mb = int(ca.sum()), int(cb.sum())
    sa = np.array(block_count_sigma(machine, block_len, ma)) / ma
    sb = np.array(block_count_sigma(machine, block_len, mb)) / mb
    diff = np.abs(ca / ma - cb / mb)
    return bool(np.all(diff <= N_SIGMA * np.hypot(sa, sb) + 1e-12))


def enumerated_count_sigma(machine: CausalMachine, block_len: int,
                           n_blocks: int) -> np.ndarray:
    """Exact std of each block count over m disjoint windows, by summing over
    every output path of n = m L <= MAX_BLOCK_LEN steps from a stationary
    start: a path's weight is its start state's share times its transitions,
    since each output is the state it moves to."""
    n = block_len * n_blocks
    if not (1 <= n <= MAX_BLOCK_LEN):
        raise ValueError(f"m L must be in [1, {MAX_BLOCK_LEN}], got {n!r}")
    p_right, p_left = machine
    t = np.array([[1.0 - p_right, p_right], [p_left, 1.0 - p_left]])   # t[s, x]: s -> x
    paths = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    weight = np.zeros(2 ** n)
    for start, share in enumerate(stationary_distribution(machine)):
        states = np.hstack([np.full((2 ** n, 1), start), paths])
        weight += share * t[states[:, :-1], states[:, 1:]].prod(axis=1)
    codes = paths.reshape(-1, n_blocks, block_len) @ (1 << np.arange(block_len - 1, -1, -1))
    counts = (codes[:, :, None] == np.arange(2 ** block_len)).sum(axis=1)
    mean = weight @ counts
    return np.sqrt(weight @ (counts - mean) ** 2)


# ---------------------------------------------------------------------------
# numpy references of the numbers qstoch computes in plain Python
# ---------------------------------------------------------------------------

def numpy_bootstrap_std(plus, shots: int, rng: random.Random,
                        rounds: int = 200) -> float:
    """The bootstrap spread of tomo.entropy_with_error from numpy: the same
    tomo.binomial draws at the observed rates, basis by basis, as one
    (3, rounds) array, each column's entropy by qmath.von_neumann_entropy,
    and numpy's std(ddof=1) of them, whose sums are pairwise."""
    draws = np.array([[binomial(rng, shots, k / shots) for _ in range(rounds)] for k in plus])
    r = (2 * draws - shots) / shots
    return float(np.std([von_neumann_entropy(column) for column in r.T], ddof=1))


NumpyBlockLaw = namedtuple("NumpyBlockLaw", "freqs probs tv tv_bound")


def numpy_block_law(machine: CausalMachine, counts) -> NumpyBlockLaw:
    """freqs, probs, tv and tv_bound of stats.block_law_check, in numpy
    arrays: each law by broadcasting a block's probability over the row of
    its last bit, the per-cell sigma elementwise (with the check's own
    closed-form lag sum), the sums pairwise."""
    counts = np.asarray(counts, dtype=np.int64)
    block_len = counts.size.bit_length() - 1
    m = int(counts.sum())
    p_right, p_left = machine
    t = np.array([[1.0 - p_right, p_right], [p_left, 1.0 - p_left]])   # t[s, x]: s -> x
    w0, w1 = stationary_distribution(machine)

    def law(length):
        probs = w0 * t[0] + w1 * t[1]
        for size in (2 ** k for k in range(1, length)):
            probs = (probs[:, None] * t[np.arange(size) & 1]).reshape(-1)
        return probs

    probs = law(block_len)
    cov1 = law(2 * block_len)[np.arange(2 ** block_len) * (2 ** block_len + 1)] - probs ** 2
    lags = _lag_weight_sum(m, (1.0 - p_right - p_left) ** block_len)
    tol = N_SIGMA * np.sqrt(np.maximum(m * probs * (1.0 - probs) + 2.0 * cov1 * lags, 0.0))
    freqs = counts / m
    return NumpyBlockLaw(freqs, probs, 0.5 * float(np.abs(freqs - probs).sum()),
                         0.5 * float(tol.sum()) / m)
