"""Emission law and trace runs of the classical and quantum step circuits.

One simulation step entangles the memory with a fresh meter, reads the meter
out in the logical basis (Born rule, destructive), discards the collapsed
memory qubit and freshly prepares the encoding of the observed output bit.
Because each output bit equals the destination causal state and the memory
is reprepared from it, a run is the two-state chain that emits 1 from state
s with probability P(1|s).  The encoding makes that law the machine's own,
(p_right, 1 - p_left), for either gate.

Gate noise: with probability lam one of the 15 non-identity two-qubit Paulis
(uniform) strikes right after the entangling gate.  Averaging a state over
all 16 Paulis gives I/4 (the Pauli twirl), and I/4 reads 1 on the meter
with probability 1/2 in any frame, so noise moves each P(1|s) = p to
p + (16 lam / 15)(1/2 - p) whatever the gate.  Traces sample that chain
directly; the literal statevector steps and Pauli trajectories are the
reference oracle in tests/oracle.py.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import qmath
from .process import CausalMachine, _sample_blocks, stationary_distribution
from .qmodel import quantum_causal_states
from .qmath import DensityMatrix, Ket
from .seeding import make_rng

GATES = ("cnot", "cu")
MODES = ("classical", "quantum")


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
# noise calibration and trace runs
# ---------------------------------------------------------------------------

def calibrate_noise(target_fidelity: float) -> NoiseModel:
    """Trajectory rate whose exact channel average hits a Bell fidelity target.

    Closed form of that average: F = 1 - (3/4)(16/15) lam = 1 - 0.8 lam.
    Targets below 0.25 are rejected as unachievable.
    """
    if not (0.25 <= target_fidelity <= 1.0):
        raise ValueError(f"target fidelity must be in [0.25, 1], got {target_fidelity!r}")
    return NoiseModel(lam=(1.0 - target_fidelity) / 0.8)


def _emission_law(machine: CausalMachine, mode: str, gate: str,
                  noise: NoiseModel | None) -> tuple[tuple[float, float], tuple[Ket, Ket]]:
    """Checked mode and gate, then (P(1|0), P(1|1)) and the prepared kets.

    Classical steps prepare the logical basis states and emit with the
    machine's own law (noise does not act on them); quantum steps prepare
    the encoded causal states and emit with the same law, moved a share
    16 lam / 15 of the way to 1/2 by the channel-averaged gate noise.  A
    share below 2 keeps (1 - share) p + share / 2 in [0, 1] for every p.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if gate not in GATES:
        raise ValueError(f"gate must be one of {GATES}, got {gate!r}")
    p1 = (machine.p_right, 1.0 - machine.p_left)
    if mode == "classical":
        return p1, (qmath.KET0, qmath.KET1)
    model = quantum_causal_states(machine)
    mix = 16.0 * (noise.lam if noise is not None else 0.0) / 15.0
    return tuple(p + mix * (0.5 - p) for p in p1), (model.ket0, model.ket1)


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
    probability is 1 - P(1|1): the machine itself (up to the rounding of
    1 - (1 - p_left)) without noise, the channel-averaged machine with it.
    """
    p1, _ = _emission_law(machine, mode, gate, noise)
    return CausalMachine(p1[0], 1.0 - p1[1])


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
    probabilities, one uniform per step, and trace_blocks streams them.  The
    count is summed block by block, so memory stays bounded however large n
    is.
    Reproducible for a fixed seed.
    """
    p1, kets = _emission_law(machine, mode, gate, noise)
    # step j enters in the state step j - 1 emitted, step 0 in the start state
    ones = sum(entering + int(np.count_nonzero(bits[:-1]))
               for entering, bits in _blocks(machine, p1, n, seed))
    return RunResult(steps=n, ones=ones, kets=kets)
