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
p + (16 lam / 15)(1/2 - p) whatever the gate, so no function here takes one
(the gate a configuration records is the CLI's to check).  Traces sample
that chain directly; the literal statevector steps of either gate and the
Pauli trajectories are the reference oracle in tests/oracle.py.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from contextlib import suppress
from typing import NamedTuple

import numpy as np

from .process import CausalMachine, _sample_blocks, stationary_distribution
from .qmath import bloch
from .qmodel import quantum_causal_states

MODES = ("classical", "quantum")
LOGICAL = (bloch(0.0, 0.0, 1.0), bloch(0.0, 0.0, -1.0))     # |0> and |1>


class RunResult(NamedTuple):
    """The sufficient statistic of an n-step run's memory.

    Every step enters with one of two prepared states, the encoding of the
    causal state it starts from, so the memory ensemble is fixed by how many
    steps entered in state 1 (tomo.ensemble_density mixes them), counted by
    popcounts of the trace's packed blocks.  The outputs themselves are not
    kept: stream them with trace_blocks.
    """

    steps: int
    ones: int                   # steps whose entering state was 1
    vectors: tuple              # Bloch vectors prepared for state 0 and state 1


# ---------------------------------------------------------------------------
# noise calibration and trace runs
# ---------------------------------------------------------------------------

def calibrate_noise(target_fidelity: float) -> float:
    """Trajectory rate lam whose channel average hits a Bell fidelity target.

    Closed form of that average: F = 1 - (3/4)(16/15) lam = 1 - 0.8 lam.
    Targets below 0.25 are rejected as unachievable.
    """
    if not (0.25 <= target_fidelity <= 1.0):
        raise ValueError(f"target fidelity must be in [0.25, 1], got {target_fidelity!r}")
    return (1.0 - target_fidelity) / 0.8


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_steps(n: int) -> None:
    with suppress(TypeError):   # not an integer: numpy would refuse it mid-trace
        if operator.index(n) >= 1:
            return
    raise ValueError(f"step count must be an integer >= 1, got {n!r}")


def prepared_states(machine: CausalMachine, mode: str) -> tuple:
    """The Bloch vectors a step prepares for state 0 and state 1: the
    logical basis states in classical mode, the encoded causal states in
    quantum mode."""
    _check_mode(mode)
    return LOGICAL if mode == "classical" else quantum_causal_states(machine)


def sampled_machine(machine: CausalMachine, mode: str, lam: float = 0.0) -> CausalMachine:
    """The two-state chain a run of this circuit samples, mode and lam checked.

    Classical steps and noiseless quantum steps emit with the machine's own
    law, so the chain is the machine itself.  Gate noise at trajectory rate
    lam in [0, 1] moves each quantum P(1|s), and with it p_right = P(1|0) and
    p_left = 1 - P(1|1), a share 16 lam / 15 of the way to 1/2 whichever gate
    the step uses; a share below 2 keeps the result in [0, 1].
    """
    _check_mode(mode)
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lam must be in [0, 1], got {lam!r}")
    mix = 16.0 * lam / 15.0 if mode == "quantum" else 0.0
    return CausalMachine(*(p + mix * (0.5 - p) for p in (machine.p_right, machine.p_left)))


def trace_blocks(chain: CausalMachine, n: int,
                 rng: np.random.Generator) -> Iterator[tuple[int, int, int]]:
    """The n outputs of the chain from a start drawn from its own stationary
    law, streamed.

    Yields (the state entering the block's first step, the block's output
    bits, its step count m) for consecutive blocks of at most 8192 steps, so
    a trace of any length is read in bounded memory.  The bits are one
    Python int, step i of the block at bit i, so its last output is
    bits >> (m - 1).  n and the stationary law are checked here, before the
    first block is drawn.
    """
    _check_steps(n)
    w0, _ = stationary_distribution(chain)
    return _sample_blocks((chain.p_right, 1.0 - chain.p_left), n, rng, w0=w0)


def run_trace(machine: CausalMachine, mode: str, n: int, rng: np.random.Generator,
              lam: float = 0.0) -> RunResult:
    """Sample n steps of the step circuit from a stationary start.

    Returns the memory ensemble: the Bloch vectors prepared for each state
    (prepared_states) and how many steps entered in state 1.  That ensemble
    is what tomography measures.
    Outputs are those of trace_blocks on sampled_machine(machine, mode,
    lam), one uniform per step.  The count is summed block by block, so
    memory stays bounded however large n is.
    """
    chain = sampled_machine(machine, mode, lam)
    # step j enters in the state step j - 1 emitted, step 0 in the start state
    ones = sum(entering + bits.bit_count() - (bits >> (m - 1))
               for entering, bits, m in trace_blocks(chain, n, rng))
    return RunResult(steps=n, ones=ones, vectors=prepared_states(machine, mode))
