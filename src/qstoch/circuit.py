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

A trace streams as blocks (entering, bits, m), m outputs packed in one
Python int, step i at bit i; this module alone makes (trace_blocks) and
reads (run_trace, stream_block_counts) that format.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .process import (MAX_BLOCK_LEN, CausalMachine, _check_int, _check_real,
                      stationary_distribution)
from .qmath import bloch
from .qmodel import quantum_causal_states

MODES = ("classical", "quantum")
LOGICAL = (bloch(0.0, 0.0, 1.0), bloch(0.0, 0.0, -1.0))     # |0> and |1>
_DRAW_BLOCK = 1 << 13     # steps per trace block: each bit plane of its uniforms is 1 KB


class RunResult(namedtuple("RunResult", "steps ones vectors")):
    """The sufficient statistic of an n-step run's memory: of its steps, the
    ones entering in state 1, and the vectors prepared for state 0 and state
    1.  Every step enters with one of the two, so these fix the memory
    ensemble (tomo.ensemble_density mixes them).  ones is counted by
    popcounts of the trace's packed blocks; the outputs themselves are not
    kept: stream them with trace_blocks."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# noise calibration and trace runs
# ---------------------------------------------------------------------------

def calibrate_noise(target_fidelity: float) -> float:
    """Trajectory rate lam whose channel average hits a Bell fidelity target.

    Closed form of that average: F = 1 - (3/4)(16/15) lam = 1 - 0.8 lam.
    Targets below 0.25 are rejected as unachievable.
    """
    target_fidelity = _check_real("target fidelity", target_fidelity, 0.25, 1)
    return (1.0 - target_fidelity) / 0.8


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_steps(n: int) -> int:
    return _check_int("step count", n, 1)


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
    lam = _check_real("lam", lam, 0, 1)
    mix = 16.0 * lam / 15.0 if mode == "quantum" else 0.0
    return CausalMachine(*(p + mix * (0.5 - p) for p in (machine.p_right, machine.p_left)))


def _digits(p: float) -> tuple[int, ...] | None:
    """The binary digits d_1, d_2, ... of p in [0, 1), p = sum d_j 2**-j,
    up to its last set one (none for 0), or None for p = 1."""
    num, den = p.as_integer_ratio()      # den is a power of two
    if num == den:
        return None
    e = den.bit_length() - 1
    return tuple((num >> (e - j)) & 1 for j in range(1, e + 1))


def _below(rng: random.Random, m: int, bounds: list) -> list[int]:
    """For m fresh uniforms, the mask of the steps whose uniform lies below
    each bound, step i at bit i; each bound is given by its _digits.

    Step i's uniform is u = sum_j b_j 2**-j, its bit b_j bit i of the j-th
    plane rng.getrandbits(m), and planes are drawn only while some step is
    tied, on every digit so far, with a bound that has digits left (about
    15 planes for 8192 steps).  Where the bound's digit is 1, a tied step
    whose bit is 0 falls below it and one whose bit is 1 stays tied; where
    the digit is 0, a tied step whose bit is 1 rises above it.  A step still
    tied past the bound's last set digit has u >= p, so every draw is exact
    for the double p; every u is below 1 and none below 0.
    """
    full = (1 << m) - 1
    lt = [full if digits is None else 0 for digits in bounds]
    eq = [0 if digits is None else full for digits in bounds]
    live = [(c, digits) for c, digits in enumerate(bounds) if digits]
    j = 0
    while live:
        u = rng.getrandbits(m)
        for c, digits in live:
            # tied & ~u as tied ^ (tied & u): a negative int makes each
            # bitwise op about three times slower
            tied = eq[c]
            eq[c] = tied & u
            if digits[j]:
                lt[c] |= tied ^ eq[c]
            else:
                eq[c] ^= tied
        j += 1
        live = [(c, digits) for c, digits in live if eq[c] and j < len(digits)]
    return lt


def trace_blocks(chain: CausalMachine, n: int,
                 rng: random.Random) -> Iterator[tuple[int, int, int]]:
    """The n outputs of the chain, streamed in blocks (entering, bits, m).

    n and the stationary law are checked on the first next(), before
    anything is drawn from the random.Random rng.  rng.random() draws the
    start from the stationary law (w0, w1), state 0 iff it is below w0;
    each step emits 1 iff its uniform is below p1[state], p1 = (p_right,
    1 - p_left), and that bit is the next state.  The steps come in
    _DRAW_BLOCK blocks, their uniforms drawn bit-sliced (_below); each
    block yields the state entering its first step, its bits as the Python
    int s below (step i at bit i, nothing at bit m or above, so its last
    output is bits >> (m - 1)) and m, an immutable triple a caller may keep.

    Each step maps {0, 1} -> {0, 1} by a constant, the identity or negation:
    a uniform below lo = min(p1) sets the state to 1, one at or above
    hi = max(p1) sets it to 0, and inside the band [lo, hi) the state stays
    (p1[0] < p1[1]) or flips (p1[0] > p1[1]).  So a block is one carry
    chain, resolved by one big-integer add.  Put step i of the block at bit i
    of Python ints: a holds the steps that set 1 (generate), k those in the
    band (propagate).  In a + (a | k) + state the carry into bit i is the
    state before step i, and the sum's bit i is that carry xor k_i, so the
    states after the steps are s = a | (k & (sum ^ k)).  A flipping band runs
    the same chain on the states xor'd with the odd-step mask alt = 0b..1010:
    a flip carries an alternating state unchanged, and the state before
    step 0 enters negated.
    """
    n = _check_steps(n)
    w0, _ = stationary_distribution(chain)
    p1 = (chain.p_right, 1.0 - chain.p_left)
    state = 0 if rng.random() < w0 else 1
    lo, hi = min(p1), max(p1)
    bounds = [_digits(lo), _digits(hi)]
    flips = p1[0] > p1[1]         # a plain bool: the machine's probabilities are plain floats
    alt = int.from_bytes(b"\xaa" * ((min(_DRAW_BLOCK, n) + 7) // 8), "little") if flips else 0
    for first in range(0, n, _DRAW_BLOCK):
        m = min(_DRAW_BLOCK, n - first)
        a, below_hi = _below(rng, m, bounds)
        k = below_hi ^ a
        # in a shorter last block alt's extra bits generate only past its steps; ^ alt clears them
        a = (a ^ alt) & ~k
        s = (a | (k & ((a + (a | k) + (state ^ flips)) ^ k))) ^ alt
        yield state, s, m
        state = s >> (m - 1)


def run_trace(machine: CausalMachine, mode: str, n: int, rng: random.Random,
              lam: float = 0.0) -> RunResult:
    """Sample n steps of the step circuit from a stationary start.

    Returns the memory ensemble: the Bloch vectors prepared for each state
    (prepared_states) and how many steps entered in state 1.  That ensemble
    is what tomography measures.
    Outputs are those of trace_blocks on sampled_machine(machine, mode,
    lam).  The count is summed block by block, so
    memory stays bounded however large n is.
    """
    chain = sampled_machine(machine, mode, lam)
    # step j enters in the state step j - 1 emitted, step 0 in the start state
    ones = sum(entering + bits.bit_count() - (bits >> (m - 1))
               for entering, bits, m in trace_blocks(chain, n, rng))
    return RunResult(steps=n, ones=ones, vectors=prepared_states(machine, mode))


def stream_block_counts(blocks: Iterable, block_lens: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint-window block counts at several lengths, in one pass over a
    trace that arrives in blocks.

    Each block is an (entering, bits, m) triple as trace_blocks yields it,
    read as it arrives; the entering state is not an output and is skipped.
    At each length L the bits of a window that a block boundary cuts are
    carried into the next block.  The starts of the whole windows are the
    repunit mask with a 1 every L bits over the block's whole windows, built
    per block and length; splitting it on each window's bit j in turn, first
    bit first, leaves one mask per code, in code order with the first bit
    most significant, and the popcount of each is that code's count.  The
    lengths are checked before the first block is read; one with no whole
    window tallies to all zeros."""
    block_lens = [_check_int("block length", block_len, 1, MAX_BLOCK_LEN)
                  for block_len in block_lens]
    tallies = [[0] * 2 ** block_len for block_len in block_lens]
    carry = [(0, 0)] * len(block_lens)    # per length: the cut window's bits, their count
    for _, bits, m in blocks:
        for i, block_len in enumerate(block_lens):
            held, k = carry[i]
            t = held | (bits << k)
            used = (k + m) // block_len * block_len
            counts = _split(((1 << used) - 1) // ((1 << block_len) - 1), used // block_len,
                            [t >> j for j in range(block_len)])
            tallies[i] = [a + b for a, b in zip(tallies[i], counts)]
            carry[i] = (t >> used, k + m - used)
    return [tuple(tally) for tally in tallies]


def _split(w: int, count: int, shifted: list) -> list[int]:
    """Popcounts of the 2**len(shifted) masks that w, of count set bits,
    splits into on the bits of shifted: each split's 0 half before its 1
    half, the 0 half counted as what the 1 half leaves."""
    one = w & shifted[0]
    ones = one.bit_count()
    if len(shifted) == 1:
        return [count - ones, ones]
    return _split(w ^ one, count - ones, shifted[1:]) + _split(one, ones, shifted[1:])
