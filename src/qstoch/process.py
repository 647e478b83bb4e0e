"""The minimal causal-state machine of the two-switch process.

The modelled process is a pair of binary switches: each step one switch is
picked at random and flipped with a probability that depends on whether the
switches currently agree (p_right when aligned, p_left when anti-aligned);
the step then outputs 0 if the switches agree and 1 otherwise.  Flipping
either switch toggles their parity, and only the parity matters for the
output law, so the process is the two-state Markov machine on parity that
moves 0 -> 1 with p_right and 1 -> 0 with p_left.

Conventions used throughout the package:
  * causal state = parity (0 = aligned), and the emitted bit equals the
    DESTINATION state of each step, i.e. output 0 iff aligned after the flip.
  * all entropies are in bits;
  * length-L output blocks are indexed as integers with the first emitted
    bit in the most significant position;
  * outputs are a Markov chain's states, so the excess entropy is I(X_0; X_1).
"""

from __future__ import annotations

import operator
import sys
from collections import namedtuple
from contextlib import suppress

from .qmath import _is_real, shannon_entropy

MERGE_TOL = 1e-12   # |1 - p_right - p_left| below this collapses the two states

MAX_BLOCK_LEN = 12


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _checked_make(cls, iterable):
    # namedtuple's _make, and _replace through it, would skip __new__ and its checks
    return cls(*iterable)


def _check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """The one integer rule: value as a plain int, if operator.index takes it,
    it is no bool (numpy's neither) and it lies in [lo, hi], or is at least lo
    without hi.  A float or a bool would reach range, which refuses it
    mid-run, or a seed, which would take True as 1, and a numpy integer would
    overflow in the big-integer arithmetic of a trace block.  A numpy bool
    exists only once numpy is loaded, so the rule looks numpy up, and never
    imports it; from numpy 2 on, operator.index refuses one anyway."""
    numpy = sys.modules.get("numpy")
    if not isinstance(value, bool) and not (numpy and isinstance(value, numpy.bool_)):
        with suppress(TypeError):
            n = operator.index(value)
            if lo <= n and (hi is None or n <= hi):
                return n
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _check_real(name: str, value, lo: float, hi: float) -> float:
    """The one interval rule: value as a plain float, if qmath._is_real takes
    it and it lies in [lo, hi], which NaN never does."""
    if _is_real(value) and lo <= value <= hi:
        return float(value)
    raise ValueError(f"{name} must be in [{lo}, {hi}], got {value!r}")


class CausalMachine(namedtuple("CausalMachine", "p_right p_left")):
    """Two-state Markov machine on switch parity.

    p_right is the 0 -> 1 transition probability, p_left the 1 -> 0 one.
    The symmetric process of the main demonstration has p_right == p_left.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)   # so _replace checks too

    def __new__(cls, p_right: float, p_left: float):
        return super().__new__(cls, _check_real("p_right", p_right, 0, 1),
                               _check_real("p_left", p_left, 0, 1))


# ---------------------------------------------------------------------------
# causal-machine analysis
# ---------------------------------------------------------------------------

def states_merge(machine: CausalMachine) -> bool:
    """Whether the two causal states emit alike, so one state suffices.

    State 0 emits 1 with probability p_right, state 1 with 1 - p_left; the
    laws agree when p_right + p_left = 1 (within MERGE_TOL), and there the
    outputs are iid.
    """
    return abs(1.0 - machine.p_right - machine.p_left) <= MERGE_TOL


def stationary_distribution(machine: CausalMachine) -> tuple[float, float]:
    """Equilibrium (w0, w1) solving w0 * p_right = w1 * p_left.

    p_right = p_left = 0 has no unique equilibrium and raises ValueError.
    p_right = p_left = 1 is a valid period-2 chain; (0.5, 0.5) is its
    time-average occupation.
    """
    total = machine.p_right + machine.p_left
    if total == 0.0:
        raise ValueError("p_right = p_left = 0: stationary distribution is not unique")
    return machine.p_left / total, machine.p_right / total


def classical_complexity(machine: CausalMachine) -> float:
    """Entropy (bits) of the stationary causal-state law of the minimal
    machine: 0 where the states merge, since one state needs no memory."""
    if states_merge(machine):
        return 0.0
    return shannon_entropy(stationary_distribution(machine))


def block_distribution(machine: CausalMachine, block_len: int) -> tuple[float, ...]:
    """Exact law of length-L output blocks from a stationary start.

    Returns a tuple of 2**L probabilities indexed with the first bit most
    significant.  Because each output equals the destination state, a block
    pins the whole state path, so probabilities are simple products: each
    further bit multiplies a block's probability by the transition out of
    the block's last bit, which is the current state.
    """
    _check_int("block length", block_len, 1, MAX_BLOCK_LEN)
    p_right, p_left = machine
    t = ((1.0 - p_right, p_right), (p_left, 1.0 - p_left))     # t[s][x]: s -> x
    w0, w1 = stationary_distribution(machine)
    probs = [w0 * t[0][x] + w1 * t[1][x] for x in (0, 1)]     # law of the first bit
    for _ in range(1, block_len):
        probs = [p * t[code & 1][x] for code, p in enumerate(probs) for x in (0, 1)]
    return tuple(probs)


def excess_entropy(machine: CausalMachine) -> float:
    """Mutual information (bits) between the process's past and future.

    For a Markov chain whose outputs are its states this is I(X_0; X_1) =
    H(w) - w0 h(p_right) - w1 h(p_left), the entropy of the stationary law
    less that of one step given its start: the block route 2 H_L - H_2L
    gives the same value at every L >= 1.
    """
    w0, w1 = stationary_distribution(machine)
    step = (w0 * shannon_entropy((machine.p_right, 1.0 - machine.p_right))
            + w1 * shannon_entropy((machine.p_left, 1.0 - machine.p_left)))
    return max(shannon_entropy((w0, w1)) - step, 0.0)
