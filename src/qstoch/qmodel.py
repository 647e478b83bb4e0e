"""Qubit encoding of the causal states and its memory cost.

Each causal state s gets a real-amplitude ket: state 0 encodes its transition
law as (a, b) = (sqrt(1 - p_right), sqrt(p_right)), state 1 as
(sqrt(p_left), sqrt(1 - p_left)).  quantum_causal_states returns each ket
as its Bloch vector (2ab, 0, a^2 - b^2).  The kets are generally
non-orthogonal, which is what pushes the steady-state memory entropy below
the classical stationary entropy.  Also synthesized here: the 2x2 qubit
operators of the asymmetric circuit's controlled-u step.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import qmath
from .process import CausalMachine, stationary_distribution

SYNTH_TOL = 1e-12


class SynthesisError(RuntimeError):
    """No Y-rotation maps ket0 onto ket1; cannot happen for a valid machine."""


class StepGates(NamedTuple):
    """Qubit operators for one asymmetric circuit step, as read-only arrays.

    v:  Y-rotation defining the frame in which ket0 and ket1 are mirror
        images under a bit flip.
    u:  involution with u ket0 = ket1 (exactly, not just up to phase), the
        gate the step applies to the meter when the model qubit reads 1.
    """

    v: np.ndarray
    u: np.ndarray


def _amplitudes(machine: CausalMachine) -> tuple[tuple[float, float], ...]:
    """Real amplitudes (a, b) of the kets encoding state 0 and state 1."""
    pr, pl = machine.p_right, machine.p_left
    return (np.sqrt(1.0 - pr), np.sqrt(pr)), (np.sqrt(pl), np.sqrt(1.0 - pl))


def quantum_causal_states(machine: CausalMachine) -> tuple[np.ndarray, np.ndarray]:
    """The Bloch vectors (r0, r1) of the kets encoding state 0 and state 1."""
    return tuple(qmath.bloch(2.0 * (a * b), 0.0, a * a - b * b) for a, b in _amplitudes(machine))


def steady_state_rho(machine: CausalMachine) -> np.ndarray:
    """Bloch vector of the memory averaged over the equilibrium causal-state law."""
    return qmath.mixture(stationary_distribution(machine), quantum_causal_states(machine))


def quantum_complexity(machine: CausalMachine) -> float:
    """Entropy (bits) of the steady-state memory; never exceeds the classical cost."""
    return qmath.von_neumann_entropy(steady_state_rho(machine))


def depolarized_complexity(machine: CausalMachine, eps: float) -> float:
    """Steady-memory entropy (bits) under a model depolarizing channel of rate
    eps in [0, 1], which scales the Bloch radius |r| by 1 - eps: the binary
    entropy h((1 + (1 - eps)|r|) / 2), quantum_complexity at eps = 0."""
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must be in [0, 1], got {eps!r}")
    r = steady_state_rho(machine)
    return float(qmath.qubit_entropy((1.0 - eps) * qmath.bloch_radius(r)))


@lru_cache(maxsize=None)
def construct_cu(machine: CausalMachine) -> StepGates:
    """Synthesize (v, u) with u = v X v-dagger and u ket0 = ket1.

    A real-amplitude ket (cos a/2, sin a/2) has Bloch vector (sin a, 0,
    cos a), so its polar angle is atan2(x, z).  For kets at angles a0, a1,
    the rotation angle theta = (a0 + a1 - pi) / 2 makes u the reflection
    exchanging them; the smallest non-negative exact solution is returned
    (it lies in [0, pi) whenever p_right >= p_left).  In the symmetric case
    theta = 0, so v is the identity and u the plain bit flip.
    """
    theta = (sum(np.arctan2(r[0], r[2]) for r in quantum_causal_states(machine)) - np.pi) / 2.0
    theta %= 2.0 * np.pi
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    v = np.array([[c, -s], [s, c]], dtype=complex)    # |0> -> cos(t/2)|0> + sin(t/2)|1>
    u = v @ np.array([[0, 1], [1, 0]], dtype=complex) @ v.conj().T

    ket0, ket1 = map(np.array, _amplitudes(machine))
    err = np.linalg.norm(u @ ket0 - ket1)
    if err > SYNTH_TOL:
        raise SynthesisError(f"u ket0 differs from ket1 by {err!r} at {machine!r}")
    if np.linalg.norm(u @ u - np.eye(2)) > SYNTH_TOL:
        raise SynthesisError(f"synthesized u is not an involution at {machine!r}")
    v.setflags(write=False)
    u.setflags(write=False)
    return StepGates(v=v, u=u)
