"""Qubit encoding of the causal states and its memory cost.

Each causal state s gets a real-amplitude ket: state 0 encodes its transition
law as (a, b) = (sqrt(1 - p_right), sqrt(p_right)), state 1 as
(sqrt(p_left), sqrt(1 - p_left)).  quantum_causal_states returns each ket
as its Bloch vector (2ab, 0, a^2 - b^2).  The kets are generally
non-orthogonal, which is what pushes the steady-state memory entropy below
the classical stationary entropy.  Also here, in closed form: the 2x2 qubit
operators of the asymmetric circuit's controlled-u step.
"""

from __future__ import annotations

import math

from . import qmath
from .process import CausalMachine, _check_real, stationary_distribution


def _amplitudes(machine: CausalMachine) -> tuple[tuple[float, float], ...]:
    """Real amplitudes (a, b) of the kets encoding state 0 and state 1."""
    pr, pl = machine.p_right, machine.p_left
    return (math.sqrt(1.0 - pr), math.sqrt(pr)), (math.sqrt(pl), math.sqrt(1.0 - pl))


def quantum_causal_states(machine: CausalMachine) -> tuple[tuple, tuple]:
    """The Bloch vectors (r0, r1) of the kets encoding state 0 and state 1."""
    return tuple(qmath.bloch(2.0 * (a * b), 0.0, a * a - b * b) for a, b in _amplitudes(machine))


def steady_state_rho(machine: CausalMachine) -> tuple[float, float, float]:
    """Bloch vector of the memory averaged over the equilibrium causal-state law."""
    return qmath.mixture(stationary_distribution(machine), quantum_causal_states(machine))


def quantum_complexity(machine: CausalMachine) -> float:
    """Entropy (bits) of the steady-state memory; never exceeds the classical cost."""
    return qmath.von_neumann_entropy(steady_state_rho(machine))


def depolarized_complexity(machine: CausalMachine, eps: float) -> float:
    """Steady-memory entropy (bits) under a model depolarizing channel of rate
    eps in [0, 1], which scales the Bloch radius |r| by 1 - eps: the binary
    entropy h((1 + (1 - eps)|r|) / 2), quantum_complexity at eps = 0."""
    eps = _check_real("eps", eps, 0, 1)
    r = steady_state_rho(machine)
    return qmath.qubit_entropy((1.0 - eps) * qmath.bloch_radius(r))


def construct_cu(machine: CausalMachine) -> tuple:
    """The qubit operators (v, u) of the controlled step, as read-only real
    2x2 numpy arrays: v the Y rotation by theta, u = v X v^T with u ket0 =
    ket1.  No command calls it, so it imports numpy only when called.

    A ket (cos a/2, sin a/2) is the Y rotation of |0> by a, so ket0 sits at
    a0 = 2 asin sqrt(p_right) and ket1 at a1 = pi - 2 asin sqrt(p_left).  The
    reflection u exchanges them when v's angle is their mean less pi/2:
    theta = asin sqrt(p_right) - asin sqrt(p_left), taken mod 2 pi.  In the
    symmetric case theta = 0, so v is the identity and u the plain bit flip.
    """
    import numpy as np

    pr, pl = machine.p_right, machine.p_left
    theta = (np.arcsin(np.sqrt(pr)) - np.arcsin(np.sqrt(pl))) % (2.0 * np.pi)
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    v = np.array([[c, -s], [s, c]])     # |0> -> cos(t/2)|0> + sin(t/2)|1>
    u = np.array([[-np.sin(theta), np.cos(theta)], [np.cos(theta), np.sin(theta)]])
    v.setflags(write=False)
    u.setflags(write=False)
    return v, u
