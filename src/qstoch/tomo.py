"""Simulated single-qubit state tomography of the memory ensemble.

Finite-shot Pauli measurements are drawn binomially from the exact
expectation values of the ensemble state; reconstruction is linear inversion
on the Bloch vector with a radial projection back into the physical ball.
Entropy error bars come from a parametric bootstrap of the counts at the
observed rates, one standard deviation.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import qmath
from .process import _check_int, _checked_make
from .stats import sample_std

MIN_BOOTSTRAP = 100
MAX_SHOTS = 2 ** 63 - 1     # the largest n numpy's binomial draw takes


def _check_shots(shots_per_basis: int) -> int:
    return _check_int("shots_per_basis", shots_per_basis, 1, MAX_SHOTS)


class TomographyCounts(namedtuple("TomographyCounts", "shots_per_basis plus")):
    """+1 outcome counts of the x, y and z Pauli measurements, each basis
    measured shots_per_basis times; a basis's -1 count is the rest."""

    __slots__ = ()
    _make = classmethod(_checked_make)   # so _replace checks too

    def __new__(cls, shots_per_basis: int, plus: tuple):
        # plain ints: numpy integers would overflow in 2 k - n at large counts
        shots_per_basis = _check_shots(shots_per_basis)
        plus = tuple(_check_int("+1 count", k, 0, shots_per_basis) for k in plus)
        if len(plus) != 3:
            raise ValueError(f"need three +1 counts, got {plus!r}")
        return super().__new__(cls, shots_per_basis, plus)

    def bloch_vector(self) -> tuple[float, float, float]:
        n = self.shots_per_basis
        return qmath.bloch(*((2 * k - n) / n for k in self.plus))


TomographyResult = namedtuple("TomographyResult", "entropy entropy_std")


def ensemble_density(run) -> tuple[float, float, float]:
    """The memory state tomography measures: the Bloch vector of a
    circuit.RunResult's steps, (n0 r0 + n1 r1) / n."""
    n = run.steps
    return qmath.mixture(((n - run.ones) / n, run.ones / n), run.vectors)


def simulate_counts(r, shots_per_basis: int, rng: np.random.Generator) -> TomographyCounts:
    """Binomial Pauli-basis counts at the exact expectation values (x, y, z)
    of the state with Bloch vector r."""
    _check_shots(shots_per_basis)
    vector = qmath._real_vector(r)
    if len(vector) != 3:
        raise ValueError(f"a Bloch vector has shape (3,), got {r!r}")
    plus = [int(rng.binomial(shots_per_basis, min(max((1.0 + c) / 2.0, 0.0), 1.0)))
            for c in vector]
    return TomographyCounts(shots_per_basis, plus)


def reconstruct_rho(counts: TomographyCounts) -> tuple[float, float, float]:
    """Linear inversion with physicality projection: the measured Bloch
    vector, scaled radially back onto the unit sphere if it lies outside,
    so the state's eigenvalues (1 +- |r|) / 2 lie in [0, 1]."""
    r = counts.bloch_vector()
    radius = qmath.bloch_radius(r)
    return tuple(c / radius for c in r) if radius > 1.0 else r


def entropy_with_error(counts: TomographyCounts, rng: np.random.Generator,
                       bootstrap_rounds: int = 200) -> TomographyResult:
    """Reconstructed entropy with a one-standard-deviation parametric bootstrap.

    Counts are resampled binomially at the observed per-basis rates.  Near
    a pure state the estimate is biased low and reported as is: shot noise
    lengthens the Bloch vector on average, and a radius past 1 projects
    onto the sphere and reads exactly 0 (at p = 0.49 with 10 000 shots per
    basis, 300 estimates average 0.00101 against a true 0.00147, and 128 of
    them are 0).  Only at an exactly pure state can no estimate fall below
    the truth; at one on a Pauli axis, such as |+>, every estimate is 0.
    The estimate is qmath.von_neumann_entropy(reconstruct_rho(counts)); each
    bootstrap round takes qmath.qubit_entropy of its Bloch radius, which it
    caps at 1.  The rounds are drawn basis by basis, every x count, then
    every y, then every z; their spread is stats.sample_std.
    """
    _check_int("bootstrap_rounds", bootstrap_rounds, MIN_BOOTSTRAP)
    entropy = qmath.von_neumann_entropy(reconstruct_rho(counts))

    n = counts.shots_per_basis
    draws = [rng.binomial(n, k / n, size=bootstrap_rounds).tolist() for k in counts.plus]
    boot = [qmath.qubit_entropy(qmath.bloch_radius(((2 * a - n) / n, (2 * b - n) / n,
                                                    (2 * c - n) / n)))
            for a, b, c in zip(*draws)]
    return TomographyResult(entropy=entropy, entropy_std=sample_std(boot))
