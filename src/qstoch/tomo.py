"""Simulated single-qubit state tomography of the memory ensemble.

Finite-shot Pauli measurements are drawn binomially from the exact
expectation values of the ensemble state; reconstruction is linear inversion
on the Bloch vector with a radial projection back into the physical ball.
The entropy is read off the measured vector itself, whose radius past 1
qmath.qubit_entropy reads as a pure state, as the projection would.
Entropy error bars come from a parametric bootstrap of the counts at the
observed rates, one standard deviation.  Every count comes from binomial,
which draws only random.Random.random().
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import qmath
from .process import _check_int, _checked_make
from .stats import sample_std

MIN_BOOTSTRAP = 100
# the shot cap the CLI has always stated; binomial's floats carry any n up to it
MAX_SHOTS = 2 ** 63 - 1
_INVERSION_MEAN = 11        # below this floor((n + 1) p), binomial sums the pmf


def _check_shots(shots_per_basis: int) -> int:
    return _check_int("shots_per_basis", shots_per_basis, 1, MAX_SHOTS)


def _pauli_means(n: int, plus):
    """The mean +-1 outcome (2k - n) / n of each basis measured n times with
    k +1 outcomes, exact for Python ints of any size."""
    return ((2 * k - n) / n for k in plus)


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
        return qmath.bloch(*_pauli_means(self.shots_per_basis, self.plus))


class TomographyResult(namedtuple("TomographyResult", "entropy entropy_std")):
    """An entropy estimate and entropy_std, its bootstrap standard deviation."""

    __slots__ = ()


def ensemble_density(run) -> tuple[float, float, float]:
    """The memory state tomography measures: the Bloch vector of a
    circuit.RunResult's steps, (n0 r0 + n1 r1) / n."""
    n = run.steps
    return qmath.mixture(((n - run.ones) / n, run.ones / n), run.vectors)


def _stirling_tail(k: int) -> float:
    """log k! less its Stirling series (k + 1/2) log(k + 1) - (k + 1) + log sqrt(2 pi)."""
    if k < 10:
        return (math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1)
                - 0.5 * math.log(2.0 * math.pi))
    x = 1.0 / (k + 1)
    return (1.0 / 12.0 - (1.0 / 360.0 - x * x / 1260.0) * x * x) * x


def binomial(rng: random.Random, n: int, p: float) -> int:
    """An exact Binomial(n, p) draw, for n >= 0 and p in [0, 1], from
    rng.random() alone.

    p above 1/2 draws n less a Binomial(n, 1 - p).  With m = floor((n + 1) p)
    below _INVERSION_MEAN, one uniform walks the pmf up from
    P(0) = exp(n log1p(-p)) by the ratio P(x) / P(x - 1) = (n + 1) r / x - r,
    r = p / (1 - p), and stops once, past the mode, a term falls below the
    float epsilon.  Otherwise Hormann's BTRD (J. Stat. Comput. Simul. 46,
    101, 1993): transformed rejection whose squeeze accepts about 86% of
    first uniforms outright; the rest meet bounds t -+ rho on the log pmf
    ratio to the mode and, between those bounds, its value by Stirling's
    series.
    """
    if p > 0.5:
        return n - binomial(rng, n, 1.0 - p)
    q = 1.0 - p
    r = p / q
    nr = (n + 1) * r
    m = math.floor((n + 1) * p)
    if m < _INVERSION_MEAN:
        term = math.exp(n * math.log1p(-p))
        u = rng.random()
        x = 0
        while u > term and x < n:
            u -= term
            x += 1
            step = (nr / x - r) * term
            if step < term and step < 2.0 ** -52:
                break
            term = step
        return x
    npq = n * p * q
    b = 1.15 + 2.53 * math.sqrt(npq)
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    alpha = (2.83 + 5.1 / b) * math.sqrt(npq)
    v_r = 0.92 - 4.2 / b
    while True:
        v = rng.random()
        if v <= 0.86 * v_r:
            u = v / v_r - 0.43
            return math.floor((2.0 * a / (0.5 - abs(u)) + b) * u + c)
        if v >= v_r:
            u = rng.random() - 0.5
        else:
            u = v / v_r - 0.93
            u = math.copysign(0.5, u) - u
            v = rng.random() * v_r
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = v * alpha / (a / (us * us) + b)
        km = abs(k - m)
        v = math.log(v)
        rho = (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5)
        t = -km * km / (2.0 * npq)
        if v < t - rho:
            return k
        if v > t + rho:
            continue
        nm, nk = n - m + 1, n - k + 1
        h = (m + 0.5) * math.log((m + 1) / (r * nm)) + _stirling_tail(m) + _stirling_tail(n - m)
        if v <= (h + (n + 1) * math.log(nm / nk) + (k + 0.5) * math.log(nk * r / (k + 1))
                 - _stirling_tail(k) - _stirling_tail(n - k)):
            return k


def simulate_counts(r, shots_per_basis: int, rng: random.Random) -> TomographyCounts:
    """Binomial Pauli-basis counts at the exact expectation values (x, y, z)
    of the state with Bloch vector r (qmath.as_bloch) of radius at most 1
    (within qmath.ATOL_UNIT)."""
    _check_shots(shots_per_basis)
    vector = qmath.as_bloch(r)
    if not qmath.bloch_radius(vector) <= 1.0 + qmath.ATOL_UNIT:
        raise ValueError(f"a state's Bloch vector has a radius of at most 1, got {vector!r}")
    plus = [binomial(rng, shots_per_basis, min(max((1.0 + c) / 2.0, 0.0), 1.0))
            for c in vector]
    return TomographyCounts(shots_per_basis, plus)


def reconstruct_rho(counts: TomographyCounts) -> tuple[float, float, float]:
    """Linear inversion with physicality projection: the measured Bloch
    vector, scaled radially back onto the unit sphere if it lies outside,
    so the state's eigenvalues (1 +- |r|) / 2 lie in [0, 1].  No entropy
    needs it: qmath.qubit_entropy caps the radius at 1 itself."""
    r = counts.bloch_vector()
    radius = qmath.bloch_radius(r)
    return tuple(c / radius for c in r) if radius > 1.0 else r


def entropy_with_error(counts: TomographyCounts, rng: random.Random,
                       bootstrap_rounds: int = 200) -> TomographyResult:
    """Reconstructed entropy with a one-standard-deviation parametric bootstrap.

    Counts are resampled binomially at the observed per-basis rates.  Near
    a pure state the estimate is biased low and reported as is: shot noise
    lengthens the Bloch vector on average, and a radius past 1 reads as a
    pure state, exactly 0 (at p = 0.49 with 10 000 shots per basis, 300
    estimates average 0.00084 against a true 0.00147, and 144 of them are
    0).  Only at an exactly pure state can no estimate fall below
    the truth; at one on a Pauli axis, such as |+>, every estimate is 0.
    The estimate is qmath.von_neumann_entropy(counts.bloch_vector()), and
    each bootstrap round takes qmath.qubit_entropy of its own vector's
    radius; both read a radius past 1 as 1, so no vector is projected.  The
    rounds are drawn basis by basis, every x count, then every y, then
    every z; their spread is stats.sample_std.
    """
    _check_int("bootstrap_rounds", bootstrap_rounds, MIN_BOOTSTRAP)
    entropy = qmath.von_neumann_entropy(counts.bloch_vector())

    n = counts.shots_per_basis
    # each basis's draws, all drawn before the next basis's, mapped lazily
    means = [_pauli_means(n, [binomial(rng, n, k / n) for _ in range(bootstrap_rounds)])
             for k in counts.plus]
    boot = [qmath.qubit_entropy(qmath.bloch_radius(r)) for r in zip(*means)]
    return TomographyResult(entropy=entropy, entropy_std=sample_std(boot))
