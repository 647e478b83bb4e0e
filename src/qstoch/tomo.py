"""Simulated single-qubit state tomography of the memory ensemble.

Finite-shot Pauli measurements are drawn binomially from the exact
expectation values of the ensemble state; reconstruction is linear inversion
on the Bloch vector with a radial projection back into the physical ball.
Entropy error bars come from a parametric bootstrap of the counts at the
observed rates, one standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .qmath import DensityMatrix, Ket

MIN_BOOTSTRAP = 100


@dataclass(frozen=True)
class TomographyCounts:
    """(plus, minus) outcome counts for each Pauli measurement basis."""

    shots_per_basis: int
    x: tuple[int, int]
    y: tuple[int, int]
    z: tuple[int, int]

    def __post_init__(self):
        if self.shots_per_basis < 1:
            raise ValueError("shots_per_basis must be >= 1")
        for name in ("x", "y", "z"):
            plus, minus = getattr(self, name)
            if plus < 0 or minus < 0 or plus + minus != self.shots_per_basis:
                raise ValueError(f"{name} counts {(plus, minus)!r} do not total "
                                 f"{self.shots_per_basis}")

    def bloch_vector(self) -> np.ndarray:
        n = self.shots_per_basis
        return np.array([(p - m) / n for p, m in (self.x, self.y, self.z)])


@dataclass(frozen=True)
class TomographyResult:
    rho_hat: DensityMatrix
    entropy: float
    entropy_std: float
    raw: TomographyCounts

    def __post_init__(self):
        if not (-1e-9 <= self.entropy <= 1.0 + 1e-9):
            raise ValueError(f"single-qubit entropy out of range: {self.entropy!r}")
        if self.entropy_std < 0.0:
            raise ValueError("entropy_std must be >= 0")


def ensemble_density(ensemble) -> DensityMatrix:
    """Average state of an ensemble of prepared kets.

    Accepts a DensityMatrix (returned as is), a single Ket, a sequence of
    Kets with equal weights, or a sequence of (weight, Ket) pairs.
    """
    if isinstance(ensemble, DensityMatrix):
        if ensemble.dim != 2:
            raise ValueError("tomography handles single-qubit states only")
        return ensemble
    if isinstance(ensemble, Ket):
        return ensemble.projector()
    members = list(ensemble)
    if not members:
        raise ValueError("ensemble is empty")
    if isinstance(members[0], Ket):
        weights = np.full(len(members), 1.0 / len(members))
        return qmath.mixture(weights, members)
    weights, kets = zip(*members)
    return qmath.mixture(np.asarray(weights, dtype=float), kets)


def simulate_counts(ensemble, shots_per_basis: int,
                    rng: np.random.Generator) -> TomographyCounts:
    """Binomial Pauli-basis counts at the ensemble's exact expectation values."""
    if shots_per_basis < 1:
        raise ValueError("shots_per_basis must be >= 1")
    rho = ensemble_density(ensemble).entries
    expectations = (
        2.0 * rho[0, 1].real,                    # X
        -2.0 * rho[0, 1].imag,                   # Y
        (rho[0, 0] - rho[1, 1]).real,            # Z
    )
    pairs = []
    for r in expectations:
        p_plus = min(max((1.0 + r) / 2.0, 0.0), 1.0)
        plus = int(rng.binomial(shots_per_basis, p_plus))
        pairs.append((plus, shots_per_basis - plus))
    return TomographyCounts(shots_per_basis=shots_per_basis,
                            x=pairs[0], y=pairs[1], z=pairs[2])


def reconstruct_rho(counts: TomographyCounts) -> DensityMatrix:
    """Linear inversion with physicality projection.

    The Bloch vector r = (n+ - n-) / N is projected radially onto the unit
    ball if sampling noise pushed it outside; eigenvalues are then clipped
    to [0, 1] and renormalized.
    """
    r = counts.bloch_vector()
    radius = float(np.linalg.norm(r))
    if radius > 1.0:
        r = r / radius
    rho = 0.5 * (np.eye(2, dtype=complex)
                 + r[0] * qmath.PAULI_X + r[1] * qmath.PAULI_Y + r[2] * qmath.PAULI_Z)
    vals, vecs = qmath.eig_hermitian(rho)
    vals = np.clip(vals, 0.0, 1.0)
    vals = vals / vals.sum()
    return DensityMatrix((vecs * vals) @ vecs.conj().T)


def entropy_with_error(counts: TomographyCounts, rng: np.random.Generator,
                       bootstrap_rounds: int = 200) -> TomographyResult:
    """Reconstructed entropy with a one-standard-deviation parametric bootstrap.

    Counts are resampled binomially at the observed per-basis rates;
    entropy of a near-pure reconstruction is biased upward and reported
    as is.  A reconstructed qubit has eigenvalues (1 +- |r|) / 2 for its
    projected Bloch radius |r|, so every round's entropy is the binary
    entropy h((1 + min(|r|, 1)) / 2), evaluated for all rounds at once.
    """
    if bootstrap_rounds < MIN_BOOTSTRAP:
        raise ValueError(f"bootstrap_rounds must be >= {MIN_BOOTSTRAP}")
    rho_hat = reconstruct_rho(counts)
    entropy = qmath.von_neumann_entropy(rho_hat)

    n = counts.shots_per_basis
    rates = np.array([plus / n for plus, _ in (counts.x, counts.y, counts.z)])
    plus = rng.binomial(n, rates[:, np.newaxis], size=(3, bootstrap_rounds))
    radius = np.minimum(np.linalg.norm((2 * plus - n) / n, axis=0), 1.0)
    # smaller eigenvalue of each round's reconstruction, zeroed below the
    # threshold von_neumann_entropy applies
    low = (1.0 - radius) / 2.0
    low = np.where(low < qmath.EIG_ZERO, 0.0, low)
    boot = -(low * np.log2(np.where(low > 0.0, low, 1.0)) + (1.0 - low) * np.log2(1.0 - low))
    return TomographyResult(rho_hat=rho_hat, entropy=entropy,
                            entropy_std=float(boot.std(ddof=1)), raw=counts)
