"""Complex linear algebra for one qubit.

Everything here is deterministic and pure: entropies in bits, state
fidelity, trace distance and pure-state mixtures.  Every state and
operator has dimension 2; the two-qubit step circuit, its composite
ordering and its Bell fidelity live in the test oracle.  A qubit's entropy
lives here once, as the binary entropy of its Bloch radius (bloch_vector,
bloch_radius, qubit_entropy): the theory columns and every tomographed
entropy take that route.  A CLI run calls neither LAPACK nor BLAS:
eigenvalues, norms and the Hermiticity check are closed forms and
elementwise arithmetic, because a process's first call of such a kernel maps
its code in, from about 0.06 MB of resident memory for a BLAS dot product to
0.8 MB for an eigensolver.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

ATOL_UNIT = 1e-12      # normalization / hermiticity tolerance
ATOL_PSD = 1e-10       # most negative eigenvalue tolerated in a density matrix
ATOL_DIST = 1e-9       # probability vectors must sum to 1 within this
EIG_ZERO = 1e-12       # a qubit eigenvalue below this counts as 0 in entropies


class InvalidDistributionError(ValueError):
    """Raised when a probability vector has negative mass or wrong total."""


# ---------------------------------------------------------------------------
# domain types: immutable named tuples whose __new__ runs the checks; every
# CLI process imports them, so they generate and exec no methods at import
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
        # abs and max, the loops the Hermiticity check runs anyway, and not
        # np.isfinite, whose first call maps in about 0.08 MB of code
        if not np.abs(m).max() < math.inf:
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


# logical basis kets and single-qubit operators
KET0 = Ket(np.array([1.0, 0.0]))
KET1 = Ket(np.array([0.0, 1.0]))

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# eigenvalues and the Bloch vector
# ---------------------------------------------------------------------------

def _hermitian_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 2x2 Hermitian matrix, descending order.

    The closed form mean +- hypot((a - c) / 2, |b|), neither LAPACK nor
    BLAS: a process's first call of a LAPACK eigensolver alone costs about
    0.8 MB of resident memory (768 kB with numpy 2.4.6 on x86-64 Linux),
    some 1.5-2% of a whole asym run's peak.
    """
    a, c = m[0, 0].real, m[1, 1].real
    mean, disc = 0.5 * (a + c), np.hypot(0.5 * (a - c), abs(m[0, 1]))
    return np.array([mean + disc, mean - disc])


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian matrix.

    Accepts a DensityMatrix or a raw 2x2 array and defers to numpy's
    symmetric solver.  Eigenvectors are returned as matrix columns.
    """
    arr = m.entries if isinstance(m, DensityMatrix) else _as_qubit(m, "matrix", (2, 2))
    if not np.allclose(arr, arr.conj().T, rtol=0.0, atol=ATOL_UNIT):
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(arr)
    return vals[::-1], np.ascontiguousarray(vecs[:, ::-1])


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Pauli expectations (<X>, <Y>, <Z>) of a single-qubit state."""
    m = rho.entries
    return np.array([2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


def bloch_radius(r) -> float:
    """Length |r| of a Bloch vector (x, y, z): sqrt(x*x + y*y + z*z), summed
    in that order, so it equals np.sqrt(np.sum(v * v, axis=0)) on the columns
    of a (3, n) array bit for bit; not np.linalg.norm, a BLAS dot product."""
    x, y, z = map(float, r)
    return math.sqrt(x * x + y * y + z * z)


# ---------------------------------------------------------------------------
# entropies and fidelity
# ---------------------------------------------------------------------------

def shannon_entropy(dist) -> float:
    """Shannon entropy in bits, with the convention 0 log 0 = 0.

    Raises InvalidDistributionError for negative entries or a total that
    deviates from 1 by more than 1e-9.
    """
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistributionError("distribution must be a non-empty vector")
    if np.any(p < 0.0) or np.any(p > 1.0 + ATOL_DIST):
        raise InvalidDistributionError(f"entries outside [0, 1] in {p!r}")
    total = float(p.sum())
    if abs(total - 1.0) > ATOL_DIST:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, expected 1")
    nz = np.minimum(p[p > 0.0], 1.0)    # shave float dust above 1 before the log
    return max(0.0, float(-(nz * np.log2(nz)).sum()))


def qubit_entropy(radius):
    """Entropy in bits of a qubit of Bloch radius |r|, elementwise over an
    array of radii: the binary entropy h((1 + min(|r|, 1)) / 2).  The
    smaller eigenvalue (1 - |r|) / 2 counts as 0 below 1e-12, so a pure
    state reads exactly +0.0, neither rounding dust nor -0.0."""
    low = (1.0 - np.minimum(radius, 1.0)) / 2.0
    low = np.where(low < EIG_ZERO, 0.0, low)
    return 0.0 - low * np.log2(np.where(low > 0.0, low, 1.0)) - (1.0 - low) * np.log2(1.0 - low)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho log2 rho) of a qubit: qubit_entropy of its Bloch radius."""
    return float(qubit_entropy(bloch_radius(bloch_vector(rho))))


def fidelity(rho: DensityMatrix, target: Ket) -> float:
    """State fidelity <target| rho |target> with a pure target."""
    t = target.amplitudes
    val = complex(np.vdot(t, rho.entries @ t))
    if abs(val.imag) > ATOL_UNIT:
        raise ValueError(f"fidelity came out complex: {val!r}")
    return float(val.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b)."""
    return 0.5 * float(np.abs(_hermitian_eigvals(a.entries - b.entries)).sum())


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def mixture(weights, kets) -> DensityMatrix:
    """Weighted mixture of pure states: sum_i w_i |k_i><k_i|."""
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or abs(w.sum() - 1.0) > ATOL_DIST:
        raise InvalidDistributionError(f"mixture weights must be a distribution, got {w!r}")
    rho = np.zeros((2, 2), dtype=complex)
    for wi, ki in zip(w, kets):
        rho += wi * np.outer(ki.amplitudes, ki.amplitudes.conj())
    return DensityMatrix(rho)
