"""One-qubit states as Bloch vectors.

Every single-qubit state is a read-only float array r = (x, y, z), the
Pauli expectations of rho = (I + r.sigma) / 2: a pure state has |r| = 1,
a mixture is the weighted sum of its parts' vectors, the entropy in bits is
the binary entropy of the radius (bloch_radius, qubit_entropy), and the
trace distance of two states is half the distance of their vectors.  The
kets, density matrices and Pauli matrices these stand for live in the test
oracle, the reference the vectors are checked against.  A CLI run calls
neither LAPACK nor BLAS: a process's first call of such a kernel maps its
code in, from about 0.06 MB of resident memory for a BLAS dot product to
0.8 MB for an eigensolver; eig_hermitian, the one eigensolver here, is off
the run path.
"""

from __future__ import annotations

import numpy as np

ATOL_UNIT = 1e-12      # normalization / hermiticity tolerance
ATOL_DIST = 1e-9       # probability vectors must sum to 1 within this
EIG_ZERO = 1e-12       # a qubit eigenvalue below this counts as 0 in entropies


def bloch(x, y, z) -> np.ndarray:
    """The read-only Bloch vector (x, y, z) of a qubit state."""
    r = np.array([x, y, z], dtype=float)
    r.setflags(write=False)
    return r


def bloch_radius(r):
    """Length |r| = sqrt(x*x + y*y + z*z) of a Bloch vector (x, y, z), or of
    each column of a (3, n) array; not np.linalg.norm, a BLAS dot product."""
    x, y, z = r
    return np.sqrt(x * x + y * y + z * z)


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a 2x2
    Hermitian array, from numpy's symmetric solver; eigenvectors are the
    returned matrix's columns."""
    arr = np.array(m, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError(f"matrix must have shape (2, 2), got {arr.shape}")
    if not np.allclose(arr, arr.conj().T, rtol=0.0, atol=ATOL_UNIT):
        raise ValueError("matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(arr)
    return vals[::-1], np.ascontiguousarray(vecs[:, ::-1])


# ---------------------------------------------------------------------------
# entropies, fidelity and distance
# ---------------------------------------------------------------------------

def _distribution(dist) -> np.ndarray:
    """dist as a float vector, or ValueError unless it is a non-empty vector
    of entries in [0, 1] summing to 1 within ATOL_DIST.  Every comparison
    with NaN is false, so the checks negate the good case to refuse NaN."""
    p = np.asarray(dist, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a non-empty vector")
    if not (p >= 0.0).all() or np.any(p > 1.0 + ATOL_DIST):
        raise ValueError(f"entries outside [0, 1] in {p!r}")
    total = float(p.sum())
    if not abs(total - 1.0) <= ATOL_DIST:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of the probability vector dist, with the
    convention 0 log 0 = 0."""
    p = _distribution(dist)
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


def von_neumann_entropy(r) -> float:
    """-Tr(rho log2 rho) of the qubit with Bloch vector r: qubit_entropy of |r|."""
    return float(qubit_entropy(bloch_radius(r)))


def fidelity(r, target) -> float:
    """State fidelity <t| rho |t> = (1 + r.t) / 2 with a pure target t."""
    radius = float(bloch_radius(target))
    if abs(radius - 1.0) > ATOL_UNIT:
        raise ValueError(f"fidelity needs a pure target, got |t| = {radius!r}")
    x, y, z = map(float, r)
    tx, ty, tz = map(float, target)
    return (1.0 + (x * tx + y * ty + z * tz)) / 2.0


def trace_distance(a, b) -> float:
    """Half the trace norm of rho_a - rho_b: |r_a - r_b| / 2."""
    return float(bloch_radius(np.subtract(a, b))) / 2.0


def mixture(weights, vectors) -> np.ndarray:
    """Mixture sum_i w_i r_i of qubit states, w a probability vector with
    one weight per state."""
    w = _distribution(weights)
    if len(w) != len(vectors):
        raise ValueError(f"{len(w)} weight(s) for {len(vectors)} state(s)")
    return bloch(*sum(wi * np.asarray(ri, dtype=float) for wi, ri in zip(w, vectors)))
