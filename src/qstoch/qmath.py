"""One-qubit states as Bloch vectors.

Every single-qubit state is a tuple of three floats r = (x, y, z), the
Pauli expectations of rho = (I + r.sigma) / 2: a pure state has |r| = 1,
a mixture is the weighted sum of its parts' vectors, the entropy in bits is
the binary entropy of the radius (bloch_radius, qubit_entropy), and the
trace distance of two states is half the distance of their vectors.  The
kets, density matrices and Pauli matrices these stand for live in the test
oracle, the reference the vectors are checked against.  Everything here but
eig_hermitian, which no command calls and which imports numpy when called,
is plain Python arithmetic with math.sqrt and math.log2.
"""

from __future__ import annotations

import math
import numbers

ATOL_UNIT = 1e-12      # normalization / hermiticity tolerance
ATOL_DIST = 1e-9       # probability vectors must sum to 1 within this
EIG_ZERO = 1e-12       # a qubit eigenvalue below this counts as 0 in entropies


def bloch(x, y, z) -> tuple[float, float, float]:
    """The Bloch vector (x, y, z) of a qubit state as three plain floats, or
    ValueError unless each entry is real by the vector rule (_real_vector):
    a string, bool, None or array is none, and NaN and +-inf are refused.
    A measured vector may lie outside the unit ball, up to |r| = sqrt(3)."""
    r = _real_vector((x, y, z))
    if not r:
        raise ValueError(f"a Bloch vector has three real entries, got {(x, y, z)!r}")
    if not all(map(math.isfinite, r)):
        raise ValueError(f"a Bloch vector has finite entries, got {r!r}")
    return r


def bloch_radius(r) -> float:
    """Length |r| = sqrt(x*x + y*y + z*z) of a Bloch vector (x, y, z),
    summed left to right."""
    x, y, z = r
    return math.sqrt(x * x + y * y + z * z)


def eig_hermitian(m) -> tuple:
    """Eigenvalues (descending) and orthonormal eigenvectors of a 2x2
    Hermitian array, from numpy's symmetric solver, as two numpy arrays;
    eigenvectors are the returned matrix's columns."""
    import numpy as np

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

def _is_real(x) -> bool:
    """The one test of a probability or vector entry: a numbers.Real (so no
    array, string or None, nor numpy's bool) and no bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _real_vector(values) -> tuple[float, ...]:
    """values as a tuple of floats, or () unless they are a flat sequence of
    _is_real entries: a number, a row of a 2-D array or a string is none."""
    try:
        entries = tuple(values)
    except TypeError:       # a number or a 0-d array
        return ()
    if not all(map(_is_real, entries)):
        return ()
    return tuple(map(float, entries))


def _distribution(dist) -> tuple[float, ...]:
    """dist as a tuple of floats, or ValueError unless it is a non-empty
    flat sequence of real entries in [0, 1] summing to 1 within ATOL_DIST.
    Every comparison with NaN is false, so the checks negate the good case
    to refuse NaN."""
    p = _real_vector(dist)
    if not p:
        raise ValueError(f"distribution must be a non-empty vector of reals, got {dist!r}")
    if not all(0.0 <= x <= 1.0 + ATOL_DIST for x in p):
        raise ValueError(f"entries outside [0, 1] in {p!r}")
    total = 0.0
    for x in p:             # left to right: built-in sum compensates from Python 3.12
        total += x
    if not abs(total - 1.0) <= ATOL_DIST:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of the probability vector dist, with the
    convention 0 log 0 = 0."""
    h = 0.0
    for x in _distribution(dist):
        if x > 0.0:
            x = min(x, 1.0)     # shave float dust above 1 before the log
            h -= x * math.log2(x)
    return max(0.0, h)


def qubit_entropy(radius: float) -> float:
    """Entropy in bits of a qubit of Bloch radius |r|: the binary entropy
    h((1 + min(|r|, 1)) / 2).  The smaller eigenvalue (1 - |r|) / 2 counts
    as 0 below 1e-12, so a pure state reads exactly +0.0, neither rounding
    dust nor -0.0."""
    low = (1.0 - min(radius, 1.0)) / 2.0
    if low < EIG_ZERO:
        return 0.0
    return 0.0 - low * math.log2(low) - (1.0 - low) * math.log2(1.0 - low)


def von_neumann_entropy(r) -> float:
    """-Tr(rho log2 rho) of the qubit with Bloch vector r: qubit_entropy of |r|."""
    return qubit_entropy(bloch_radius(r))


def fidelity(r, target) -> float:
    """State fidelity <t| rho |t> = (1 + r.t) / 2 with a pure target t."""
    radius = bloch_radius(target)
    if abs(radius - 1.0) > ATOL_UNIT:
        raise ValueError(f"fidelity needs a pure target, got |t| = {radius!r}")
    x, y, z = map(float, r)
    tx, ty, tz = map(float, target)
    return (1.0 + (x * tx + y * ty + z * tz)) / 2.0


def trace_distance(a, b) -> float:
    """Half the trace norm of rho_a - rho_b: |r_a - r_b| / 2."""
    (ax, ay, az), (bx, by, bz) = a, b
    return bloch_radius((ax - bx, ay - by, az - bz)) / 2.0


def mixture(weights, vectors) -> tuple[float, float, float]:
    """Mixture sum_i w_i r_i of qubit states, w a probability vector with
    one weight per state, summed left to right."""
    w = _distribution(weights)
    if len(w) != len(vectors):
        raise ValueError(f"{len(w)} weight(s) for {len(vectors)} state(s)")
    x = y = z = 0.0
    for wi, (rx, ry, rz) in zip(w, vectors):
        x, y, z = x + wi * rx, y + wi * ry, z + wi * rz
    return bloch(x, y, z)
