"""Qubit kernel: entropies, eigenvalues, fidelity and trace distance of Bloch
vectors, checked against the oracle's matrices; the oracle's own kets,
density matrices and tensors."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qstoch.qmath import (
    bloch,
    bloch_radius,
    eig_hermitian,
    fidelity,
    mixture,
    shannon_entropy,
    trace_distance,
    von_neumann_entropy,
)

from oracle import (
    KET0,
    KET1,
    DensityMatrix,
    Ket,
    _hermitian_eigvals,
    bell_fidelity,
    bell_state,
    bloch_vector,
    density,
    ket_mixture,
    matrix_fidelity,
    matrix_trace_distance,
    overlap,
    projector,
    same_state,
    tensor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestShannonEntropy:
    def test_uniform_pair(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_quarter_three_quarter(self):
        # brute-force evaluation of -sum p log2 p
        expected = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-15)
        assert shannon_entropy([0.25, 0.75]) == pytest.approx(0.8113, abs=5e-5)

    def test_deterministic(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"entries outside \[0, 1\]"):
            shannon_entropy([1.2, -0.2])

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError, match="probabilities sum to"):
            shannon_entropy([0.5, 0.4])

    @pytest.mark.parametrize("dist", [[np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan]])
    def test_nan_entry_rejected(self, dist):
        # every comparison with NaN is false: a check that asks for the bad
        # case lets NaN through, and the entropy read 0.0
        with pytest.raises(ValueError, match=r"entries outside \[0, 1\]"):
            shannon_entropy(dist)

    def test_range_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            h = shannon_entropy(p)
            assert 0.0 <= h <= 2.0 + 1e-12


class TestEigHermitian:
    def test_maximally_mixed(self):
        vals, _ = eig_hermitian(np.eye(2) / 2)
        np.testing.assert_allclose(vals, [0.5, 0.5], atol=1e-15)

    def test_pure_projector(self):
        vals, vecs = eig_hermitian(KET0.projector().entries)
        np.testing.assert_allclose(vals, [1.0, 0.0], atol=1e-15)
        assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12

    def test_coherent_mixture_vs_characteristic_polynomial(self):
        # independent oracle: roots of x^2 - tr x + det
        m = 0.5 * (np.eye(2) + 0.8 * X)
        tr, det = np.trace(m).real, np.linalg.det(m).real
        roots = np.sort(np.roots([1.0, -tr, det]).real)[::-1]
        vals, _ = eig_hermitian(m)
        np.testing.assert_allclose(vals, roots, atol=1e-12)
        np.testing.assert_allclose(vals, [0.9, 0.1], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            m = random_hermitian(rng, 2)
            vals, vecs = eig_hermitian(m)
            assert np.all(np.diff(vals) <= 1e-12)
            assert abs(vals.sum() - np.trace(m).real) < 1e-10 * max(1, abs(np.trace(m)))
            np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(2), atol=1e-10)
            rebuilt = (vecs * vals) @ vecs.conj().T
            np.testing.assert_allclose(rebuilt, m, atol=1e-10)

    def test_degenerate_and_diagonal_cases(self):
        vals, vecs = eig_hermitian(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(vals, [0.75, 0.25], atol=1e-15)
        np.testing.assert_allclose(np.abs(vecs), [[0, 1], [1, 0]], atol=1e-15)
        vals, vecs = eig_hermitian(np.eye(2) * 0.3)
        np.testing.assert_allclose((vecs * vals) @ vecs.conj().T, np.eye(2) * 0.3,
                                   atol=1e-12)


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(bloch(0.0, 0.0, 0.0)) == 1.0

    def test_pure_states_are_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket = Ket(amp / np.linalg.norm(amp))
            assert von_neumann_entropy(bloch_vector(ket.projector())) < 1e-9

    def test_coherent_mixture(self):
        # entropy of the {0.9, 0.1} spectrum, via an independent evaluation
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        r = bloch_vector(DensityMatrix(0.5 * (np.eye(2) + 0.8 * X)))
        np.testing.assert_array_equal(r, [0.8, 0.0, 0.0])
        assert von_neumann_entropy(r) == pytest.approx(expected, abs=1e-12)
        assert von_neumann_entropy(r) == pytest.approx(0.4690, abs=5e-5)

    def test_entropy_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(5000):
            s = von_neumann_entropy(bloch_vector(random_density(rng, 2)))
            assert 0.0 <= s <= 1.0

    def test_bloch_route_equals_eigen_spectrum(self):
        # reference: the Shannon entropy of numpy's eigenvalues, those below
        # 1e-12 counted as 0, on mixed, pure and near-pure qubits; the
        # near-pure ones keep their smaller eigenvalue above 1e-12, where
        # zeroing it alone would leave the larger one's dust (up to 1.4e-12)
        rng = np.random.default_rng(12)
        for k in range(3000):
            rho = random_density(rng, 2)
            if k % 3:
                amp = rng.normal(size=2) + 1j * rng.normal(size=2)
                pure = Ket(amp / np.linalg.norm(amp)).projector().entries
                eps = 10.0 ** rng.uniform(-10, -1) if k % 3 == 1 else 0.0
                rho = DensityMatrix((1 - eps) * pure + eps * rho.entries)
            spectrum = np.linalg.eigvalsh(rho.entries)
            expected = shannon_entropy(np.where(spectrum < 1e-12, 0.0, spectrum))
            assert abs(von_neumann_entropy(bloch_vector(rho)) - expected) < 1e-12


class TestBlochVector:
    def test_pauli_expectations(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rho = random_density(rng, 2)
            expected = [np.trace(rho.entries @ P).real for P in (X, Y, Z)]
            np.testing.assert_allclose(bloch_vector(rho), expected, atol=1e-15)
            # and back: (I + r.sigma) / 2 rebuilds the matrix
            np.testing.assert_allclose(density(bloch_vector(rho)).entries, rho.entries,
                                       rtol=0, atol=1e-15)

    def test_vectors_are_read_only_floats(self):
        for r in (bloch(0.1, -0.2, 0.3), mixture([0.25, 0.75], (bloch(0, 0, 1), bloch(1, 0, 0))),
                  bloch(np.float64(0.1), 0, np.int64(1))):
            assert type(r) is tuple and len(r) == 3 and all(type(c) is float for c in r)
            with pytest.raises(TypeError):
                r[0] = 0.5


# a Bloch coordinate whose square does not underflow: the plain sum of
# squares, like numpy's, cannot resolve a radius below about 1e-154
COORDINATE = st.floats(-1.0, 1.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-150)


def exact_radius(r):
    """The correctly rounded length of r, from its exact sum of squares."""
    square = sum(Fraction(c) ** 2 for c in r)
    with localcontext() as ctx:
        ctx.prec = 60
        return float((Decimal(square.numerator) / Decimal(square.denominator)).sqrt())


class TestBlochRadius:
    @given(st.tuples(COORDINATE, COORDINATE, COORDINATE))
    def test_within_one_ulp_of_the_exact_radius(self, r):
        assume(math.fsum(c * c for c in r) <= 1.0)
        exact = exact_radius(r)
        assert abs(bloch_radius(r) - exact) <= np.spacing(exact)
        # np.linalg.norm sums in BLAS's own order, also within 1 ulp of the
        # exact radius: the two differ by 2 ulps in about 2 of 10 000 draws
        assert abs(bloch_radius(r) - float(np.linalg.norm(r))) <= 2 * np.spacing(exact)

    @pytest.mark.parametrize("pauli", [X, Y, Z], ids="XYZ")
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_axis_aligned_pure_states_have_radius_one(self, pauli, sign):
        r = bloch_vector(DensityMatrix(0.5 * (np.eye(2) + sign * pauli)))
        assert bloch_radius(r) == 1.0
        assert von_neumann_entropy(r) == 0.0

    def test_columns_take_each_vector_radius(self):
        # one vector at a time, each bootstrap round's: equal to numpy's
        # radius of every column at once, summed in the same order
        cols = np.random.default_rng(3).uniform(-0.6, 0.6, size=(3, 500))
        x, y, z = cols
        assert [bloch_radius(c) for c in cols.T] == np.sqrt(x * x + y * y + z * z).tolist()


class TestClosedFormEigenvalues:
    def test_equal_eigvalsh(self):
        # random Hermitian matrices, and trace-zero differences of two states
        # like the ones trace_distance takes
        rng = np.random.default_rng(14)
        for _ in range(2000):
            for m in (random_hermitian(rng, 2),
                      random_density(rng, 2).entries - random_density(rng, 2).entries):
                np.testing.assert_allclose(_hermitian_eigvals(m),
                                           np.linalg.eigvalsh(m)[::-1], rtol=0, atol=1e-12)


ZERO, ONE, PLUS = bloch(0.0, 0.0, 1.0), bloch(0.0, 0.0, -1.0), bloch(1.0, 0.0, 0.0)


class TestFidelity:
    def test_qubit_mixture_and_pure_overlap(self):
        r = mixture([0.25, 0.75], (ZERO, ONE))
        assert fidelity(r, ONE) == 0.75
        assert fidelity(ZERO, PLUS) == 0.5

    def test_equals_matrix_overlap(self):
        # <t| rho |t> of random states against random pure targets
        rng = np.random.default_rng(15)
        for _ in range(1000):
            rho = random_density(rng, 2)
            amp = rng.normal(size=2) + 1j * rng.normal(size=2)
            target = Ket(amp / np.linalg.norm(amp))
            got = fidelity(bloch_vector(rho), bloch_vector(target.projector()))
            assert got == pytest.approx(matrix_fidelity(rho, target), rel=0, abs=1e-15)

    def test_mixed_target_rejected(self):
        with pytest.raises(ValueError, match="pure"):
            fidelity(ZERO, bloch(0.0, 0.0, 0.5))


class TestBellFidelity:
    def test_self_fidelity(self):
        assert bell_fidelity(projector(bell_state())) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_two_qubit(self):
        assert bell_fidelity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)

    def test_werner_mixture(self):
        # closed form 1 - 3 lam / 4 at lam = 0.04
        lam = 0.04
        rho = (1 - lam) * projector(bell_state()) + lam * np.eye(4) / 4
        assert bell_fidelity(rho) == pytest.approx(0.97, abs=1e-12)


class TestTensor:
    def test_basis_kets(self):
        joint = tensor(KET0, KET0)
        np.testing.assert_allclose(joint, [1, 0, 0, 0], atol=1e-15)

    def test_flip_on_first_factor(self):
        xi = tensor(X, np.eye(2, dtype=complex))
        out = xi @ tensor(KET0, KET0)
        np.testing.assert_allclose(out, [0, 0, 1, 0], atol=1e-15)

    def test_encoded_state_with_fresh_meter(self):
        encoded = Ket([np.sqrt(0.2), np.sqrt(0.8)])
        joint = tensor(encoded, KET0)
        np.testing.assert_allclose(joint, [np.sqrt(0.2), 0, np.sqrt(0.8), 0], atol=1e-15)

    def test_unitarity_preserved_by_composition_and_tensor(self):
        def rotation(theta):        # exp(-i theta Y / 2)
            return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * Y

        rng = np.random.default_rng(23)
        for _ in range(50):
            a, b = rotation(rng.uniform(0, 2 * np.pi)), rotation(rng.uniform(0, 2 * np.pi))
            composed = a @ b
            np.testing.assert_allclose(composed @ composed.conj().T, np.eye(2), atol=1e-12)
            big = tensor(composed, a)
            np.testing.assert_allclose(big @ big.conj().T, np.eye(4), atol=1e-12)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(KET0, X)


class TestDomainTypes:
    def test_ket_normalization_enforced(self):
        with pytest.raises(ValueError):
            Ket([1.0, 1.0])

    def test_ket_dimension_enforced(self):
        with pytest.raises(ValueError):
            Ket([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("build, value", [
        (Ket, np.eye(4)[0]), (DensityMatrix, np.eye(4) / 4), (eig_hermitian, np.eye(4) / 4),
    ], ids=["Ket", "DensityMatrix", "eig_hermitian"])
    def test_two_qubit_input_rejected(self, build, value):
        # valid two-qubit objects: only their dimension is wrong
        with pytest.raises(ValueError, match="shape"):
            build(value)

    def test_density_matrix_hermiticity(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [[(0, 0)], [(0, 1)], [(0, 1), (1, 0)]],
                             ids=["diagonal", "off-diagonal", "both-off-diagonals"])
    def test_density_matrix_nonfinite_entries_rejected(self, value, where):
        m = np.eye(2, dtype=complex) / 2
        for index in where:
            m[index] = value
        with pytest.raises(ValueError):
            DensityMatrix(m)

    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "imaginary"])
    @pytest.mark.parametrize("mismatch, hermitian", [(2e-12, False), (5e-13, True)])
    def test_density_matrix_hermiticity_tolerance(self, unit, mismatch, hermitian):
        # off-diagonals that differ from each other's conjugate by the
        # mismatch; the tolerance is 1e-12
        m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        m[0, 1] += mismatch * unit
        if hermitian:
            assert DensityMatrix(m).entries.shape == (2, 2)
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                DensityMatrix(m)

    def test_density_matrix_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_matrix_positivity(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_global_phase_comparison(self):
        ket = Ket([np.sqrt(0.3), np.sqrt(0.7)])
        rotated = Ket(np.exp(1j * 0.7) * ket.amplitudes)
        assert same_state(ket, rotated)
        assert abs(overlap(ket, ket) - 1.0) < 1e-12


class TestTraceDistance:
    def test_identical_states(self):
        r = bloch(0.0, 0.0, 0.0)
        assert trace_distance(r, r) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(ZERO, ONE) == 1.0

    def test_mixture_helper_and_distance(self):
        r = mixture([0.5, 0.5], (ZERO, ONE))
        np.testing.assert_array_equal(r, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(density(r).entries,
                                   ket_mixture([0.5, 0.5], (KET0, KET1)).entries, atol=1e-15)
        assert trace_distance(r, ZERO) == 0.5

    def test_equals_matrix_trace_norm(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            a, b = random_density(rng, 2), random_density(rng, 2)
            got = trace_distance(bloch_vector(a), bloch_vector(b))
            assert got == pytest.approx(matrix_trace_distance(a, b), rel=0, abs=1e-15)

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.6], "probabilities sum to"),
        ([1.5, -0.5], r"entries outside \[0, 1\]"),
        ([np.nan, np.nan], r"entries outside \[0, 1\]"),
        ([], "non-empty vector"),
        (np.array([[0.5], [0.5]]), "non-empty vector"),
        ([[0.5], [0.5]], "non-empty vector"),
    ], ids=["bad-total", "negative", "nan", "empty", "column-array", "nested-list"])
    def test_mixture_weights_checked(self, weights, message):
        with pytest.raises(ValueError, match=message):
            mixture(weights, (ZERO, ONE))

    @pytest.mark.parametrize("weights, vectors, message", [
        ([0.5, 0.5], (ZERO,), r"2 weight\(s\) for 1 state\(s\)"),
        ([1.0], (ZERO, ONE), r"1 weight\(s\) for 2 state\(s\)"),
    ], ids=["fewer-states", "fewer-weights"])
    def test_mixture_refuses_a_count_mismatch(self, weights, vectors, message):
        # one weight per state: zip would drop the extras without a word
        with pytest.raises(ValueError, match=message):
            mixture(weights, vectors)
