"""Finite-shot tomography: sampling, reconstruction, error bars."""

import itertools
import math
import re

import numpy as np
import pytest

from qstoch import tomo
from qstoch.circuit import RunResult, run_trace
from qstoch.process import CausalMachine
from qstoch.qmath import bloch, mixture, trace_distance, von_neumann_entropy
from qstoch.qmodel import quantum_causal_states, quantum_complexity, steady_state_rho
from qstoch.seeding import make_rng
from qstoch.tomo import (
    MAX_SHOTS,
    TomographyCounts,
    _stirling_tail,
    binomial,
    ensemble_density,
    entropy_with_error,
    reconstruct_rho,
    simulate_counts,
)

from oracle import KET0, KET1, bloch_vector, density, ket_mixture, ket_model, numpy_bootstrap_std

MIXED = bloch(0.0, 0.0, 0.0)
ZERO = bloch(0.0, 0.0, 1.0)


def exact_counts(r, shots):
    """Counts at the rounded exact rates, bypassing sampling."""
    return TomographyCounts(shots, [round(shots * (1 + val) / 2) for val in r])


class TestSimulateCounts:
    def test_maximally_mixed_all_bases_balanced(self):
        rng = make_rng(81)
        shots = 10_000
        counts = simulate_counts(MIXED, shots, rng)
        sigma = np.sqrt(shots * 0.25)
        for plus in counts.plus:
            assert abs(plus - shots / 2) < 4 * sigma

    def test_equal_mixture_coherence_shows_in_x(self):
        machine = CausalMachine(0.8, 0.8)
        rng = make_rng(82)
        shots = 10_000
        counts = simulate_counts(mixture([0.5, 0.5], quantum_causal_states(machine)), shots, rng)
        rx, _, rz = counts.bloch_vector()
        assert abs(rx - 0.8) < 4 * np.sqrt((1 - 0.64) / shots)
        assert abs(rz) < 4 * np.sqrt(1.0 / shots)

    def test_pure_logical_state_deterministic_z(self):
        rng = make_rng(83)
        counts = simulate_counts(ZERO, 10_000, rng)
        assert counts.plus[2] == 10_000

    @pytest.mark.parametrize("r", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0),
                                   (5.0, 0.0, 0.0), (0.0, 0.0, -1.0 - 2e-12)],
                             ids=["nan", "inf", "radius-5", "radius-past-tolerance"])
    def test_only_a_state_drawn(self, r):
        # unrefused, a NaN fails on a float-to-integer conversion naming no
        # value, and an infinite or long vector draws counts as if it were |+x>
        with pytest.raises(ValueError, match=re.escape(f"got {r!r}") + "$"):
            simulate_counts(r, 100, make_rng(0))

    def test_radius_within_tolerance_drawn(self):
        # rounding leaves a mixture of unit vectors up to ATOL_UNIT past the sphere
        counts = simulate_counts((0.0, 0.0, -1.0 - 5e-13), 100, make_rng(0))
        assert counts.plus[2] == 0

    def test_only_a_bloch_vector_accepted(self):
        # a density matrix, two vectors, a column or an empty list is not one state
        for other in (np.eye(2) / 2, [ZERO, ZERO], [], [0.0, 1.0],
                      np.array(ZERO).reshape(3, 1), 0.5):
            with pytest.raises(ValueError, match="^a Bloch vector has three real entries, got "):
                simulate_counts(other, 100, make_rng(0))

    def test_shots_past_binomial_range_rejected(self):
        # the CLI has always stated the cap 2**63 - 1, numpy's once; the
        # sampler's floats would take more
        with pytest.raises(ValueError, match="shots_per_basis"):
            simulate_counts(MIXED, MAX_SHOTS + 1, make_rng(0))
        assert simulate_counts(MIXED, MAX_SHOTS, make_rng(0)).shots_per_basis == MAX_SHOTS

    def test_counts_past_binomial_range_rejected(self):
        n = MAX_SHOTS + 1
        with pytest.raises(ValueError, match="shots_per_basis"):
            TomographyCounts(n, (n, n, n))
        assert TomographyCounts(MAX_SHOTS, [MAX_SHOTS] * 3).shots_per_basis == MAX_SHOTS

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            simulate_counts(mixture([], []), 100, make_rng(0))

    def test_weighted_ensemble_form(self):
        machine = CausalMachine(0.9, 0.3)
        run = RunResult(steps=4000, ones=3000, vectors=quantum_causal_states(machine))
        np.testing.assert_array_equal(ensemble_density(run), steady_state_rho(machine))

    @pytest.mark.parametrize("mode", ["classical", "quantum"])
    def test_ensemble_of_a_run_equals_ket_mixture(self, mode):
        # (n0 P0 + n1 P1) / n of the oracle's kets, the logical ones classically
        machine = CausalMachine(0.9, 0.3)
        run = run_trace(machine, mode, 5000, make_rng(79))
        model = ket_model(machine)
        kets = (KET0, KET1) if mode == "classical" else (model.ket0, model.ket1)
        weights = ((run.steps - run.ones) / run.steps, run.ones / run.steps)
        rho = ket_mixture(weights, kets)
        np.testing.assert_allclose(ensemble_density(run), bloch_vector(rho),
                                   rtol=0, atol=1e-15)


def binomial_pmf(n, p):
    return [math.comb(n, k) * p ** k * (1.0 - p) ** (n - k) for k in range(n + 1)]


class TestBinomial:
    """tomo.binomial against the exact law: inversion below a mean of 11,
    BTRD above, and n - Binomial(n, 1 - p) above p = 1/2."""

    @pytest.mark.parametrize("n, p", [(7, 0.3), (20, 0.5), (30, 0.2), (50, 0.95), (50, 0.4),
                                      (50, 0.5), (50, 0.7), (1000, 0.3)])
    def test_chi_square_against_the_exact_pmf(self, n, p):
        # inversion up to (50, 0.95), BTRD from (50, 0.4) on, its squeeze,
        # bounds and Stirling test all reached at each n.  40 000 draws; cells
        # pooled left to right until they expect 5 or more; the statistic
        # lies below dof + 6 sqrt(2 dof), a normal 6 sigma of its law
        draws = 40_000
        rng = make_rng(70, n)
        counts = [0] * (n + 1)
        for _ in range(draws):
            counts[binomial(rng, n, p)] += 1
        stat, cells, expected, observed = 0.0, 0, 0.0, 0
        for k, prob in enumerate(binomial_pmf(n, p)):
            expected += draws * prob
            observed += counts[k]
            if expected >= 5.0:
                stat += (observed - expected) ** 2 / expected
                cells += 1
                expected, observed = 0.0, 0
        dof = cells - 1
        assert dof >= 5
        assert stat < dof + 6.0 * math.sqrt(2.0 * dof), (stat, dof)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.999, 1e-4])
    def test_mean_and_variance_at_ten_thousand(self, p):
        # 20 000 draws at n = 10**4: the mean within 5 standard errors, and
        # the variance within 5 of its own (kurtosis of a binomial included)
        n, draws = 10_000, 20_000
        rng = make_rng(71)
        xs = [binomial(rng, n, p) for _ in range(draws)]
        mean = math.fsum(xs) / draws
        var = math.fsum((x - mean) ** 2 for x in xs) / (draws - 1)
        want = n * p * (1.0 - p)
        assert abs(mean - n * p) <= 5.0 * math.sqrt(want / draws)
        kurtosis = (1.0 - 6.0 * p * (1.0 - p)) / want
        assert abs(var - want) <= 5.0 * want * math.sqrt((2.0 + kurtosis) / draws)

    @pytest.mark.parametrize("p", [0.0, 1e-18, 0.3, 0.5, 1.0])
    def test_largest_shot_count_draws_in_range(self, p):
        # a draw at n = MAX_SHOTS lands in [0, n], within 10 sigma of n p
        n = MAX_SHOTS
        for x in (binomial(make_rng(72, i), n, p) for i in range(20)):
            assert type(x) is int and 0 <= x <= n
            assert abs(x - n * p) <= 10.0 * math.sqrt(n * p * (1.0 - p)) + 1.0

    def test_certain_outcomes(self):
        rng = make_rng(73)
        assert [binomial(rng, 10, 0.0) for _ in range(5)] == [0] * 5
        assert [binomial(rng, 10, 1.0) for _ in range(5)] == [10] * 5
        assert binomial(rng, 0, 0.4) == 0

    def test_stirling_tail_table(self):
        # log k! less (k + 1/2) log(k + 1) - (k + 1) + log sqrt(2 pi), for
        # k = 0..1000: from k = 10 the series stops at its (k + 1)^-5 term,
        # so it may miss by its next, 1 / (1680 (k + 1)^7), 3.05e-11 at k = 10;
        # 4e-12 more allows for the rounding of the lgamma expression, whose
        # terms reach 7e3 (a unit in the last place of 9e-13)
        for k in range(1001):
            exact = (math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + (k + 1)
                     - 0.5 * math.log(2.0 * math.pi))
            bound = (1.0 / (1680.0 * (k + 1) ** 7) if k >= 10 else 0.0) + 4e-12
            assert abs(_stirling_tail(k) - exact) <= bound, k


class TestReconstructRho:
    def test_balanced_counts_give_maximally_mixed(self):
        counts = TomographyCounts(100, (50, 50, 50))
        np.testing.assert_array_equal(reconstruct_rho(counts), MIXED)

    def test_exact_rate_limit_recovers_benchmark_matrix(self):
        r = steady_state_rho(CausalMachine(0.8, 0.8))
        counts = exact_counts(r, 10_000_000)
        np.testing.assert_allclose(density(reconstruct_rho(counts)).entries,
                                   [[0.5, 0.4], [0.4, 0.5]], atol=1e-6)

    def test_bloch_vector_projected_radially(self):
        # two near-extreme axes push |r| above 1; the hand-applied rule is
        # radial scaling onto the unit sphere
        counts = TomographyCounts(100, (98, 50, 75))
        r = np.array([0.96, 0.0, 0.5])
        expected = r / np.linalg.norm(r)
        got = reconstruct_rho(counts)
        np.testing.assert_allclose(got, expected, atol=1e-12)
        assert type(got) is tuple and all(type(c) is float for c in got)
        assert von_neumann_entropy(got) < 1e-9

    def test_projected_just_past_the_sphere(self):
        # a measured radius of 1.00005, a hair outside: the projection must
        # act at any |r| > 1, not only far outside, and keep the direction
        counts = TomographyCounts(20000, (20000, 10000, 10100))
        measured = counts.bloch_vector()
        radius = np.linalg.norm(measured)
        assert 1.0 < radius < 1.0001
        got = reconstruct_rho(counts)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-15
        np.testing.assert_allclose(got, measured / radius, rtol=0, atol=1e-15)

    def test_adversarial_counts_stay_physical(self):
        cases = [
            TomographyCounts(10, (10, 10, 10)),
            TomographyCounts(10, (0, 0, 0)),
            TomographyCounts(1, (1, 0, 1)),
        ]
        for counts in cases:
            r = reconstruct_rho(counts)
            density(r)                           # the oracle's constructor checks rho
            assert 0.0 <= von_neumann_entropy(r) <= 1.0

    @pytest.mark.parametrize("plus", [(101, 50, 50), (-1, 50, 50), (50, 50), (50, 50, 50, 50)])
    def test_counts_validated(self, plus):
        # a count out of range is named by the one integer rule
        message = (f"+1 count must be an integer in [0, 100], got {plus[0]}" if len(plus) == 3
                   else f"need three +1 counts, got {plus!r}")
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            TomographyCounts(100, plus)

    def test_non_integer_counts_rejected(self):
        # the one integer rule, as for every count: a float is refused by name
        message = re.escape("+1 count must be an integer in [0, 100], got 50.0") + "$"
        with pytest.raises(ValueError, match=message):
            TomographyCounts(100, (50.0, 50, 50))

    def test_bloch_vector_is_exact_in_python_ints(self):
        # (2k - n) / n of Python ints, so a count as large as MAX_SHOTS does
        # not overflow, and numpy integer counts read the same
        n = MAX_SHOTS
        counts = TomographyCounts(n, (np.int64(n), np.int64(0), np.int64(n // 2)))
        assert all(type(k) is int for k in counts.plus)
        assert counts.bloch_vector() == (1.0, -1.0, (2 * (n // 2) - n) / n)
        assert TomographyCounts(100, (98, 50, 75)).bloch_vector() == (0.96, 0.0, 0.5)

    def test_numpy_shot_count_is_stored_as_a_python_int(self):
        # like the +1 counts, so 2k - n cannot overflow an np.int64
        n = MAX_SHOTS
        counts = TomographyCounts(np.int64(n), (n, n, n))
        assert type(counts.shots_per_basis) is int
        assert counts.bloch_vector() == (1.0, 1.0, 1.0)

    def test_bloch_vector_is_read_only(self):
        # like every Bloch vector qmath.bloch builds: a tuple of floats
        r = TomographyCounts(100, (98, 50, 75)).bloch_vector()
        assert type(r) is tuple and all(type(c) is float for c in r)
        with pytest.raises(TypeError):
            r[0] = 0.5


class TestEntropyWithError:
    def test_maximally_mixed_counts(self):
        counts = TomographyCounts(10_000, (5000, 5000, 5000))
        result = entropy_with_error(counts, make_rng(84))
        assert result.entropy == pytest.approx(1.0, abs=1e-12)
        assert result.entropy_std < 0.01

    def test_asymmetric_ensemble_matches_model_entropy(self):
        machine = CausalMachine(0.9, 0.3)
        rng = make_rng(85)
        counts = simulate_counts(mixture([0.25, 0.75], quantum_causal_states(machine)),
                                 10_000, rng)
        result = entropy_with_error(counts, rng)
        ideal = quantum_complexity(machine)
        print(f"tomographic entropy {result.entropy:.4f} +/- {result.entropy_std:.4f} "
              f"(construction value {ideal:.4f}, published theory figure 0.12)")
        assert abs(result.entropy - ideal) < 3 * result.entropy_std

    def test_projected_pure_counts_read_zero(self):
        # |r| = sqrt(3) projects onto the sphere: a pure state, entropy 0
        # exactly, not eigensolver dust
        counts = TomographyCounts(10, (10, 10, 10))
        assert entropy_with_error(counts, make_rng(0)).entropy == 0.0

    @pytest.mark.parametrize("plus", [(9000, 5000, 5000), (10_000, 5000, 5000),
                                      (7000, 4000, 6000), (9999, 5000, 5000),
                                      (5000, 5000, 5000), (9900, 100, 5000)])
    def test_bootstrap_equals_per_round_reconstruction(self, plus):
        shots, rounds = 10_000, 200
        counts = TomographyCounts(shots, plus)
        # per-round reference: the same binomial draws, then one full
        # reconstruction and eigen-entropy per round
        rng = make_rng(90)
        draws = [[binomial(rng, shots, k / shots) for _ in range(rounds)] for k in plus]
        boot = [von_neumann_entropy(reconstruct_rho(TomographyCounts(
                    shots, [int(d[i]) for d in draws])))
                for i in range(rounds)]
        result = entropy_with_error(counts, make_rng(90), bootstrap_rounds=rounds)
        assert result.entropy_std == pytest.approx(np.std(boot, ddof=1), rel=0, abs=1e-12)
        assert result.entropy == von_neumann_entropy(reconstruct_rho(counts))

    @pytest.mark.parametrize("seed", [90, 91, 92])
    @pytest.mark.parametrize("plus", [(9000, 5000, 5000), (7000, 4000, 6000),
                                      (9999, 5000, 5000), (5000, 5000, 5000),
                                      (10_000, 10_000, 5000)])
    def test_bootstrap_std_equals_numpy_of_the_same_draws(self, plus, seed):
        # the same draws, basis by basis, as one (3, rounds) array: and
        # stats.sample_std's spread is numpy's std(ddof=1) to 1e-15
        got = entropy_with_error(TomographyCounts(10_000, plus), make_rng(seed)).entropy_std
        want = numpy_bootstrap_std(plus, 10_000, make_rng(seed))
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_estimate_is_the_projected_entropy_at_every_small_count(self, monkeypatch):
        # all (n + 1)**3 count triples at n <= 12, radii past 1 and pure
        # states among them: the unprojected estimate is the projected
        # state's entropy bit for bit.  The rounds never reach the
        # estimate, so two keep the 8 280 bootstraps cheap
        monkeypatch.setattr(tomo, "MIN_BOOTSTRAP", 2)
        rng = make_rng(0)
        for n in range(1, 13):
            for plus in itertools.product(range(n + 1), repeat=3):
                counts = TomographyCounts(n, plus)
                got = entropy_with_error(counts, rng, bootstrap_rounds=2).entropy
                assert got.hex() == von_neumann_entropy(reconstruct_rho(counts)).hex(), plus

    def test_bootstrap_rounds_validated(self):
        counts = TomographyCounts(100, (50, 50, 50))
        with pytest.raises(ValueError):
            entropy_with_error(counts, make_rng(0), bootstrap_rounds=10)


class TestEstimatorBehaviour:
    def test_consistency_with_growing_shots(self):
        rho = steady_state_rho(CausalMachine(0.8, 0.8))
        rng = make_rng(86)
        distances = []
        for shots in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            reps = [trace_distance(reconstruct_rho(simulate_counts(rho, shots, rng)), rho)
                    for _ in range(20)]
            distances.append(np.mean(reps))
        assert all(b < a for a, b in zip(distances, distances[1:]))
        # root-N scaling: three decades of shots shrink the error ~ sqrt(1000)
        assert distances[-1] < distances[0] / 10.0

    def test_one_sigma_coverage(self):
        rho = steady_state_rho(CausalMachine(0.8, 0.8))
        truth = von_neumann_entropy(rho)
        rng = make_rng(87)
        hits = 0
        experiments = 200
        for _ in range(experiments):
            counts = simulate_counts(rho, 10_000, rng)
            result = entropy_with_error(counts, rng)
            hits += abs(result.entropy - truth) <= result.entropy_std
        assert 0.55 * experiments <= hits <= 0.80 * experiments

    def test_classical_ensemble_reconstruction_near_one_bit(self):
        # orthogonal logical states with equal weights: the simulated analogue
        # of the measured near-unity classical entropy
        rng = make_rng(88)
        counts = simulate_counts(MIXED, 10_000, rng)
        result = entropy_with_error(counts, rng)
        assert abs(result.entropy - 1.0) <= 3 * max(result.entropy_std, 1e-4)

    def test_low_bias_near_pure_states(self):
        # quantified, not corrected: near a pure state a noisy Bloch radius
        # is long, so the entropy estimate is low, 10.0 standard errors below
        # the truth here, and 144 of the 300 estimates read exactly 0
        rho = steady_state_rho(CausalMachine(0.49, 0.49))
        truth = von_neumann_entropy(rho)
        rng = make_rng(89)
        estimates = np.array([von_neumann_entropy(reconstruct_rho(simulate_counts(rho, 10_000,
                                                                                   rng)))
                              for _ in range(300)])
        stderr = estimates.std(ddof=1) / np.sqrt(estimates.size)
        assert truth - estimates.mean() > 4.0 * stderr
        assert estimates.mean() < 0.01

    def test_exactly_pure_state_estimates_zero(self):
        # the one case with no room below: every |+> estimate is exactly 0
        rho = bloch(1.0, 0.0, 0.0)
        rng = make_rng(89)
        estimates = [entropy_with_error(simulate_counts(rho, 10_000, rng), rng).entropy
                     for _ in range(50)]
        assert estimates == [0.0] * 50
