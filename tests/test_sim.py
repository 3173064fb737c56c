"""Scenario generators and evaluation metrics."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ebmnm import mixture
from ebmnm.core import Dataset, MixturePrior
from ebmnm.exceptions import DimensionMismatchError, EmptyDataError, InvalidScenarioError
from ebmnm.posterior import PosteriorSummary, summarize
from ebmnm.sim import (
    GroundTruth,
    Scenario,
    empirical_fsr,
    generate,
    kl_divergence,
    power_fsr_curve,
    sample_inverse_wishart,
)


class TestScenario:
    def test_rank1_requires_five_dims(self):
        with pytest.raises(InvalidScenarioError):
            Scenario("rank1", n=10, dim=3, seed=0)
        Scenario("rank1", n=10, dim=5, seed=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidScenarioError):
            Scenario("mystery", n=10, dim=5, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidScenarioError, match="seed must be nonnegative"):
            Scenario("hybrid", n=10, dim=3, seed=-1)


class TestGenerate:
    def test_deterministic_given_seed(self):
        sc = Scenario("hybrid", n=50, dim=5, seed=9, n_test=20)
        a_train, a_truth = generate(sc)
        b_train, b_truth = generate(sc)
        np.testing.assert_array_equal(a_train.x, b_train.x)
        np.testing.assert_array_equal(a_truth.theta, b_truth.theta)
        np.testing.assert_array_equal(a_truth.test.x, b_truth.test.x)
        np.testing.assert_array_equal(a_truth.prior.covariances,
                                      b_truth.prior.covariances)

    def test_hybrid_structure(self):
        _, truth = generate(Scenario("hybrid", n=10, dim=6, seed=1))
        covs = truth.prior.covariances
        assert truth.prior.n_components == 10
        np.testing.assert_array_equal(truth.prior.weights, np.full(10, 0.1))
        singleton = np.zeros((6, 6))
        singleton[0, 0] = 5.0
        np.testing.assert_array_equal(covs[0], singleton)
        # Construction clamps the tiny negative eigenvalues of the rank-1
        # equal-effects pattern, so equality holds only to rounding.
        np.testing.assert_allclose(covs[1], np.full((6, 6), 5.0), rtol=1e-14)
        np.testing.assert_array_equal(covs[2], 5.0 * np.eye(6))
        for k in range(3, 10):
            assert np.linalg.eigvalsh(covs[k]).min() > 0

    def test_rank1_structure(self):
        _, truth = generate(Scenario("rank1", n=10, dim=7, seed=1))
        covs = truth.prior.covariances
        for k in range(5):
            expected = np.zeros((7, 7))
            expected[k, k] = 5.0
            np.testing.assert_array_equal(covs[k], expected)
        for k in range(5, 10):
            assert np.linalg.matrix_rank(covs[k], tol=1e-10) == 1

    def test_equal_effects_component_moments(self):
        # Draws from the equal-effects component have identical coordinates
        # and an empirical covariance close to the 5 * ones matrix.
        _, truth = generate(Scenario("hybrid", n=100_000, dim=4, seed=5))
        members = truth.theta[truth.labels == 1]
        assert members.shape[0] > 5000
        assert np.all(members == members[:, :1])
        emp = members.T @ members / members.shape[0]
        np.testing.assert_allclose(emp, np.full((4, 4), 5.0), rtol=0.1)

    def test_singleton_component_draws_have_exact_zeros(self):
        _, truth = generate(Scenario("hybrid", n=50_000, dim=4, seed=5))
        members = truth.theta[truth.labels == 0]
        assert members.shape[0] > 1000
        np.testing.assert_array_equal(members[:, 1:], 0.0)

    def test_noise_is_unit_and_shared(self):
        train, truth = generate(Scenario("rank1", n=20, dim=5, seed=2, n_test=7))
        np.testing.assert_array_equal(train.noise, np.eye(5))
        assert truth.test.n_obs == 7
        assert truth.theta_test.shape == (7, 5)


class TestInverseWishart:
    def test_draws_are_psd_and_finite(self, rng):
        for _ in range(50):
            draw = sample_inverse_wishart(rng, 5.0 * np.eye(4), 6.0)
            assert np.all(np.isfinite(draw))
            assert np.linalg.eigvalsh(draw).min() > 0

    def test_mean_matches_theory(self):
        # E[draw] = scale / (dof - R - 1) = 5 I for scale 5I, dof R + 2.
        rng = np.random.default_rng(11)
        r = 5
        total = np.zeros((r, r))
        for _ in range(10_000):
            total += sample_inverse_wishart(rng, 5.0 * np.eye(r), r + 2)
        mean = total / 10_000
        assert np.max(np.abs(mean - 5.0 * np.eye(r))) <= 0.15 * 5.0


class TestKlDivergence:
    def test_zero_for_generating_prior(self):
        _, truth = generate(Scenario("hybrid", n=1, dim=5, seed=3, n_test=200))
        assert kl_divergence(truth.test, truth.prior, truth.prior) == 0.0

    def test_nonnegative_within_monte_carlo_error(self, rng):
        _, truth = generate(Scenario("hybrid", n=1, dim=4, seed=13, n_test=500))
        fitted = MixturePrior(np.full(2, 0.5),
                              np.stack([np.eye(4), 3.0 * np.eye(4)]))
        kl = kl_divergence(truth.test, truth.prior, fitted)
        logn_true = mixture.log_likelihood(truth.test, truth.prior)
        # Per-observation log ratios for the standard error.
        ratios = []
        for j in range(truth.test.n_obs):
            one = Dataset(truth.test.x[j][None], truth.test.noise)
            ratios.append(mixture.log_likelihood(one, truth.prior)
                          - mixture.log_likelihood(one, fitted))
        se = np.std(ratios, ddof=1) / np.sqrt(len(ratios))
        assert kl >= -3 * se
        assert kl == pytest.approx(np.mean(ratios), abs=1e-9)

    def test_univariate_matches_quadrature(self):
        # True U = 1, fitted U = 0, V = 1: the expected log ratio is the
        # divergence between N(0, 2) and N(0, 1).
        rng = np.random.default_rng(4)
        n = 200_000
        x = rng.normal(0.0, np.sqrt(2.0), size=(n, 1))
        test = Dataset(x, np.eye(1))
        true_prior = MixturePrior(np.array([1.0]), np.array([[[1.0]]]))
        fitted = MixturePrior(np.array([1.0]), np.array([[[0.0]]]))
        kl = kl_divergence(test, true_prior, fitted)
        integrand = lambda t: norm.pdf(t, 0, np.sqrt(2)) * (
            norm.logpdf(t, 0, np.sqrt(2)) - norm.logpdf(t, 0, 1.0))
        expected, _ = quad(integrand, -30, 30, limit=200)
        per_obs_sd = np.sqrt(quad(
            lambda t: norm.pdf(t, 0, np.sqrt(2)) * (
                norm.logpdf(t, 0, np.sqrt(2)) - norm.logpdf(t, 0, 1.0) - expected) ** 2,
            -30, 30, limit=200)[0])
        assert kl == pytest.approx(expected, abs=3 * per_obs_sd / np.sqrt(n))

    def test_empty_test_set_rejected(self):
        prior = MixturePrior(np.array([1.0]), np.eye(2)[None])
        with pytest.raises(EmptyDataError):
            kl_divergence(Dataset(np.zeros((0, 2)), np.eye(2)), prior, prior)


def synthetic_summary(theta, lfsr_sig=1e-6):
    """A posterior summary that is nearly a point mass at the truth."""
    lfsr = np.where(theta != 0, lfsr_sig, 0.5)
    return PosteriorSummary(mean=theta.copy(), sd=np.zeros_like(theta), lfsr=lfsr)


class TestEmpiricalFsr:
    def test_empty_significant_set(self, rng):
        theta = rng.standard_normal((4, 3))
        summary = synthetic_summary(theta, lfsr_sig=0.4)
        fsr, count = empirical_fsr(summary, theta, threshold=1e-9)
        assert (fsr, count) == (0.0, 0)

    @pytest.mark.parametrize("threshold", [1e-9, 0.05])
    def test_truth_shape_mismatch_rejected(self, rng, threshold):
        theta = rng.standard_normal((4, 3))
        summary = synthetic_summary(theta, lfsr_sig=0.01)
        for wrong in (theta[:3], theta[:, :2]):
            with pytest.raises(DimensionMismatchError, match="ground truth shape"):
                empirical_fsr(summary, wrong, threshold=threshold)
            with pytest.raises(DimensionMismatchError, match="ground truth shape"):
                power_fsr_curve(summary, wrong, thresholds=np.array([threshold]))

    def test_all_correct_signs(self, rng):
        theta = rng.standard_normal((4, 3))
        fsr, count = empirical_fsr(synthetic_summary(theta), theta, threshold=0.05)
        assert fsr == 0.0 and count == theta.size

    def test_wrong_signs_counted(self, rng):
        theta = np.array([[1.0, -1.0]])
        summary = PosteriorSummary(mean=np.array([[1.0, 1.0]]),
                                   sd=np.zeros((1, 2)),
                                   lfsr=np.full((1, 2), 1e-6))
        fsr, count = empirical_fsr(summary, theta, threshold=0.05)
        assert count == 2 and fsr == 0.5

    def test_exact_zero_truth_counts_as_error(self):
        theta = np.array([[0.0, 2.0]])
        summary = PosteriorSummary(mean=np.array([[0.5, 2.0]]),
                                   sd=np.zeros((1, 2)),
                                   lfsr=np.full((1, 2), 1e-6))
        fsr, count = empirical_fsr(summary, theta, threshold=0.05)
        assert count == 2 and fsr == 0.5

    def test_oracle_prior_controls_fsr(self):
        train, truth = generate(Scenario("hybrid", n=5000, dim=5, seed=31))
        summary = summarize(train, truth.prior)
        fsr, count = empirical_fsr(summary, truth.theta, threshold=0.05)
        assert count > 100
        se = np.sqrt(0.05 * 0.95 / count)
        assert fsr <= 0.05 + 3 * se


class TestPowerFsrCurve:
    def test_tiny_threshold_gives_empty_set(self, rng):
        theta = rng.standard_normal((5, 2))
        summary = synthetic_summary(theta, lfsr_sig=0.4)
        curve = power_fsr_curve(summary, theta, thresholds=np.array([1e-9]))
        np.testing.assert_array_equal(curve[0], [1e-9, 0.0, 0.0])

    def test_perfect_information_limit(self):
        rng = np.random.default_rng(3)
        theta = rng.standard_normal((20, 3))
        theta[rng.random((20, 3)) < 0.3] = 0.0
        summary = synthetic_summary(theta)
        curve = power_fsr_curve(summary, theta, thresholds=np.array([0.5]))
        assert curve[0, 1] == 1.0  # all nonzero effects detected
        assert curve[0, 2] == 0.0

    def test_power_monotone_in_threshold(self):
        train, truth = generate(Scenario("hybrid", n=500, dim=5, seed=17))
        summary = summarize(train, truth.prior)
        curve = power_fsr_curve(summary, truth.theta)
        assert np.all(np.diff(curve[:, 1]) >= 0)
        assert np.all((curve[:, 1] >= 0) & (curve[:, 1] <= 1))
        assert np.all((curve[:, 2] >= 0) & (curve[:, 2] <= 1))

    def test_oracle_dominates_corrupted_prior(self):
        # Paired comparison over replicates: at matched thresholds the
        # generating prior achieves at least the corrupted prior's power.
        wins = 0
        for rep in range(10):
            train, truth = generate(Scenario("hybrid", n=400, dim=5, seed=100 + rep))
            corrupted = MixturePrior(truth.prior.weights,
                                     np.stack([np.eye(5)] * 10))
            oracle_curve = power_fsr_curve(summarize(train, truth.prior), truth.theta)
            corrupt_curve = power_fsr_curve(summarize(train, corrupted), truth.theta)
            if np.mean(oracle_curve[:, 1] - corrupt_curve[:, 1]) > 0:
                wins += 1
        assert wins >= 8
