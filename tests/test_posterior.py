"""Posterior mixtures, summaries and lfsr against quadrature and Monte Carlo."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal, norm

from conftest import random_dataset, random_psd
from ebmnm.core import ComponentConstraint, Dataset, FitConfig, MixturePrior
from ebmnm.exceptions import DimensionMismatchError
from ebmnm.mixture import fit, random_init
from ebmnm.posterior import (
    _one_sided,
    PosteriorMixture,
    lfsr,
    PosteriorSummary,
    posterior_mixture,
    save_summary,
    summarize,
)


def sample_posterior(rng, pm, size):
    """Draw from an exact posterior mixture."""
    labels = rng.choice(len(pm.weights), size=size, p=pm.weights / pm.weights.sum())
    r = pm.means.shape[1]
    out = np.empty((size, r))
    for k in range(len(pm.weights)):
        members = np.flatnonzero(labels == k)
        if members.size:
            out[members] = rng.multivariate_normal(pm.means[k], pm.covariances[k],
                                                   size=members.size,
                                                   method="eigh")
    return out


class TestPosteriorMixture:
    def test_zero_prior_gives_point_mass(self, rng):
        ds = random_dataset(rng, 3, 2)
        prior = MixturePrior(np.array([1.0]), np.zeros((1, 2, 2)))
        pm = posterior_mixture(ds, prior, 0)
        np.testing.assert_array_equal(pm.means, np.zeros((1, 2)))
        np.testing.assert_array_equal(pm.covariances, np.zeros((1, 2, 2)))

    def test_identity_prior_shrinks_by_half(self, rng):
        x = rng.standard_normal((4, 3))
        ds = Dataset(x, np.eye(3))
        prior = MixturePrior(np.array([1.0]), np.eye(3)[None])
        pm = posterior_mixture(ds, prior, 2)
        np.testing.assert_allclose(pm.means[0], x[2] / 2, atol=1e-12)
        np.testing.assert_allclose(pm.covariances[0], np.eye(3) / 2, atol=1e-12)

    def test_univariate_mean_matches_quadrature(self, rng):
        for _ in range(5):
            u = rng.uniform(0.2, 3.0, size=2)
            v = rng.uniform(0.5, 2.0)
            w = rng.dirichlet([2.0, 2.0])
            x = rng.uniform(-4, 4)
            ds = Dataset(np.array([[x]]), np.array([[v]]))
            prior = MixturePrior(w, np.array([[[u[0]]], [[u[1]]]]))
            pm = posterior_mixture(ds, prior, 0)
            post_mean = float(pm.weights @ pm.means[:, 0])

            def joint(t):
                prior_dens = sum(w[k] * norm.pdf(t, 0, np.sqrt(u[k])) for k in range(2))
                return prior_dens * norm.pdf(x, t, np.sqrt(v))

            mass, _ = quad(joint, -40, 40, limit=200)
            first, _ = quad(lambda t: t * joint(t), -40, 40, limit=200)
            assert post_mean == pytest.approx(first / mass, abs=1e-6)

    def test_dimension_mismatch_rejected(self, rng):
        ds = random_dataset(rng, 3, 2)
        prior = MixturePrior(np.array([1.0]), np.eye(3)[None])
        with pytest.raises(DimensionMismatchError):
            posterior_mixture(ds, prior, 0)

    @pytest.mark.parametrize("shared", [True, False])
    def test_index_counts_from_the_end_and_rejects_out_of_range(self, rng, shared):
        n = 4
        ds = random_dataset(rng, n, 3, shared=shared)
        prior = MixturePrior(np.array([0.3, 0.7]),
                             np.stack([random_psd(rng, 3), np.zeros((3, 3))]))
        last, wrapped = posterior_mixture(ds, prior, n - 1), posterior_mixture(ds, prior, -1)
        for field in ("weights", "means", "covariances"):
            assert getattr(wrapped, field).tobytes() == getattr(last, field).tobytes()
        with pytest.raises(IndexError, match=f"index {n} is out of bounds"):
            posterior_mixture(ds, prior, n)


class TestLfsr:
    def test_symmetric_posterior_gives_half(self):
        pm = PosteriorMixture(np.array([1.0]), np.zeros((1, 1)), np.ones((1, 1, 1)))
        assert lfsr(pm, 0) == pytest.approx(0.5, abs=1e-15)

    def test_far_mean_gives_normal_tail(self):
        pm = PosteriorMixture(np.array([1.0]), np.array([[10.0]]), np.ones((1, 1, 1)))
        assert lfsr(pm, 0) == pytest.approx(ndtr(-10.0), rel=1e-12)
        assert lfsr(pm, 0) == pytest.approx(7.62e-24, rel=1e-2)

    def test_point_mass_at_zero_reports_one(self):
        pm = PosteriorMixture(np.array([1.0]), np.zeros((1, 1)), np.zeros((1, 1, 1)))
        assert lfsr(pm, 0) == 1.0

    def test_two_component_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        pm = PosteriorMixture(np.array([0.4, 0.6]),
                              np.array([[-1.0], [2.0]]),
                              np.ones((2, 1, 1)))
        exact = lfsr(pm, 0)
        n = 10_000_000
        draws = sample_posterior(rng, pm, n)[:, 0]
        p_neg = np.mean(draws <= 0)
        estimate = min(p_neg, 1 - p_neg)
        se = np.sqrt(exact * (1 - exact) / n)
        assert abs(estimate - exact) <= 3 * se

    def test_invariant_to_component_permutation(self, rng):
        k = 3
        means = rng.standard_normal((k, 2))
        covs = np.stack([random_psd(rng, 2) for _ in range(k)])
        w = rng.dirichlet(np.ones(k))
        pm = PosteriorMixture(w, means, covs)
        perm = rng.permutation(k)
        pm2 = PosteriorMixture(w[perm], means[perm], covs[perm])
        for coord in range(2):
            assert lfsr(pm, coord) == pytest.approx(lfsr(pm2, coord), abs=1e-15)


def _one_sided_masked(means, variances):
    """``_one_sided`` written with boolean-mask copies, as a byte-level reference."""
    means, variances = np.broadcast_arrays(means, variances)
    pos, neg = np.empty_like(means, dtype=float), np.empty_like(means, dtype=float)
    spread = variances > 0
    ratio = means[spread] / np.sqrt(variances[spread])
    pos[spread], neg[spread] = ndtr(ratio), ndtr(-ratio)
    pos[~spread] = (means[~spread] >= 0).astype(float)
    neg[~spread] = (means[~spread] <= 0).astype(float)
    return pos, neg


@pytest.mark.parametrize("n, r", [(2000, 5), (500, 5), (300, 50)])
@pytest.mark.parametrize("per_row", [False, True])
def test_one_sided_bytes_match_masked_reference(n, r, per_row):
    rng = np.random.default_rng(n * r)
    means = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3, 3, (n, r))
    means[rng.uniform(size=(n, r)) < 0.1] = 0.0
    means[rng.uniform(size=(n, r)) < 0.05] = -0.0
    variances = rng.exponential(size=(n if per_row else 1, r))
    for value, share in ((0.0, 0.2), (-0.0, 0.05), (-1e-300, 0.05)):
        variances[rng.uniform(size=variances.shape) < share] = value
    for got, expected in zip(_one_sided(means, variances), _one_sided_masked(means, variances)):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestSummarize:
    def test_zero_prior_degenerate(self, rng):
        ds = random_dataset(rng, 4, 2)
        prior = MixturePrior(np.array([1.0]), np.zeros((1, 2, 2)))
        summary = summarize(ds, prior)
        np.testing.assert_array_equal(summary.mean, 0.0)
        np.testing.assert_array_equal(summary.sd, 0.0)
        # Point mass at zero: all mass on both closed sides.
        np.testing.assert_array_equal(summary.lfsr, 1.0)

    def test_rank1_prior_constant_lfsr_across_coordinates(self, rng):
        u = rng.standard_normal(4) + np.sign(rng.standard_normal(4)) * 0.5
        assert np.all(u != 0)
        ds = random_dataset(rng, 20, 4)
        prior = MixturePrior(np.array([1.0]), np.outer(u, u)[None],
                             constraints=(ComponentConstraint.rank1(),))
        summary = summarize(ds, prior)
        spread = summary.lfsr.max(axis=1) - summary.lfsr.min(axis=1)
        assert spread.max() <= 1e-12

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(42)
        ds = random_dataset(rng, 1, 2)
        covs = np.stack([random_psd(rng, 2) for _ in range(2)])
        prior = MixturePrior(np.array([0.35, 0.65]), covs)
        summary = summarize(ds, prior)
        pm = posterior_mixture(ds, prior, 0)
        n = 2_000_000
        draws = sample_posterior(rng, pm, n)
        for r in range(2):
            exact_mean = summary.mean[0, r]
            exact_sd = summary.sd[0, r]
            se_mean = exact_sd / np.sqrt(n)
            assert abs(draws[:, r].mean() - exact_mean) <= 3 * se_mean

    def test_diagonal_prior_shrinks_toward_zero(self, rng):
        x = rng.standard_normal((30, 3)) * 3
        ds = Dataset(x, np.eye(3))
        prior = MixturePrior(np.array([1.0]), np.diag(rng.uniform(0.1, 4.0, 3))[None])
        summary = summarize(ds, prior)
        assert np.all(np.abs(summary.mean) <= np.abs(x) * (1 + 1e-10))

    def test_heteroskedastic_matches_per_observation_mixture(self, rng):
        ds = random_dataset(rng, 6, 2, shared=False)
        covs = np.stack([random_psd(rng, 2) for _ in range(2)])
        prior = MixturePrior(np.array([0.5, 0.5]), covs)
        summary = summarize(ds, prior)
        for j in range(6):
            pm = posterior_mixture(ds, prior, j)
            mean_j = pm.weights @ pm.means
            np.testing.assert_allclose(summary.mean[j], mean_j, atol=1e-12)
            for r in range(2):
                assert summary.lfsr[j, r] == pytest.approx(lfsr(pm, r), abs=1e-12)

    def test_shared_path_matches_per_observation_mixture(self, rng):
        ds = random_dataset(rng, 5, 3)
        covs = np.stack([random_psd(rng, 3) for _ in range(3)])
        w = rng.dirichlet(np.ones(3))
        prior = MixturePrior(w, covs)
        summary = summarize(ds, prior)
        for j in range(5):
            pm = posterior_mixture(ds, prior, j)
            second = pm.weights @ (np.array([np.diag(c) for c in pm.covariances])
                                   + pm.means**2)
            var = np.maximum(second - (pm.weights @ pm.means) ** 2, 0)
            np.testing.assert_allclose(summary.sd[j], np.sqrt(var), atol=1e-12)


class TestFittedRank1Lfsr:
    def test_k1_rank1_fit_gives_coordinate_constant_lfsr(self, rng):
        u_true = rng.standard_normal(5)
        theta = np.outer(rng.standard_normal(100), u_true)
        ds = Dataset(theta + rng.standard_normal((100, 5)), np.eye(5))
        init = random_init(5, 1, seed=3, constraints=(ComponentConstraint.rank1(),))
        result = fit(ds, init, FitConfig("fa", max_iterations=200, tolerance=1e-8))
        summary = summarize(ds, result.prior)
        spread = summary.lfsr.max(axis=1) - summary.lfsr.min(axis=1)
        assert spread.max() <= 1e-12


def _per_cell_summary_writer(summary, dataset, path):
    """The earlier writer: one f-string per (observation, coordinate) cell."""
    n, r = summary.mean.shape
    with open(path, "w") as fh:
        fh.write("observation,coordinate,x,posterior_mean,posterior_sd,lfsr\n")
        for j in range(n):
            for c in range(r):
                fh.write(
                    f"{j},{c},{dataset.x[j, c]:.17g},{summary.mean[j, c]:.17g},"
                    f"{summary.sd[j, c]:.17g},{summary.lfsr[j, c]:.17g}\n"
                )


class TestSaveSummary:
    @pytest.mark.parametrize("n", [1, 3, 9000])
    def test_bytes_match_per_cell_writer(self, tmp_path, rng, n):
        r = 3
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, 0.1])
        x = rng.standard_normal((n, r))
        mean, sd, lfsr_ = (rng.standard_normal((n, r)) * 10.0 ** rng.integers(-300, 300, (n, r))
                           for _ in range(3))
        for a in (mean, sd, lfsr_):
            a.flat[:min(a.size, len(special))] = special[:a.size]
        summary = PosteriorSummary(mean, sd, lfsr_)
        dataset = Dataset(x, np.eye(r))
        save_summary(summary, dataset, tmp_path / "new.csv")
        _per_cell_summary_writer(summary, dataset, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
