"""Exact conventions and invariances of the posterior and the likelihood.

The lfsr convention (README "Conventions") counts a point mass at zero on
both sides, so a coordinate the prior never moves reports lfsr = 1.  Here
the prior has an axis component ``c e_i e_i^T``, whose posterior moments are
zero off the axis in exact arithmetic; both noise kernels must keep those
zeros exactly, for correlated shared noise as for per-observation noise.

The likelihood is an exactly rounded sum of per-row terms, and every row is
computed on its own, so permuting or duplicating the rows changes the
log-likelihood and the summaries exactly as it changes the data.

Every check here is exact: a tolerance of zero, fixed before any run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmnm import Dataset, MixturePrior, linalg, mixture, posterior


def _pd(rng, r):
    """A random correlated positive definite matrix."""
    a = rng.standard_normal((r, r))
    return linalg.sym(a @ a.T / r + 0.1 * np.eye(r))


def _dataset(draw, rng, n, r, scale):
    """``n`` rows with shared or per-observation noise of size ``scale``."""
    if draw(st.booleans()):
        noise = scale * _pd(rng, r)
    else:
        noise = scale * np.stack([_pd(rng, r) for _ in range(n)])
    return Dataset(rng.standard_normal((n, r)) * np.sqrt(scale), noise)


@st.composite
def axis_cases(draw):
    """A dataset, an axis ``i`` and the axis component ``c e_i e_i^T``.

    The noise, the prior and the data are scaled together by 1e-50, 1 or
    1e50: a rank-deficient prior against noise many orders smaller is
    singular to working precision.
    """
    n = draw(st.integers(1, 40))
    r = draw(st.integers(2, 6))
    scale = 10.0 ** draw(st.sampled_from([-50, 0, 50]))
    axis = draw(st.integers(0, r - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = _dataset(draw, rng, n, r, scale)
    cov = np.zeros((1, r, r))
    cov[0, axis, axis] = scale * draw(st.sampled_from([0.5, 3.0, 20.0]))
    return dataset, axis, cov


@settings(max_examples=80, deadline=None)
@given(axis_cases())
def test_axis_prior_leaves_other_coordinates_exactly_null(case):
    dataset, axis, cov = case
    prior = MixturePrior(np.ones(1), cov)
    off = np.arange(dataset.dim) != axis
    summary = posterior.summarize(dataset, prior)
    assert np.all(summary.mean[:, off] == 0.0)
    assert np.all(summary.sd[:, off] == 0.0)
    assert np.all(summary.lfsr[:, off] == 1.0)
    for j in range(dataset.n_obs):
        pm = posterior.posterior_mixture(dataset, prior, j)
        assert np.all(pm.means[:, off] == 0.0)
        assert np.all(np.diagonal(pm.covariances, axis1=1, axis2=2)[:, off] == 0.0)
        assert all(posterior.lfsr(pm, i) == 1.0 for i in np.flatnonzero(off))


@settings(max_examples=80, deadline=None)
@given(axis_cases(), st.sampled_from([0.5, 3.0, 20.0]), st.floats(0.05, 0.95))
def test_off_axis_lfsr_at_least_axis_responsibility(case, equal_size, axis_weight):
    dataset, axis, cov = case
    scale = np.abs(dataset.noise).max()
    equal = equal_size * scale * np.ones((1, dataset.dim, dataset.dim))
    prior = MixturePrior(np.array([axis_weight, 1.0 - axis_weight]),
                         np.concatenate([cov, equal]))
    off = np.arange(dataset.dim) != axis
    # The axis component counts its full responsibility on both sides; the
    # equal-effects one only adds to each side.
    axis_resp = mixture.responsibilities(dataset, prior)[:, 0]
    lfsr = posterior.summarize(dataset, prior).lfsr
    assert np.all(lfsr[:, off] >= axis_resp[:, None])


@st.composite
def mixture_cases(draw):
    """A dataset, either kind of noise, and a prior of 1-3 components."""
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.sampled_from([-50, 0, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = _dataset(draw, rng, n, r, scale)
    k = draw(st.integers(1, 3))
    covs = np.stack([draw(st.sampled_from([0.0, 1.0])) * _pd(rng, r) for _ in range(k)])
    return dataset, MixturePrior(rng.dirichlet(np.ones(k)), covs), rng


def _rows(dataset, index):
    """The dataset made of the rows ``index`` (with their noise)."""
    noise = dataset.noise if dataset.shared_noise else dataset.noise[index]
    return Dataset(dataset.x[index], noise)


def _assert_row_properties(dataset, prior, order):
    """Log-likelihood and summary under the row permutation ``order`` and duplication."""
    loglik = mixture.log_likelihood(dataset, prior)
    assert mixture.log_likelihood(_rows(dataset, order), prior) == loglik
    twice = _rows(dataset, np.tile(np.arange(dataset.n_obs), 2))
    assert mixture.log_likelihood(twice, prior) == 2.0 * loglik
    got = posterior.summarize(_rows(dataset, order), prior)
    expected = posterior.summarize(dataset, prior)
    for field in ("mean", "sd", "lfsr"):
        np.testing.assert_array_equal(getattr(got, field), getattr(expected, field)[order])


@settings(max_examples=80, deadline=None)
@given(mixture_cases())
def test_rows_permute_and_duplicate_exactly(case):
    dataset, prior, rng = case
    _assert_row_properties(dataset, prior, rng.permutation(dataset.n_obs))


@pytest.mark.parametrize("shared, n, r", [(True, 2000, 50), (False, 500, 20)])
def test_rows_permute_and_duplicate_exactly_at_size(shared, n, r):
    """One dataset large enough for blocked BLAS kernels."""
    rng = np.random.default_rng(5)
    noise = _pd(rng, r) if shared else np.stack([_pd(rng, r) for _ in range(n)])
    dataset = Dataset(2.0 * rng.standard_normal((n, r)), noise)
    prior = MixturePrior(rng.dirichlet(np.ones(4)), np.stack([_pd(rng, r) for _ in range(4)]))
    _assert_row_properties(dataset, prior, rng.permutation(n))


# Slack of the lfsr bounds, fixed before the first run: each one-sided
# probability is a responsibility-weighted sum of at most four terms in
# [0, 1], so rounding moves it by a few ulps.
LFSR_SLACK = 1e-12


@st.composite
def lfsr_cases(draw):
    """A dataset with either kind of noise and a random prior of 1-4 components.

    Components are full rank, rank 1 or zero, and with or without axis
    components ``c e_i e_i^T``; everything shares one scale, 1e-50, 1 or 1e50.
    """
    n = draw(st.integers(1, 30))
    r = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.sampled_from([-50, 0, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dataset = _dataset(draw, rng, n, r, scale)
    kinds = ["pd", "rank1", "zero"] + (["axis"] if draw(st.booleans()) else [])
    covs = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        if kind == "pd":
            covs.append(scale * _pd(rng, r))
        elif kind == "rank1":
            u = rng.standard_normal(r)
            covs.append(scale * np.outer(u, u))
        else:
            cov = np.zeros((r, r))
            if kind == "axis":
                i = rng.integers(r)
                cov[i, i] = scale * rng.uniform(0.5, 20.0)
            covs.append(cov)
    prior = MixturePrior(rng.dirichlet(np.ones(len(covs))), np.stack(covs))
    return dataset, prior, rng.choice(n, size=min(n, 5), replace=False)


@settings(max_examples=100, deadline=None)
@given(lfsr_cases())
def test_lfsr_in_unit_interval_and_above_half_only_at_point_masses(case):
    dataset, prior, rows = case
    lfsr = posterior.summarize(dataset, prior).lfsr
    assert np.all((lfsr >= -LFSR_SLACK) & (lfsr <= 1.0 + LFSR_SLACK))
    for j in rows:
        pm = posterior.posterior_mixture(dataset, prior, j)
        variances = np.diagonal(pm.covariances, axis1=1, axis2=2)
        point_mass = (pm.weights[:, None] > 0) & (pm.means == 0.0) & (variances == 0.0)
        assert np.all(point_mass.any(axis=0)[lfsr[j] > 0.5 + LFSR_SLACK])
