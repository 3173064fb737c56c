"""The shared-noise whitened eigenbasis against the stacked kernel.

For a shared noise ``V``, log-densities, the ``ed`` step and posterior
summaries run as diagonal formulas in the eigenbasis of each whitened
covariance (``solvers.WhitenedComponents``).  Each is pinned here to the
per-observation kernel (``solvers.StackedComponents``) applied to a copy of
the dataset whose noise repeats ``V`` once per observation, which factors
``U_k + V`` instead.

The updates that read a problem's whitened Gram (``ted``, rank-1 ``ted``,
``ed`` and the ``scaled`` objective) are pinned to references that loop over
the rows in data coordinates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from ebmnm import ComponentConstraint, Dataset, FitConfig, MixturePrior, Penalty, linalg
from ebmnm import mixture, posterior, solvers
from ebmnm.exceptions import NumericalFailureError, UnsupportedNoiseError

# Relative tolerance fixed from the dtype: an eigendecomposition of the
# whitened covariance in place of a Cholesky factor of U + V changes results
# by a few ulps times the conditioning of U + V relative to V (well below
# 1e6 for the matrices drawn here).
TOL = 1e6 * np.finfo(float).eps


def _psd(rng, r, kind):
    if kind == "zero":
        return np.zeros((r, r))
    if kind == "rank1":
        u = rng.standard_normal(r)
        return np.outer(u, u)
    a = rng.standard_normal((r, r))
    return linalg.sym(a @ a.T / r + 0.1 * np.eye(r))


@st.composite
def cases(draw):
    """A shared-noise dataset, K covariances, weights and per-row weights."""
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, 6))
    exponent = draw(st.sampled_from([-50, 0, 50]))
    # A rank-1 U plus noise 1e-50 is singular to working precision.
    kinds = ["pd", "zero"] + (["rank1"] if exponent > -50 else [])
    prior_kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** exponent
    noise = scale * _psd(rng, r, "pd")
    x = rng.standard_normal((n, r)) * np.sqrt(1.0 + scale)
    covs = np.stack([_psd(rng, r, kind) for kind in prior_kinds])
    weights = rng.dirichlet(np.ones(len(covs)))
    return Dataset(x, noise), covs, weights, rng.uniform(0.0, 1.0, n)


def _stacked(dataset, covs):
    """The per-observation kernel on ``dataset`` with its noise repeated per row."""
    repeated = Dataset(dataset.x, np.repeat(dataset.noise[None], dataset.n_obs, 0))
    return solvers.StackedComponents(repeated, covs)


@settings(max_examples=80, deadline=None)
@given(cases())
def test_log_densities_match_stacked_kernel(case):
    dataset, covs, _, _ = case
    got = solvers.prepare_components(dataset, covs).log_densities()
    expected = _stacked(dataset, covs).log_densities()
    assert got.shape == expected.shape == (dataset.n_obs, len(covs))
    r = dataset.dim
    logdet = np.linalg.slogdet(covs + dataset.noise)[1]
    quad = -2.0 * expected - r * np.log(2.0 * np.pi) - logdet
    assert np.all(np.abs(got - expected) <= TOL * (r + np.abs(logdet) + np.abs(quad)))
    for k, cov in enumerate(covs):
        np.testing.assert_array_equal(solvers.component_loglik(dataset, cov), got[:, k])


@settings(max_examples=80, deadline=None)
@given(cases(), st.sampled_from([Penalty.none(), Penalty.inverse_wishart(0.7)]),
       st.sampled_from([0.3, 1.0, 4.0]))
def test_ed_step_matches_stacked_kernel(case, penalty, scale):
    dataset, covs, _, w = case
    w[0] = max(w[0], 0.5)  # the weights must not all vanish
    problem = solvers.WeightedProblem(dataset, w, scale, penalty)
    whitened = solvers.prepare_components(dataset, covs)
    stacked = _stacked(dataset, covs)
    for k, u in enumerate(covs):
        expected = stacked.ed_update(k, problem)
        size = np.abs(expected).max() + np.abs(u).max() + penalty.lam * scale
        for got in (whitened.ed_update(k, problem), solvers.ed_update(problem, u)):
            assert np.all(np.abs(got - expected) <= TOL * size)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_summarize_matches_stacked_kernel(case):
    dataset, covs, weights, _ = case
    prior = MixturePrior(weights, covs)
    got = posterior.summarize(dataset, prior)
    expected = posterior._summary(_stacked(dataset, covs), weights)
    second = expected.sd**2 + expected.mean**2
    x_scale = np.abs(dataset.x).max(axis=1, keepdims=True)
    assert np.all(np.abs(got.mean - expected.mean) <= TOL * (x_scale + np.sqrt(second)))
    assert np.all(np.abs(got.sd**2 - expected.sd**2) <= TOL * second)
    assert np.all(np.abs(got.lfsr - expected.lfsr) <= TOL)


def test_zero_component_gives_exact_zeros(rng):
    dataset = Dataset(rng.standard_normal((7, 3)), random_psd(rng, 3))
    means, cov = solvers.prepare_components(dataset, np.zeros((1, 3, 3))).posterior_moments(0)
    assert np.all(means == 0.0) and np.all(cov == 0.0)
    summary = posterior.summarize(dataset, MixturePrior(np.ones(1), np.zeros((1, 3, 3))))
    np.testing.assert_array_equal(summary.lfsr, np.ones((7, 3)))


def test_spectrum_below_minus_one_raises():
    dataset = Dataset(np.zeros((3, 2)), np.eye(2))
    with pytest.raises(NumericalFailureError):
        solvers.component_loglik(dataset, np.diag([0.0, -2.0]))


class TestNoiseFactoredOnce:
    """Shared-noise fits and summaries factor only the noise, once."""

    def _dataset(self, seed):
        rng = np.random.default_rng(seed)
        return Dataset(rng.standard_normal((60, 4)) * 2.0, random_psd(rng, 4))

    def test_ted_iw_fit_with_rank1_and_scaled(self, counts):
        constraints = (ComponentConstraint.free(), ComponentConstraint.free(),
                       ComponentConstraint.rank1(), ComponentConstraint.scaled(np.ones((4, 4))))
        init = mixture.random_init(4, 4, seed=1, constraints=constraints)
        config = FitConfig("ted", penalty=Penalty.inverse_wishart(4.0), max_iterations=5,
                           warm_start_iterations=2)
        mixture.fit(self._dataset(2), init, config)
        assert counts == {"cholesky_with_jitter": 1, "solve_psd": 0}

    def test_ed_fit(self, counts):
        init = mixture.random_init(4, 3, seed=3)
        mixture.fit(self._dataset(4), init, FitConfig("ed", max_iterations=5))
        assert counts == {"cholesky_with_jitter": 1, "solve_psd": 0}

    def test_summarize(self, counts, rng):
        covs = np.stack([random_psd(rng, 4), np.zeros((4, 4)), np.outer([1.0, 2, 0, 1], [1.0, 2, 0, 1])])
        posterior.summarize(self._dataset(5), MixturePrior(np.full(3, 1 / 3), covs))
        assert counts == {"cholesky_with_jitter": 1, "solve_psd": 0}

    def test_posterior_mixture_reuses_the_factor(self, counts, rng):
        dataset = self._dataset(6)
        prior = MixturePrior(np.full(2, 0.5), np.stack([random_psd(rng, 4), np.zeros((4, 4))]))
        posterior.summarize(dataset, prior)
        for j in range(5):
            before = dict(counts)
            pm = posterior.posterior_mixture(dataset, prior, j)
            assert counts == before
            # A one-row dataset that factors the noise itself gives the same bytes.
            fresh = solvers.prepare_components(Dataset(dataset.x[j:j + 1], dataset.noise),
                                               prior.covariances)
            means, covs = zip(*(fresh.posterior_moments(k) for k in range(2)))
            assert pm.means.tobytes() == np.concatenate(means).tobytes()
            assert pm.covariances.tobytes() == np.concatenate(covs).tobytes()


# Tolerance of the row-based references, fixed before the first run.  Both
# sides round sums of at most 60 terms and an eigendecomposition of order at
# most 8, and the noise drawn here has a condition number below 1e3, so they
# differ by far less than this multiple of eps times the magnitude each check
# names.
GRAM_TOL = 1e7 * np.finfo(float).eps


@st.composite
def gram_cases(draw):
    """A shared-noise weighted problem, a current covariance and a scaled base.

    The noise is the identity, diagonal or correlated, times 1e-50, 1 or
    1e50; the data, the covariance and the base share its scale.
    """
    n = draw(st.integers(1, 60))
    r = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["identity", "diagonal", "correlated"]))
    scale = 10.0 ** draw(st.sampled_from([-50, 0, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = {"identity": np.eye(r), "diagonal": np.diag(rng.uniform(0.2, 5.0, r)),
             "correlated": _psd(rng, r, "pd")}[kind]
    x = rng.standard_normal((n, r)) * rng.uniform(0.5, 3.0) * np.sqrt(scale)
    w = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.2)
    w[0] = max(w[0], 0.5)  # the weights must not all vanish
    current = scale * 10.0 ** rng.uniform(-2, 2) * _psd(rng, r, "pd")
    return Dataset(x, scale * noise), w, current, scale * _psd(rng, r, "pd")


def _row_gram(dataset, w):
    """``L`` and ``sum_j w_j z_j z_j^T``, whitening one row at a time."""
    lower = np.linalg.cholesky(dataset.noise)
    gram = np.zeros((dataset.dim, dataset.dim))
    for xj, wj in zip(dataset.x, w):
        z = np.linalg.solve(lower, xj)
        gram += wj * np.outer(z, z)
    return lower, gram


def _row_ed(dataset, w, u, lam, s):
    """The ``ed`` step as a loop over rows of ``B + b_j b_j^T`` in data coordinates."""
    a = u + dataset.noise
    moment = np.zeros_like(u)
    for xj, wj in zip(dataset.x, w):
        b = u @ np.linalg.solve(a, xj)
        moment += wj * (u - u @ np.linalg.solve(a, u) + np.outer(b, b))
    return (moment + lam * s * np.eye(dataset.dim)) / (w.sum() + lam)


def _row_loglik(dataset, w, cov):
    """``sum_j w_j log N(x_j; 0, cov + V)`` and its magnitude, one row at a time."""
    a = cov + dataset.noise
    logdet = np.linalg.slogdet(a)[1]
    terms = [dataset.dim * np.log(2.0 * np.pi) + logdet + xj @ np.linalg.solve(a, xj)
             for xj in dataset.x]
    return -0.5 * float(w @ terms), float(w @ (dataset.dim + abs(logdet) + np.abs(terms)))


@settings(max_examples=100, deadline=None)
@given(gram_cases())
def test_ted_updates_match_row_reference(case):
    dataset, w, _, _ = case
    problem = solvers.WeightedProblem(dataset, w)
    lower, gram = _row_gram(dataset, w)
    d, q = np.linalg.eigh(gram / w.sum())
    size = np.linalg.norm(dataset.noise, 2) * (1.0 + np.linalg.norm(gram, 2) / w.sum())
    expected = lower @ ((q * np.maximum(d - 1.0, 0.0)) @ q.T) @ lower.T
    assert np.all(np.abs(solvers.ted_update(problem) - expected) <= GRAM_TOL * size)
    # The top eigenvector moves by the rounding over the gap below it.
    gap = d[-1] - d[-2] if len(d) > 1 else np.inf
    top = lower @ q[:, -1]
    expected = max(d[-1] - 1.0, 0.0) * np.outer(top, top)
    got = solvers.ted_rank1_update(problem)
    assert np.all(np.abs(got - expected) <= GRAM_TOL * size * (1.0 + d[-1] / gap))


@settings(max_examples=100, deadline=None)
@given(gram_cases(), st.sampled_from([Penalty.none(), Penalty.inverse_wishart(0.7),
                                      Penalty.inverse_wishart(4.0)]),
       st.sampled_from([0.3, 1.0, 4.0]))
def test_ed_update_matches_row_reference(case, penalty, scale):
    dataset, w, current, _ = case
    s = scale * np.abs(dataset.noise).max()
    problem = solvers.WeightedProblem(dataset, w, s, penalty)
    expected = _row_ed(dataset, w, current, penalty.lam, s)
    v_norm = np.linalg.norm(dataset.noise, 2)
    size = (np.linalg.norm(current, 2) + v_norm + penalty.lam * s
            + np.linalg.cond(dataset.noise) * np.max(np.sum(dataset.x ** 2, axis=1)))
    for got in (solvers.ed_update(problem, current),
                solvers.prepare_components(dataset, current[None]).ed_update(0, problem)):
        assert np.all(np.abs(got - expected) <= GRAM_TOL * size)


@settings(max_examples=100, deadline=None)
@given(gram_cases())
def test_scaled_objective_matches_row_reference(case):
    dataset, w, _, base = case
    problem = solvers.WeightedProblem(dataset, w)
    grid = np.array([0.0, 0.3, 1.0, 7.0])
    values = solvers.scaled_objective(problem, base)(grid)
    for c, got in zip(grid, values):
        expected, size = _row_loglik(dataset, w, c * base)
        assert abs(got - expected) <= GRAM_TOL * size
        assert abs(got - solvers.weighted_loglik(problem, c * base)) <= GRAM_TOL * size


def test_whitened_gram_needs_shared_noise(rng):
    problem = solvers.WeightedProblem(Dataset(rng.standard_normal((4, 2)),
                                              np.stack([np.eye(2)] * 4)), np.ones(4))
    with pytest.raises(UnsupportedNoiseError):
        problem.whitened_gram
