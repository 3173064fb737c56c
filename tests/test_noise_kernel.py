"""The components kernel, under both kinds of noise, against naive per-row references.

Log-densities, the ``ed`` moment, the ``scaled`` objective and posterior
summaries run as one stacked computation over the ``(n, R, R)``
per-observation noise, or in the whitened eigenbasis of a shared noise.  The
references here loop over observations with plain numpy (``slogdet``,
``solve``, ``eigh``) and share no code with the package's kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, ndtr

from conftest import random_dataset, random_psd
from ebmnm import linalg, mixture, sim, solvers
from ebmnm.core import ComponentConstraint, Dataset, FitConfig, MixturePrior
from ebmnm.exceptions import NumericalFailureError
from ebmnm.posterior import summarize
from ebmnm.solvers import WeightedProblem, component_loglik, ed_update, scaled_update

# Relative tolerance fixed from the dtype: reordered sums and a batched LU
# solve in place of triangular solves change results by a few ulps times
# the conditioning of U + V_j (well below 1e6 for the matrices drawn here).
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
    """A dataset and prior covariances; noise scaled by 1e-50, 1 or 1e50."""
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, 6))
    shared = draw(st.booleans())
    exponent = draw(st.sampled_from([-50, 0, 50]))
    # A rank-1 U plus noise 1e-50 is singular to working precision.
    kinds = ["pd", "zero"] + (["rank1"] if exponent > -50 else [])
    prior_kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** exponent
    if shared:
        noise = scale * _psd(rng, r, "pd")
    else:
        noise = scale * np.stack([_psd(rng, r, "pd") for _ in range(n)])
    x = rng.standard_normal((n, r)) * np.sqrt(1.0 + scale)
    covs = np.stack([_psd(rng, r, kind) for kind in prior_kinds])
    weights = rng.dirichlet(np.ones(len(covs)))
    return Dataset(x, noise), covs, weights, rng.uniform(0.0, 1.0, n)


def naive_logpdf(dataset, cov):
    """Per-row terms of ``log N(x_j; 0, cov + V_j)``: (value, term scale)."""
    r = dataset.dim
    values, scales = [], []
    for j in range(dataset.n_obs):
        t = cov + dataset.noise_for(j)
        _, logdet = np.linalg.slogdet(t)
        quad = dataset.x[j] @ np.linalg.solve(t, dataset.x[j])
        values.append(-0.5 * (r * np.log(2 * np.pi) + logdet + quad))
        scales.append(r + abs(logdet) + quad)
    return np.array(values), np.array(scales)


def naive_ed_moment(dataset, u, w):
    """``sum_j w_j (B_j + b_j b_j^T) / W`` and a scale for its rounding."""
    moment = np.zeros_like(u)
    size = 0.0
    for j in range(dataset.n_obs):
        t = u + dataset.noise_for(j)
        sol = np.linalg.solve(t, np.column_stack([dataset.x[j], u]))
        b = u @ sol[:, 0]
        b_cov = u - u @ sol[:, 1:]
        moment += w[j] * (0.5 * (b_cov + b_cov.T) + np.outer(b, b))
        size = max(size, b @ b)
    return moment / w.sum(), np.abs(u).max() + size


def naive_summary(dataset, covs, weights):
    """Posterior mean, variance and lfsr, one observation and component at a time."""
    n, r = dataset.x.shape
    log_dens = np.column_stack([naive_logpdf(dataset, cov)[0] for cov in covs])
    with np.errstate(divide="ignore"):
        logw = np.log(weights)[None, :] + log_dens
    resp = np.exp(logw - logsumexp(logw, axis=1, keepdims=True))
    mean, second = np.zeros((n, r)), np.zeros((n, r))
    pos, neg = np.zeros((n, r)), np.zeros((n, r))
    for j in range(n):
        v = dataset.noise_for(j)
        for k, u in enumerate(covs):
            z = np.linalg.solve(u + v, u)
            m = z.T @ dataset.x[j]
            c = z.T @ v
            e, q = np.linalg.eigh(0.5 * (c + c.T))
            if e[0] < 0:
                c = (q * np.maximum(e, 0.0)) @ q.T
            var = np.maximum(np.diag(c), 0.0)
            mean[j] += resp[j, k] * m
            second[j] += resp[j, k] * (var + m * m)
            for i in range(r):
                if var[i] > 0:
                    p, q_ = ndtr(m[i] / np.sqrt(var[i])), ndtr(-m[i] / np.sqrt(var[i]))
                else:
                    p, q_ = float(m[i] >= 0), float(m[i] <= 0)
                pos[j, i] += resp[j, k] * p
                neg[j, i] += resp[j, k] * q_
    return mean, np.maximum(second - mean**2, 0.0), np.minimum(pos, neg), second


@settings(max_examples=80, deadline=None)
@given(cases())
def test_log_density_matches_per_row_reference(case):
    dataset, covs, _, _ = case
    for cov in covs:
        expected, scale = naive_logpdf(dataset, cov)
        got = component_loglik(dataset, cov)
        assert got.shape == (dataset.n_obs,)
        assert np.all(np.abs(got - expected) <= TOL * scale)


@settings(max_examples=80, deadline=None)
@given(cases())
def test_ed_moment_matches_per_row_reference(case):
    dataset, covs, _, w = case
    w[0] = max(w[0], 0.5)  # the weights must not all vanish
    problem = WeightedProblem(dataset, w)
    for u in covs:
        expected, scale = naive_ed_moment(dataset, u, w)
        got = ed_update(problem, u)
        assert np.all(np.abs(got - expected) <= TOL * scale)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_summarize_matches_per_row_reference(case):
    dataset, covs, weights, _ = case
    mean, var, lfsr, second = naive_summary(dataset, covs, weights)
    got = summarize(dataset, MixturePrior(weights, covs))
    x_scale = np.abs(dataset.x).max(axis=1, keepdims=True)
    assert np.all(np.abs(got.mean - mean) <= TOL * (x_scale + np.sqrt(second)))
    assert np.all(np.abs(got.sd**2 - var) <= TOL * second)
    assert np.all(np.abs(got.lfsr - lfsr) <= TOL)


class TestStackedCholeskyJitter:
    def test_only_the_singular_slice_is_jittered(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        stack = np.stack([np.eye(2), np.diag([2.0, 3.0]), singular,
                          np.array([[4.0, 1.0], [1.0, 2.0]]), 5.0 * np.eye(2)])
        got = linalg.cholesky_with_jitter(stack)
        np.testing.assert_array_equal(got[2], linalg.cholesky_with_jitter(singular))
        for j in (0, 1, 3, 4):
            np.testing.assert_array_equal(got[j], np.linalg.cholesky(stack[j]))

    def test_indefinite_slice_raises(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]),
                          np.diag([1.0, -1.0]), np.eye(2)])
        with pytest.raises(NumericalFailureError):
            linalg.cholesky_with_jitter(stack)

    def test_indefinite_component_raises_through_log_density(self):
        noise = np.stack([np.eye(2)] * 3)
        dataset = Dataset(np.zeros((3, 2)), noise)
        with pytest.raises(NumericalFailureError):
            component_loglik(dataset, np.diag([0.0, -2.0]))


@st.composite
def scaled_cases(draw):
    """A weighted problem with either kind of noise, a ``scaled`` base and a multiple.

    The noise, the base and the data share one scale, 1e-50, 1 or 1e50; the
    base is the singular all-ones matrix or full rank, the data carry a
    signal along the base, and the weights include zeros.
    """
    n = draw(st.integers(1, 40))
    r = draw(st.integers(1, 6))
    shared = draw(st.booleans())
    singular = draw(st.booleans())
    scale = 10.0 ** draw(st.sampled_from([-50, 0, 50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shared:
        noise = scale * _psd(rng, r, "pd")
    else:
        noise = scale * np.stack([_psd(rng, r, "pd") for _ in range(n)])
    base = scale * (np.ones((r, r)) if singular else _psd(rng, r, "pd"))
    signal = rng.multivariate_normal(np.zeros(r), rng.uniform(1.0, 4.0) * base / scale, n)
    x = np.sqrt(scale) * (signal + rng.standard_normal((n, r)))
    w = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) > 0.2)
    w[0] = max(w[0], 0.5)  # the weights must not all vanish
    return WeightedProblem(Dataset(x, noise), w), base, 10.0 ** rng.uniform(-2.0, 2.0)


def naive_weighted_loglik(problem, cov):
    """``sum_j w_j log N(x_j; 0, cov + V_j)`` and the magnitude of its terms."""
    values, scales = naive_logpdf(problem.dataset, cov)
    return float(problem.weights @ values), float(problem.weights @ scales)


@settings(max_examples=100, deadline=None)
@given(scaled_cases())
def test_scaled_objective_matches_per_row_reference(case):
    problem, base, _ = case
    f = solvers.scaled_objective(problem, base)
    grid = np.array([0.0, 0.3, 1.0, 7.0])
    for c, got, one in zip(grid, f(grid), [f(c) for c in grid]):
        expected, size = naive_weighted_loglik(problem, c * base)
        assert abs(got - expected) <= TOL * size
        assert abs(one - expected) <= TOL * size
    # Rounding-level eigenvalues of a singular base must not turn negative.
    assert np.all(np.isfinite(f(np.array([1e20, 1e40]))))


@settings(max_examples=100, deadline=None)
@given(scaled_cases())
def test_scaled_update_never_ends_below_current(case):
    problem, base, current = case
    c = scaled_update(problem, base, current)
    f = solvers.scaled_objective(problem, base)
    assert c >= 0.0
    assert f(c) >= f(current)
    assert f(c) >= f(scaled_update(problem, base))


@settings(max_examples=60, deadline=None)
@given(scaled_cases(), st.integers(-8, 8))
def test_scaled_update_scales_with_the_data(case, k):
    problem, base, _ = case
    dataset = problem.dataset
    scaled = Dataset(2.0 ** k * dataset.x, 4.0 ** k * dataset.noise)
    c = scaled_update(problem, base)
    c_scaled = scaled_update(WeightedProblem(scaled, problem.weights), base)
    np.testing.assert_allclose(c_scaled, 4.0 ** k * c, rtol=1e-6)


def _scaled_problem(shared, s):
    """Effects ``N(0, 2 s base)`` under noise ``s I``, with base ``ones + I`` (R=3)."""
    rng = np.random.default_rng(4)
    n, r = 200, 3
    base = np.ones((r, r)) + np.eye(r)
    x = np.sqrt(s) * (rng.multivariate_normal(np.zeros(r), 2.0 * base, size=n)
                      + rng.standard_normal((n, r)))
    noise = s * np.eye(r) if shared else np.stack([s * np.eye(r)] * n)
    return WeightedProblem(Dataset(x, noise), np.ones(n)), base


@pytest.mark.parametrize("shared", [True, False])
def test_scaled_update_keeps_a_better_current(shared):
    """Data far below the base's scale, with the optimum's neighbour as ``current``."""
    s = 1e-50
    problem, base = _scaled_problem(shared, s)
    f = solvers.scaled_objective(problem, base)
    c = scaled_update(problem, base, 2.0 * s)
    assert f(c) >= f(2.0 * s)


@pytest.mark.parametrize("s", [1.0, 1e-20, 1e-50])
@pytest.mark.parametrize("shared", [True, False])
def test_scaled_update_finds_the_optimum_at_any_scale(shared, s):
    """A fresh search scores at least the best of a dense grid around the optimum."""
    problem, base = _scaled_problem(shared, s)
    f = solvers.scaled_objective(problem, base)
    best = f(s * np.geomspace(1e-2, 1e2, 4001)).max()
    assert f(scaled_update(problem, base)) >= best - 1e-12 * abs(best)


def test_chunked_scaled_objective_matches_single_values():
    """A per-observation grid too large for one chunk gives each value's result."""
    rng = np.random.default_rng(8)
    n, r = 3000, 5
    noise = np.stack([_psd(rng, r, "pd") for _ in range(n)])
    problem = WeightedProblem(Dataset(2.0 * rng.standard_normal((n, r)), noise),
                              rng.uniform(0.0, 1.0, n))
    base = np.ones((r, r))
    f = solvers.scaled_objective(problem, base)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 80)])
    single = np.array([f(c) for c in grid])
    np.testing.assert_allclose(f(grid), single, rtol=1e-13)
    np.testing.assert_allclose(f(grid.reshape(9, 9)), single.reshape(9, 9), rtol=1e-13)
    for c in (0.0, 0.5, 20.0):
        np.testing.assert_allclose(f(c), solvers.weighted_loglik(problem, c * base), rtol=1e-12)


class TestStackFactoredOnce:
    """A per-observation kernel factors each ``U_k + V_j`` once and the noise stack once.

    Nothing calls ``solve_psd``.
    """

    def test_ed_fit(self, counts):
        dataset = random_dataset(np.random.default_rng(4), 60, 4, shared=False)
        init = mixture.random_init(4, 3, seed=3)
        mixture.fit(dataset, init, FitConfig("ed", max_iterations=5))
        # One kernel per evaluation: the initial state and each of 5 iterations.
        assert counts == {"cholesky_with_jitter": 3 * 6, "solve_psd": 0}

    def test_fa_fit_with_scaled(self, counts):
        dataset = random_dataset(np.random.default_rng(6), 200, 4, shared=False)
        constraints = (ComponentConstraint.rank1(),) * 3 + (
            ComponentConstraint.scaled(np.ones((4, 4))),)
        init = mixture.random_init(4, 4, seed=3, constraints=constraints)
        mixture.fit(dataset, init, FitConfig("fa", max_iterations=5))
        # 4 stacks U_k + V_j for each of 6 evaluations, and the noise once.
        assert counts == {"cholesky_with_jitter": 4 * 6 + 1, "solve_psd": 0}

    def test_summarize(self, counts):
        rng = np.random.default_rng(5)
        dataset = random_dataset(rng, 60, 4, shared=False)
        covs = np.stack([random_psd(rng, 4), np.zeros((4, 4)),
                         np.outer([1.0, 2, 0, 1], [1.0, 2, 0, 1])])
        summarize(dataset, MixturePrior(np.full(3, 1 / 3), covs))
        assert counts == {"cholesky_with_jitter": 3, "solve_psd": 0}


def test_whiteners_are_exact_triangular_inverses():
    """``W = L^{-1}`` is exactly lower triangular, with diagonal exactly ``1 / l_ii``."""
    rng = np.random.default_rng(9)
    n, r = 2000, 5
    a = rng.standard_normal((n, r, r))
    noise = a @ a.swapaxes(1, 2) / r + 0.1 * np.eye(r)
    noise[:, 0, :] *= 0.01
    noise[:, :, 0] *= 0.01
    lower = np.linalg.cholesky(noise)
    (w,) = solvers.prepare_components(Dataset(np.zeros((n, r)), noise),
                                      np.zeros((1, r, r))).whiteners
    assert np.all(np.triu(w, 1) == 0.0)
    diagonal = np.diagonal(lower, axis1=1, axis2=2)
    assert np.all(np.diagonal(w, axis1=1, axis2=2) == 1.0 / diagonal)
    logdet = 2.0 * np.sum(np.log(diagonal), axis=1)
    got = -2.0 * np.sum(np.log(np.diagonal(w, axis1=1, axis2=2)), axis=1)
    assert np.all(np.abs(got - logdet) <= 2e-14 * np.abs(logdet))


class TestNoiseFarBelowPrior:
    """Per-observation ``ed`` with noise many orders below ``U``.

    ``U - U (U + V_j)^{-1} U`` cancels to rounding there; the posterior
    covariance ``U (U + V_j)^{-1} V_j`` does not.
    """

    def test_zero_data_step_returns_the_noise(self):
        rng = np.random.default_rng(0)
        n, r = 6, 3
        a = rng.standard_normal((r, r))
        u = np.eye(r) + 0.01 * (a + a.T)
        dataset = Dataset(np.zeros((n, r)), np.stack([1e-200 * np.eye(r)] * n))
        got = ed_update(WeightedProblem(dataset, np.ones(n)), u)
        assert np.abs(got - 1e-200 * np.eye(r)).max() <= 1e-12 * 1e-200

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tiny_scale_fit_matches_shared_noise(self, seed):
        train, _ = sim.generate(sim.Scenario("hybrid", n=300, dim=4, seed=5))
        x = 1e-100 * train.x
        init = mixture.random_init(4, 10, seed=seed)
        config = FitConfig("ed", max_iterations=50, tolerance=1e-300)
        shared = mixture.fit(Dataset(x, 1e-200 * np.eye(4)), init, config).trace
        per_obs = mixture.fit(Dataset(x, np.stack([1e-200 * np.eye(4)] * 300)), init,
                              config).trace
        objective = per_obs.objective
        assert np.diff(objective).min() >= -1e-12 * np.abs(objective).max()
        np.testing.assert_allclose(objective[-1], shared.objective[-1], rtol=1e-12)
