"""Mixture EM loop: likelihood, responsibilities, fit behavior, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_psd
from ebmnm import mixture, sim, solvers
from ebmnm.core import (
    ComponentConstraint,
    Dataset,
    FitConfig,
    MixturePrior,
    Penalty,
)
from ebmnm.exceptions import InvalidConfigError
from ebmnm.mixture import fit, log_likelihood, random_init, responsibilities


def naive_log_likelihood(dataset, prior):
    """Direct-density oracle without log-sum-exp stabilization."""
    from scipy.stats import multivariate_normal

    total = 0.0
    for j in range(dataset.n_obs):
        p = 0.0
        for k in range(prior.n_components):
            cov = prior.covariances[k] + dataset.noise_for(j)
            p += prior.weights[k] * multivariate_normal.pdf(dataset.x[j], cov=cov)
        total += np.log(p)
    return total


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        ds = Dataset(np.zeros((1, 1)), np.eye(1))
        prior = MixturePrior(np.array([1.0]), np.zeros((1, 1, 1)))
        assert log_likelihood(ds, prior) == pytest.approx(-0.5 * np.log(2 * np.pi),
                                                          abs=1e-12)

    def test_duplication_doubles_exactly(self, rng):
        ds = random_dataset(rng, 7, 3)
        covs = np.stack([random_psd(rng, 3) for _ in range(2)])
        prior = MixturePrior(np.array([0.4, 0.6]), covs)
        doubled = Dataset(np.vstack([ds.x, ds.x]), ds.noise)
        assert log_likelihood(doubled, prior) == 2.0 * log_likelihood(ds, prior)

    def test_matches_naive_oracle(self, rng):
        ds = random_dataset(rng, 5, 2)
        covs = np.stack([random_psd(rng, 2) for _ in range(3)])
        w = rng.random(3) + 0.2
        prior = MixturePrior(w / w.sum(), covs)
        assert log_likelihood(ds, prior) == pytest.approx(
            naive_log_likelihood(ds, prior), abs=1e-9)


class TestLogSumExp:
    def test_matches_scipy_including_zero_weights(self, rng):
        from scipy.special import logsumexp

        log_dens = rng.standard_normal((50, 4)) * 300.0
        weights = np.array([0.5, 0.0, 0.25, 0.25])
        with np.errstate(divide="ignore"):
            logw = np.log(weights)[None, :] + log_dens
        expected = logsumexp(logw, axis=1, keepdims=True)
        np.testing.assert_allclose(mixture._responsibilities_from(weights, log_dens),
                                   np.exp(logw - expected), rtol=1e-13, atol=1e-300)
        assert mixture._log_likelihood_from(weights, log_dens) == pytest.approx(
            np.sum(expected), rel=1e-14)


class TestResponsibilities:
    def test_single_component_is_one(self, rng):
        ds = random_dataset(rng, 6, 2)
        prior = MixturePrior(np.array([1.0]), random_psd(rng, 2)[None])
        np.testing.assert_array_equal(responsibilities(ds, prior), np.ones((6, 1)))

    def test_identical_components_split_evenly(self, rng):
        ds = random_dataset(rng, 5, 2)
        u = random_psd(rng, 2)
        prior = MixturePrior(np.array([0.5, 0.5]), np.stack([u, u]))
        np.testing.assert_allclose(responsibilities(ds, prior), 0.5, atol=1e-14)

    def test_matches_naive_oracle(self, rng):
        from scipy.stats import multivariate_normal

        ds = random_dataset(rng, 5, 2)
        covs = np.stack([random_psd(rng, 2) for _ in range(2)])
        prior = MixturePrior(np.array([0.3, 0.7]), covs)
        got = responsibilities(ds, prior)
        for j in range(5):
            dens = np.array([
                prior.weights[k] * multivariate_normal.pdf(
                    ds.x[j], cov=covs[k] + ds.noise_for(j))
                for k in range(2)
            ])
            np.testing.assert_allclose(got[j], dens / dens.sum(), atol=1e-10)

    def test_rows_sum_to_one(self, rng):
        ds = random_dataset(rng, 20, 3)
        covs = np.stack([random_psd(rng, 3) for _ in range(4)])
        w = rng.random(4)
        prior = MixturePrior(w / w.sum(), covs)
        rows = responsibilities(ds, prior).sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-10)


class TestRandomInit:
    def test_deterministic(self):
        a = random_init(4, 3, seed=11)
        b = random_init(4, 3, seed=11)
        np.testing.assert_array_equal(a.covariances, b.covariances)

    def test_uniform_weights(self):
        prior = random_init(5, 10, seed=0)
        np.testing.assert_array_equal(prior.weights, np.full(10, 0.1))
        np.testing.assert_array_equal(prior.scales, np.ones(10))

    def test_free_components_well_conditioned(self):
        for seed in range(100):
            prior = random_init(3, 2, seed=seed)
            for u in prior.covariances:
                assert np.linalg.eigvalsh(u).min() >= 0.1 - 1e-12

    @pytest.mark.parametrize("n_components", [0, -1])
    def test_no_components_rejected(self, n_components):
        with pytest.raises(InvalidConfigError, match="at least one component"):
            random_init(3, n_components, seed=0)

    def test_constraint_count_mismatch_rejected(self):
        with pytest.raises(InvalidConfigError, match="one constraint per component"):
            random_init(3, 2, seed=0, constraints=(ComponentConstraint.free(),))

    def test_constraint_kinds_respected(self, rng):
        base = random_psd(rng, 3)
        constraints = (ComponentConstraint.free(), ComponentConstraint.rank1(),
                       ComponentConstraint.scaled(base))
        prior = random_init(3, 3, seed=5, constraints=constraints)
        assert np.linalg.matrix_rank(prior.covariances[1], tol=1e-10) <= 1
        np.testing.assert_array_equal(prior.covariances[2], base)


class TestFit:
    def test_single_component_ted_is_exact_in_two_iterations(self, rng):
        ds = random_dataset(rng, 50, 3)
        init = MixturePrior(np.array([1.0]), random_psd(rng, 3)[None])
        result = fit(ds, init, FitConfig("ted", max_iterations=10, tolerance=0.01))
        assert result.trace.converged and result.trace.iterations_run <= 2
        # Expected closed form: truncate the whitened sample covariance.
        lower = np.linalg.cholesky(np.asarray(ds.noise))
        xt = np.linalg.solve(lower, ds.x.T).T
        s = xt.T @ xt / ds.n_obs
        e, q = np.linalg.eigh(s)
        expected = lower @ (q * np.maximum(e - 1, 0)) @ q.T @ lower.T
        np.testing.assert_allclose(result.prior.covariances[0], expected,
                                   rtol=1e-8, atol=1e-10)

    def test_init_at_truth_barely_moves(self):
        sc = sim.Scenario("hybrid", n=2000, dim=5, seed=21)
        train, truth = sim.generate(sc)
        cfg = FitConfig("ted", max_iterations=50, tolerance=1e-12)
        result = fit(train, truth.prior, cfg)
        gain = result.trace.objective[-1] - result.trace.objective[0]
        assert gain / train.n_obs < 0.1

    def test_ted_at_least_matches_ed_after_warm_start(self):
        sc = sim.Scenario("hybrid", n=300, dim=8, seed=3)
        train, _ = sim.generate(sc)
        init = random_init(8, 5, seed=4)
        kw = dict(max_iterations=300, tolerance=0.01, warm_start_iterations=20)
        ll_ted = fit(train, init, FitConfig("ted", **kw)).trace.objective[-1]
        ll_ed = fit(train, init, FitConfig("ed", **kw)).trace.objective[-1]
        assert ll_ted >= ll_ed - 1e-6

    def test_trace_monotone_across_configurations(self):
        """Each case at data magnitude ``s``, with the noise, bases and start times ``s^2``."""
        cases = [
            ("ted", Penalty.none(), ("free", "free"), True),
            ("ted", Penalty.inverse_wishart(3.0), ("free", "free"), True),
            ("ted", Penalty.nuclear_norm(3.0), ("free", "free"), True),
            ("ted", Penalty.none(), ("free", "rank1"), True),
            ("ted", Penalty.inverse_wishart(3.0), ("free", "scaled"), True),
            ("ed", Penalty.none(), ("free", "free"), True),
            ("ed", Penalty.inverse_wishart(3.0), ("free", "free"), False),
            ("ed", Penalty.none(), ("free", "scaled"), False),
            ("fa", Penalty.none(), ("rank1", "rank1"), True),
            ("fa", Penalty.none(), ("rank1", "scaled"), True),
            ("fa", Penalty.none(), ("rank1", "scaled"), False),
            ("ed", Penalty.inverse_wishart(3.0), ("free", "singular"), False),
        ]
        for s in (1e-50, 1.0, 1e50):
            rng = np.random.default_rng(1234)
            bases = {"scaled": s * s * random_psd(rng, 3), "singular": s * s * np.ones((3, 3))}
            for algorithm, penalty, kinds, shared in cases:
                ds = random_dataset(rng, 40, 3, shared=shared)
                constraints = tuple(
                    ComponentConstraint.scaled(bases[kind]) if kind in bases
                    else ComponentConstraint(kind) for kind in kinds
                )
                init = random_init(3, 2, seed=17, constraints=constraints)
                init = MixturePrior(init.weights, np.stack([
                    u if c.kind == "scaled" else s * s * u
                    for u, c in zip(init.covariances, constraints)]), init.scales, constraints)
                cfg = FitConfig(algorithm, penalty, max_iterations=25, tolerance=1e-13)
                objective = fit(Dataset(s * ds.x, s * s * ds.noise), init, cfg).trace.objective
                # Fixed before the first run: at most 1e-8 at s = 1, where |objective| < 500.
                slack = 2e-11 * np.abs(objective).max()
                assert np.diff(objective).min() >= -slack, (s, algorithm, penalty.kind, kinds,
                                                            shared)

    @pytest.mark.parametrize("shared, algorithm, spectrum_solves", [
        pytest.param(True, "ted", 5, id="shared"),
        pytest.param(False, "ed", 0, id="per_observation")])
    def test_m_step_is_one_problem_per_iteration(self, rng, monkeypatch, shared, algorithm,
                                                 spectrum_solves):
        """A 5-iteration fit with "iw", K=6: one problem per iteration under either noise.

        Shared noise runs ``ted``, with one spectrum solve per iteration;
        per-observation noise runs ``ed``.
        """
        calls = {"WeightedProblem": 0, "solve_penalized_spectrum": 0}
        for name in calls:
            original = getattr(solvers, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solvers, name, counted)
        ds = random_dataset(rng, 200, 3, shared=shared)
        config = FitConfig(algorithm, Penalty.inverse_wishart(3.0), max_iterations=5,
                           tolerance=1e-300)
        result = fit(ds, random_init(3, 6, seed=5), config)
        assert result.trace.iterations_run == 5
        assert calls == {"WeightedProblem": 5, "solve_penalized_spectrum": spectrum_solves}

    def test_dead_component_left_untouched(self, rng):
        ds = random_dataset(rng, 30, 2)
        covs = np.stack([random_psd(rng, 2), random_psd(rng, 2)])
        init = MixturePrior(np.array([1.0 - 1e-13, 1e-13]), covs)
        result = fit(ds, init, FitConfig("ted", max_iterations=5, tolerance=1e-13))
        assert np.all(np.isfinite(result.trace.objective))
        np.testing.assert_array_equal(result.prior.covariances[1], covs[1])
        assert np.all(np.isfinite(result.prior.covariances[0]))

    def test_warm_start_changes_init_only(self, rng):
        # A pure-ed fit with warm start must equal a longer plain ed fit.
        ds = random_dataset(rng, 25, 2)
        init = random_init(2, 2, seed=8)
        with_warm = fit(ds, init, FitConfig("ed", max_iterations=10, tolerance=1e-13,
                                            warm_start_iterations=5))
        plain = fit(ds, init, FitConfig("ed", max_iterations=15, tolerance=1e-13))
        np.testing.assert_allclose(with_warm.prior.covariances,
                                   plain.prior.covariances, rtol=1e-12)

    def test_invalid_combination_raises(self, rng):
        ds = random_dataset(rng, 10, 2, shared=False)
        init = random_init(2, 2, seed=1)
        with pytest.raises(InvalidConfigError):
            fit(ds, init, FitConfig("ted"))

    def test_posterior_scale_invariance_end_to_end(self, rng):
        from ebmnm.posterior import summarize

        ds = random_dataset(rng, 60, 3)
        init = random_init(3, 2, seed=2)
        for penalty, algorithm in ((Penalty.none(), "ted"),
                                   (Penalty.inverse_wishart(3.0), "ed")):
            cfg = FitConfig(algorithm, penalty, max_iterations=40, tolerance=0.001)
            base_fit = fit(ds, init, cfg)
            base_mean = summarize(ds, base_fit.prior).mean
            for c in (0.1, 10.0):
                scaled_ds = Dataset(c * ds.x, c * c * ds.noise)
                scaled_scales = init.scales * (c * c if algorithm == "ed" else 1.0)
                scaled_init = MixturePrior(init.weights, c * c * init.covariances,
                                           scaled_scales, init.constraints)
                scaled_fit = fit(scaled_ds, scaled_init, cfg)
                mean = summarize(scaled_ds, scaled_fit.prior).mean
                np.testing.assert_allclose(mean, c * base_mean, rtol=1e-6,
                                           atol=1e-12 * c * np.abs(base_mean).max())


# Every supported (algorithm, penalty) pair, the kinds of component it fits
# and whether it needs a shared noise.  "scaled1" has a rank-1 base, whose
# exact step applies under shared noise; "scaled" has a full-rank base,
# which always searches.
SUPPORTED = {
    "ted": ((Penalty.none(), Penalty.inverse_wishart(3.0), Penalty.nuclear_norm(3.0)),
            ("free", "rank1", "scaled1", "scaled"), True),
    "ed": ((Penalty.none(), Penalty.inverse_wishart(3.0)), ("free", "scaled1", "scaled"), False),
    "fa": ((Penalty.none(),), ("rank1", "scaled1", "scaled"), False),
}


@st.composite
def fit_configurations(draw):
    """A dataset at magnitude ``s``, a supported config and a start with bases times ``s^2``."""
    algorithm = draw(st.sampled_from(sorted(SUPPORTED)))
    penalties, kinds, needs_shared = SUPPORTED[algorithm]
    penalty = draw(st.sampled_from(penalties))
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3))
    shared = needs_shared or draw(st.booleans())
    s = draw(st.sampled_from([1e-50, 1.0, 1e50]))
    r = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ds = random_dataset(rng, draw(st.sampled_from([20, 60])), r, shared=shared)
    v = rng.standard_normal(r)
    bases = {"scaled1": s * s * np.outer(v, v), "scaled": s * s * random_psd(rng, r)}
    constraints = tuple(ComponentConstraint.scaled(bases[kind]) if kind in bases
                        else ComponentConstraint(kind) for kind in kinds)
    init = random_init(r, len(kinds), seed=draw(st.integers(0, 2**32 - 1)),
                       constraints=constraints)
    init = MixturePrior(init.weights, np.stack([
        u if c.kind == "scaled" else s * s * u
        for u, c in zip(init.covariances, constraints)]), init.scales, constraints)
    config = FitConfig(algorithm, penalty, max_iterations=15, tolerance=1e-13,
                       warm_start_iterations=draw(st.sampled_from([0, 3])))
    return Dataset(s * ds.x, s * s * ds.noise), init, config


@settings(max_examples=100, deadline=None)
@given(fit_configurations())
def test_every_configuration_is_monotone_and_keeps_its_constraints(case):
    """The slack of ``test_trace_monotone_across_configurations``; constraints to rounding."""
    dataset, init, config = case
    result = fit(dataset, init, config)
    objective = result.trace.objective
    assert np.all(np.isfinite(objective))
    assert np.diff(objective).min() >= -2e-11 * np.abs(objective).max()
    eps = np.finfo(float).eps
    for u, constraint in zip(result.prior.covariances, result.prior.constraints):
        if constraint.kind == "rank1":
            e = np.linalg.eigvalsh(u)
            assert np.all(np.abs(e[:-1]) <= 1e3 * eps * max(e[-1], 0.0))
        elif constraint.kind == "scaled":
            base = constraint.base
            c = np.sum(u * base) / np.sum(base * base)
            assert c >= 0.0
            np.testing.assert_allclose(u, c * base, rtol=1e3 * eps, atol=0.0)
