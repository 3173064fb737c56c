"""Single-component updates against independent oracles.

The eigenvalue-truncation update is checked against dense grid searches and
random perturbations; the EM updates against hand-rolled matrix arithmetic
and their monotonicity guarantees; the closed-form scale factors against
scalar grid searches.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset, random_psd
from ebmnm import solvers
from ebmnm.core import Dataset, Penalty
from ebmnm.exceptions import (
    DimensionMismatchError,
    InvariantViolationError,
    SingularMatrixError,
    UnsupportedNoiseError,
    UnsupportedPenaltyError,
)
from ebmnm.solvers import (
    WeightedProblem,
    component_loglik,
    ed_update,
    fa_update,
    penalty_from_eigenvalues,
    scale_factor_update,
    scaled_update,
    ted_rank1_update,
    ted_update,
    weighted_loglik,
)


def dataset_with_sample_cov(eigenvalues, vectors=None):
    """Unit-weight dataset whose sample covariance has the given spectrum.

    Rows are +/- sqrt(R e_i) q_i, so the weighted sample covariance at unit
    weights is sum_i 2 R e_i q_i q_i^T / (2R) = sum_i e_i q_i q_i^T.
    """
    r = len(eigenvalues)
    q = np.eye(r) if vectors is None else vectors
    x = np.vstack([np.sqrt(r * e) * q[:, i] for i, e in enumerate(eigenvalues)])
    return Dataset(np.vstack([x, -x]), np.eye(r))


def log_uniform(lo, hi):
    """Floats spread evenly in log10 between ``lo`` and ``hi``."""
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda t: 10.0 ** t)


class TestWeightedProblem:
    def test_rejects_bad_weights(self, rng):
        ds = Dataset(rng.standard_normal((3, 2)), np.eye(2))
        with pytest.raises(InvariantViolationError):
            WeightedProblem(ds, np.array([0.5, -0.1, 0.2]))
        with pytest.raises(InvariantViolationError):
            WeightedProblem(ds, np.zeros(3))
        with pytest.raises(InvariantViolationError):
            WeightedProblem(ds, np.full(3, 1.5))


    @pytest.mark.parametrize("bad, stacked, scale", [
        (np.array([0.5, -0.1, 0.2]), None, 1.0),     # a negative weight
        (np.full(3, 1.5), None, 1.0),                # weights above 1
        (np.zeros(3), None, 1.0),                    # an all-zero column
        (np.ones(4), np.ones((4, 2)), 1.0),          # one row too many
        (np.ones(4), np.ones((3, 2, 1)), 1.0),       # too many axes
        (np.ones(3), np.ones((3, 2)), 0.0),          # a nonpositive scale
        (np.ones(3), np.ones((3, 2)), -1.0),
    ])
    def test_columns_fail_as_one_column_does(self, rng, bad, stacked, scale):
        ds = Dataset(rng.standard_normal((3, 2)), np.eye(2))
        if stacked is None:  # the bad column next to a good one
            stacked = np.column_stack([np.full(3, 0.5), bad])
        with pytest.raises(InvariantViolationError) as single:
            WeightedProblem(ds, bad, scale)
        with pytest.raises(InvariantViolationError) as columns:
            WeightedProblem(ds, stacked, np.array([1.0, scale]))
        # The wrong-shape message names the shape it got; the rest is the same.
        assert str(columns.value).split(", got")[0] == str(single.value).split(", got")[0]

    def test_columns_keep_their_shapes(self, rng):
        ds = Dataset(rng.standard_normal((5, 3)), random_psd(rng, 3))
        w = rng.random((5, 2))
        problem = WeightedProblem(ds, w, np.array([1.0, 2.0]))
        assert problem.total_weight.shape == (2,)
        assert problem.whitened_gram.shape == (2, 3, 3)
        single = WeightedProblem(ds, w[:, 1], 2.0)
        assert isinstance(single.total_weight, float)
        assert single.whitened_gram.shape == (3, 3)
        np.testing.assert_array_equal(problem.whitened_gram[1], single.whitened_gram)
        with pytest.raises(InvariantViolationError, match="one number or one per column"):
            WeightedProblem(ds, w, np.ones(3))


@st.composite
def stacked_cases(draw):
    """A shared-noise dataset at magnitude ``s`` with ``(n, K')`` weights, some rows zero.

    Returns the dataset, the weights, ``s`` and ``K'`` penalty scales in (0.1, 10).
    """
    r, k, n = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["identity", "diagonal", "correlated"]))
    s = draw(st.sampled_from([1e-50, 1.0, 1e50]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = {"identity": np.eye(r), "diagonal": np.diag(rng.uniform(0.1, 10.0, r)),
            "correlated": random_psd(rng, r)}[kind]
    x = s * rng.standard_normal((n, r)) @ np.linalg.cholesky(3.0 * base).T
    w = rng.random((n, k))
    zero = rng.random(n) < 0.3
    zero[rng.integers(n)] = False  # every column keeps a positive sum
    w[zero] = 0.0
    return Dataset(x, s * s * base), w, s, rng.uniform(0.1, 10.0, k)


class TestStackedUpdates:
    """``(n, K')`` weights give the K' single-column updates.

    Fixed before the first run: within 1e-9 of each single result's largest entry.
    """

    @staticmethod
    def assert_columns(stacked, singles):
        assert stacked.shape == (len(singles),) + singles[0].shape
        for got, want in zip(stacked, singles):
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @settings(max_examples=60)
    @given(case=stacked_cases(), kind=st.sampled_from(["none", "iw", "nn"]))
    def test_ted(self, case, kind):
        ds, w, _, scales = case
        penalty = Penalty.none() if kind == "none" else Penalty(kind, float(ds.dim))
        stacked = ted_update(WeightedProblem(ds, w, scales, penalty))
        self.assert_columns(stacked, [ted_update(WeightedProblem(ds, w[:, i], scales[i], penalty))
                                      for i in range(w.shape[1])])

    @settings(max_examples=40)
    @given(case=stacked_cases())
    def test_ted_rank1(self, case):
        ds, w, _, _ = case
        singles = [ted_rank1_update(WeightedProblem(ds, col)) for col in w.T]
        self.assert_columns(ted_rank1_update(WeightedProblem(ds, w)), singles)
        # Rank-1 rows among free ones, as the fit mixes them.
        rank1 = np.arange(w.shape[1]) % 2 == 0
        mixed = solvers.truncated_solution(WeightedProblem(ds, w), rank1)
        self.assert_columns(mixed, [u if flag else ted_update(WeightedProblem(ds, col))
                                    for u, flag, col in zip(singles, rank1, w.T)])

    @settings(max_examples=60)
    @given(case=stacked_cases(), kind=st.sampled_from(["none", "iw"]))
    def test_ed(self, case, kind):
        ds, w, s, scales = case
        penalty = Penalty.none() if kind == "none" else Penalty.inverse_wishart(float(ds.dim))
        rng = np.random.default_rng(w.shape[0])
        current = np.stack([s * s * random_psd(rng, ds.dim) for _ in range(w.shape[1])])
        # The ed penalty is measured in the data metric, so its scale carries s^2.
        stacked = ed_update(WeightedProblem(ds, w, s * s * scales, penalty), current)
        self.assert_columns(stacked, [
            ed_update(WeightedProblem(ds, w[:, i], s * s * scales[i], penalty), current[i])
            for i in range(w.shape[1])])

    def test_ed_per_observation_noise(self, rng):
        ds = random_dataset(rng, 30, 3, shared=False)
        w = rng.random((30, 3))
        current = np.stack([random_psd(rng, 3) for _ in range(3)])
        self.assert_columns(ed_update(WeightedProblem(ds, w), current),
                            [ed_update(WeightedProblem(ds, col), u)
                             for col, u in zip(w.T, current)])

    def test_ed_needs_one_current_per_column(self, rng):
        ds = random_dataset(rng, 10, 2)
        with pytest.raises(DimensionMismatchError):
            ed_update(WeightedProblem(ds, rng.random((10, 3))), np.stack([np.eye(2)] * 2))

    def test_spectrum_helpers_read_stacks(self, rng):
        e = rng.uniform(0.1, 5.0, (4, 3))
        scales = rng.uniform(0.5, 2.0, 4)
        for penalty in (Penalty.inverse_wishart(3.0), Penalty.nuclear_norm(3.0)):
            np.testing.assert_array_equal(
                solvers.penalty_from_eigenvalues(penalty, e, scales),
                [penalty_from_eigenvalues(penalty, row, c) for row, c in zip(e, scales)])
            np.testing.assert_array_equal(
                solvers.scale_factor_from_eigenvalues(e, penalty),
                [solvers.scale_factor_from_eigenvalues(row, penalty) for row in e])
        np.testing.assert_array_equal(solvers.floor_eigenvalues(e - 1.0),
                                      [solvers.floor_eigenvalues(row) for row in e - 1.0])


class TestTedUpdate:
    def test_sample_cov_identity_gives_zero(self):
        ds = dataset_with_sample_cov([1.0, 1.0])
        u = ted_update(WeightedProblem(ds, np.ones(ds.n_obs)))
        np.testing.assert_allclose(u, np.zeros((2, 2)), atol=1e-12)

    def test_sample_cov_2i_gives_identity(self):
        ds = dataset_with_sample_cov([2.0, 2.0])
        u = ted_update(WeightedProblem(ds, np.ones(ds.n_obs)))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)

    def test_mixed_spectrum_truncates(self, rng):
        q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        ds = dataset_with_sample_cov([3.0, 0.5], q)
        problem = WeightedProblem(ds, np.ones(ds.n_obs))
        u = ted_update(problem)
        expected = 2.0 * np.outer(q[:, 0], q[:, 0])
        np.testing.assert_allclose(u, expected, atol=1e-10)

        # Oracle 1: dense grid over eigenvalue pairs holding eigenvectors fixed.
        e1, e2 = np.meshgrid(np.arange(0, 5.0 + 1e-9, 0.01),
                             np.arange(0, 5.0 + 1e-9, 0.01), indexing="ij")
        xt = ds.x @ q  # coordinates in the fixed eigenbasis
        w_tot = ds.n_obs
        quad = (xt[:, 0] ** 2).sum() / (1 + e1) + (xt[:, 1] ** 2).sum() / (1 + e2)
        phi_grid = -0.5 * (w_tot * (np.log1p(e1) + np.log1p(e2)
                                    + 2 * np.log(2 * np.pi)) + quad)
        best = np.unravel_index(np.argmax(phi_grid), phi_grid.shape)
        np.testing.assert_allclose([e1[best], e2[best]], [2.0, 0.0], atol=0.011)
        phi_solver = weighted_loglik(problem, u)
        assert phi_solver >= phi_grid[best] - 1e-9

        # Oracle 2: no random PSD perturbation improves the objective.
        for _ in range(100):
            d = random_psd(rng, 2, ridge=0.0)
            assert phi_solver >= weighted_loglik(problem, u + 1e-3 * d) - 1e-12

    def test_iw_penalized_matches_grid(self):
        ds = dataset_with_sample_cov([1.0, 1.0])
        penalty = Penalty.inverse_wishart(2.0)  # lambda = R
        problem = WeightedProblem(ds, np.ones(ds.n_obs), scale=1.0, penalty=penalty)
        u = ted_update(problem)
        w_tot = ds.n_obs
        grid = np.arange(1e-4, 10.0, 1e-4)
        g = (-0.5 * w_tot * (np.log1p(grid) + 1.0 / (1 + grid))
             - 0.5 * penalty.lam * (np.log(grid) + 1.0 / grid))
        e_best = grid[np.argmax(g)]
        np.testing.assert_allclose(np.linalg.eigvalsh(u), [e_best, e_best], atol=2e-4)

    def test_rejects_per_observation_noise(self, rng):
        ds = random_dataset(rng, 4, 2, shared=False)
        with pytest.raises(UnsupportedNoiseError):
            ted_update(WeightedProblem(ds, np.ones(4)))

    def test_scale_equivariance(self, rng):
        ds = random_dataset(rng, 40, 3)
        w = rng.random(40)
        base = ted_update(WeightedProblem(ds, w))
        for c in (0.1, 10.0):
            scaled = Dataset(c * ds.x, c * c * ds.noise)
            u = ted_update(WeightedProblem(scaled, w))
            np.testing.assert_allclose(u, c * c * base, rtol=1e-9, atol=1e-12)

    def test_exactness_beats_iterated_ed(self, rng):
        for _ in range(5):
            ds = random_dataset(rng, 30, 3)
            w = rng.random(30) * 0.9 + 0.1
            problem = WeightedProblem(ds, w)
            exact = weighted_loglik(problem, ted_update(problem))
            u = random_psd(rng, 3)
            for _ in range(1000):
                u = ed_update(problem, u)
            assert exact >= weighted_loglik(problem, u) - 1e-6

    def test_rank1_keeps_top_direction_only(self, rng):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        ds = dataset_with_sample_cov([4.0, 2.0, 0.3], q)
        u = ted_rank1_update(WeightedProblem(ds, np.ones(ds.n_obs)))
        np.testing.assert_allclose(u, 3.0 * np.outer(q[:, 0], q[:, 0]), atol=1e-9)
        assert np.linalg.matrix_rank(u, tol=1e-8) == 1

    def test_returned_matrices_are_psd(self, rng):
        for penalty in (Penalty.none(), Penalty.inverse_wishart(3.0),
                        Penalty.nuclear_norm(3.0)):
            ds = random_dataset(rng, 25, 4)
            w = rng.random(25)
            u = ted_update(WeightedProblem(ds, w, scale=1.3, penalty=penalty))
            assert np.max(np.abs(u - u.T)) <= 1e-10 * np.max(np.abs(u))
            e = np.linalg.eigvalsh(u)
            assert e.min() >= -1e-10 * max(e.max(), 1e-300)


class TestPenalizedEigenvalueSolver:
    def eval_objective(self, e, d, w, penalty, s):
        lik = -0.5 * w * (np.log1p(e) + d / (1 + e))
        if penalty.kind == "iw":
            pen = 0.5 * penalty.lam * (np.log(e / s) + s / e)
        else:
            pen = 0.25 * penalty.lam * (e / s + s / e)
        return lik - pen

    @pytest.mark.parametrize("kind", ["iw", "nn"])
    def test_matches_dense_grid(self, rng, kind):
        for _ in range(40):
            d = float(rng.uniform(0.0, 15.0))
            w = float(rng.uniform(0.5, 300.0))
            lam = float(rng.uniform(0.5, 30.0))
            s = float(np.exp(rng.uniform(np.log(0.05), np.log(15.0))))
            penalty = Penalty(kind, lam)
            e_hat = solvers.solve_penalized_spectrum(np.array([d]), w, penalty, s)[0]
            hi = 10.0 * max(d, s, 1.0)
            coarse = np.geomspace(1e-10, hi, 4000)
            g = self.eval_objective(coarse, d, w, penalty, s)
            e0 = coarse[np.argmax(g)]
            fine = np.linspace(max(e0 * 0.5, 1e-12), e0 * 2.0 + 1e-3, 4001)
            gf = self.eval_objective(fine, d, w, penalty, s)
            e_grid = fine[np.argmax(gf)]
            assert abs(e_hat - e_grid) <= 1e-3 + (fine[1] - fine[0])

    @settings(max_examples=300)
    @given(kind=st.sampled_from(["iw", "nn"]),
           d_values=st.lists(st.one_of(st.just(0.0), log_uniform(1e-8, 1e8)),
                             min_size=1, max_size=6),
           w=log_uniform(1e-10, 1e6), lam=log_uniform(1e-3, 1e3),
           s=log_uniform(1e-8, 1e8))
    def test_spectrum_no_worse_than_dense_log_grid(self, kind, d_values, w, lam, s):
        d = np.array(d_values)
        penalty = Penalty(kind, lam)
        e_hat = solvers.solve_penalized_spectrum(d, w, penalty, s)
        assert np.all(np.isfinite(e_hat)) and np.all(e_hat > 0)
        g_hat = self.eval_objective(e_hat, d, w, penalty, s)
        hi = 10.0 * np.maximum(np.maximum(d, s), 1.0)
        grid = hi[:, None] * np.geomspace(1e-13, 1.0, 20001)[None, :]
        g_grid = self.eval_objective(grid, d[:, None], w, penalty, s).max(axis=1)
        assert np.all(g_hat >= g_grid - 1e-12 * (1.0 + np.abs(g_hat)))

    def test_unpenalized_is_truncation(self):
        d = np.array([3.0, 0.5])
        np.testing.assert_array_equal(
            solvers.solve_penalized_spectrum(d, 10.0, Penalty.none(), 1.0), [2.0, 0.0])


class TestEdUpdate:
    def test_zero_is_fixed_point(self, rng):
        ds = random_dataset(rng, 6, 3)
        u = ed_update(WeightedProblem(ds, np.ones(6)), np.zeros((3, 3)))
        np.testing.assert_allclose(u, np.zeros((3, 3)), atol=0)

    def test_identity_current_matches_direct_arithmetic(self, rng):
        x = rng.standard_normal((3, 2))
        ds = Dataset(x, np.eye(2))
        u = ed_update(WeightedProblem(ds, np.ones(3)), np.eye(2))
        # b_j = x_j / 2 and B_j = I/2, so the average is I/2 + S/4.
        s = x.T @ x / 3
        np.testing.assert_allclose(u, np.eye(2) / 2 + s / 4, atol=1e-12)

    def test_heteroskedastic_matches_direct_arithmetic(self, rng):
        ds = random_dataset(rng, 4, 2, shared=False)
        w = rng.random(4)
        current = random_psd(rng, 2)
        expected = np.zeros((2, 2))
        for j in range(4):
            t_inv = np.linalg.inv(current + ds.noise[j])
            b = current @ t_inv @ ds.x[j]
            big_b = current - current @ t_inv @ current
            expected += w[j] * (big_b + np.outer(b, b))
        expected /= w.sum()
        u = ed_update(WeightedProblem(ds, w), current)
        np.testing.assert_allclose(u, expected, rtol=1e-10, atol=1e-12)

    def test_rank1_current_stays_rank1(self, rng):
        ds = random_dataset(rng, 20, 3)
        u_vec = rng.standard_normal(3)
        new = ed_update(WeightedProblem(ds, np.ones(20)), np.outer(u_vec, u_vec))
        # Subspace preserving: the update is a scalar multiple of u u^T.
        ratio = new / np.outer(u_vec, u_vec)
        assert np.nanmax(ratio) - np.nanmin(ratio) <= 1e-8 * np.nanmax(np.abs(ratio))
        assert np.linalg.eigvalsh(new)[0] >= -1e-12

    def test_subspace_preservation_rank2(self, rng):
        ds = random_dataset(rng, 25, 4)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        u = basis @ np.diag([2.0, 0.7]) @ basis.T
        problem = WeightedProblem(ds, np.ones(25))
        for _ in range(20):
            u = ed_update(problem, u)
        proj = np.eye(4) - basis @ basis.T
        assert np.linalg.norm(proj @ u @ proj) <= 1e-8 * np.linalg.norm(u)

    def test_monotone_in_penalized_objective(self, rng):
        for shared in (True, False):
            for penalty in (Penalty.none(), Penalty.inverse_wishart(4.0)):
                ds = random_dataset(rng, 15, 3, shared=shared)
                w = rng.random(15) * 0.8 + 0.2
                s = float(rng.uniform(0.5, 2.0))
                problem = WeightedProblem(ds, w, scale=s, penalty=penalty)
                u = random_psd(rng, 3)
                for _ in range(15):
                    new = ed_update(problem, u)
                    before = (weighted_loglik(problem, u)
                              - penalty_from_eigenvalues(penalty, np.linalg.eigvalsh(u), s))
                    after = (weighted_loglik(problem, new)
                             - penalty_from_eigenvalues(penalty, np.linalg.eigvalsh(new), s))
                    assert after >= before - 1e-8
                    u = new

    def test_nn_penalty_unsupported(self, rng):
        ds = random_dataset(rng, 4, 2)
        problem = WeightedProblem(ds, np.ones(4), penalty=Penalty.nuclear_norm(2.0))
        with pytest.raises(UnsupportedPenaltyError):
            ed_update(problem, np.eye(2))


class TestFaUpdate:
    def test_zero_is_fixed_point(self, rng):
        ds = random_dataset(rng, 5, 3)
        u = fa_update(WeightedProblem(ds, np.ones(5)), np.zeros(3))
        np.testing.assert_allclose(u, np.zeros(3), atol=0)

    def test_matches_direct_arithmetic(self, rng):
        x = rng.standard_normal((3, 2))
        ds = Dataset(x, np.eye(2))
        w = rng.random(3) * 0.9 + 0.1
        u = rng.standard_normal(2)
        # Hand-rolled update; with u'V^{-1}u = q the posterior variance is
        # 1/(1+q) for every observation.
        q = u @ u
        sigma2 = 1.0 / (1.0 + q)
        mu = sigma2 * (x @ u)
        expected = (w * mu) @ x / (w @ (mu**2 + sigma2))
        got = fa_update(WeightedProblem(ds, w), u)
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_unit_quadratic_form_gives_half_variance(self, rng):
        # With u scaled so u'V^{-1}u = 1 the direct-arithmetic oracle built
        # on sigma^2 = 1/2 must agree with the update.
        v = random_psd(rng, 3)
        ds = Dataset(rng.standard_normal((6, 3)), v)
        u = rng.standard_normal(3)
        v_inv = np.linalg.inv(v)
        u /= np.sqrt(u @ v_inv @ u)
        w = np.ones(6)
        mu = 0.5 * (ds.x @ v_inv @ u)
        expected = np.linalg.solve((w @ (mu**2 + 0.5)) * v_inv,
                                   (w * mu) @ ds.x @ v_inv)
        np.testing.assert_allclose(fa_update(WeightedProblem(ds, w), u), expected,
                                   atol=1e-10)

    def test_heteroskedastic_monotone(self, rng):
        ds = random_dataset(rng, 12, 3, shared=False)
        w = rng.random(12) * 0.9 + 0.1
        problem = WeightedProblem(ds, w)
        u = rng.standard_normal(3)
        for _ in range(20):
            new = fa_update(problem, u)
            assert (weighted_loglik(problem, np.outer(new, new))
                    >= weighted_loglik(problem, np.outer(u, u)) - 1e-8)
            u = new


class TestScaledUpdate:
    def test_recovers_generating_scale(self):
        rng = np.random.default_rng(99)
        base = random_psd(rng, 3)
        theta = rng.multivariate_normal(np.zeros(3), 2.0 * base, size=100_000)
        x = theta + rng.standard_normal((100_000, 3))
        ds = Dataset(x, np.eye(3))
        problem = WeightedProblem(ds, np.ones(100_000))
        c = scaled_update(problem, base)
        assert abs(c - 2.0) <= 0.2
        # Grid-search oracle confirms the optimum.
        grid = np.linspace(max(c - 0.5, 1e-6), c + 0.5, 101)
        phi = [weighted_loglik(problem, g * base) for g in grid]
        assert weighted_loglik(problem, c * base) >= max(phi) - 1e-6

    def test_zero_data_gives_zero(self, rng):
        ds = Dataset(np.zeros((10, 2)), np.eye(2))
        c = scaled_update(WeightedProblem(ds, np.ones(10)), random_psd(rng, 2))
        assert c == 0.0

    def test_local_optimality(self, rng):
        ds = random_dataset(rng, 50, 2)
        base = random_psd(rng, 2)
        problem = WeightedProblem(ds, rng.random(50) * 0.9 + 0.1)
        c = scaled_update(problem, base)
        phi_c = weighted_loglik(problem, c * base)
        for bump in (1 + 1e-3, 1 - 1e-3):
            assert phi_c >= weighted_loglik(problem, c * bump * base) - 1e-10


    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("singular", [True, False])
    def test_shared_and_per_observation_noise_agree(self, rng, dim, singular):
        # The shared-noise path works in a whitened, diagonalized basis; the
        # same noise repeated per observation goes through component_loglik.
        ds = random_dataset(rng, 80, dim)
        stacked = Dataset(ds.x, np.repeat(ds.noise[None], ds.n_obs, axis=0))
        base = np.ones((dim, dim)) if singular else random_psd(rng, dim)
        w = rng.random(80) * 0.9 + 0.1
        shared, per_obs = WeightedProblem(ds, w), WeightedProblem(stacked, w)
        c_shared = scaled_update(shared, base)
        c_per_obs = scaled_update(per_obs, base)
        np.testing.assert_allclose(c_shared, c_per_obs, rtol=1e-6)
        np.testing.assert_allclose(weighted_loglik(shared, c_shared * base),
                                   weighted_loglik(per_obs, c_per_obs * base), rtol=1e-9)
        f = solvers.scaled_objective(shared, base)
        grid = np.array([0.0, 0.5 * c_shared, c_shared, 10.0 * c_shared])
        expected = [weighted_loglik(per_obs, c * base) for c in grid]
        np.testing.assert_allclose(f(grid), expected, rtol=1e-12)
        np.testing.assert_allclose([f(c) for c in grid], expected, rtol=1e-12)


class TestScaleFactorUpdate:
    def test_multiple_of_identity(self):
        for c in (0.3, 1.0, 7.5):
            u = c * np.eye(4)
            assert scale_factor_update(u, Penalty.inverse_wishart(2.0)) == pytest.approx(c)
            assert scale_factor_update(u, Penalty.nuclear_norm(2.0)) == pytest.approx(c)

    def test_no_penalty_gives_one(self, rng):
        assert scale_factor_update(random_psd(rng, 3), Penalty.none()) == 1.0

    def test_eigenvalues_one_and_four(self):
        u = np.diag([1.0, 4.0])
        s_iw = scale_factor_update(u, Penalty.inverse_wishart(3.0))
        s_nn = scale_factor_update(u, Penalty.nuclear_norm(3.0))
        assert s_iw == pytest.approx(1.6, abs=1e-12)
        assert s_nn == pytest.approx(2.0, abs=1e-12)
        # Grid-search oracle over s in (0, 20].
        grid = np.arange(1e-5, 20.0, 1e-5)
        for penalty, s_hat in ((Penalty.inverse_wishart(3.0), s_iw),
                               (Penalty.nuclear_norm(3.0), s_nn)):
            vals = [penalty_from_eigenvalues(penalty, np.array([1.0, 4.0]), s)
                    for s in (s_hat, grid[0], grid[-1])]
            # Vectorized penalty over the grid.
            e = np.array([1.0, 4.0])
            pen = np.empty_like(grid)
            for i in (0,):  # compute in one vector pass
                ratio = e[None, :] / grid[:, None]
                if penalty.kind == "iw":
                    pen = 0.5 * penalty.lam * (np.log(ratio) + 1.0 / ratio).sum(axis=1)
                else:
                    pen = 0.25 * penalty.lam * (ratio + 1.0 / ratio).sum(axis=1)
            assert abs(grid[np.argmin(pen)] - s_hat) <= 2e-5
            assert vals[0] <= pen.min() + 1e-12

    def test_random_matrices_match_grid(self, rng):
        for _ in range(50):
            u = random_psd(rng, int(rng.integers(2, 5)), scale=rng.uniform(0.2, 5.0))
            e = np.linalg.eigvalsh(u)
            for penalty in (Penalty.inverse_wishart(1.0), Penalty.nuclear_norm(1.0)):
                s_hat = scale_factor_update(u, penalty)
                grid = np.geomspace(s_hat / 10, s_hat * 10, 20001)
                ratio = e[None, :] / grid[:, None]
                if penalty.kind == "iw":
                    pen = (np.log(ratio) + 1.0 / ratio).sum(axis=1)
                else:
                    pen = 0.5 * (ratio + 1.0 / ratio).sum(axis=1)
                assert abs(grid[np.argmin(pen)] - s_hat) <= 1e-4 * s_hat

    def test_singular_matrix_rejected(self):
        u = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrixError):
            scale_factor_update(u, Penalty.inverse_wishart(1.0))
        # Flooring first makes it acceptable.
        s = scale_factor_update(solvers.floor_spectrum(u), Penalty.inverse_wishart(1.0))
        assert s > 0


class TestComponentLoglik:
    def test_matches_scipy_density(self, rng):
        from scipy.stats import multivariate_normal

        ds = random_dataset(rng, 6, 3, shared=False)
        cov = random_psd(rng, 3)
        got = component_loglik(ds, cov)
        expected = [multivariate_normal.logpdf(ds.x[j], cov=cov + ds.noise[j])
                    for j in range(6)]
        np.testing.assert_allclose(got, expected, rtol=1e-10)
