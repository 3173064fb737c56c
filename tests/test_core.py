"""Domain types: validation, invariants and serialization round trips."""

import numpy as np
import pytest

from conftest import random_dataset, random_psd
from ebmnm import linalg, mixture, sim
from ebmnm.core import (
    ComponentConstraint,
    Dataset,
    FitConfig,
    MixturePrior,
    Penalty,
    deserialize_prior,
    load_dataset,
    save_dataset,
    serialize_prior,
    validate_dataset,
)
from ebmnm.exceptions import (
    DimensionMismatchError,
    EmptyDataError,
    InvalidConfigError,
    InvariantViolationError,
    MalformedInputError,
    NotPositiveDefiniteError,
    UnsupportedNoiseError,
)


class TestValidateDataset:
    def test_accepts_identity_noise(self):
        ds = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2))
        assert validate_dataset(ds) is ds

    def test_rejects_negative_eigenvalue_noise(self):
        with pytest.raises(NotPositiveDefiniteError):
            validate_dataset(Dataset(np.zeros((2, 2)), np.diag([1.0, -0.1])))

    def test_rejects_inconsistent_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            validate_dataset(Dataset(np.zeros((2, 2)), np.eye(3)))

    def test_rejects_empty_data(self):
        with pytest.raises(EmptyDataError):
            validate_dataset(Dataset(np.zeros((0, 2)), np.eye(2)))

    def test_rejects_asymmetric_noise(self):
        v = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            validate_dataset(Dataset(np.zeros((1, 2)), v))

    def test_rejects_nonfinite_x(self):
        with pytest.raises(MalformedInputError):
            validate_dataset(Dataset(np.array([[np.nan, 0.0]]), np.eye(2)))

    def test_per_observation_noise_count_must_match(self):
        noise = np.stack([np.eye(2)] * 3)
        with pytest.raises(DimensionMismatchError):
            validate_dataset(Dataset(np.zeros((2, 2)), noise))

    @pytest.mark.parametrize("broken, message", [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "noise matrix 3 is not symmetric"),
        (np.diag([1.0, -0.1]), "noise matrix 3 failed the Cholesky check"),
    ])
    def test_reports_first_offending_matrix(self, broken, message):
        noise = np.stack([np.eye(2)] * 6)
        noise[3] = broken
        noise[5] = broken
        with pytest.raises(NotPositiveDefiniteError, match=message):
            validate_dataset(Dataset(np.zeros((6, 2)), noise))

    def test_idempotent(self, rng):
        noise = np.stack([random_psd(rng, 3) for _ in range(4)])
        ds = Dataset(rng.standard_normal((4, 3)), noise)
        assert validate_dataset(validate_dataset(ds)) is ds


class TestSharedNoiseWhitening:
    def test_attributes_match_dense_references(self, rng):
        ds = random_dataset(rng, 50, 4)
        lower = np.linalg.cholesky(ds.noise)
        whitener = np.linalg.inv(lower)
        np.testing.assert_allclose(ds.noise_cholesky, lower, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ds.noise_whitener, whitener, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ds.whitened_x, ds.x @ whitener.T, rtol=0, atol=1e-12)
        # The whitener is the exact triangular inverse of the factor.
        assert np.all(np.triu(ds.noise_whitener, 1) == 0.0)
        assert np.all(np.diag(ds.noise_whitener) == 1.0 / np.diag(ds.noise_cholesky))

    def test_attributes_are_cached_and_read_only(self, rng):
        ds = random_dataset(rng, 10, 3)
        for name in ("noise_cholesky", "noise_whitener", "whitened_x"):
            value = getattr(ds, name)
            assert getattr(ds, name) is value
            with pytest.raises(ValueError):
                value[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["noise_cholesky", "noise_whitener", "whitened_x"])
    def test_per_observation_noise_rejected(self, rng, name):
        ds = random_dataset(rng, 5, 3, shared=False)
        with pytest.raises(UnsupportedNoiseError):
            getattr(ds, name)

    @staticmethod
    def _mixed_fit(ds, seed=2):
        r, k = ds.dim, 4
        constraints = (ComponentConstraint.free(), ComponentConstraint.free(),
                       ComponentConstraint.rank1(), ComponentConstraint.scaled(np.ones((r, r))))
        init = mixture.random_init(r, k, seed, constraints)
        config = FitConfig("ted", Penalty.inverse_wishart(float(r)), max_iterations=8,
                           tolerance=1e-12, warm_start_iterations=2)
        return mixture.fit(ds, init, config)

    def test_fit_factors_the_noise_once(self, rng, monkeypatch):
        ds = random_dataset(rng, 200, 3)
        factored = []
        original = linalg.cholesky_with_jitter

        def counting(a):
            if a is ds.noise:
                factored.append(1)
            return original(a)

        monkeypatch.setattr(linalg, "cholesky_with_jitter", counting)
        self._mixed_fit(ds)
        assert len(factored) == 1

    def test_reused_dataset_fits_like_a_fresh_copy(self, rng):
        ds = random_dataset(rng, 200, 3)
        first, second = self._mixed_fit(ds), self._mixed_fit(ds)
        fresh = self._mixed_fit(Dataset(ds.x.copy(), ds.noise.copy()))
        for result in (first, second):
            np.testing.assert_array_equal(result.trace.objective, fresh.trace.objective)
            np.testing.assert_array_equal(result.prior.covariances, fresh.prior.covariances)
            np.testing.assert_array_equal(result.prior.scales, fresh.prior.scales)


class TestMixturePriorInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([0.6, 0.5]), np.stack([np.eye(2)] * 2))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([1.2, -0.2]), np.stack([np.eye(2)] * 2))

    def test_tiny_negative_eigenvalues_are_clamped(self):
        u = np.diag([1.0, -1e-12])
        prior = MixturePrior(np.array([1.0]), u[None])
        assert np.linalg.eigvalsh(prior.covariances[0]).min() >= 0

    def test_clearly_negative_eigenvalues_are_rejected(self):
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([1.0]), np.diag([1.0, -1e-3])[None])

    def test_asymmetric_covariance_rejected(self):
        u = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([1.0]), u[None])

    def test_rank1_constraint_enforced(self, rng):
        full = random_psd(rng, 3)
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([1.0]), full[None],
                         constraints=(ComponentConstraint.rank1(),))
        u = rng.standard_normal(3)
        prior = MixturePrior(np.array([1.0]), np.outer(u, u)[None],
                             constraints=(ComponentConstraint.rank1(),))
        assert prior.constraints[0].kind == "rank1"

    def test_scaled_constraint_enforced(self, rng):
        base = random_psd(rng, 3)
        constraint = ComponentConstraint.scaled(base)
        MixturePrior(np.array([1.0]), (2.5 * base)[None], constraints=(constraint,))
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([1.0]), random_psd(rng, 3)[None],
                         constraints=(constraint,))

    def test_scales_must_be_positive(self):
        with pytest.raises(InvariantViolationError):
            MixturePrior(np.array([1.0]), np.eye(2)[None], np.array([0.0]))

    def test_exposed_matrices_are_symmetric(self, rng):
        covs = np.stack([random_psd(rng, 4) for _ in range(3)])
        prior = MixturePrior(np.full(3, 1 / 3), covs)
        for u in prior.covariances:
            assert np.max(np.abs(u - u.T)) <= 1e-10 * max(np.max(np.abs(u)), 1e-300)


class TestPenalty:
    def test_strength_required_when_active(self):
        with pytest.raises(InvariantViolationError):
            Penalty("iw", 0.0)
        with pytest.raises(InvariantViolationError):
            Penalty("nn", -1.0)

    def test_strength_ignored_when_none(self):
        assert Penalty("none", 7.0).lam == 0.0


class TestSerialization:
    def test_identity_round_trip(self):
        prior = MixturePrior(np.array([1.0]), np.eye(2)[None], np.array([1.0]))
        back = deserialize_prior(serialize_prior(prior))
        assert np.array_equal(back.weights, prior.weights)
        assert np.array_equal(back.covariances, prior.covariances)
        assert np.array_equal(back.scales, prior.scales)

    def test_simplex_violation_rejected(self):
        prior = MixturePrior(np.array([0.5, 0.5]), np.stack([np.eye(2)] * 2))
        doc = serialize_prior(prior).decode().replace('"pi": [\n    0.5,\n    0.5',
                                                      '"pi": [\n    0.6,\n    0.5')
        with pytest.raises(InvariantViolationError):
            deserialize_prior(doc)

    def test_malformed_json_rejected(self):
        with pytest.raises(MalformedInputError):
            deserialize_prior(b"{not json")
        with pytest.raises(MalformedInputError):
            deserialize_prior(b'{"K": 1}')

    def test_hybrid_prior_round_trip(self):
        _, truth = sim.generate(sim.Scenario("hybrid", n=1, dim=6, seed=7))
        prior = truth.prior
        back = deserialize_prior(serialize_prior(prior))
        assert back.n_components == prior.n_components
        np.testing.assert_allclose(back.weights, prior.weights, rtol=1e-12)
        np.testing.assert_allclose(back.scales, prior.scales, rtol=1e-12)
        np.testing.assert_allclose(back.covariances, prior.covariances, rtol=1e-12)
        assert [c.kind for c in back.constraints] == [c.kind for c in prior.constraints]

    def test_random_priors_round_trip(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 6))
            covs = np.stack([random_psd(rng, dim) for _ in range(k)])
            w = rng.random(k) + 0.1
            prior = MixturePrior(w / w.sum(), covs, rng.random(k) + 0.5)
            back = deserialize_prior(serialize_prior(prior))
            np.testing.assert_allclose(back.covariances, prior.covariances, rtol=1e-12)

    def test_scaled_constraint_round_trip(self, rng):
        base = random_psd(rng, 2)
        prior = MixturePrior(np.array([1.0]), (3.0 * base)[None],
                             constraints=(ComponentConstraint.scaled(base),))
        back = deserialize_prior(serialize_prior(prior))
        assert back.constraints[0].kind == "scaled"
        np.testing.assert_allclose(back.constraints[0].base, base, rtol=1e-12)


class TestDatasetCsv:
    def test_shared_noise_round_trip(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((5, 3)), random_psd(rng, 3))
        save_dataset(ds, tmp_path / "x.csv", tmp_path / "v.csv")
        back = load_dataset(tmp_path / "x.csv", tmp_path / "v.csv")
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.noise, ds.noise)

    def test_per_observation_noise_round_trip(self, tmp_path, rng):
        noise = np.stack([random_psd(rng, 2) for _ in range(4)])
        ds = Dataset(rng.standard_normal((4, 2)), noise)
        save_dataset(ds, tmp_path / "x.csv", tmp_path / "v.csv")
        back = load_dataset(tmp_path / "x.csv", tmp_path / "v.csv")
        assert not back.shared_noise
        assert np.array_equal(back.noise, noise)

    def test_single_column_round_trip(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((6, 1)), np.array([[2.0]]))
        save_dataset(ds, tmp_path / "x.csv", tmp_path / "v.csv")
        back = load_dataset(tmp_path / "x.csv", tmp_path / "v.csv")
        assert np.array_equal(back.x, ds.x)

    def test_wrong_noise_shape_rejected(self, tmp_path, rng):
        ds = Dataset(rng.standard_normal((4, 2)), np.eye(2))
        save_dataset(ds, tmp_path / "x.csv", tmp_path / "v.csv")
        np.savetxt(tmp_path / "bad.csv", np.eye(3), delimiter=",")
        with pytest.raises(DimensionMismatchError):
            load_dataset(tmp_path / "x.csv", tmp_path / "bad.csv")


class TestFitConfigRules:
    def setup_method(self):
        self.shared = Dataset(np.zeros((3, 2)), np.eye(2))
        self.per_obs = Dataset(np.zeros((3, 2)), np.stack([np.eye(2)] * 3))
        self.free = MixturePrior(np.array([1.0]), np.eye(2)[None])
        self.rank1 = MixturePrior(np.array([1.0]), np.outer([1.0, 2.0], [1.0, 2.0])[None],
                                  constraints=(ComponentConstraint.rank1(),))

    def test_ted_requires_shared_noise(self):
        cfg = FitConfig("ted")
        cfg.validate_for(self.shared, self.free)
        with pytest.raises(InvalidConfigError):
            cfg.validate_for(self.per_obs, self.free)

    def test_fa_accepts_per_observation_noise(self):
        for dataset in (self.shared, self.per_obs):
            FitConfig("fa").validate_for(dataset, self.rank1)
        with pytest.raises(InvalidConfigError, match="ted requires shared noise"):
            FitConfig("ted").validate_for(self.per_obs, self.rank1)

    def test_ed_rejects_rank1(self):
        cfg = FitConfig("ed")
        cfg.validate_for(self.per_obs, self.free)
        with pytest.raises(InvalidConfigError):
            cfg.validate_for(self.shared, self.rank1)

    def test_fa_rejects_free(self):
        with pytest.raises(InvalidConfigError):
            FitConfig("fa").validate_for(self.shared, self.free)

    @pytest.mark.parametrize("value", [None, "0.01", [0.01], True])
    def test_tolerance_of_wrong_type_rejected(self, value):
        with pytest.raises(InvalidConfigError):
            FitConfig("ted", tolerance=value)

    @pytest.mark.parametrize("value", [None, "5", 5.5, np.inf, np.nan, True])
    def test_max_iterations_of_wrong_type_rejected(self, value):
        with pytest.raises(InvalidConfigError):
            FitConfig("ted", max_iterations=value)

    @pytest.mark.parametrize("value", [None, "2", 2.5, False])
    def test_warm_start_iterations_of_wrong_type_rejected(self, value):
        with pytest.raises(InvalidConfigError):
            FitConfig("ted", warm_start_iterations=value)

    def test_numpy_numbers_accepted(self):
        cfg = FitConfig("ted", max_iterations=np.int64(3), tolerance=np.float64(0.5),
                        warm_start_iterations=np.int32(1))
        assert cfg.max_iterations == 3 and cfg.tolerance == 0.5

    def test_whole_number_floats_accepted(self):
        cfg = FitConfig("ted", max_iterations=5.0, warm_start_iterations=np.float64(2.0))
        assert cfg.max_iterations == 5 and cfg.warm_start_iterations == 2

    def test_nn_penalty_requires_ted(self):
        FitConfig("ted", Penalty.nuclear_norm(2.0))
        with pytest.raises(InvalidConfigError):
            FitConfig("ed", Penalty.nuclear_norm(2.0))

    def test_penalties_rejected_with_fa(self):
        with pytest.raises(InvalidConfigError):
            FitConfig("fa", Penalty.inverse_wishart(2.0))

    def test_dimension_agreement(self):
        cfg = FitConfig("ted")
        wrong = MixturePrior(np.array([1.0]), np.eye(3)[None])
        with pytest.raises(InvalidConfigError):
            cfg.validate_for(self.shared, wrong)

    def test_component_count_agreement(self):
        cfg = FitConfig("ted", n_components=2)
        with pytest.raises(InvalidConfigError):
            cfg.validate_for(self.shared, self.free)
