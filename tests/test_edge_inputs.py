"""Malformed inputs give a typed error, never a NaN or a jitter-repaired number.

A :class:`Dataset` is checked when it is built, so a broken matrix or row
raises there, naming the first offending noise matrix.  A prior whose
dimension is not the data's raises ``DimensionMismatchError`` from every
function that scores data against it.  Valid inputs at the edges (one
observation, one dimension, one component, data at 1e-100 or 1e100) fit
with a monotone trace and summarize to finite numbers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_psd
from ebmnm import mixture, posterior, sim, solvers
from ebmnm.core import Dataset, FitConfig, MixturePrior, Penalty
from ebmnm.exceptions import (
    DimensionMismatchError,
    EmptyDataError,
    MalformedInputError,
    NotPositiveDefiniteError,
)

BREAKS = ("nan_x", "inf_x", "nan_noise", "inf_noise", "asymmetric", "indefinite",
          "singular", "zero_rows")


def _noise(rng, n, r, shared):
    if shared:
        return random_psd(rng, r)
    return np.stack([random_psd(rng, r) for _ in range(n)])


def _broken_matrix(kind, r, i):
    """Identity with diagonal entry ``i`` broken; "asymmetric" needs ``r >= 2``."""
    m = np.eye(r)
    if kind == "asymmetric":
        m[i, (i + 1) % r] = 0.5
    elif kind == "indefinite":
        m[i, i] = -1.0
    elif kind == "singular":
        m[i, i] = 0.0
    return m


@settings(max_examples=150)
@given(n=st.integers(1, 20), shared=st.booleans(), kind=st.sampled_from(BREAKS),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_broken_dataset_raises_when_built(n, shared, kind, data, seed):
    r = data.draw(st.integers(2 if kind == "asymmetric" else 1, 5), label="R")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, r))
    noise = _noise(rng, n, r, shared)
    row = data.draw(st.integers(0, n - 1), label="row")
    entry = data.draw(st.integers(0, r - 1), label="entry")
    if kind == "zero_rows":
        x = x[:0]
        noise = noise if shared else noise[:0]
        expected, message = EmptyDataError, "no observations"
    elif kind in ("nan_x", "inf_x"):
        x[row, entry] = np.nan if kind == "nan_x" else -np.inf
        expected, message = MalformedInputError, "x contains non-finite values"
    elif kind in ("nan_noise", "inf_noise"):
        target = noise if shared else noise[row]
        target[entry, entry] = np.nan if kind == "nan_noise" else np.inf
        expected, message = MalformedInputError, "noise contains non-finite values"
    else:
        broken = _broken_matrix(kind, r, entry)
        if shared:
            noise, first = broken, 0
        else:
            # A later matrix is broken too: the error names the first.
            noise[n - 1] = broken
            noise[row] = broken
            first = row
        check = "is not symmetric" if kind == "asymmetric" else "failed the Cholesky check"
        expected, message = NotPositiveDefiniteError, f"noise matrix {first} {check}"
    with pytest.raises(expected, match=message):
        Dataset(x, noise)


def _prior(r, k=2):
    rng = np.random.default_rng(r)
    return MixturePrior(np.full(k, 1.0 / k), np.stack([random_psd(rng, r) for _ in range(k)]))


@settings(max_examples=40)
@given(n=st.integers(1, 20), r=st.integers(1, 5), shared=st.booleans(),
       off=st.sampled_from((-1, 1)), seed=st.integers(0, 2**32 - 1))
def test_prior_of_another_dimension_is_rejected_by_every_scorer(n, r, shared, off, seed):
    other = r + off if r + off >= 1 else r + 1
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.standard_normal((n, r)), _noise(rng, n, r, shared))
    good, bad = _prior(r), _prior(other)
    theta = np.zeros((n, r))
    calls = [
        lambda: posterior.summarize(dataset, bad),
        lambda: mixture.log_likelihood(dataset, bad),
        lambda: mixture.responsibilities(dataset, bad),
        lambda: posterior.posterior_mixture(dataset, bad, n - 1),
        lambda: sim.kl_divergence(dataset, bad, good),
        lambda: sim.kl_divergence(dataset, good, bad),
        lambda: sim.evaluate(dataset, theta, bad, good),
        lambda: sim.evaluate(dataset, theta, good, bad),
        lambda: solvers.component_loglik(dataset, bad.covariances[0]),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatchError, match=f"prior dimension {other} "):
            call()


# (n, R, K, algorithm, penalty, data magnitude s); the noise is s^2 times a PSD matrix.
EDGE_FITS = [
    (1, 3, 3, "ted", Penalty.none(), 1.0),
    (1, 3, 3, "ed", Penalty.none(), 1.0),
    (50, 1, 3, "ted", Penalty.none(), 1.0),
    (50, 1, 3, "ed", Penalty.none(), 1.0),
    (50, 3, 1, "ted", Penalty.none(), 1.0),
    (50, 3, 1, "ed", Penalty.none(), 1.0),
    (60, 3, 3, "ted", Penalty.inverse_wishart(3.0), 1e-100),
    (60, 3, 3, "ted", Penalty.inverse_wishart(3.0), 1e100),
]


@pytest.mark.parametrize("n, r, k, algorithm, penalty, s", EDGE_FITS)
def test_edge_input_fits_are_monotone_and_summarize_finitely(n, r, k, algorithm, penalty, s):
    rng = np.random.default_rng(n + 10 * r + 100 * k)
    noise = random_psd(rng, r)
    theta = rng.multivariate_normal(np.zeros(r), random_psd(rng, r, 3.0), size=n)
    x = theta + rng.multivariate_normal(np.zeros(r), noise, size=n)
    dataset = Dataset(s * x, s * s * noise)
    init = mixture.random_init(r, k, seed=5)
    init = MixturePrior(init.weights, s * s * init.covariances, init.scales, init.constraints)
    result = mixture.fit(dataset, init, FitConfig(algorithm, penalty, max_iterations=30,
                                                  tolerance=1e-12))
    objective = result.trace.objective
    assert np.all(np.isfinite(objective))
    assert np.diff(objective).min() >= -1e-12 * np.abs(objective).max()
    summary = posterior.summarize(dataset, result.prior)
    for values in (summary.mean / s, summary.sd / s, summary.lfsr):
        assert values.shape == (n, r) and np.all(np.isfinite(values))
