import numpy as np
import pytest
from hypothesis import settings

from ebmnm import linalg
from ebmnm.core import Dataset

# Property tests replay the same examples on every run, so a failure is
# reproducible rather than depending on the run's random draws.  Each test
# keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_psd(rng, dim, scale=1.0, ridge=0.1):
    """Well-conditioned random symmetric positive definite matrix."""
    a = rng.standard_normal((dim, dim))
    m = (a @ a.T) / dim + ridge * np.eye(dim)
    return scale * 0.5 * (m + m.T)


def random_dataset(rng, n, dim, shared=True, noise_scale=1.0):
    """Random dataset with x drawn from a one-component model."""
    u = random_psd(rng, dim, scale=2.0)
    if shared:
        v = random_psd(rng, dim, scale=noise_scale)
        noise = v
        theta = rng.multivariate_normal(np.zeros(dim), u, size=n)
        x = theta + rng.multivariate_normal(np.zeros(dim), v, size=n)
    else:
        noise = np.stack([random_psd(rng, dim, scale=noise_scale) for _ in range(n)])
        theta = rng.multivariate_normal(np.zeros(dim), u, size=n)
        x = theta + np.stack(
            [rng.multivariate_normal(np.zeros(dim), noise[j]) for j in range(n)]
        )
    return Dataset(x, noise)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def counts(monkeypatch):
    """Calls of the factorizing ``linalg`` helpers made while the test runs."""
    calls = {"cholesky_with_jitter": 0, "solve_psd": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    return calls
