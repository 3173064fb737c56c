"""Posterior inference under a fitted prior.

Each observation's posterior is an exact mixture of multivariate normals:
component ``k`` has weight equal to its responsibility, mean
``U_k (U_k + V_j)^{-1} x_j`` and covariance ``U_k - U_k (U_k + V_j)^{-1} U_k``.
From these we compute posterior means, standard deviations and the local
false sign rate (lfsr), the smaller of the posterior probabilities that a
coordinate is >= 0 or <= 0.

The moments run as one batched kernel per component: a stacked Cholesky of
``U_k + V_j`` over the ``(m, R, R)`` noise stack (``m = 1`` shared, ``m = n``
per observation), stacked solves, and a stacked eigendecomposition that
clamps each posterior covariance to PSD on its own.  ``posterior_mixture``
is the same kernel on a one-row slice.

Sign convention at point masses: a component with zero variance and zero
mean at a coordinate contributes its full weight to BOTH one-sided
probabilities (the inequalities are closed), so a posterior that is a pure
point mass at zero reports lfsr = 1.  Values above 0.5 therefore occur
exactly when the posterior puts mass on exactly-zero values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import linalg, mixture
from .core import Dataset, MixturePrior
from .exceptions import DimensionMismatchError


@dataclass(frozen=True)
class PosteriorMixture:
    """Exact posterior of one observation under the mixture prior."""

    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, R)
    covariances: np.ndarray   # (K, R, R)


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-observation, per-coordinate posterior summaries."""

    mean: np.ndarray   # (n, R)
    sd: np.ndarray     # (n, R)
    lfsr: np.ndarray   # (n, R)


def _check_dims(dataset: Dataset, prior: MixturePrior) -> None:
    if prior.dim != dataset.dim:
        raise DimensionMismatchError(
            f"prior dimension {prior.dim} does not match data dimension {dataset.dim}"
        )


def _component_moments(cov: np.ndarray, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means ``(n, R)`` and covariances ``(m, R, R)`` for one component.

    Row ``j`` of the means is ``U (U+V_j)^{-1} x_j``; covariance ``i`` of the
    noise stack is ``U (U+V_i)^{-1} V_i``, clamped to PSD.
    """
    noise = dataset.noise_stack
    r = dataset.dim
    z = linalg.solve_psd(cov + noise, cov)                  # (U+V)^{-1} U
    means = (dataset.x.reshape(len(noise), -1, r) @ z).reshape(-1, r)   # rows U (U+V)^{-1} x_j
    post_cov = linalg.clamp_psd(z.swapaxes(1, 2) @ noise)   # U - U (U+V)^{-1} U = U (U+V)^{-1} V
    return means, post_cov


def posterior_mixture(dataset: Dataset, prior: MixturePrior, j: int) -> PosteriorMixture:
    """Exact posterior mixture for observation ``j``."""
    _check_dims(dataset, prior)
    single = Dataset(dataset.x[j:j + 1], dataset.noise_for(j))
    weights = mixture.responsibilities(single, prior)[0]
    moments = [_component_moments(cov, single) for cov in prior.covariances]
    means = np.stack([m[0] for m, _ in moments])
    covs = np.stack([c[0] for _, c in moments])
    return PosteriorMixture(weights, means, covs)


def _one_sided(means: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(theta >= 0) and P(theta <= 0) for normals broadcast over ``means``.

    ``variances`` broadcasts against ``means``; nonpositive variances are
    point masses, with mass at exactly zero counted on both sides.
    """
    means, variances = np.broadcast_arrays(means, variances)
    pos = np.empty_like(means, dtype=float)
    neg = np.empty_like(means, dtype=float)
    spread = variances > 0
    if np.any(spread):
        ratio = means[spread] / np.sqrt(variances[spread])
        pos[spread] = ndtr(ratio)
        neg[spread] = ndtr(-ratio)
    point = ~spread
    if np.any(point):
        pos[point] = (means[point] >= 0).astype(float)
        neg[point] = (means[point] <= 0).astype(float)
    return pos, neg


def lfsr(pm: PosteriorMixture, coord: int) -> float:
    """Local false sign rate of one coordinate of a posterior mixture.

    The coordinate's marginal is the univariate normal mixture with the
    component means and diagonal variances; returns
    ``min(P(theta >= 0), P(theta <= 0))``.
    """
    means = pm.means[:, coord]
    variances = np.maximum(pm.covariances[:, coord, coord], 0.0)
    pos, neg = _one_sided(means, variances)
    return float(min(pm.weights @ pos, pm.weights @ neg))


def summarize(dataset: Dataset, prior: MixturePrior) -> PosteriorSummary:
    """Posterior mean, standard deviation and lfsr for every observation.

    ``mean`` mixes the component means by responsibility; ``sd`` is the
    mixture standard deviation (negative variances from cancellation clamp
    to zero); ``lfsr`` is computed coordinate-wise from the normal-mixture
    marginals.
    """
    _check_dims(dataset, prior)
    resp = mixture.responsibilities(dataset, prior)
    n, r = dataset.x.shape
    mean = np.zeros((n, r))
    second = np.zeros((n, r))
    pos = np.zeros((n, r))
    neg = np.zeros((n, r))
    for k, cov in enumerate(prior.covariances):
        means_k, cov_k = _component_moments(cov, dataset)
        var_k = np.maximum(np.diagonal(cov_k, axis1=1, axis2=2), 0.0)   # (m, R)
        wk = resp[:, k][:, None]
        mean += wk * means_k
        second += wk * (var_k + means_k**2)
        p, q = _one_sided(means_k, var_k)
        pos += wk * p
        neg += wk * q
    variance = np.maximum(second - mean**2, 0.0)
    return PosteriorSummary(mean=mean, sd=np.sqrt(variance), lfsr=np.minimum(pos, neg))


def save_summary(summary: PosteriorSummary, dataset: Dataset, path) -> None:
    """Write one CSV row per (observation, coordinate) pair."""
    n, r = summary.mean.shape
    with open(path, "w") as fh:
        fh.write("observation,coordinate,x,posterior_mean,posterior_sd,lfsr\n")
        for j in range(n):
            for c in range(r):
                fh.write(
                    f"{j},{c},{dataset.x[j, c]:.17g},{summary.mean[j, c]:.17g},"
                    f"{summary.sd[j, c]:.17g},{summary.lfsr[j, c]:.17g}\n"
                )
