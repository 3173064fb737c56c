"""Posterior inference under a fitted prior.

Each observation's posterior is an exact mixture of multivariate normals:
component ``k`` has weight equal to its responsibility, mean
``U_k (U_k + V_j)^{-1} x_j`` and covariance ``U_k - U_k (U_k + V_j)^{-1} U_k``.
From these we compute posterior means, standard deviations and the local
false sign rate (lfsr), the smaller of the posterior probabilities that a
coordinate is >= 0 or <= 0.

The covariances are prepared against the noise once
(:func:`ebmnm.solvers.prepare_components`), and the same set gives the
responsibilities and the moments.  Both kinds of noise use one formula: the
means are ``U_k (U_k + V_j)^{-1} x_j`` and the covariance is
``U_k (U_k + V_j)^{-1} V_j``, equal to the one above.  For a shared noise the
inverse comes from the whitened eigenbasis of ``U_k`` and every observation
shares the covariance, so nothing is factored beyond the noise;
per-observation noise factors the stack ``U_k + V_j``.  Both products keep
the rows of ``U_k``, so a coordinate where ``U_k`` has a zero row gets an
exactly zero mean and variance under either kernel.  Rounding can leave a
variance slightly below zero; the summaries clamp it at zero.
``posterior_mixture`` is the same computation on a one-row slice, which
reuses the parent dataset's Cholesky factor of a shared noise.

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

from . import mixture, solvers
from .core import Dataset, MixturePrior, _observation


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


def posterior_mixture(dataset: Dataset, prior: MixturePrior, j: int) -> PosteriorMixture:
    """Exact posterior mixture for observation ``j``; a negative ``j`` counts from the end.

    Raises ``DimensionMismatchError`` if the prior's dimension is not the data's.
    """
    single = solvers.prepare_components(_observation(dataset, j), prior.covariances)
    weights = mixture._responsibilities_from(prior.weights, single.log_densities())[0]
    moments = [single.posterior_moments(k) for k in range(prior.n_components)]
    means = np.stack([m[0] for m, _ in moments])
    covs = np.stack([c[0] for _, c in moments])
    return PosteriorMixture(weights, means, covs)


def _one_sided(means: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(theta >= 0) and P(theta <= 0) for normals broadcast over ``means``.

    ``variances`` broadcasts against ``means``; nonpositive variances are
    point masses, with mass at exactly zero counted on both sides.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = means / np.sqrt(variances)
    spread = variances > 0
    return np.where(spread, ndtr(ratio), means >= 0), np.where(spread, ndtr(-ratio), means <= 0)


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
    marginals.  Raises ``DimensionMismatchError`` if the prior's dimension is
    not the data's.
    """
    return _summary(solvers.prepare_components(dataset, prior.covariances), prior.weights)


def _summary(components, weights: np.ndarray) -> PosteriorSummary:
    """:func:`summarize` from a :func:`~ebmnm.solvers.prepare_components` set."""
    resp = mixture._responsibilities_from(weights, components.log_densities())
    n, r = components.dataset.x.shape
    mean = np.zeros((n, r))
    second = np.zeros((n, r))
    pos = np.zeros((n, r))
    neg = np.zeros((n, r))
    for k in range(len(weights)):
        means_k, cov_k = components.posterior_moments(k)
        var_k = np.maximum(np.diagonal(cov_k, axis1=1, axis2=2), 0.0)   # (m, R)
        wk = resp[:, k][:, None]
        mean += wk * means_k
        second += wk * (var_k + means_k**2)
        p, q = _one_sided(means_k, var_k)
        pos += wk * p
        neg += wk * q
    variance = np.maximum(second - mean**2, 0.0)
    return PosteriorSummary(mean=mean, sd=np.sqrt(variance), lfsr=np.minimum(pos, neg))


# Table rows formatted by one ``%`` operation; bounds the memory held at once.
SUMMARY_BLOCK_ROWS = 2048


def save_summary(summary: PosteriorSummary, dataset: Dataset, path) -> None:
    """Write one CSV row per (observation, coordinate) pair.

    Values are written with ``%.17g``, so they read back exactly.
    """
    r = summary.mean.shape[1]
    columns = [dataset.x.ravel(), summary.mean.ravel(), summary.sd.ravel(),
               summary.lfsr.ravel()]
    with open(path, "w") as fh:
        fh.write("observation,coordinate,x,posterior_mean,posterior_sd,lfsr\n")
        for start in range(0, summary.mean.size, SUMMARY_BLOCK_ROWS):
            cell = np.arange(start, min(start + SUMMARY_BLOCK_ROWS, summary.mean.size))
            # Indices travel as floats (exact below 2^53) and print through %d.
            block = np.column_stack([cell // r, cell % r]
                                    + [c[cell[0]:cell[-1] + 1] for c in columns])
            fh.write("%d,%d,%.17g,%.17g,%.17g,%.17g\n" * len(block) % tuple(block.ravel().tolist()))
