"""Simulation scenarios and evaluation metrics.

Two data-generating scenarios, both with 10 components, uniform mixture
weights and unit (identity) noise:

* ``hybrid`` -- three structured covariances (a single active coordinate, an
  equal-effects pattern and an independent-effects pattern, all at scale 5)
  plus seven inverse-Wishart draws;
* ``rank1`` -- five single-coordinate patterns plus five random rank-1
  outer products.

Evaluation compares a fitted prior against the generating one through the
average predictive log-density gap on held-out data (an approximation of the
KL divergence, zero for the generating prior itself) and through sign-based
error rates of the posterior means at an lfsr threshold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg, mixture
from .core import ComponentConstraint, Dataset, MixturePrior
from .exceptions import DimensionMismatchError, InvalidScenarioError
from .posterior import PosteriorSummary

SCENARIOS = ("hybrid", "rank1")
EFFECT_SCALE = 5.0


@dataclass(frozen=True)
class Scenario:
    """Data-generation settings: scenario kind, sizes, dimension and seed."""

    kind: str
    n: int
    dim: int
    seed: int
    n_test: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIOS:
            raise InvalidScenarioError(f"unknown scenario {self.kind!r}")
        if self.n < 1:
            raise InvalidScenarioError("n must be at least 1")
        if self.n_test < 0:
            raise InvalidScenarioError("n_test must be nonnegative")
        if self.dim < 1:
            raise InvalidScenarioError("dimension must be at least 1")
        if self.seed < 0:
            raise InvalidScenarioError(f"seed must be nonnegative, got {self.seed}")
        if self.kind == "rank1" and self.dim < 5:
            raise InvalidScenarioError(
                "the rank1 scenario requires dimension R >= 5 (it uses the first "
                "five coordinate axes)"
            )


@dataclass(frozen=True)
class GroundTruth:
    """Generating prior plus the latent means of the train and test sets.

    ``labels`` records which mixture component produced each latent mean.
    """

    prior: MixturePrior
    theta: np.ndarray                # (n, R)
    labels: np.ndarray               # (n,)
    test: Dataset | None = None
    theta_test: np.ndarray | None = None
    labels_test: np.ndarray | None = None


@dataclass(frozen=True)
class EvalReport:
    """Evaluation metrics of a fitted prior against the ground truth."""

    kl_divergence: float
    empirical_fsr: float
    significant_count: int
    threshold: float
    curve: np.ndarray                # rows (threshold, power, fsr)

    def to_json(self) -> str:
        doc = {
            "kl_divergence": self.kl_divergence,
            "empirical_fsr": self.empirical_fsr,
            "significant_count": self.significant_count,
            "threshold": self.threshold,
            "curve": [
                {"threshold": t, "power": p, "fsr": f}
                for t, p, f in self.curve
            ],
        }
        return json.dumps(doc, indent=2)


def sample_inverse_wishart(rng: np.random.Generator, scale: np.ndarray,
                           dof: float) -> np.ndarray:
    """Draw from the inverse-Wishart with the given scale matrix.

    Uses the Bartlett construction: a Wishart draw with the inverted scale is
    built from a triangular factor with chi-square diagonal, then inverted.
    The mean is ``scale / (dof - R - 1)`` when that exists.
    """
    r = scale.shape[0]
    if dof < r:
        raise InvalidScenarioError(f"inverse-Wishart needs dof >= {r}, got {dof}")
    lower = np.linalg.cholesky(np.linalg.inv(scale))
    bartlett = np.zeros((r, r))
    bartlett[np.diag_indices(r)] = np.sqrt(rng.chisquare(dof - np.arange(r)))
    idx = np.tril_indices(r, -1)
    bartlett[idx] = rng.standard_normal(len(idx[0]))
    factor = lower @ bartlett                     # Wishart draw = factor factor^T
    inv_factor = scipy.linalg.solve_triangular(factor, np.eye(r), lower=True)
    return linalg.sym(inv_factor.T @ inv_factor)


def _scenario_components(scenario: Scenario, rng: np.random.Generator):
    """Per-component (covariance, factor) pairs with U = F F^T.

    Covariances of the structured components are built exactly; the thin
    factors used for sampling keep exact zeros in inactive coordinates.
    """
    r = scenario.dim
    root = np.sqrt(EFFECT_SCALE)

    def axis_component(k):
        cov = np.zeros((r, r))
        cov[k, k] = EFFECT_SCALE
        factor = np.zeros((r, 1))
        factor[k, 0] = root
        return cov, factor

    pairs = []
    if scenario.kind == "hybrid":
        pairs.append(axis_component(0))                                # one active coordinate
        pairs.append((np.full((r, r), EFFECT_SCALE), np.full((r, 1), root)))  # equal effects
        pairs.append((EFFECT_SCALE * np.eye(r), root * np.eye(r)))     # independent effects
        for _ in range(7):
            draw = sample_inverse_wishart(rng, EFFECT_SCALE * np.eye(r), r + 2)
            pairs.append((draw, np.linalg.cholesky(draw)))
    else:
        for k in range(5):
            pairs.append(axis_component(k))
        for _ in range(5):
            u = rng.standard_normal((r, 1))
            pairs.append((u @ u.T, u))
    return pairs


def _draw_means(rng: np.random.Generator, factors, weights, count: int,
                dim: int) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.choice(len(factors), size=count, p=weights)
    theta = np.zeros((count, dim))
    for k, factor in enumerate(factors):
        members = np.flatnonzero(labels == k)
        if members.size:
            theta[members] = rng.standard_normal((members.size, factor.shape[1])) @ factor.T
    return theta, labels


def generate(scenario: Scenario) -> tuple[Dataset, GroundTruth]:
    """Simulate a dataset (and optional test set) from the scenario.

    Deterministic given the scenario seed: regenerating is bit-identical.
    """
    rng = np.random.default_rng(scenario.seed)
    pairs = _scenario_components(scenario, rng)
    factors = [f for _, f in pairs]
    k = len(pairs)
    weights = np.full(k, 1.0 / k)
    covs = np.stack([linalg.sym(cov) for cov, _ in pairs])
    prior = MixturePrior(weights, covs, np.ones(k),
                         tuple(ComponentConstraint.free() for _ in range(k)))
    eye = np.eye(scenario.dim)
    theta, labels = _draw_means(rng, factors, weights, scenario.n, scenario.dim)
    x = theta + rng.standard_normal(theta.shape)
    train = Dataset(x, eye)
    test = None
    theta_test = None
    labels_test = None
    if scenario.n_test > 0:
        theta_test, labels_test = _draw_means(rng, factors, weights, scenario.n_test,
                                              scenario.dim)
        test = Dataset(theta_test + rng.standard_normal(theta_test.shape), eye)
    return train, GroundTruth(prior=prior, theta=theta, labels=labels, test=test,
                              theta_test=theta_test, labels_test=labels_test)


def kl_divergence(test: Dataset, true_prior: MixturePrior,
                  fitted_prior: MixturePrior) -> float:
    """Average predictive log-density gap on the test set.

    ``(1/n) sum_j log[p(x_j | true) / p(x_j | fitted)]``; identically zero
    when the fitted prior is the generating one, nonnegative in expectation.
    Raises ``DimensionMismatchError`` if either prior's dimension is not the
    test set's.
    """
    ll_true = mixture.log_likelihood(test, true_prior)
    ll_fit = mixture.log_likelihood(test, fitted_prior)
    return (ll_true - ll_fit) / test.n_obs


def _sign_errors(summary: PosteriorSummary, theta_true: np.ndarray) -> np.ndarray:
    """True where a significant call at (j, r) would have the wrong sign.

    Exactly-zero true effects count as errors wherever called significant.
    """
    if theta_true.shape != summary.mean.shape:
        raise DimensionMismatchError(
            f"ground truth shape {theta_true.shape} does not match summary "
            f"shape {summary.mean.shape}"
        )
    return (np.sign(summary.mean) != np.sign(theta_true)) | (theta_true == 0)


def empirical_fsr(summary: PosteriorSummary, theta_true: np.ndarray,
                  threshold: float = 0.05) -> tuple[float, int]:
    """Observed false sign rate among tests with lfsr below the threshold.

    Returns ``(fsr, significant_count)``; ``(0.0, 0)`` when nothing is
    significant.  Raises ``DimensionMismatchError`` if ``theta_true`` is not
    the summary's shape.
    """
    wrong = _sign_errors(summary, theta_true)
    significant = summary.lfsr < threshold
    count = int(significant.sum())
    if count == 0:
        return 0.0, 0
    return float(wrong[significant].mean()), count


def default_threshold_grid() -> np.ndarray:
    """Log-spaced lfsr thresholds from 1e-6 to 0.5."""
    return np.geomspace(1e-6, 0.5, 40)


def power_fsr_curve(summary: PosteriorSummary, theta_true: np.ndarray,
                    thresholds: np.ndarray | None = None) -> np.ndarray:
    """Power and false sign rate swept over lfsr thresholds.

    Power is the fraction of truly nonzero effects that are significant with
    the correct sign; rows are ``(threshold, power, fsr)``.
    """
    if thresholds is None:
        thresholds = default_threshold_grid()
    wrong = _sign_errors(summary, theta_true)
    nonzero = theta_true != 0
    denom = int(nonzero.sum())
    rows = []
    for t in np.asarray(thresholds, dtype=float):
        significant = summary.lfsr < t
        count = int(significant.sum())
        fsr = float(wrong[significant].mean()) if count else 0.0
        hits = int((significant & nonzero & ~wrong).sum())
        power = hits / denom if denom else 0.0
        rows.append((float(t), power, fsr))
    return np.array(rows)


def evaluate(test: Dataset, theta_test: np.ndarray, true_prior: MixturePrior,
             fitted_prior: MixturePrior, threshold: float = 0.05,
             thresholds: np.ndarray | None = None) -> EvalReport:
    """Full evaluation of a fitted prior on a held-out test set."""
    from .posterior import summarize

    summary = summarize(test, fitted_prior)
    kl = kl_divergence(test, true_prior, fitted_prior)
    fsr, count = empirical_fsr(summary, theta_test, threshold)
    curve = power_fsr_curve(summary, theta_test, thresholds)
    return EvalReport(kl_divergence=kl, empirical_fsr=fsr, significant_count=count,
                      threshold=threshold, curve=curve)
