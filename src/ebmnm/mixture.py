"""The outer EM loop: responsibilities, weight, covariance and scale updates.

One iteration computes the responsibility of every component for every
observation, re-estimates the mixture weights by averaging them, then updates
each component's covariance (dispatching on its constraint and the chosen
algorithm) and its penalty scale factor.  The penalized log-likelihood is
recorded after every iteration and never decreases, up to a small numerical
slack, for every supported configuration.

The whitener that measures the ``ted`` penalty is the one cached on the
:class:`~ebmnm.core.Dataset`, so ``V`` is factored once per dataset.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import linalg, solvers
from .core import (
    ComponentConstraint,
    Dataset,
    FitConfig,
    FitTrace,
    MixturePrior,
    Penalty,
    validate_dataset,
)

# Components whose total responsibility falls below this are left untouched.
DEAD_COMPONENT_WEIGHT = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Fitted prior plus the per-iteration trace and the config that ran."""

    prior: MixturePrior
    trace: FitTrace
    config: FitConfig


def _component_log_densities(dataset: Dataset, covariances) -> np.ndarray:
    """Matrix of ``log N(x_j; 0, U_k + V_j)`` with shape (n, K)."""
    n = dataset.n_obs
    out = np.empty((n, len(covariances)))
    for k, cov in enumerate(covariances):
        out[:, k] = solvers.component_loglik(dataset, cov)
    return out


def _log_likelihood_from(weights: np.ndarray, log_dens: np.ndarray) -> float:
    """Exactly summed ``log sum_k pi_k N_jk`` from log-densities ``(n, K)``."""
    with np.errstate(divide="ignore"):
        per_obs = logsumexp(np.log(weights)[None, :] + log_dens, axis=1)
    return math.fsum(per_obs.tolist())


def _responsibilities_from(weights: np.ndarray, log_dens: np.ndarray) -> np.ndarray:
    """Normalized ``pi_k N_jk`` from log-densities ``(n, K)``."""
    with np.errstate(divide="ignore"):
        logw = np.log(weights)[None, :] + log_dens
    return np.exp(logw - logsumexp(logw, axis=1, keepdims=True))


def log_likelihood(dataset: Dataset, prior: MixturePrior) -> float:
    """Marginal log-likelihood of the data under the mixture prior.

    Computed in log space with log-sum-exp stabilization across components
    and an exactly-rounded sum over observations, so duplicated observations
    contribute exactly additively.
    """
    return _log_likelihood_from(prior.weights,
                                _component_log_densities(dataset, prior.covariances))


def responsibilities(dataset: Dataset, prior: MixturePrior) -> np.ndarray:
    """Posterior component membership probabilities, shape (n, K).

    Row ``j`` is proportional to ``pi_k N(x_j; 0, U_k + V_j)`` and sums
    to one.
    """
    return _responsibilities_from(prior.weights,
                                  _component_log_densities(dataset, prior.covariances))


def random_init(dim: int, n_components: int, seed,
                constraints: tuple[ComponentConstraint, ...] | None = None) -> MixturePrior:
    """Random starting prior: uniform weights, unit scales.

    Free components draw ``U = A A^T + 0.1 I`` with standard normal ``A``;
    rank-1 components draw a standard normal vector; scaled components start
    at their base matrix.  Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    if constraints is None:
        constraints = tuple(ComponentConstraint.free() for _ in range(n_components))
    if len(constraints) != n_components:
        raise ValueError("need one constraint per component")
    covs = np.empty((n_components, dim, dim))
    for k, constraint in enumerate(constraints):
        if constraint.kind == "free":
            a = rng.standard_normal((dim, dim))
            covs[k] = linalg.sym(a @ a.T) + 0.1 * np.eye(dim)
        elif constraint.kind == "rank1":
            u = rng.standard_normal(dim)
            covs[k] = np.outer(u, u)
        else:
            covs[k] = constraint.base
    weights = np.full(n_components, 1.0 / n_components)
    return MixturePrior(weights, covs, np.ones(n_components), constraints)


class _State:
    """Mutable fit state; condensed back into a MixturePrior at the end."""

    def __init__(self, prior: MixturePrior):
        self.weights = prior.weights.copy()
        self.covariances = [u.copy() for u in prior.covariances]
        self.scales = prior.scales.copy()
        self.constraints = prior.constraints

    def to_prior(self) -> MixturePrior:
        return MixturePrior(
            self.weights, np.stack(self.covariances), self.scales, self.constraints
        )


def _rank1_vector(cov: np.ndarray) -> np.ndarray:
    es = linalg.eigh_descending(cov)
    return np.sqrt(max(es.values[0], 0.0)) * es.vectors[:, 0]


def _penalty_total(state: _State, penalty: Penalty, whitener: np.ndarray | None) -> float:
    """Sum of ``rho(U_k / s_k)`` over penalized (free) components.

    ``whitener`` transforms each covariance into the metric the penalty is
    measured in (the noise-whitened basis for ted, identity otherwise).
    """
    if not penalty.active:
        return 0.0
    total = 0.0
    for cov, scale, constraint in zip(state.covariances, state.scales, state.constraints):
        if constraint.kind != "free":
            continue
        mat = cov if whitener is None else whitener @ cov @ whitener.T
        total += solvers.penalty_value(penalty, mat, scale)
    return total


def _update_component(dataset: Dataset, state: _State, k: int, resp_k: np.ndarray,
                      free_algorithm: str, rank1_algorithm: str, penalty: Penalty,
                      whitener: np.ndarray | None) -> None:
    constraint = state.constraints[k]
    if constraint.kind == "scaled":
        problem = solvers.WeightedProblem(dataset, resp_k, state.scales[k])
        old = state.covariances[k]
        new = scaled_update_guarded(problem, constraint.base, old)
        state.covariances[k] = new
        return
    if constraint.kind == "rank1":
        problem = solvers.WeightedProblem(dataset, resp_k, state.scales[k])
        if rank1_algorithm == "fa":
            u = solvers.fa_update(problem, _rank1_vector(state.covariances[k]))
            state.covariances[k] = np.outer(u, u)
        else:
            state.covariances[k] = solvers.ted_rank1_update(problem)
        return
    problem = solvers.WeightedProblem(dataset, resp_k, state.scales[k], penalty)
    if free_algorithm == "ted":
        state.covariances[k] = solvers.ted_update(problem)
    else:
        state.covariances[k] = solvers.ed_update(problem, state.covariances[k])
    if penalty.active:
        mat = state.covariances[k]
        if whitener is not None:
            mat = whitener @ mat @ whitener.T
        state.scales[k] = solvers.scale_factor_update(solvers.floor_spectrum(mat), penalty)


def scaled_update_guarded(problem: solvers.WeightedProblem, base: np.ndarray,
                          current: np.ndarray) -> np.ndarray:
    """Scaled-constraint update that never moves to a worse objective."""
    c = solvers.scaled_update(problem, base)
    new = c * base
    if solvers.weighted_loglik(problem, new) >= solvers.weighted_loglik(problem, current):
        return new
    return current


def _em_phase(dataset: Dataset, state: _State, free_algorithm: str, rank1_algorithm: str,
              penalty: Penalty, max_iterations: int, tolerance: float | None,
              trace: list | None, t0: float,
              log_dens: np.ndarray | None = None) -> tuple[bool, int, np.ndarray]:
    """Run EM iterations in place.

    ``log_dens``, if given, must be the component log-densities of the
    current state.  Returns (converged, iterations run, log-densities of
    the final state).
    """
    n = dataset.n_obs
    whitener = None
    if penalty.active and free_algorithm == "ted":
        whitener = dataset.noise_whitener

    def objective(log_dens):
        return _log_likelihood_from(state.weights, log_dens) - \
            _penalty_total(state, penalty, whitener)

    if log_dens is None:
        log_dens = _component_log_densities(dataset, state.covariances)
    previous = None
    if trace is not None:
        previous = objective(log_dens)
        trace.append((0, previous, time.perf_counter() - t0))
    converged = False
    iteration = 0
    while iteration < max_iterations:
        resp = _responsibilities_from(state.weights, log_dens)
        new_weights = resp.sum(axis=0) / n
        state.weights = new_weights / new_weights.sum()
        for k in range(len(state.covariances)):
            # Dead components (negligible weight or responsibility mass) keep
            # their covariance and scale untouched.
            if state.weights[k] < DEAD_COMPONENT_WEIGHT or \
                    resp[:, k].sum() < DEAD_COMPONENT_WEIGHT:
                continue
            _update_component(dataset, state, k, resp[:, k], free_algorithm,
                              rank1_algorithm, penalty, whitener)
        iteration += 1
        log_dens = _component_log_densities(dataset, state.covariances)
        if trace is not None:
            current = objective(log_dens)
            trace.append((iteration, current, time.perf_counter() - t0))
            if tolerance is not None and current - previous < tolerance:
                converged = True
                break
            previous = current
    return converged, iteration, log_dens


def fit(dataset: Dataset, init: MixturePrior, config: FitConfig) -> FitResult:
    """Fit the mixture prior by penalized maximum likelihood.

    Starting from ``init``, optionally runs ``config.warm_start_iterations``
    EM ("ed") iterations, then iterates the configured algorithm until the
    objective gain between successive iterations falls below
    ``config.tolerance`` or ``config.max_iterations`` is reached.  The trace
    covers the main phase only (entry 0 is the post-warm-start objective).

    Parameters
    ----------
    dataset : Dataset
        Observations with known noise covariances.
    init : MixturePrior
        Starting point; its constraints determine each component's update.
    config : FitConfig
        Algorithm, penalty and convergence controls; validated against the
        dataset and init.
    """
    validate_dataset(dataset)
    config.validate_for(dataset, init)
    state = _State(init)
    t0 = time.perf_counter()
    log_dens = None
    if config.warm_start_iterations > 0:
        # ed has no closed form under the nuclear-norm penalty; warm starts
        # for nn configurations run unpenalized.
        warm_penalty = config.penalty if config.penalty.kind != "nn" else Penalty.none()
        _, _, log_dens = _em_phase(dataset, state, "ed", config.algorithm, warm_penalty,
                                   config.warm_start_iterations, None, None, t0)
    records: list = []
    converged, iterations, _ = _em_phase(
        dataset, state, config.algorithm, config.algorithm, config.penalty,
        config.max_iterations, config.tolerance, records, t0, log_dens,
    )
    its, objs, secs = zip(*records)
    trace = FitTrace(np.array(its), np.array(objs), np.array(secs), converged, iterations)
    return FitResult(state.to_prior(), trace, config)


def save_trace(trace: FitTrace, path) -> None:
    """Write the trace as CSV with columns iteration, objective, seconds."""
    with open(path, "w") as fh:
        fh.write("iteration,objective,seconds\n")
        for it, obj, sec in zip(trace.iterations, trace.objective, trace.seconds):
            fh.write(f"{it},{obj:.17g},{sec:.6f}\n")
