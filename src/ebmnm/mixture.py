"""The outer EM loop: responsibilities, weight, covariance and scale updates.

One iteration computes the responsibility of every component for every
observation, re-estimates the mixture weights by averaging them, then updates
each component's covariance (dispatching on its constraint and the chosen
algorithm) and its penalty scale factor.  The penalized log-likelihood is
recorded after every iteration and never decreases, up to a small numerical
slack, for every supported configuration.

Each iteration prepares the covariances against the noise once
(:func:`ebmnm.solvers.prepare_components`): K stacks of whiteners of
``U_k + V_j``, one per shared noise or one per observation, which give the
log-densities and the next ``ed`` steps for either kind of noise.  With
shared noise they come from one stacked eigendecomposition of the K
whitened covariances, whose spectra also give ``ted`` its penalty and scale
updates in the noise-whitened metric.  ``ed`` with "iw" measures its penalty
in the data metric through one stacked ``eigvalsh``.
One log-sum-exp gives both the objective and the next responsibilities.
Every live component, under either kind of noise, shares one weighted
problem per iteration, one column of responsibilities each, and each kind
of update runs once over its columns (:func:`_update`): one stacked
truncation for ``ted`` and rank-1 ``ted``
(:func:`ebmnm.solvers.truncated_solution`), one stacked ``ed`` step (the
kernel's ``ed_update``) and, for a ``scaled`` component whose whitened base
has one distinct nonzero eigenvalue under shared noise, one vector of exact
multiples (:func:`ebmnm.solvers.scaled_solution`); its whitened base is
decomposed once per fit.  The penalty values and scale updates read the
``(K, R)`` spectra in one call each.  Two kinds of column run alone, each
on its own unpenalized problem: rank-1 components under ``fa`` and the
other ``scaled`` ones, which search.  A ``scaled`` update keeps the current
multiple unless the new one scores higher.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linalg, solvers
from .core import (
    ComponentConstraint,
    Dataset,
    FitConfig,
    FitTrace,
    MixturePrior,
    Penalty,
    validate_dataset,  # unused here; the benchmark trace patches mixture.validate_dataset
)
from .exceptions import InvalidConfigError

# Components whose total responsibility falls below this are left untouched.
DEAD_COMPONENT_WEIGHT = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Fitted prior plus the per-iteration trace and the config that ran."""

    prior: MixturePrior
    trace: FitTrace
    config: FitConfig


def _log_weighted(weights: np.ndarray, log_dens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log pi_k + log N_jk`` ``(n, K)`` and its row log-sum-exp ``(n, 1)``.

    The sum is shifted by each row's maximum (by 0 where that is not
    finite), as ``scipy.special.logsumexp`` does.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(weights)[None, :] + log_dens
    top = logw.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return logw, np.log(np.sum(np.exp(logw - top), axis=1, keepdims=True)) + top


def _log_likelihood_from(weights: np.ndarray, log_dens: np.ndarray) -> float:
    """Exactly summed ``log sum_k pi_k N_jk`` from log-densities ``(n, K)``."""
    return math.fsum(_log_weighted(weights, log_dens)[1].ravel().tolist())


def _responsibilities_from(weights: np.ndarray, log_dens: np.ndarray) -> np.ndarray:
    """Normalized ``pi_k N_jk`` from log-densities ``(n, K)``."""
    logw, total = _log_weighted(weights, log_dens)
    return np.exp(logw - total)


def log_likelihood(dataset: Dataset, prior: MixturePrior) -> float:
    """Marginal log-likelihood of the data under the mixture prior.

    Computed in log space with log-sum-exp stabilization across components
    and an exactly-rounded sum over observations, so duplicated observations
    contribute exactly additively.
    """
    return _log_likelihood_from(
        prior.weights, solvers.prepare_components(dataset, prior.covariances).log_densities())


def responsibilities(dataset: Dataset, prior: MixturePrior) -> np.ndarray:
    """Posterior component membership probabilities, shape (n, K).

    Row ``j`` is proportional to ``pi_k N(x_j; 0, U_k + V_j)`` and sums
    to one.
    """
    return _responsibilities_from(
        prior.weights, solvers.prepare_components(dataset, prior.covariances).log_densities())


def random_init(dim: int, n_components: int, seed,
                constraints: tuple[ComponentConstraint, ...] | None = None) -> MixturePrior:
    """Random starting prior: uniform weights, unit scales.

    Free components draw ``U = A A^T + 0.1 I`` with standard normal ``A``;
    rank-1 components draw a standard normal vector; scaled components start
    at their base matrix.  Deterministic given the seed.  Raises
    ``InvalidConfigError`` for fewer than one component or a constraint
    count other than ``n_components``.
    """
    if n_components < 1:
        raise InvalidConfigError(f"need at least one component, got {n_components}")
    if constraints is None:
        constraints = tuple(ComponentConstraint.free() for _ in range(n_components))
    if len(constraints) != n_components:
        raise InvalidConfigError(
            f"need one constraint per component, got {len(constraints)} for {n_components}")
    rng = np.random.default_rng(seed)
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

    def __init__(self, prior: MixturePrior, dataset: Dataset):
        self.weights = prior.weights.copy()
        self.covariances = [u.copy() for u in prior.covariances]
        self.scales = prior.scales.copy()
        self.constraints = prior.constraints
        self.evaluation = None  # (components, log-densities) of the covariances
        # The whitened base of each scaled component, once per fit; None
        # where its update needs the search.
        self.bases = {k: solvers.single_value_base(dataset, c.base)
                      for k, c in enumerate(prior.constraints) if c.kind == "scaled"}

    def to_prior(self) -> MixturePrior:
        return MixturePrior(
            self.weights, np.stack(self.covariances), self.scales, self.constraints
        )


def _rank1_vector(cov: np.ndarray) -> np.ndarray:
    es = linalg.eigh_descending(cov)
    return np.sqrt(max(es.values[0], 0.0)) * es.vectors[:, 0]


def _penalty_spectra(components, penalty: Penalty, whitened: bool) -> np.ndarray | None:
    """Eigenvalues ``(K, R)`` of each covariance in the penalty's metric.

    The noise-whitened metric (``ted``) reads the spectra the E-step
    already has; the data metric takes one stacked ``eigvalsh``.
    """
    if not penalty.active:
        return None
    if whitened:
        return components.values
    return np.linalg.eigvalsh(linalg.sym(components.covariances))


def _penalty_total(state: _State, penalty: Penalty, spectra: np.ndarray | None) -> float:
    """Sum of ``rho(U_k / s_k)`` over penalized (free) components."""
    if not penalty.active:
        return 0.0
    free = [c.kind == "free" for c in state.constraints]
    return sum(solvers.penalty_from_eigenvalues(penalty, spectra, state.scales)[free].tolist())


def _multiple(state: _State, k: int) -> float:
    """The multiple ``c`` of scaled component ``k``'s base that its covariance holds."""
    base = state.constraints[k].base
    return float(np.sum(state.covariances[k] * base)) / float(np.sum(base * base))


def _update(state: _State, ks: np.ndarray, problem: solvers.WeightedProblem,
            free_algorithm: str, rank1_algorithm: str, components) -> None:
    """Replace the covariances ``ks`` from one problem with a weight column each.

    ``components`` holds the current covariances.  Rank-1 components and,
    under ``ted``, free ones take one stacked truncation; free ones under
    ``ed`` take one stacked ``ed`` step, for either kind of noise; scaled
    ones with a :func:`ebmnm.solvers.single_value_base` take the exact
    multiple of their base.  Two kinds of column run alone, each on its own
    unpenalized problem: rank-1 components under ``fa`` and the other scaled
    ones, which search for their multiple.  ``FitConfig.validate_for`` leaves
    ``ted`` to shared noise, where every truncation and exact multiple runs.
    """
    kinds = np.array([state.constraints[k].kind for k in ks])
    scaled = kinds == "scaled"
    search = scaled & np.array([state.bases.get(k) is None for k in ks])
    fa = (kinds == "rank1") & (rank1_algorithm == "fa")
    ed = (kinds == "free") & (free_algorithm != "ted")
    scaled &= ~search
    ted = ~(scaled | search | fa | ed)
    new = np.empty((len(ks),) + state.covariances[0].shape)
    if ted.any():
        new[ted] = solvers.truncated_solution(problem, (kinds == "rank1")[ted], ted)
    if ed.any():
        new[ed] = components.ed_update(ks[ed], problem, ed)
    if scaled.any():
        c = solvers.scaled_solution(problem, [state.bases[k] for k in ks[scaled]],
                                    [_multiple(state, k) for k in ks[scaled]], scaled)
        new[scaled] = c[:, None, None] * np.stack([state.constraints[k].base for k in ks[scaled]])
    for i in np.flatnonzero(search | fa):
        k = ks[i]
        alone = solvers.WeightedProblem(problem.dataset, problem.weights[:, i])
        if fa[i]:
            u = solvers.fa_update(alone, _rank1_vector(state.covariances[k]))
            new[i] = np.outer(u, u)
        else:
            base = state.constraints[k].base
            new[i] = solvers.scaled_search(alone, base, _multiple(state, k)) * base
    for k, u in zip(ks, new):
        state.covariances[k] = u


def _em_phase(dataset: Dataset, state: _State, free_algorithm: str, rank1_algorithm: str,
              penalty: Penalty, max_iterations: int, tolerance: float | None,
              trace: list | None, t0: float) -> tuple[bool, int]:
    """Run EM iterations in place; returns (converged, iterations run).

    Starts from ``state.evaluation`` when set and leaves the final one there.
    """
    n = dataset.n_obs
    whitened_penalty = free_algorithm == "ted"

    def evaluate():
        components = solvers.prepare_components(dataset, np.stack(state.covariances))
        return components, components.log_densities()

    def objective(log_totals, spectra):
        return math.fsum(log_totals.ravel().tolist()) - _penalty_total(state, penalty, spectra)

    # One log-sum-exp per E-step, for the objective and the next responsibilities.
    components, log_dens = state.evaluation or evaluate()
    logw, log_totals = _log_weighted(state.weights, log_dens)
    previous = None
    if trace is not None:
        previous = objective(log_totals, _penalty_spectra(components, penalty, whitened_penalty))
        trace.append((0, previous, time.perf_counter() - t0))
    converged = False
    iteration = 0
    while iteration < max_iterations:
        resp = np.exp(logw - log_totals)
        new_weights = resp.sum(axis=0) / n
        state.weights = new_weights / new_weights.sum()
        # Dead components (negligible weight or responsibility mass) keep
        # their covariance and scale untouched.
        live = np.flatnonzero((state.weights >= DEAD_COMPONENT_WEIGHT)
                              & (resp.sum(axis=0) >= DEAD_COMPONENT_WEIGHT))
        problem = solvers.WeightedProblem(dataset, resp[:, live], state.scales[live], penalty)
        _update(state, live, problem, free_algorithm, rank1_algorithm, components)
        rescaled = ([k for k in live if state.constraints[k].kind == "free"]
                    if penalty.active else [])
        iteration += 1
        state.evaluation = components = None  # hold one kernel's factors at a time
        components, log_dens = evaluate()
        logw, log_totals = _log_weighted(state.weights, log_dens)
        spectra = _penalty_spectra(components, penalty, whitened_penalty)
        if rescaled:
            state.scales[rescaled] = solvers.scale_factor_from_eigenvalues(
                solvers.floor_eigenvalues(spectra[rescaled]), penalty)
        if trace is not None:
            current = objective(log_totals, spectra)
            trace.append((iteration, current, time.perf_counter() - t0))
            if tolerance is not None and current - previous < tolerance:
                converged = True
                break
            previous = current
    state.evaluation = (components, log_dens)
    return converged, iteration


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
    config.validate_for(dataset, init)
    state = _State(init, dataset)
    t0 = time.perf_counter()
    if config.warm_start_iterations > 0:
        # ed has no closed form under the nuclear-norm penalty; warm starts
        # for nn configurations run unpenalized.
        warm_penalty = config.penalty if config.penalty.kind != "nn" else Penalty.none()
        _em_phase(dataset, state, "ed", config.algorithm, warm_penalty,
                  config.warm_start_iterations, None, None, t0)
    records: list = []
    converged, iterations = _em_phase(
        dataset, state, config.algorithm, config.algorithm, config.penalty,
        config.max_iterations, config.tolerance, records, t0,
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
