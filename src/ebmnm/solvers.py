"""Single-component covariance updates.

Each function solves (or improves) the weighted problem

    maximize over U:   phi(U; w) - rho(U / s)

where ``phi(U; w) = sum_j w_j log N(x_j; 0, U + V_j)`` and ``rho`` is an
optional eigenvalue penalty.  ``ted_update`` solves the shared-noise problem
exactly by truncating (or penalty-adjusting) the eigenvalues of the
transformed weighted sample covariance; each penalized eigenvalue is the
best positive root of a cubic ("iw") or quartic ("nn") stationarity
polynomial, with no numerical search.  ``ed_update`` and ``fa_update`` are
single EM steps: they never decrease the objective but do not maximize it.
``scaled_update`` handles the one-dimensional problem ``U = c * base``; for
shared noise its objective is diagonal in the basis that whitens the noise
and diagonalizes ``base``, so each evaluation costs O(R).

Log-densities and the ``ed`` step treat the noise as an ``(m, R, R)`` stack
(``m = 1`` shared, ``m = n`` per observation) and run one stacked Cholesky
of ``U + V_j`` plus stacked solves, with no loop over observations; see
:mod:`ebmnm.linalg`.  Per-observation noise costs ``O(n R^2)`` memory per
component; shared noise is never expanded to ``n`` matrices.  The shared
noise itself is factored once per dataset: ``ted``, the ``scaled`` objective
and ``fa`` read the Cholesky factor, the whitener and the whitened rows
cached on :class:`~ebmnm.core.Dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import minimize_scalar

from . import linalg
from .core import Dataset, Penalty
from .exceptions import (
    InvariantViolationError,
    NumericalFailureError,
    SingularMatrixError,
    UnsupportedPenaltyError,
)

# Iteration cap of the bounded 1-d search in ``scaled_update``.
SCALAR_MAXITER = 200
# Relative floor applied to eigenvalues before penalty scale updates.
SPECTRUM_FLOOR_RTOL = 1e-8


@dataclass(frozen=True)
class WeightedProblem:
    """One component's weighted estimation problem.

    ``weights`` are per-observation responsibilities in [0, 1] with positive
    sum; ``scale`` is the component's current penalty scale factor.
    """

    dataset: Dataset
    weights: np.ndarray
    scale: float = 1.0
    penalty: Penalty = Penalty.none()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != self.dataset.n_obs:
            raise InvariantViolationError(
                f"weights must have one entry per observation, got shape {w.shape}"
            )
        if np.any(w < 0) or np.any(w > 1 + 1e-12):
            raise InvariantViolationError("weights must lie in [0, 1]")
        if not (w.sum() > 0):
            raise InvariantViolationError("weights must not all be zero")
        if not (self.scale > 0):
            raise InvariantViolationError("scale must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def component_loglik(dataset: Dataset, cov: np.ndarray) -> np.ndarray:
    """Per-observation log density ``log N(x_j; 0, cov + V_j)``."""
    return linalg.mvn_logpdf_zero_mean(dataset.x, cov + dataset.noise)


def weighted_loglik(problem: WeightedProblem, cov: np.ndarray) -> float:
    """The weighted objective ``phi(cov; w)`` (no penalty term)."""
    return float(problem.weights @ component_loglik(problem.dataset, cov))


def penalty_from_eigenvalues(penalty: Penalty, eigenvalues: np.ndarray, scale: float) -> float:
    """Penalty value ``rho(U / scale)`` from the eigenvalues of ``U``.

    Returns ``+inf`` when any eigenvalue is nonpositive and the penalty is
    active (both penalties diverge at singular matrices).
    """
    if not penalty.active:
        return 0.0
    e = np.asarray(eigenvalues, dtype=float) / scale
    if np.any(e <= 0):
        return np.inf
    if penalty.kind == "iw":
        return 0.5 * penalty.lam * float(np.sum(np.log(e) + 1.0 / e))
    return 0.25 * penalty.lam * float(np.sum(e + 1.0 / e))


def penalty_value(penalty: Penalty, cov: np.ndarray, scale: float) -> float:
    """Penalty value ``rho(cov / scale)``."""
    if not penalty.active:
        return 0.0
    return penalty_from_eigenvalues(penalty, np.linalg.eigvalsh(linalg.sym(cov)), scale)


def floor_spectrum(cov: np.ndarray, rtol: float = SPECTRUM_FLOOR_RTOL) -> np.ndarray:
    """Raise all eigenvalues to at least ``rtol * (spectral radius + 1)``.

    The penalties diverge at zero eigenvalues, so their scale updates need a
    strictly positive spectrum.
    """
    es = linalg.eigh_descending(cov)
    floor = rtol * (max(es.values[0], 0.0) + 1.0)
    if es.values[-1] >= floor:
        return cov
    return es.compose(np.maximum(es.values, floor))


def _refine_scalar_max(f, grid: np.ndarray, values: np.ndarray, xatol: float) -> float:
    """Polish the best grid point of a 1-d maximization with bounded Brent."""
    i = int(np.argmax(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    best_x, best_f = float(grid[i]), float(values[i])
    if hi > lo:
        res = minimize_scalar(
            lambda t: -f(t),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": xatol, "maxiter": SCALAR_MAXITER},
        )
        if np.isfinite(res.fun) and -res.fun > best_f:
            best_x, best_f = float(res.x), float(-res.fun)
    return best_x


def _penalized_stationarity_roots(d_values: np.ndarray, w: float, lam: float, s: float,
                                  iw: bool) -> np.ndarray:
    """Real parts of the roots of ``g'(e) = 0`` with denominators cleared.

    One polynomial per eigenvalue (highest degree first):

    * "iw": ``(W+lam) e^3 + (W(1-d) + lam(2-s)) e^2 + lam(1-2s) e - lam s``
    * "nn": ``lam e^4 + (2Ws + 2lam) e^3 + (2Ws(1-d) + lam(1-s^2)) e^2
      - 2 lam s^2 e - lam s^2``

    The roots of the whole spectrum come from one batched eigenvalue call
    on the stacked companion matrices; shape ``(R, degree)``.
    """
    one = np.ones_like(d_values)
    if iw:
        coeffs = np.stack([(w + lam) * one, w * (1.0 - d_values) + lam * (2.0 - s),
                           lam * (1.0 - 2.0 * s) * one, -lam * s * one], axis=1)
    else:
        coeffs = np.stack([lam * one, (2.0 * w * s + 2.0 * lam) * one,
                           2.0 * w * s * (1.0 - d_values) + lam * (1.0 - s * s),
                           -2.0 * lam * s * s * one, -lam * s * s * one], axis=1)
    deg = coeffs.shape[1] - 1
    companion = np.zeros((len(d_values), deg, deg))
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    return np.linalg.eigvals(companion).real


def solve_penalized_spectrum(d_values: np.ndarray, total_weight: float,
                             penalty: Penalty, scale: float) -> np.ndarray:
    """Penalized eigenvalue solves for a whole spectrum at once.

    In the noise-whitened basis the objective separates across eigenvalues:
    for sample eigenvalue ``d`` the contribution of prior eigenvalue
    ``e >= 0`` is

        g(e) = -(W/2) [log(1 + e) + d / (1 + e)] - pen(e / scale)

    with ``W`` the total weight.  Without a penalty the maximizer is the
    truncation ``max(d - 1, 0)``.  With a penalty the maximizer is a
    positive root of the stationarity polynomial, a cubic for "iw" and a
    quartic for "nn" (see :func:`_penalized_stationarity_roots`); one exists
    because ``g' -> +inf`` as ``e -> 0+`` and ``g' < 0`` for large ``e``.
    The positive root with the largest ``g`` is polished by one Newton step
    on ``g'``, kept only if ``g`` does not fall, so that ulp-identical
    problems agree to machine precision.
    """
    d_values = np.asarray(d_values, dtype=float)
    if not penalty.active:
        return np.maximum(d_values - 1.0, 0.0)
    w, lam, s = total_weight, penalty.lam, scale
    iw = penalty.kind == "iw"

    def g(e, d=d_values):
        with np.errstate(divide="ignore", invalid="ignore"):
            lik = -0.5 * w * (np.log1p(e) + d / (1.0 + e))
            if iw:
                return lik - 0.5 * lam * (np.log(e / s) + s / e)
            return lik - 0.25 * lam * (e / s + s / e)

    roots = _penalized_stationarity_roots(d_values, w, lam, s, iw)
    values = np.where(roots > 0, g(roots, d_values[:, None]), -np.inf)
    e = roots[np.arange(len(d_values)), np.argmax(values, axis=1)]

    u1 = 1.0 + e
    gp = -0.5 * w * (u1 - d_values) / u1**2
    gpp = -0.5 * w * (2.0 * d_values - u1) / u1**3
    if iw:
        gp -= 0.5 * lam * (1.0 / e - s / e**2)
        gpp -= 0.5 * lam * (2.0 * s / e**3 - 1.0 / e**2)
    else:
        gp -= 0.25 * lam * (1.0 / s - s / e**2)
        gpp -= 0.5 * lam * s / e**3
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = e - gp / gpp
    return np.where((newton > 0) & (g(newton) >= g(e)), newton, e)


def solve_penalized_eigenvalue(d: float, total_weight: float, penalty: Penalty,
                               scale: float) -> float:
    """Single-eigenvalue version of :func:`solve_penalized_spectrum`."""
    return float(solve_penalized_spectrum(np.array([d]), total_weight, penalty, scale)[0])


def _whitened_sample_eigensystem(problem: WeightedProblem):
    """Eigendecompose the weighted Gram of the dataset's cached whitened rows.

    Returns the noise Cholesky factor ``L`` and the eigensystem of
    ``sum_j w_j (L^{-1} x_j)(L^{-1} x_j)^T / W``.
    """
    dataset = problem.dataset
    xt = dataset.whitened_x
    w = problem.weights
    s_cov = (xt * w[:, None]).T @ xt / problem.total_weight
    return dataset.noise_cholesky, linalg.eigh_descending(s_cov)


def ted_update(problem: WeightedProblem) -> np.ndarray:
    """Exact solution of the weighted problem for shared noise.

    Unpenalized, this truncates the negative eigenvalues of the whitened
    weighted sample covariance minus the identity; with a penalty each
    eigenvalue solves its own 1-d problem, keeping the sample eigenvectors.
    The result is mapped back to the original coordinates, so an active
    penalty is measured in the noise-whitened metric (it pulls ``U/s``
    toward the noise covariance rather than the identity).
    """
    lower, es = _whitened_sample_eigensystem(problem)
    e = solve_penalized_spectrum(es.values, problem.total_weight, problem.penalty,
                                 problem.scale)
    return linalg.sym(lower @ es.compose(e) @ lower.T)


def ted_rank1_update(problem: WeightedProblem) -> np.ndarray:
    """Exact rank-1-constrained solution for shared noise (no penalty)."""
    if problem.penalty.active:
        raise UnsupportedPenaltyError("penalties are not supported with rank-1 constraints")
    lower, es = _whitened_sample_eigensystem(problem)
    e = np.zeros_like(es.values)
    e[0] = max(es.values[0] - 1.0, 0.0)
    return linalg.sym(lower @ es.compose(e) @ lower.T)


def ed_update(problem: WeightedProblem, current: np.ndarray) -> np.ndarray:
    """One weighted EM covariance step from the ``current`` estimate.

    Averages the per-observation posterior second moments
    ``B_j + b_j b_j^T`` with ``b_j = U (U + V_j)^{-1} x_j`` and
    ``B_j = U - U (U + V_j)^{-1} U``.  With the "iw" penalty the step is the
    penalized closed form ``(sum_j w_j (B_j + b_j b_j^T) + lam * s * I) /
    (W + lam)``.  Never decreases the penalized objective.
    """
    if problem.penalty.kind == "nn":
        raise UnsupportedPenaltyError("the nuclear-norm penalty has no closed-form ed update")
    dataset = problem.dataset
    u = np.asarray(current, dtype=float)
    total = problem.total_weight
    r = dataset.dim
    noise = dataset.noise_stack                          # (m, R, R)
    rows = dataset.x.reshape(len(noise), -1, r)          # (m, n/m, R)
    w = problem.weights.reshape(len(noise), -1, 1)
    z = linalg.solve_psd(u + noise, u)                   # (U+V_j)^{-1} U
    p = z.swapaxes(1, 2)                                 # U (U+V_j)^{-1}
    b_cov = linalg.sym(u - p @ u)
    s_w = (rows * w).swapaxes(1, 2) @ rows               # sum_j w_j x_j x_j^T per matrix
    moment = np.sum(w.sum(axis=1)[:, :, None] * b_cov + p @ s_w @ p.swapaxes(1, 2), axis=0)
    if problem.penalty.active:
        lam = problem.penalty.lam
        new = (moment + lam * problem.scale * np.eye(r)) / (total + lam)
    else:
        new = moment / total
    return linalg.sym(new)


def fa_update(problem: WeightedProblem, current: np.ndarray) -> np.ndarray:
    """One weighted EM step for a rank-1 component ``U = u u^T``.

    Uses the scalar-loading augmentation: with posterior variance
    ``sigma_j^2 = 1 / (1 + u^T V_j^{-1} u)`` and posterior mean
    ``mu_j = sigma_j^2 u^T V_j^{-1} x_j``, the update solves

        u_new = (sum_j w_j (mu_j^2 + sigma_j^2) V_j^{-1})^{-1}
                (sum_j w_j mu_j V_j^{-1} x_j).

    Never decreases ``phi(u u^T; w)``.
    """
    if problem.penalty.active:
        raise UnsupportedPenaltyError("penalties are not supported with fa")
    dataset = problem.dataset
    u = np.asarray(current, dtype=float)
    w = problem.weights
    x = dataset.x
    if dataset.shared_noise:
        # With shared noise V factors out of the linear system entirely.
        viu = scipy.linalg.cho_solve((dataset.noise_cholesky, True), u)
        sigma2 = 1.0 / (1.0 + float(u @ viu))
        mu = sigma2 * (x @ viu)
        denom = float(w @ (mu * mu + sigma2))
        return ((w * mu) @ x) / denom
    v_inv = linalg.solve_psd(dataset.noise, np.eye(dataset.dim))
    viu = v_inv @ u
    sigma2 = 1.0 / (1.0 + viu @ u)
    mu = sigma2 * np.sum(viu * x, axis=1)
    system = np.einsum("j,jab->ab", w * (mu * mu + sigma2), v_inv)
    rhs = (w * mu) @ (v_inv @ x[:, :, None])[:, :, 0]
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"fa system matrix is singular: {exc}") from exc


def _shared_noise_scaled_objective(problem: WeightedProblem, base: np.ndarray):
    """``c -> phi(c * base; w)`` for shared noise in O(R) per evaluation.

    With ``V = L L^T`` and ``L^{-1} base L^{-T} = Q diag(b) Q^T`` (``b``
    clamped at 0, since ``base`` may be singular), ``c * base + V =
    L Q (I + c diag(b)) Q^T L^T``.  In the rotated coordinates
    ``y_j = Q^T L^{-1} x_j`` with ``S_i = sum_j w_j y_ji^2``:

        phi(c) = const - (W/2) sum_i log(1 + c b_i) - 1/2 sum_i S_i / (1 + c b_i).
    """
    dataset = problem.dataset
    lower, whiten = dataset.noise_cholesky, dataset.noise_whitener
    b, q = np.linalg.eigh(linalg.sym(whiten @ base @ whiten.T))
    b = np.maximum(b, 0.0)
    y = dataset.x @ (q.T @ whiten).T
    s_w = problem.weights @ (y * y)
    w = problem.total_weight
    logdet = 2.0 * float(np.sum(np.log(np.diagonal(lower))))
    const = -0.5 * w * (dataset.dim * np.log(2.0 * np.pi) + logdet)

    def f(c):
        cb = c * b
        return float(const - 0.5 * w * np.sum(np.log1p(cb)) - 0.5 * np.sum(s_w / (1.0 + cb)))

    return f


def scaled_update(problem: WeightedProblem, base: np.ndarray) -> float:
    """Maximize ``phi(c * base; w)`` over ``c >= 0``.

    Scans a geometric grid (expanded until the objective stops growing at
    the upper edge) and polishes the best bracket with bounded Brent.  For
    shared noise the objective is evaluated in the basis that whitens the
    noise and diagonalizes ``base`` (see
    :func:`_shared_noise_scaled_objective`), so each evaluation is O(R);
    per-observation noise evaluates :func:`component_loglik`.
    """
    base = np.asarray(base, dtype=float)
    dataset = problem.dataset
    w = problem.weights

    if dataset.shared_noise:
        f = _shared_noise_scaled_objective(problem, base)
    else:
        def f(c):
            return float(w @ component_loglik(dataset, c * base))

    x = dataset.x
    s_w = float(np.sum((x * w[:, None]) * x)) / problem.total_weight
    guess = max(s_w / max(np.trace(base), 1e-300), 1e-12)
    lo_c, hi_c = 1e-6 * guess, 1e3 * guess
    for _ in range(6):
        grid = np.concatenate([[0.0], np.geomspace(lo_c, hi_c, 80)])
        values = np.array([f(c) for c in grid])
        if np.argmax(values) < len(grid) - 1:
            break
        hi_c *= 1e3
    best = _refine_scalar_max(f, grid, values, xatol=max(1e-9 * guess, 1e-15))
    return max(best, 0.0)


def scale_factor_update(cov: np.ndarray, penalty: Penalty) -> float:
    """Scale ``s`` minimizing ``rho(cov / s)`` over ``s > 0``.

    Closed forms: the harmonic mean of the eigenvalues for "iw",
    ``sqrt(sum(e) / sum(1/e))`` for "nn", and 1 when no penalty is active.
    """
    if not penalty.active:
        return 1.0
    e = np.linalg.eigvalsh(linalg.sym(np.asarray(cov, dtype=float)))
    if np.any(e <= 0):
        raise SingularMatrixError(
            "scale update needs strictly positive eigenvalues; floor the spectrum first"
        )
    inv_sum = float(np.sum(1.0 / e))
    if penalty.kind == "iw":
        return len(e) / inv_sum
    return float(np.sqrt(np.sum(e) / inv_sum))
