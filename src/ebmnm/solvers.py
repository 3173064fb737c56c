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
``scaled_update`` handles the one-dimensional problem ``U = c * base``.

With a shared noise ``V = L L^T`` the data enter ``ted`` and ``ed`` only
through :attr:`WeightedProblem.whitened_gram`, ``S = sum_j w_j z_j z_j^T``
with ``z_j = L^{-1} x_j``: ``ted`` reads the spectrum of ``S / W`` and
``ed`` reads ``S``.  The ``scaled`` objective and the ``fa`` step depend on
the noise alone, so each is one function that reads the dataset's noise
factor: a stack of m = 1 (shared) or m = n (per-observation) inverse
Cholesky factors ``W_j`` with the whitened rows ``z_j = W_j x_j``.

:func:`prepare_components` sets covariances up against the noise as one
:class:`Components` for both kinds of noise: component ``k`` holds a stack
of m = 1 (shared) or m = n (per-observation) whiteners ``W_kj`` with
``(U_k + V_j)^{-1} = W_kj^T W_kj`` and their ``log det(U_k + V_j)``.  The
log-densities read them through :func:`ebmnm.linalg.mvn_logpdf_zero_mean`,
and the posterior moments and the ``ed`` step through the gains
``P_kj = U_k W_kj^T W_kj``: the means are ``P_kj x_j`` and the covariances
``sym(P_kj V_j)``.  The kind of noise matters at two places only, each for
speed: building the whiteners (one stacked ``eigh`` of the whitened ``U_k``
for a shared noise, an inverse Cholesky factor of each ``U_k + V_j``
otherwise) and the data part of the ``ed`` step (the whitened Gram for a
shared noise, the ``(n, R)`` means otherwise).

The gain keeps the rows of ``U_k``, so a coordinate where ``U_k`` has a
zero row gets an exactly zero mean and variance, and the lfsr convention
for point masses holds for any noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import minimize_scalar

from . import linalg
from .core import Dataset, Penalty
from .exceptions import (
    DimensionMismatchError,
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

    @cached_property
    def whitened_gram(self) -> np.ndarray:
        """``S = sum_j w_j z_j z_j^T`` of the whitened rows ``z_j = L^{-1} x_j``.

        Shared noise only: per-observation noise raises ``UnsupportedNoiseError``.
        """
        xt = self.dataset.whitened_x
        return (xt * self.weights[:, None]).T @ xt


class Components:
    """Covariances ``U_k`` as K :attr:`whiteners` stacks and their :attr:`logdets`.

    Shared noise ``V = L L^T`` takes one stacked eigendecomposition
    ``L^{-1} U_k L^{-T} = Q_k diag(e_k) Q_k^T``, giving
    ``W_k = diag(1 + e_k)^{-1/2} Q_k^T L^{-1}``; the spectra stay in
    :attr:`values` (``(K, R)``, ascending) for the ``ted`` penalty.
    Per-observation noise factors ``U_k + V_j = L_kj L_kj^T`` into the exact
    triangular ``W_kj = L_kj^{-1}``, and :attr:`values` is ``None``; an
    ``eigh`` there is about 2.5x slower (14 against 5.7 ms for K=10 stacks at
    n=500, R=5 on a 2-core VM).
    """

    def __init__(self, dataset: Dataset, covariances: np.ndarray):
        self.dataset = dataset
        self.covariances = covariances
        self.values = None
        if dataset.shared_noise:
            whiten = dataset.noise_whitener
            try:
                self.values, vectors = np.linalg.eigh(linalg.sym(whiten @ covariances @ whiten.T))
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
            if not np.all(1.0 + self.values > 0):
                raise NumericalFailureError(
                    "a covariance plus the noise is not positive definite")
            scaled = vectors / np.sqrt(1.0 + self.values)[:, None, :]
            self.whiteners = (scaled.swapaxes(1, 2) @ whiten)[:, None]
            logdets = dataset._noise_factor[1] + np.sum(np.log1p(self.values), axis=1)
            self.logdets = logdets[:, None]
        else:
            self.whiteners = [linalg.inv_lower(linalg.cholesky_with_jitter(u + dataset.noise))
                              for u in covariances]
            self.logdets = [-2.0 * np.sum(np.log(np.diagonal(w, axis1=1, axis2=2)), axis=1)
                            for w in self.whiteners]

    def log_densities(self) -> np.ndarray:
        """``log N(x_j; 0, U_k + V_j)`` with shape (n, K)."""
        x = self.dataset.x
        return np.column_stack([linalg.mvn_logpdf_zero_mean(x, w, d)
                                for w, d in zip(self.whiteners, self.logdets)])

    def _gains(self, k: int) -> np.ndarray:
        """``P_kj = U_k (U_k + V_j)^{-1} = U_k W_kj^T W_kj``, ``(m, R, R)``."""
        w = self.whiteners[k]
        return (w.swapaxes(1, 2) @ (w @ self.covariances[k])).swapaxes(1, 2)

    def posterior_moments(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means ``P_kj x_j`` ``(n, R)`` and covariances ``sym(P_kj V_j)`` ``(m, R, R)``.

        A zero row of ``U_k`` is a zero row of ``P_kj``, so of both.
        """
        p = self._gains(k)
        return linalg.per_row(p, self.dataset.x), linalg.sym(p @ self.dataset.noise)

    def ed_update(self, k: int, problem: WeightedProblem) -> np.ndarray:
        """The :func:`ed_update` average of ``C_j + m_j m_j^T`` of the posterior moments.

        With shared noise ``sum_j w_j m_j m_j^T = (P L) S (P L)^T`` from the
        problem's :attr:`~WeightedProblem.whitened_gram` ``S``, which skips the
        ``(n, R)`` means (0.9 against 2.0-2.4 ms per component at n=5000,
        R=50 on a 2-core VM).
        """
        w, total = problem.weights, problem.total_weight
        p = self._gains(k)
        if self.dataset.shared_noise:
            pl = p[0] @ self.dataset.noise_cholesky
            second = pl @ problem.whitened_gram @ pl.T
        else:
            means = linalg.per_row(p, self.dataset.x)
            second = (means * w[:, None]).T @ means
        # Each covariance carries the weights of the rows that share it.
        covs = linalg.sym(p @ self.dataset.noise).reshape(len(p), -1)
        spread = w.reshape(len(p), -1).sum(axis=1)
        moment = (spread @ covs).reshape(second.shape) + second
        if problem.penalty.active:
            lam = problem.penalty.lam
            new = (moment + lam * problem.scale * np.eye(self.dataset.dim)) / (total + lam)
        else:
            new = moment / total
        return linalg.sym(new)


def prepare_components(dataset: Dataset, covariances: np.ndarray) -> Components:
    """Covariances ``(K, R, R)`` set up against the dataset's noise, as :class:`Components`.

    Every scorer and the fit come through here, so this is where a prior's
    dimension is checked: ``DimensionMismatchError`` if the covariances are
    not R x R.
    """
    covariances = np.asarray(covariances, dtype=float)
    if covariances.shape[1:] != (dataset.dim, dataset.dim):
        raise DimensionMismatchError(
            f"prior dimension {covariances.shape[-1]} does not match data dimension {dataset.dim}"
        )
    return Components(dataset, covariances)


def component_loglik(dataset: Dataset, cov: np.ndarray) -> np.ndarray:
    """Per-observation log density ``log N(x_j; 0, cov + V_j)``."""
    return prepare_components(dataset, np.asarray(cov, dtype=float)[None]).log_densities()[:, 0]


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


def floor_eigenvalues(e: np.ndarray) -> np.ndarray:
    """Raise eigenvalues to at least ``SPECTRUM_FLOOR_RTOL * (spectral radius + 1)``.

    The penalties diverge at zero eigenvalues, so their scale updates need a
    strictly positive spectrum.
    """
    e = np.asarray(e, dtype=float)
    return np.maximum(e, SPECTRUM_FLOOR_RTOL * (max(float(e.max()), 0.0) + 1.0))


def floor_spectrum(cov: np.ndarray) -> np.ndarray:
    """``cov`` with its eigenvalues floored by :func:`floor_eigenvalues`."""
    es = linalg.eigh_descending(cov)
    floored = floor_eigenvalues(es.values)
    if es.values[-1] >= floored[-1]:
        return cov
    return es.compose(floored)


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


def _truncated_solution(problem: WeightedProblem, rank1: bool) -> np.ndarray:
    """The ``ted`` solution ``L Q diag(e) Q^T L^T`` from ``S / W = Q diag(d) Q^T``.

    ``e`` is :func:`solve_penalized_spectrum` of ``d``; ``rank1`` keeps its top entry.
    """
    es = linalg.eigh_descending(problem.whitened_gram / problem.total_weight)
    e = solve_penalized_spectrum(es.values, problem.total_weight, problem.penalty,
                                 problem.scale)
    if rank1:
        e[1:] = 0.0
    lower = problem.dataset.noise_cholesky
    return linalg.sym(lower @ es.compose(e) @ lower.T)


def ted_update(problem: WeightedProblem) -> np.ndarray:
    """Exact solution of the weighted problem for shared noise.

    Unpenalized, this truncates the negative eigenvalues of the whitened
    weighted sample covariance minus the identity; with a penalty each
    eigenvalue solves its own 1-d problem, keeping the sample eigenvectors.
    The result is mapped back to the original coordinates, so an active
    penalty is measured in the noise-whitened metric (it pulls ``U/s``
    toward the noise covariance rather than the identity).
    """
    return _truncated_solution(problem, rank1=False)


def ted_rank1_update(problem: WeightedProblem) -> np.ndarray:
    """Exact rank-1-constrained solution for shared noise (no penalty)."""
    if problem.penalty.active:
        raise UnsupportedPenaltyError("penalties are not supported with rank-1 constraints")
    return _truncated_solution(problem, rank1=True)


def ed_update(problem: WeightedProblem, current: np.ndarray) -> np.ndarray:
    """One weighted EM covariance step from the ``current`` estimate.

    Averages the per-observation posterior second moments
    ``B_j + b_j b_j^T`` with ``b_j = U (U + V_j)^{-1} x_j`` and
    ``B_j = U (U + V_j)^{-1} V_j``.  With the "iw" penalty the step is the
    penalized closed form ``(sum_j w_j (B_j + b_j b_j^T) + lam * s * I) /
    (W + lam)``.  Never decreases the penalized objective.
    """
    if problem.penalty.kind == "nn":
        raise UnsupportedPenaltyError("the nuclear-norm penalty has no closed-form ed update")
    current = np.asarray(current, dtype=float)
    return prepare_components(problem.dataset, current[None]).ed_update(0, problem)


def fa_update(problem: WeightedProblem, current: np.ndarray) -> np.ndarray:
    """One weighted EM step for a rank-1 component ``U = u u^T``.

    Uses the scalar-loading augmentation: with posterior variance
    ``sigma_j^2 = 1 / (1 + u^T V_j^{-1} u)`` and posterior mean
    ``mu_j = sigma_j^2 u^T V_j^{-1} x_j``, the update solves

        u_new = (sum_j w_j (mu_j^2 + sigma_j^2) V_j^{-1})^{-1}
                (sum_j w_j mu_j V_j^{-1} x_j).

    Never decreases ``phi(u u^T; w)``.  ``V_j^{-1} = W_j^T W_j`` from the noise
    factor; one noise matrix factors out of the system, leaving a closed form.
    """
    if problem.penalty.active:
        raise UnsupportedPenaltyError("penalties are not supported with fa")
    dataset, w, x = problem.dataset, problem.weights, problem.dataset.x
    whiteners, _, z = dataset._noise_factor
    u = np.asarray(current, dtype=float)
    viu = ((whiteners @ u)[:, None, :] @ whiteners)[:, 0]  # V_j^{-1} u, (m, R)
    sigma2 = 1.0 / (1.0 + viu @ u)
    mu = sigma2 * linalg.per_row(viu[:, None, :], x)[:, 0]
    spread = mu * mu + sigma2
    if len(whiteners) == 1:
        return ((w * mu) @ x) / float(w @ spread)
    # The system sum_j w_j (mu_j^2 + sigma_j^2) W_j^T W_j, summed over the rows of every W_j.
    rows = whiteners.reshape(-1, dataset.dim)
    system = (rows * np.repeat(w * spread, dataset.dim)[:, None]).T @ rows
    rhs = rows.T @ ((w * mu)[:, None] * z).ravel()
    try:
        return np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"fa system matrix is singular: {exc}") from exc


def _diagonal_objective(const: float, omega: np.ndarray, b: np.ndarray, a: np.ndarray):
    """``c -> const - 1/2 sum_{j,i} [omega_j log(1 + c b_ji) + A_ji / (1 + c b_ji)]``.

    The ``scaled`` objective of both kernels: ``omega`` is ``(m,)``, ``b`` and
    ``a`` are ``(m, R)``, and ``b`` is clamped at 0 (``U_k`` may be singular).
    """
    b = np.maximum(b, 0.0)
    step = max(2**16 // b.size, 1)  # values per chunk, bounding its (values, m, R) arrays

    def f(c):
        c = np.asarray(c, dtype=float)
        if c.size > step:
            parts = np.split(c.ravel(), np.arange(step, c.size, step))
            return np.concatenate([f(part) for part in parts]).reshape(c.shape)
        cb = c[..., None, None] * b
        return const - 0.5 * (np.sum(np.log1p(cb), axis=-1) @ omega
                              + np.sum(a / (1.0 + cb), axis=(-2, -1)))

    return f


def scaled_objective(problem: WeightedProblem, base: np.ndarray):
    """``c -> phi(c * base; w)``, taking an array of ``c`` (or one value).

    With ``W_j B W_j^T = Q_j diag(b_j) Q_j^T`` from the noise factor, the
    :func:`_diagonal_objective` of ``b_j``, ``omega_j = w_j`` and
    ``A_ji = w_j (Q_j^T z_j)_i^2``, summed over the rows of each noise matrix
    first: O(R) per value for a shared noise, O(n R) for per-observation noise.
    """
    dataset, w = problem.dataset, problem.weights
    whiteners, logdets, z = dataset._noise_factor
    m, r = len(whiteners), dataset.dim
    e, vectors = np.linalg.eigh(np.asarray(base, dtype=float))
    # One name holds each (m, R, R) stack in turn; B = root root^T.
    stack = whiteners @ (vectors * np.sqrt(np.maximum(e, 0.0)))
    stack = stack @ stack.swapaxes(1, 2)
    b, stack = np.linalg.eigh(stack)
    y = linalg.per_row(stack.swapaxes(1, 2), z)
    omega = w.reshape(m, -1).sum(axis=1)
    a = (w[:, None] * y * y).reshape(m, -1, r).sum(axis=1)
    const = -0.5 * float(omega @ (r * np.log(2.0 * np.pi) + logdets))
    return _diagonal_objective(const, omega, b, a)


def scaled_update(problem: WeightedProblem, base: np.ndarray, current: float = 0.0) -> float:
    """Maximize ``phi(c * base; w)`` over ``c >= 0``, never ending below ``current``.

    Scans a geometric grid (expanded until the objective stops growing at
    the upper edge) in one call of the :func:`scaled_objective` and polishes
    the best grid point's bracket with bounded Brent.  Both scale with the
    data's weighted second moment; zero weighted data give 0.
    """
    x = problem.dataset.x
    s_w = float(np.sum((x * problem.weights[:, None]) * x)) / problem.total_weight
    if s_w == 0.0:
        return 0.0
    f = scaled_objective(problem, base)
    guess = s_w / np.trace(base)
    lo_c, hi_c = 1e-6 * guess, 1e3 * guess
    for _ in range(6):
        grid = np.concatenate([[0.0], np.geomspace(lo_c, hi_c, 80)])
        values = f(grid)
        if np.argmax(values) < len(grid) - 1:
            break
        hi_c *= 1e3
    i = int(np.argmax(values))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    best = float(grid[i])
    if hi > lo:
        res = minimize_scalar(lambda t: -f(t), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-9 * guess,
                                       "maxiter": SCALAR_MAXITER})
        if np.isfinite(res.fun) and -res.fun > values[i]:
            best = float(res.x)
    return max(max(best, float(current), key=f), 0.0)


def scale_factor_update(cov: np.ndarray, penalty: Penalty) -> float:
    """Scale ``s`` minimizing ``rho(cov / s)`` over ``s > 0``.

    Closed forms: the harmonic mean of the eigenvalues for "iw",
    ``sqrt(sum(e) / sum(1/e))`` for "nn", and 1 when no penalty is active.
    """
    if not penalty.active:
        return 1.0
    return scale_factor_from_eigenvalues(
        np.linalg.eigvalsh(linalg.sym(np.asarray(cov, dtype=float))), penalty)


def scale_factor_from_eigenvalues(e: np.ndarray, penalty: Penalty) -> float:
    """:func:`scale_factor_update` from the eigenvalues of ``cov``."""
    if not penalty.active:
        return 1.0
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise SingularMatrixError(
            "scale update needs strictly positive eigenvalues; floor the spectrum first"
        )
    inv_sum = float(np.sum(1.0 / e))
    if penalty.kind == "iw":
        return len(e) / inv_sum
    return float(np.sqrt(np.sum(e) / inv_sum))
