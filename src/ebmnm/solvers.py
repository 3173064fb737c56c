"""Component covariance updates, one component or a stack of them at a time.

Each function solves (or improves) the weighted problem

    maximize over U:   phi(U; w) - rho(U / s)

where ``phi(U; w) = sum_j w_j log N(x_j; 0, U + V_j)`` and ``rho`` is an
optional eigenvalue penalty.  ``ted_update`` solves the shared-noise problem
exactly by truncating (or penalty-adjusting) the eigenvalues of the
transformed weighted sample covariance; each penalized eigenvalue is the
best positive root of a cubic ("iw") or quartic ("nn") stationarity
polynomial, with no numerical search.  ``ed_update`` and ``fa_update`` are
single EM steps: they never decrease the objective but do not maximize it.
``scaled_update`` handles the one-dimensional problem ``U = c * base``:
exactly under shared noise when the whitened base has one distinct nonzero
eigenvalue (:func:`scaled_solution`), by a 1-d search
(:func:`scaled_search`) otherwise.

With a shared noise ``V = L L^T`` the data enter ``ted``, ``ed`` and the
exact ``scaled`` step only through :attr:`WeightedProblem.whitened_gram`,
``S = sum_j w_j z_j z_j^T`` with ``z_j = L^{-1} x_j``: ``ted`` reads the
spectrum of ``S / W``, ``ed`` reads ``S`` and ``scaled`` reads ``tr(P S)``
for the projector ``P`` onto its whitened base.  A :class:`WeightedProblem`
with ``(n, K')`` weights holds K' such problems, and ``ted``, rank-1
``ted``, ``ed`` and the exact ``scaled`` step solve them at once: one
stacked ``eigh`` of the ``S_k / W_k``, one :func:`solve_penalized_spectrum`
over the ``(K', R)`` spectra, one stacked ``ed`` step and one vector of
``scaled`` multiples.  The ``scaled`` objective and the ``fa`` step depend
on the noise alone, so each is one function that reads the dataset's noise
factor: a stack of m = 1 (shared) or m = n (per-observation) inverse
Cholesky factors ``W_j`` with the whitened rows ``z_j = W_j x_j``.

:func:`prepare_components` sets covariances up against the noise as one
:class:`Components` for both kinds of noise: component ``k`` holds a stack
of m = 1 (shared) or m = n (per-observation) whiteners ``W_kj`` with
``(U_k + V_j)^{-1} = W_kj^T W_kj`` and their ``log det(U_k + V_j)``.  The
log-densities read them through :func:`ebmnm.linalg.mvn_logpdf_zero_mean`,
and the posterior moments and the ``ed`` step through the gains
``P_kj = U_k W_kj^T W_kj``: the means are ``P_kj x_j`` and the covariances
``sym(P_kj V_j)``.  The kind of noise matters at three places only, each
for speed: building the whiteners (one stacked ``eigh`` of the whitened
``U_k`` for a shared noise, an inverse Cholesky factor of each ``U_k + V_j``
otherwise), the log-densities (one GEMM of the rows against all K
whiteners for a shared noise, one component at a time otherwise) and the
data part of the ``ed`` step (the whitened Grams of every column at once
for a shared noise, the ``(n, R)`` means of one component at a time
otherwise).

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

# Iteration cap of the bounded 1-d search in ``scaled_search``.
SCALAR_MAXITER = 200
# Relative floor applied to eigenvalues before penalty scale updates.
SPECTRUM_FLOOR_RTOL = 1e-8
# Cap on the bytes of the shared-noise log-densities' per-block product.
LOG_DENSITY_BLOCK_BYTES = 2**21


@dataclass(frozen=True)
class WeightedProblem:
    """The weighted estimation problem of one component, or of K' at once.

    ``weights`` are per-observation responsibilities in [0, 1]: ``(n,)`` for
    one component or ``(n, K')`` with one column per component, each with
    positive sum.  ``scale`` is the current penalty scale factor: one number,
    or ``(K',)`` for 2-d weights.  With 2-d weights :attr:`total_weight` and
    :attr:`whitened_gram` gain the leading component axis, as do the results
    of the ``ted`` and ``ed`` updates that read them.
    """

    dataset: Dataset
    weights: np.ndarray
    scale: float = 1.0
    penalty: Penalty = Penalty.none()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim not in (1, 2) or w.shape[0] != self.dataset.n_obs or w.size == 0:
            raise InvariantViolationError(
                f"weights must have one entry per observation, got shape {w.shape}"
            )
        if np.any(w < 0) or np.any(w > 1 + 1e-12):
            raise InvariantViolationError("weights must lie in [0, 1]")
        if not np.all(w.sum(axis=0) > 0):
            raise InvariantViolationError("weights must not all be zero")
        if w.ndim == 2 and np.shape(self.scale) not in ((), w.shape[1:]):
            raise InvariantViolationError(
                f"scale must be one number or one per column, got shape {np.shape(self.scale)}")
        if not np.all(np.asarray(self.scale) > 0):
            raise InvariantViolationError("scale must be positive")
        object.__setattr__(self, "weights", w)

    @property
    def total_weight(self) -> float | np.ndarray:
        """``W``, the weights' sum: a float, or ``(K',)`` for 2-d weights."""
        if self.weights.ndim == 1:
            return float(self.weights.sum())
        return self.weights.sum(axis=0)

    @cached_property
    def _grams(self) -> np.ndarray:
        """:attr:`whitened_gram` with a leading axis, ``(K', R, R)``; one GEMM per column."""
        xt = self.dataset.whitened_x
        return np.stack([(xt * w[:, None]).T @ xt
                         for w in self.weights.reshape(self.dataset.n_obs, -1).T])

    @property
    def whitened_gram(self) -> np.ndarray:
        """``S = sum_j w_j z_j z_j^T`` of the whitened rows ``z_j = L^{-1} x_j``.

        ``(R, R)``, or ``(K', R, R)`` for 2-d weights.  Shared noise only:
        per-observation noise raises ``UnsupportedNoiseError``.
        """
        return self._grams if self.weights.ndim == 2 else self._grams[0]

    def _columns(self, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """``W`` and the scales of the columns ``cols``, each ``(K',)``.

        1-d weights are one column.
        """
        totals = np.atleast_1d(self.total_weight)
        scales = np.broadcast_to(np.asarray(self.scale, dtype=float), totals.shape)
        return totals[cols], scales[cols]


class Components:
    """Covariances ``U_k`` as K :attr:`whiteners` stacks and their :attr:`logdets`.

    Shared noise ``V = L L^T`` takes one stacked eigendecomposition
    ``L^{-1} U_k L^{-T} = Q_k diag(e_k) Q_k^T``, giving
    ``W_k = diag(1 + e_k)^{-1/2} Q_k^T L^{-1}``; the spectra stay in
    :attr:`values` (``(K, R)``, ascending) for the ``ted`` penalty.  Rounding
    can leave a zero of a PSD ``U_k`` slightly positive or negative, far
    from 0 when ``U_k`` lies far above the noise, so positive ``e_k`` at or
    below ``R eps`` times the largest are set to 0, as in
    :func:`_whitened_base`, and so are negative ones within
    ``linalg.PSD_RTOL`` of it; a more negative one means ``U_k`` is
    indefinite, and one at or below -1 raises ``NumericalFailureError``.
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
                values, vectors = np.linalg.eigh(linalg.sym(whiten @ covariances @ whiten.T))
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
            # An eigenvalue within rounding of the largest one is a zero of a PSD U_k:
            # a positive one at or below R eps times it, or a negative one within
            # linalg.PSD_RTOL of it; anything more negative is an indefinite U_k.
            top = values[:, -1:]
            rounding = ((values >= -linalg.PSD_RTOL * top)
                        & (values <= len(whiten) * np.finfo(float).eps * top))
            self.values = np.where(rounding, 0.0, values)
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
        """``log N(x_j; 0, U_k + V_j)`` with shape (n, K).

        With shared noise the rows meet all K whiteners in one GEMM against
        their ``(K R, R)`` stack, one block of rows at a time so that the
        ``(rows, K R)`` product stays within ``LOG_DENSITY_BLOCK_BYTES``;
        per-observation noise takes one component at a time.
        """
        x = self.dataset.x
        if not self.dataset.shared_noise:
            return np.column_stack([linalg.mvn_logpdf_zero_mean(x, w, d)
                                    for w, d in zip(self.whiteners, self.logdets)])
        n, r = x.shape
        k = len(self.whiteners)
        stacked = self.whiteners[:, 0].reshape(k * r, r).T
        const = r * np.log(2.0 * np.pi) + self.logdets[:, 0]
        out = np.empty((n, k))
        step = max(LOG_DENSITY_BLOCK_BYTES // (8 * k * r), 1)
        for start in range(0, n, step):
            z = (x[start:start + step] @ stacked).reshape(-1, k, r)
            out[start:start + step] = -0.5 * (const + np.einsum("ikr,ikr->ik", z, z))
        return out

    def _gains(self, k) -> np.ndarray:
        """``P_kj = U_k (U_k + V_j)^{-1} = U_k W_kj^T W_kj``, ``(m, R, R)``.

        With shared noise ``k`` may be ``(K',)`` component indices, giving ``(K', 1, R, R)``.
        """
        w = self.whiteners[k]
        return (w.swapaxes(-1, -2) @ (w @ self.covariances[k][..., None, :, :])).swapaxes(-1, -2)

    def posterior_moments(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means ``P_kj x_j`` ``(n, R)`` and covariances ``sym(P_kj V_j)`` ``(m, R, R)``.

        A zero row of ``U_k`` is a zero row of ``P_kj``, so of both.
        """
        p = self._gains(k)
        return linalg.per_row(p, self.dataset.x), linalg.sym(p @ self.dataset.noise)

    def ed_update(self, k, problem: WeightedProblem, cols=slice(None)) -> np.ndarray:
        """The :func:`ed_update` average of ``C_j + m_j m_j^T`` of the posterior moments.

        ``k`` is one component for 1-d weights, or ``(K',)`` components for
        the columns ``cols`` of 2-d weights, with a ``(K', R, R)`` result.
        With shared noise ``sum_j w_j m_j m_j^T = (P L) S (P L)^T`` from the
        problem's :attr:`~WeightedProblem.whitened_gram` ``S``, which skips the
        ``(n, R)`` means (0.9 against 2.0-2.4 ms per component at n=5000,
        R=50 on a 2-core VM), and every column is one stacked expression.
        Per-observation noise holds one ``(n, R, R)`` gain stack at a time.
        """
        dataset, ks = self.dataset, np.atleast_1d(k)
        totals, scales = problem._columns(cols)
        if dataset.shared_noise:
            p = self._gains(ks)[:, 0]
            pl = p @ dataset.noise_cholesky
            moment = (totals[:, None, None] * linalg.sym(p @ dataset.noise)
                      + pl @ problem._grams[cols] @ pl.swapaxes(1, 2))
        else:
            moment = np.empty((len(ks), dataset.dim, dataset.dim))
            for i, (kk, w) in enumerate(zip(ks, problem.weights.reshape(dataset.n_obs, -1)
                                             [:, cols].T)):
                p = self._gains(kk)
                means = linalg.per_row(p, dataset.x)
                # Each covariance carries the weight of its row.
                covs = linalg.sym(p @ dataset.noise).reshape(len(p), -1)
                moment[i] = (w @ covs).reshape(moment.shape[1:]) + (means * w[:, None]).T @ means
        if problem.penalty.active:
            lam = problem.penalty.lam
            moment = moment + lam * scales[:, None, None] * np.eye(dataset.dim)
            totals = totals + lam
        new = linalg.sym(moment / totals[:, None, None])
        return new if np.ndim(k) else new[0]


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


def penalty_from_eigenvalues(penalty: Penalty, eigenvalues: np.ndarray, scale):
    """Penalty value ``rho(U / scale)`` from the eigenvalues of ``U``.

    Returns ``+inf`` when any eigenvalue is nonpositive and the penalty is
    active (both penalties diverge at singular matrices).  A stack of
    spectra ``(K, R)`` with one scale each (or one for all) gives ``(K,)`` values.
    """
    e = np.asarray(eigenvalues, dtype=float) / np.asarray(scale, dtype=float)[..., None]
    if not penalty.active:
        values = np.zeros(e.shape[:-1])
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            if penalty.kind == "iw":
                values = 0.5 * penalty.lam * np.sum(np.log(e) + 1.0 / e, axis=-1)
            else:
                values = 0.25 * penalty.lam * np.sum(e + 1.0 / e, axis=-1)
        values = np.where(np.any(e <= 0, axis=-1), np.inf, values)
    return float(values) if values.ndim == 0 else values


def penalty_value(penalty: Penalty, cov: np.ndarray, scale: float) -> float:
    """Penalty value ``rho(cov / scale)``."""
    if not penalty.active:
        return 0.0
    return penalty_from_eigenvalues(penalty, np.linalg.eigvalsh(linalg.sym(cov)), scale)


def floor_eigenvalues(e: np.ndarray) -> np.ndarray:
    """Raise eigenvalues to at least ``SPECTRUM_FLOOR_RTOL * (spectral radius + 1)``.

    The penalties diverge at zero eigenvalues, so their scale updates need a
    strictly positive spectrum.  A spectrum that already is one keeps its
    values, so the scale update stays the exact minimizer of a finite
    penalty however widely the eigenvalues spread (a noise of condition
    number 1e12 spreads the whitened ones that far).  Each spectrum of a
    ``(K, R)`` stack is checked and floored on its own.
    """
    e = np.asarray(e, dtype=float)
    floored = np.maximum(e, SPECTRUM_FLOOR_RTOL
                         * (np.maximum(e.max(axis=-1, keepdims=True), 0.0) + 1.0))
    return np.where(np.all(e > 0, axis=-1, keepdims=True), e, floored)


def floor_spectrum(cov: np.ndarray) -> np.ndarray:
    """``cov`` with its eigenvalues floored by :func:`floor_eigenvalues`."""
    es = linalg.eigh_descending(cov)
    floored = floor_eigenvalues(es.values)
    if es.values[-1] >= floored[-1]:
        return cov
    return es.compose(floored)


def _penalized_stationarity_roots(d_values: np.ndarray, w: np.ndarray, lam: float,
                                  s: np.ndarray, iw: bool) -> np.ndarray:
    """Real parts of the roots of ``g'(e) = 0`` with denominators cleared.

    One polynomial per eigenvalue (highest degree first):

    * "iw": ``(W+lam) e^3 + (W(1-d) + lam(2-s)) e^2 + lam(1-2s) e - lam s``
    * "nn": ``lam e^4 + (2Ws + 2lam) e^3 + (2Ws(1-d) + lam(1-s^2)) e^2
      - 2 lam s^2 e - lam s^2``

    ``w`` and ``s`` broadcast against the spectra ``(..., R)``.  The roots of
    every spectrum come from one batched eigenvalue call on the stacked
    companion matrices; shape ``(..., R, degree)``.
    """
    one = np.ones_like(d_values)
    if iw:
        coeffs = np.stack([(w + lam) * one, w * (1.0 - d_values) + lam * (2.0 - s),
                           lam * (1.0 - 2.0 * s) * one, -lam * s * one], axis=-1)
    else:
        coeffs = np.stack([lam * one, (2.0 * w * s + 2.0 * lam) * one,
                           2.0 * w * s * (1.0 - d_values) + lam * (1.0 - s * s),
                           -2.0 * lam * s * s * one, -lam * s * s * one], axis=-1)
    deg = coeffs.shape[-1] - 1
    companion = np.zeros(d_values.shape + (deg, deg))
    companion[..., 0, :] = -coeffs[..., 1:] / coeffs[..., :1]
    companion[..., np.arange(1, deg), np.arange(deg - 1)] = 1.0
    return np.linalg.eigvals(companion).real


def solve_penalized_spectrum(d_values: np.ndarray, total_weight, penalty: Penalty,
                             scale) -> np.ndarray:
    """Penalized eigenvalue solves for a whole spectrum, or a stack of them, at once.

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

    ``d_values`` is one spectrum ``(R,)`` or a stack ``(K', R)``;
    ``total_weight`` and ``scale`` are one number or one per spectrum.
    """
    d_values = np.asarray(d_values, dtype=float)
    if not penalty.active:
        return np.maximum(d_values - 1.0, 0.0)
    # One W and s per spectrum, broadcast over its eigenvalues.
    w = np.asarray(total_weight, dtype=float)[..., None]
    s = np.asarray(scale, dtype=float)[..., None]
    lam, iw = penalty.lam, penalty.kind == "iw"

    def g(e, d, w, s):
        with np.errstate(divide="ignore", invalid="ignore"):
            lik = -0.5 * w * (np.log1p(e) + d / (1.0 + e))
            if iw:
                return lik - 0.5 * lam * (np.log(e / s) + s / e)
            return lik - 0.25 * lam * (e / s + s / e)

    roots = _penalized_stationarity_roots(d_values, w, lam, s, iw)
    values = np.where(roots > 0, g(roots, d_values[..., None], w[..., None], s[..., None]),
                      -np.inf)
    e = np.take_along_axis(roots, np.argmax(values, axis=-1)[..., None], axis=-1)[..., 0]

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
    return np.where((newton > 0) & (g(newton, d_values, w, s) >= g(e, d_values, w, s)),
                    newton, e)


def truncated_solution(problem: WeightedProblem, rank1, cols=slice(None)) -> np.ndarray:
    """The ``ted`` solutions ``L Q_k diag(e_k) Q_k^T L^T`` of the columns ``cols``, ``(K', R, R)``.

    One stacked ``eigh`` of ``S_k / W_k = Q_k diag(d_k) Q_k^T`` and one
    :func:`solve_penalized_spectrum` of the ``(K', R)`` spectra give the
    ``e_k``; a row where ``rank1`` (one flag, or one per column) holds keeps
    only the top entry of the unpenalized truncation instead.
    """
    totals, scales = problem._columns(cols)
    es = linalg.eigh_descending(problem._grams[cols] / totals[:, None, None])
    e = solve_penalized_spectrum(es.values, totals, problem.penalty, scales)
    rank1 = np.broadcast_to(rank1, totals.shape)
    if rank1.any():
        top = np.maximum(es.values - 1.0, 0.0)
        top[:, 1:] = 0.0
        e = np.where(rank1[:, None], top, e)
    lower = problem.dataset.noise_cholesky
    return linalg.sym(lower @ es.compose(e) @ lower.T)


def _unstacked(problem: WeightedProblem, stack: np.ndarray) -> np.ndarray:
    """``stack`` for 2-d weights, its one matrix for 1-d weights."""
    return stack if problem.weights.ndim == 2 else stack[0]


def ted_update(problem: WeightedProblem) -> np.ndarray:
    """Exact solution of the weighted problem for shared noise.

    Unpenalized, this truncates the negative eigenvalues of the whitened
    weighted sample covariance minus the identity; with a penalty each
    eigenvalue solves its own 1-d problem, keeping the sample eigenvectors.
    The result is mapped back to the original coordinates, so an active
    penalty is measured in the noise-whitened metric (it pulls ``U/s``
    toward the noise covariance rather than the identity).  2-d weights give
    one solution per column, ``(K', R, R)``.
    """
    return _unstacked(problem, truncated_solution(problem, rank1=False))


def ted_rank1_update(problem: WeightedProblem) -> np.ndarray:
    """Exact rank-1-constrained solution for shared noise (no penalty).

    2-d weights give one solution per column, ``(K', R, R)``.
    """
    if problem.penalty.active:
        raise UnsupportedPenaltyError("penalties are not supported with rank-1 constraints")
    return _unstacked(problem, truncated_solution(problem, rank1=True))


def ed_update(problem: WeightedProblem, current: np.ndarray) -> np.ndarray:
    """One weighted EM covariance step from the ``current`` estimate.

    Averages the per-observation posterior second moments
    ``B_j + b_j b_j^T`` with ``b_j = U (U + V_j)^{-1} x_j`` and
    ``B_j = U (U + V_j)^{-1} V_j``.  With the "iw" penalty the step is the
    penalized closed form ``(sum_j w_j (B_j + b_j b_j^T) + lam * s * I) /
    (W + lam)``.  Never decreases the penalized objective.  2-d weights take
    one ``current`` per column, ``(K', R, R)``, and give as many steps.
    """
    if problem.penalty.kind == "nn":
        raise UnsupportedPenaltyError("the nuclear-norm penalty has no closed-form ed update")
    current = np.asarray(current, dtype=float)
    if current.shape[:-2] != problem.weights.shape[1:]:
        raise DimensionMismatchError(
            f"need one current covariance per weight column, got shape {current.shape}")
    components = prepare_components(problem.dataset, current.reshape((-1,) + current.shape[-2:]))
    return components.ed_update(np.arange(len(components.covariances))
                                if current.ndim == 3 else 0, problem)


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

    The ``scaled`` objective of both kernels: ``omega`` is ``(m,)``, ``b >= 0``
    and ``a`` are ``(m, R)``.
    """
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


def _whitened_base(whiteners: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``W_j B W_j^T = Q_j diag(b_j) Q_j^T`` for an ``(m, R, R)`` stack of whiteners.

    Returns ``b`` ``(m, R)``, ascending, and ``Q`` ``(m, R, R)``.  A
    singular base keeps its rank: ``B = root root^T`` drops the eigenvalues
    of ``B`` at most ``R eps`` times its largest, and ``b_ji`` at most
    ``R eps max_i b_ji`` are set to 0, so rounding never counts as a
    direction of the base.
    """
    eps_r = len(base) * np.finfo(float).eps
    e, vectors = np.linalg.eigh(np.asarray(base, dtype=float))
    keep = e > eps_r * e[-1]
    root = whiteners @ (vectors[:, keep] * np.sqrt(e[keep]))
    b, q = np.linalg.eigh(root @ root.swapaxes(1, 2))
    return np.where(b > eps_r * b[:, -1:], b, 0.0), q


def scaled_objective(problem: WeightedProblem, base: np.ndarray):
    """``c -> phi(c * base; w)``, taking an array of ``c`` (or one value).

    With the :func:`_whitened_base` ``W_j B W_j^T = Q_j diag(b_j) Q_j^T`` of the
    noise factor, the :func:`_diagonal_objective` of ``b_j``, ``omega_j = w_j``
    and ``A_ji = w_j (Q_j^T z_j)_i^2``, summed over the rows of each noise
    matrix first: O(R) per value for a shared noise, O(n R) for
    per-observation noise.
    """
    dataset, w = problem.dataset, problem.weights
    whiteners, logdets, z = dataset._noise_factor
    m, r = len(whiteners), dataset.dim
    b, q = _whitened_base(whiteners, base)
    y = linalg.per_row(q.swapaxes(1, 2), z)
    omega = w.reshape(m, -1).sum(axis=1)
    a = (w[:, None] * y * y).reshape(m, -1, r).sum(axis=1)
    const = -0.5 * float(omega @ (r * np.log(2.0 * np.pi) + logdets))
    return _diagonal_objective(const, omega, b, a)


def single_value_base(dataset: Dataset, base: np.ndarray) -> tuple[float, int, np.ndarray] | None:
    """``(b, r, P)`` when the whitened base has one distinct nonzero eigenvalue, else ``None``.

    With a shared noise ``V = L L^T`` take the :func:`_whitened_base`
    ``L^{-1} B L^{-T} = Q diag(b) Q^T``, whose rounding-level eigenvalues are
    0 as in :func:`scaled_objective`.  The nonzero ones count as one value
    ``b`` (their mean) when they lie within ``sqrt(eps) max(b)`` of each
    other: a relative spread ``delta`` moves the ``scaled`` objective at
    :func:`scaled_solution`'s maximizer by ``O(delta^2)``, below rounding.
    ``r`` counts them and ``P = sum_{b_i > 0} q_i q_i^T`` projects onto their
    eigenvectors.  Every rank-1 base qualifies, as does every base
    proportional to ``V``; per-observation noise gives ``None``.
    """
    if not dataset.shared_noise:
        return None
    b, q = (v[0] for v in _whitened_base(dataset._noise_factor[0], base))
    nonzero = b > 0
    if not nonzero.any() or b[nonzero][0] < b[-1] * (1.0 - np.sqrt(np.finfo(float).eps)):
        return None
    q = q[:, nonzero]
    return float(b[nonzero].mean()), int(nonzero.sum()), q @ q.T


def scaled_solution(problem: WeightedProblem, bases, current=None,
                    cols=slice(None)) -> np.ndarray:
    """Exact ``scaled`` multiples of the columns ``cols`` under shared noise, ``(K',)``.

    ``bases`` holds one :func:`single_value_base` ``(b, r, P)`` per column.
    Over ``c >= 0`` the objective
    ``phi(c B) = const - 1/2 [r W log(1 + c b) + A / (1 + c b)]``, with
    ``A = tr(P S)`` from the problem's whitened Gram ``S``, has the one
    maximizer ``c = max((A / (r W) - 1) / b, 0)``.  Given ``current`` (one
    multiple per column), a column keeps it when it scores higher after
    rounding.
    """
    totals, _ = problem._columns(cols)
    b, r, projectors = (np.array(v) for v in zip(*bases))
    a = np.einsum("kij,kij->k", projectors, problem._grams[cols])
    rw = r * totals
    c = np.maximum((a / rw - 1.0) / b, 0.0)
    if current is None:
        return c

    def loss(c):
        cb = c * b
        return rw * np.log1p(cb) + a / (1.0 + cb)

    current = np.asarray(current, dtype=float)
    return np.where(loss(current) < loss(c), current, c)


def scaled_search(problem: WeightedProblem, base: np.ndarray, current: float = 0.0) -> float:
    """The ``scaled`` step by search: the best ``c >= 0`` a grid and bounded Brent find.

    Scans a geometric grid (expanded until the :func:`scaled_objective`
    stops growing at the upper edge) in one call and polishes the best grid
    point's bracket with bounded Brent.  Both scale with the data's weighted
    second moment; zero weighted data give 0.  Whichever of the result and
    ``current`` scores higher is returned.
    """
    f = scaled_objective(problem, base)
    x = problem.dataset.x
    s_w = float(np.sum((x * problem.weights[:, None]) * x)) / problem.total_weight
    best = 0.0
    if s_w > 0.0:
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


def scaled_update(problem: WeightedProblem, base: np.ndarray, current: float = 0.0) -> float:
    """Maximize ``phi(c * base; w)`` over ``c >= 0``, never ending below ``current``.

    Under shared noise a base with one distinct nonzero whitened eigenvalue
    (:func:`single_value_base`) takes the exact :func:`scaled_solution`;
    any other base, and per-observation noise, take :func:`scaled_search`.
    """
    single = single_value_base(problem.dataset, base)
    if single is None:
        return scaled_search(problem, base, current)
    f = scaled_objective(problem, base)
    return max(max(float(scaled_solution(problem, [single])[0]), float(current), key=f), 0.0)


def scale_factor_update(cov: np.ndarray, penalty: Penalty) -> float:
    """Scale ``s`` minimizing ``rho(cov / s)`` over ``s > 0``.

    Closed forms: the harmonic mean of the eigenvalues for "iw",
    ``sqrt(sum(e) / sum(1/e))`` for "nn", and 1 when no penalty is active.
    """
    if not penalty.active:
        return 1.0
    return scale_factor_from_eigenvalues(
        np.linalg.eigvalsh(linalg.sym(np.asarray(cov, dtype=float))), penalty)


def scale_factor_from_eigenvalues(e: np.ndarray, penalty: Penalty):
    """:func:`scale_factor_update` from the eigenvalues of ``cov``.

    A stack of spectra ``(K, R)`` gives ``(K,)`` scales.
    """
    e = np.asarray(e, dtype=float)
    if not penalty.active:
        scales = np.ones(e.shape[:-1])
    elif np.any(e <= 0):
        raise SingularMatrixError(
            "scale update needs strictly positive eigenvalues; floor the spectrum first"
        )
    else:
        inv_sum = np.sum(1.0 / e, axis=-1)
        if penalty.kind == "iw":
            scales = e.shape[-1] / inv_sum
        else:
            scales = np.sqrt(np.sum(e, axis=-1) / inv_sum)
    return float(scales) if scales.ndim == 0 else scales
