"""Dense linear-algebra helpers used throughout the package.

All matrices are small (tens of rows), dense and symmetric; everything here
wraps LAPACK routines with the tolerance conventions used by the rest of the
code: eigenvalues above ``-PSD_RTOL`` times the spectral radius count as
nonnegative, and Cholesky factorizations get one jitter retry before failing.

The stacked helpers take an ``(m, R, R)`` noise stack that broadcasts
against the data grouped as ``(m, n/m, R)`` rows: ``m = n`` for one
covariance per observation, which is what fits and summaries use them for.
They accept ``m = 1`` too; a shared noise is otherwise handled in its
whitened eigenbasis (:class:`ebmnm.solvers.WhitenedComponents`).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NotPositiveDefiniteError, NumericalFailureError

# Relative tolerance below which negative eigenvalues count as zero.
PSD_RTOL = 1e-10
# Relative tolerance for symmetry checks.
SYM_RTOL = 1e-10
# Diagonal jitter, relative to mean diagonal, added once before a
# Cholesky retry.
CHOL_JITTER = 1e-10


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (each matrix of a stack)."""
    return a.swapaxes(-1, -2)


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize a square matrix, or each matrix of a stack."""
    return 0.5 * (a + _t(a))


def is_symmetric(a: np.ndarray, rtol: float = SYM_RTOL):
    """True if ``max|A - A^T|`` is at most ``rtol * max|A|``.

    For an ``(m, R, R)`` stack, returns one flag per matrix, each measured
    against that matrix's own ``max|A|``.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    scale = np.max(np.abs(a), axis=(-2, -1))
    return np.max(np.abs(a - _t(a)), axis=(-2, -1)) <= rtol * np.maximum(scale, 1e-300)


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with eigenvalues sorted in descending order."""

    values: np.ndarray
    vectors: np.ndarray

    def compose(self, values: np.ndarray | None = None) -> np.ndarray:
        """Rebuild ``Q diag(values) Q^T``, defaulting to the stored values."""
        e = self.values if values is None else values
        return sym((self.vectors * e) @ self.vectors.T)


def eigh_descending(a: np.ndarray) -> EigenSystem:
    """Symmetric eigendecomposition, eigenvalues descending."""
    try:
        values, vectors = np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(values)[::-1]
    return EigenSystem(values=values[order], vectors=vectors[:, order])


def clamp_psd(a: np.ndarray) -> np.ndarray:
    """Symmetrize and truncate all negative eigenvalues to zero.

    Accepts one matrix or an ``(m, R, R)`` stack; each matrix is treated on
    its own, and one with no negative eigenvalue is only symmetrized.
    """
    s = sym(a)
    stack = s.reshape(-1, *s.shape[-2:])
    try:
        values, vectors = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    negative = values[:, 0] < 0.0
    if np.any(negative):
        # Compose in descending order, as EigenSystem.compose does, so a
        # single matrix clamps to the same bits through either function.
        e = np.maximum(values[negative, ::-1], 0.0)
        q = np.ascontiguousarray(vectors[negative, :, ::-1])
        stack[negative] = sym((q * e[:, None, :]) @ _t(q))
    return s


def check_psd(a: np.ndarray, name: str = "matrix", rtol: float = PSD_RTOL) -> np.ndarray:
    """Validate that ``a`` is symmetric PSD up to tolerance.

    Eigenvalues in ``[-rtol * spectral_radius, 0)`` are clamped to zero and
    the matrix is rebuilt; anything more negative raises.
    """
    if not is_symmetric(a):
        raise NotPositiveDefiniteError(f"{name} is not symmetric")
    es = eigh_descending(a)
    if es.values.size == 0:
        return a
    lo, hi = es.values[-1], max(es.values[0], 0.0)
    if lo >= 0.0:
        return a
    if lo < -rtol * max(hi, 1e-300):
        raise NotPositiveDefiniteError(
            f"{name} has negative eigenvalue {lo:.3e} (spectral radius {hi:.3e})"
        )
    return es.compose(np.maximum(es.values, 0.0))


def cholesky_with_jitter(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with a single jitter retry.

    On failure, ``CHOL_JITTER * tr(a)/R`` is added to the diagonal once; a
    second failure raises ``NumericalFailureError``.  For an ``(m, R, R)``
    stack the rule holds per matrix: a failed stacked factorization is
    split in halves until the failing matrices are isolated, and only those
    get their own jitter, so every other factor is the one ``a`` alone gives.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    if a.ndim == 3:
        if len(a) > 1:
            half = len(a) // 2
            return np.concatenate([cholesky_with_jitter(a[:half]),
                                   cholesky_with_jitter(a[half:])])
        return cholesky_with_jitter(a[0])[None]
    r = a.shape[0]
    jitter = CHOL_JITTER * max(np.trace(a) / r, 1e-300)
    try:
        return np.linalg.cholesky(a + jitter * np.eye(r))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"Cholesky failed even after jitter {jitter:.3e}"
        ) from exc


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L z = b`` for stacked factors.

    ``lower`` is ``(m, R, R)`` lower triangular and ``b`` is ``(m, R, c)``.
    A single factor takes one triangular solve for all ``c`` columns.  A
    longer stack goes through numpy's batched LU solve, which is far faster
    than a Python loop of triangular solves on small matrices.  Neither
    checks for non-finite entries; they propagate to the result.
    """
    if len(lower) == 1:
        return scipy.linalg.solve_triangular(lower[0], b[0], lower=True,
                                             check_finite=False)[None]
    return np.linalg.solve(lower, b)


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a_i x_i = b_i`` for an ``(m, R, R)`` stack of SPD matrices.

    ``b`` is ``(m, R, c)`` or an ``(R, c)`` matrix shared by every ``a_i``;
    the result is ``(m, R, c)``.
    """
    lower = cholesky_with_jitter(a)
    if len(lower) == 1:
        return scipy.linalg.cho_solve((lower[0], True), b.reshape(b.shape[-2:]),
                                      check_finite=False)[None]
    # One batched LU inverts the stacked factors; a_i^{-1} = L_i^{-T} L_i^{-1}.
    inverse = np.linalg.inv(lower)
    return _t(inverse) @ (inverse @ b)


def mvn_logpdf_zero_mean(x: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Log density of ``N(0, cov)`` at each row of ``x``.

    ``cov`` is one ``(R, R)`` matrix shared by all rows, or an ``(n, R, R)``
    stack with one matrix per row.  Evaluated through the (stacked) Cholesky
    factor; returns an array of shape ``(n,)`` for ``x`` of shape ``(n, R)``.
    """
    x = np.atleast_2d(x)
    r = x.shape[1]
    covs = cov.reshape(-1, r, r)
    m = len(covs)
    lower = cholesky_with_jitter(covs)
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
    z = solve_lower(lower, _t(x.reshape(m, -1, r)))
    quad = np.sum(z * z, axis=1)
    return (-0.5 * (r * np.log(2.0 * np.pi) + logdet[:, None] + quad)).reshape(-1)
