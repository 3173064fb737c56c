"""Dense linear-algebra helpers used throughout the package.

All matrices are small (tens of rows), dense and symmetric; everything here
wraps LAPACK routines with the tolerance conventions used by the rest of the
code: eigenvalues above ``-PSD_RTOL`` times the spectral radius count as
nonnegative, and Cholesky factorizations get one jitter retry before failing.

The stacked helpers take an ``(m, R, R)`` stack: a dataset's noise (m = 1
shared, m = n per observation), the per-observation ``U_k + V_j`` or their
whiteners.
"""

from dataclasses import dataclass

import numpy as np

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


def is_symmetric(a: np.ndarray):
    """True if ``max|A - A^T|`` is at most ``SYM_RTOL * max|A|``.

    For an ``(m, R, R)`` stack, returns one flag per matrix, each measured
    against that matrix's own ``max|A|``.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    scale = np.max(np.abs(a), axis=(-2, -1))
    return np.max(np.abs(a - _t(a)), axis=(-2, -1)) <= SYM_RTOL * np.maximum(scale, 1e-300)


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition with eigenvalues sorted in descending order."""

    values: np.ndarray
    vectors: np.ndarray

    def compose(self, values: np.ndarray) -> np.ndarray:
        """Rebuild ``Q diag(values) Q^T``."""
        return sym((self.vectors * values) @ self.vectors.T)


def eigh_descending(a: np.ndarray) -> EigenSystem:
    """Symmetric eigendecomposition, eigenvalues descending."""
    try:
        values, vectors = np.linalg.eigh(sym(a))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(values)[::-1]
    return EigenSystem(values=values[order], vectors=vectors[:, order])


def check_psd(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is symmetric PSD up to tolerance.

    Eigenvalues in ``[-PSD_RTOL * spectral_radius, 0)`` are clamped to zero and
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
    if lo < -PSD_RTOL * max(hi, 1e-300):
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


def inv_lower(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix or stack, as ``inv(L^T)^T``.

    The LU of ``L^T`` has nothing to pivot, so the result is exactly lower
    triangular with diagonal exactly ``1 / l_ii``; ``inv(L)`` pivots.
    """
    return _t(np.linalg.inv(_t(lower)))


def per_row(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``a_j r_j`` ``(n, p)`` for rows ``(n, R)`` and a stack ``(m, p, R)``, m = 1 or n."""
    if len(stack) == 1:
        return rows @ stack[0].T
    return (stack @ rows[:, :, None])[:, :, 0]


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a_i x_i = b_i`` for an ``(m, R, R)`` stack of SPD matrices.

    ``b`` is ``(m, R, c)`` or an ``(R, c)`` matrix shared by every ``a_i``;
    the result is ``(m, R, c)``.
    """
    # a_i^{-1} = L_i^{-T} L_i^{-1} from the stacked inverse factors.
    inverse = inv_lower(cholesky_with_jitter(a))
    return _t(inverse) @ (inverse @ b)


def mvn_logpdf_zero_mean(x: np.ndarray, whitener: np.ndarray, logdet: np.ndarray) -> np.ndarray:
    """Log density of ``N(0, cov_j)`` at each row ``x_j`` of ``x``.

    ``x`` is ``(n, R)``, ``whitener`` an ``(m, R, R)`` stack with
    ``cov_j^{-1} = W_j^T W_j`` and ``logdet`` the ``(m,)`` values
    ``log det cov_j``, m = 1 (one covariance for every row) or n.
    Returns shape ``(n,)``.
    """
    z = per_row(whitener, x)
    return -0.5 * (x.shape[1] * np.log(2.0 * np.pi) + logdet + np.einsum("ij,ij->i", z, z))
