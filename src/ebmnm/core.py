"""Domain types, validation and serialization.

The central objects are :class:`Dataset` (observed vectors plus known noise
covariances) and :class:`MixturePrior` (the mixture of zero-mean multivariate
normals being estimated).  Matrices are stored dense; the intended regime is
small dimension (tens of conditions, dimensions beyond a few hundred are
untested) and potentially large sample counts.

All types are immutable after construction and safe to share across workers.
The noise is factored once per :class:`Dataset`, whose cached whitening
every update of a fit that depends on the noise alone reads.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .exceptions import (
    DimensionMismatchError,
    EmptyDataError,
    InvariantViolationError,
    MalformedInputError,
    NotPositiveDefiniteError,
    UnsupportedNoiseError,
)

# Mixture weights must sum to one within this absolute tolerance.
WEIGHT_SUM_ATOL = 1e-12
# Relative tolerance for the scaled-constraint proportionality check.
SCALED_MATCH_RTOL = 1e-8
# Eigenvalues above this fraction of the spectral radius count toward rank.
RANK_EIG_RTOL = 1e-8

# Floating point text format preserving full double precision.
FLOAT_FMT = "%.17g"

ALGORITHMS = ("ted", "ed", "fa")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    return _read_only(np.array(a, dtype=float))


@dataclass(frozen=True)
class Dataset:
    """Observed vectors with known Gaussian noise covariances.

    Parameters
    ----------
    x : ndarray, shape (n, R)
        Observed vectors, one row per observation.
    noise : ndarray, shape (R, R) or (n, R, R)
        Noise covariance shared by all observations (2-d) or one matrix per
        observation (3-d).  Every matrix must be symmetric positive definite.

    A dataset is checked when it is built, so every ``Dataset`` that exists
    is valid.  Building one raises ``EmptyDataError`` if there are no
    observations, ``DimensionMismatchError`` if the shapes disagree,
    ``MalformedInputError`` if an entry is not finite, and
    ``NotPositiveDefiniteError`` naming the first noise matrix that is not
    symmetric positive definite.

    The noise is factored once, on first use (``_noise_factor``).  For a
    shared noise ``V = L L^T`` :attr:`noise_cholesky` is ``L``, and
    :attr:`noise_whitener` and :attr:`whitened_x` are views of that factor;
    for per-observation noise all three raise ``UnsupportedNoiseError``.
    """

    x: np.ndarray
    noise: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _freeze(self.x))
        object.__setattr__(self, "noise", _freeze(self.noise))
        _check_dataset(self)

    @property
    def n_obs(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def shared_noise(self) -> bool:
        return self.noise.ndim == 2

    def noise_for(self, j: int) -> np.ndarray:
        """Noise covariance of observation ``j``."""
        return self.noise if self.shared_noise else self.noise[j]

    def _check_shared(self) -> None:
        if not self.shared_noise:
            raise UnsupportedNoiseError("noise whitening needs a shared noise covariance")

    @cached_property
    def noise_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor ``L`` of the shared noise ``V = L L^T``."""
        self._check_shared()
        return _read_only(linalg.cholesky_with_jitter(self.noise))

    @cached_property
    def noise_whitener(self) -> np.ndarray:
        """The whitener ``L^{-1}``, so ``L^{-1} V L^{-T} = I``."""
        self._check_shared()
        return self._noise_factor[0][0]

    @cached_property
    def whitened_x(self) -> np.ndarray:
        """Whitened observations, row ``j`` being ``L^{-1} x_j``; shape (n, R)."""
        self._check_shared()
        return self._noise_factor[2]

    @cached_property
    def _noise_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ``(W, logdet, z)`` of the noise as m = 1 (shared, reusing ``L``) or
        m = n matrices ``V_j = L_j L_j^T``: the exact inverse factors ``W_j = L_j^{-1}``,
        ``log det V_j`` and the whitened rows ``z_j = W_j x_j``."""
        lower = (self.noise_cholesky[None] if self.shared_noise
                 else linalg.cholesky_with_jitter(self.noise))
        logdets = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
        whiteners = _read_only(linalg.inv_lower(lower))
        return whiteners, _read_only(logdets), _read_only(linalg.per_row(whiteners, self.x))


def _observation(dataset: Dataset, j: int) -> Dataset:
    """Observation ``j`` as a one-row dataset that reuses a shared noise's factor."""
    row = Dataset(dataset.x[j][None], dataset.noise_for(j))
    if dataset.shared_noise:
        row.__dict__.update(noise_cholesky=dataset.noise_cholesky)
    return row


def validate_dataset(dataset: Dataset) -> Dataset:
    """Return ``dataset`` unchanged; raises nothing.

    A :class:`Dataset` is checked when it is built, so every one that exists
    is valid; building one raises the errors its docstring lists.
    """
    return dataset


def _check_dataset(dataset: Dataset) -> None:
    """The checks :class:`Dataset` runs when it is built."""
    x, noise = dataset.x, dataset.noise
    if x.ndim != 2:
        raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
    n, r = x.shape
    if n < 1:
        raise EmptyDataError("dataset has no observations")
    if r < 1:
        raise DimensionMismatchError("dataset has zero columns")
    if not np.all(np.isfinite(x)):
        raise MalformedInputError("x contains non-finite values")
    if noise.ndim == 2:
        mats = noise[None, :, :]
    elif noise.ndim == 3:
        if noise.shape[0] != n:
            raise DimensionMismatchError(
                f"per-observation noise has {noise.shape[0]} matrices for {n} observations"
            )
        mats = noise
    else:
        raise DimensionMismatchError(f"noise must be 2-d or 3-d, got shape {noise.shape}")
    if mats.shape[1:] != (r, r):
        raise DimensionMismatchError(
            f"noise matrices have shape {mats.shape[1:]}, expected ({r}, {r})"
        )
    if not np.all(np.isfinite(mats)):
        raise MalformedInputError("noise contains non-finite values")
    asymmetric = np.flatnonzero(~linalg.is_symmetric(mats))
    if asymmetric.size:
        raise NotPositiveDefiniteError(f"noise matrix {asymmetric[0]} is not symmetric")
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        # The stacked factorization does not say which matrix failed.
        for j, v in enumerate(mats):
            try:
                np.linalg.cholesky(v)
            except np.linalg.LinAlgError:
                raise NotPositiveDefiniteError(
                    f"noise matrix {j} failed the Cholesky check"
                ) from None


@dataclass(frozen=True)
class ComponentConstraint:
    """Structural constraint on one prior covariance.

    ``kind`` is one of ``"free"`` (unconstrained PSD), ``"rank1"``
    (outer product of a single vector) or ``"scaled"`` (nonnegative multiple
    of the fixed ``base`` matrix).
    """

    kind: str
    base: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("free", "rank1", "scaled"):
            raise InvariantViolationError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "scaled":
            if self.base is None:
                raise InvariantViolationError("scaled constraint requires a base matrix")
            base = linalg.check_psd(np.array(self.base, dtype=float), "scaled base")
            if not np.any(base):
                raise InvariantViolationError("scaled base matrix must be nonzero")
            object.__setattr__(self, "base", _freeze(base))
        elif self.base is not None:
            raise InvariantViolationError(f"{self.kind} constraint takes no base matrix")

    @classmethod
    def free(cls) -> "ComponentConstraint":
        return cls("free")

    @classmethod
    def rank1(cls) -> "ComponentConstraint":
        return cls("rank1")

    @classmethod
    def scaled(cls, base: np.ndarray) -> "ComponentConstraint":
        return cls("scaled", base)


@dataclass(frozen=True)
class Penalty:
    """Eigenvalue penalty on a prior covariance.

    ``kind`` is ``"none"``, ``"iw"`` (log-determinant plus trace of the
    inverse) or ``"nn"`` (nuclear norms of the matrix and its inverse);
    ``lam`` is the strength, required positive when a penalty is active.
    """

    kind: str
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "iw", "nn"):
            raise InvariantViolationError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "none":
            object.__setattr__(self, "lam", 0.0)
        elif not (self.lam > 0):
            raise InvariantViolationError("penalty strength must be positive")

    @property
    def active(self) -> bool:
        return self.kind != "none"

    @classmethod
    def none(cls) -> "Penalty":
        return cls("none")

    @classmethod
    def inverse_wishart(cls, lam: float) -> "Penalty":
        return cls("iw", lam)

    @classmethod
    def nuclear_norm(cls, lam: float) -> "Penalty":
        return cls("nn", lam)


def _check_component(u: np.ndarray, constraint: ComponentConstraint, k: int) -> np.ndarray:
    """Validate one prior covariance against its constraint; may clamp."""
    if not linalg.is_symmetric(u):
        raise InvariantViolationError(f"covariance {k} is not symmetric")
    try:
        u = linalg.check_psd(u, f"covariance {k}")
    except NotPositiveDefiniteError as exc:
        raise InvariantViolationError(str(exc)) from exc
    if constraint.kind == "rank1":
        eigs = np.linalg.eigvalsh(u)
        top = max(eigs.max(initial=0.0), 0.0)
        if np.sum(eigs > RANK_EIG_RTOL * max(top, 1e-300)) > 1:
            raise InvariantViolationError(f"covariance {k} is rank1-constrained but has rank > 1")
    elif constraint.kind == "scaled":
        base = constraint.base
        denom = float(np.sum(base * base))
        c = max(float(np.sum(u * base)) / denom, 0.0)
        resid = np.linalg.norm(u - c * base)
        if resid > SCALED_MATCH_RTOL * max(np.linalg.norm(u), 1e-300):
            raise InvariantViolationError(
                f"covariance {k} is not a nonnegative multiple of its scaled base"
            )
    return u


@dataclass(frozen=True)
class MixturePrior:
    """Mixture of zero-mean multivariate normals.

    Parameters
    ----------
    weights : ndarray, shape (K,)
        Mixture proportions; nonnegative, summing to one.
    covariances : ndarray, shape (K, R, R)
        Symmetric PSD covariance of each component.
    scales : ndarray, shape (K,)
        Per-component scale factors used by the penalty terms.
    constraints : tuple of ComponentConstraint
        Structural constraint of each component; defaults to all free.
    """

    weights: np.ndarray
    covariances: np.ndarray
    scales: np.ndarray | None = None
    constraints: tuple[ComponentConstraint, ...] = field(default=())

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        covariances = np.array(self.covariances, dtype=float)
        k = weights.shape[0] if weights.ndim == 1 else 0
        if weights.ndim != 1 or k < 1:
            raise InvariantViolationError("weights must be a nonempty 1-d array")
        scales = np.ones(k) if self.scales is None else np.array(self.scales, dtype=float)
        constraints = self.constraints or tuple(ComponentConstraint.free() for _ in range(k))
        if covariances.ndim != 3 or covariances.shape[0] != k:
            raise DimensionMismatchError(
                f"covariances must have shape (K, R, R) with K={k}, got {covariances.shape}"
            )
        if covariances.shape[1] != covariances.shape[2]:
            raise DimensionMismatchError("covariances must be square")
        if scales.shape != (k,) or len(constraints) != k:
            raise DimensionMismatchError("weights, scales and constraints must agree in length")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > WEIGHT_SUM_ATOL:
            raise InvariantViolationError(
                f"mixture weights must be nonnegative and sum to 1, got sum {weights.sum()!r}"
            )
        if np.any(~(scales > 0)):
            raise InvariantViolationError("scale factors must be positive")
        covariances = np.stack(
            [_check_component(u, c, k_) for k_, (u, c) in enumerate(zip(covariances, constraints))]
        )
        object.__setattr__(self, "weights", _freeze(weights))
        object.__setattr__(self, "covariances", _freeze(covariances))
        object.__setattr__(self, "scales", _freeze(scales))
        object.__setattr__(self, "constraints", tuple(constraints))

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.covariances.shape[1]


def _is_real(value) -> bool:
    """A real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitConfig:
    """Options controlling a mixture fit.

    ``algorithm`` is one of ``"ted"`` (exact eigenvalue-truncation updates,
    shared noise only), ``"ed"`` (EM covariance updates, any noise) or
    ``"fa"`` (rank-1 vector updates, any noise).  The fit stops when the
    objective gain between successive iterations drops below ``tolerance``
    or after ``max_iterations``.  ``warm_start_iterations`` EM ("ed")
    iterations are run first when positive.
    """

    algorithm: str
    penalty: Penalty = field(default_factory=Penalty.none)
    max_iterations: int = 2000
    tolerance: float = 0.01
    warm_start_iterations: int = 0
    n_components: int | None = None

    def __post_init__(self):
        from .exceptions import InvalidConfigError

        if self.algorithm not in ALGORITHMS:
            raise InvalidConfigError(f"unknown algorithm {self.algorithm!r}")
        for name in ("max_iterations", "warm_start_iterations"):
            value = getattr(self, name)
            if not _is_real(value) or not float(value).is_integer():
                raise InvalidConfigError(f"{name} must be a whole number, got {value!r}")
        if not _is_real(self.tolerance):
            raise InvalidConfigError(f"tolerance must be a number, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise InvalidConfigError("max_iterations must be at least 1")
        if not (self.tolerance > 0):
            raise InvalidConfigError("tolerance must be positive")
        if self.warm_start_iterations < 0:
            raise InvalidConfigError("warm_start_iterations must be nonnegative")
        if self.penalty.kind == "nn" and self.algorithm != "ted":
            raise InvalidConfigError("the nuclear-norm penalty is only supported with ted")
        if self.penalty.active and self.algorithm == "fa":
            raise InvalidConfigError("penalties are not supported with fa")

    def validate_for(self, dataset: Dataset, init: MixturePrior) -> None:
        """Check the configuration against a dataset and initial prior."""
        from .exceptions import InvalidConfigError

        if init.dim != dataset.dim:
            raise InvalidConfigError(
                f"initial prior dimension {init.dim} does not match data dimension {dataset.dim}"
            )
        if self.n_components is not None and self.n_components != init.n_components:
            raise InvalidConfigError(
                f"config expects {self.n_components} components, init has {init.n_components}"
            )
        kinds = {c.kind for c in init.constraints}
        if self.algorithm == "ted" and not dataset.shared_noise:
            raise InvalidConfigError("ted requires shared noise")
        if self.algorithm == "ed" and "rank1" in kinds:
            raise InvalidConfigError("ed cannot fit rank1-constrained components")
        if self.algorithm == "fa" and "free" in kinds:
            raise InvalidConfigError(
                "fa fits rank-1 components only; use rank1 or scaled constraints"
            )


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration record of a fit.

    ``objective`` holds the penalized log-likelihood after each recorded
    iteration (entry 0 is the value at initialization); ``seconds`` is the
    elapsed wall-clock time at each record.
    """

    iterations: np.ndarray
    objective: np.ndarray
    seconds: np.ndarray
    converged: bool
    iterations_run: int

    def __post_init__(self):
        object.__setattr__(self, "iterations", np.asarray(self.iterations, dtype=int))
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "seconds", np.asarray(self.seconds, dtype=float))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _constraint_to_json(c: ComponentConstraint) -> dict:
    if c.kind == "scaled":
        return {"kind": "scaled", "base": c.base.tolist()}
    return {"kind": c.kind}


def _constraint_from_json(obj) -> ComponentConstraint:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInputError(f"constraint entry must be an object with 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "scaled":
        if "base" not in obj:
            raise MalformedInputError("scaled constraint is missing its base matrix")
        try:
            base = np.array(obj["base"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise MalformedInputError(f"scaled base is not a numeric matrix: {exc}") from exc
        return ComponentConstraint.scaled(base)
    if kind in ("free", "rank1"):
        return ComponentConstraint(kind)
    raise MalformedInputError(f"unknown constraint kind {kind!r}")


def serialize_prior(prior: MixturePrior) -> bytes:
    """Encode a prior as UTF-8 JSON.

    The document has fields ``K``, ``pi``, ``s``, ``U`` (a list of K row-major
    R x R matrices) and ``constraints``; all floats are written at full
    precision so the round trip is lossless.
    """
    doc = {
        "K": prior.n_components,
        "pi": prior.weights.tolist(),
        "s": prior.scales.tolist(),
        "U": prior.covariances.tolist(),
        "constraints": [_constraint_to_json(c) for c in prior.constraints],
    }
    return json.dumps(doc, indent=2).encode("utf-8")


def deserialize_prior(data: bytes | str) -> MixturePrior:
    """Decode a prior from the JSON produced by :func:`serialize_prior`.

    Raises ``MalformedInputError`` when the document cannot be parsed and
    ``InvariantViolationError`` when the parsed object fails the
    :class:`MixturePrior` checks.
    """
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"prior JSON could not be parsed: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInputError("prior JSON must be an object")
    for key in ("K", "pi", "s", "U", "constraints"):
        if key not in doc:
            raise MalformedInputError(f"prior JSON is missing field {key!r}")
    try:
        weights = np.array(doc["pi"], dtype=float)
        scales = np.array(doc["s"], dtype=float)
        covariances = np.array(doc["U"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"prior fields are not numeric arrays: {exc}") from exc
    constraints = tuple(_constraint_from_json(c) for c in doc["constraints"])
    if len(constraints) != len(weights) or doc["K"] != len(weights):
        raise MalformedInputError("prior JSON field lengths disagree with K")
    return MixturePrior(weights, covariances, scales, constraints)


def save_prior(prior: MixturePrior, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_prior(prior))


def load_prior(path) -> MixturePrior:
    with open(path, "rb") as fh:
        return deserialize_prior(fh.read())


# ---------------------------------------------------------------------------
# Dataset CSV format
# ---------------------------------------------------------------------------


def save_matrix_csv(path, a: np.ndarray) -> None:
    """Write a 2-d array as comma-separated text at full precision."""
    np.savetxt(path, np.atleast_2d(a), fmt=FLOAT_FMT, delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise MalformedInputError(f"could not parse {path}: {exc}") from exc


def save_dataset(dataset: Dataset, x_path, noise_path) -> None:
    """Write a dataset as two CSV files.

    The observations go to ``x_path`` (n rows, R columns).  Shared noise is
    written as a single R x R block; per-observation noise as n stacked
    R x R blocks.
    """
    save_matrix_csv(x_path, dataset.x)
    noise = dataset.noise if dataset.shared_noise else dataset.noise.reshape(-1, dataset.dim)
    save_matrix_csv(noise_path, noise)


def load_dataset(x_path, noise_path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`; building it checks it."""
    x = load_matrix_csv(x_path)
    noise = load_matrix_csv(noise_path)
    n, r = x.shape
    if noise.shape == (r, r):
        pass
    elif noise.shape == (n * r, r):
        noise = noise.reshape(n, r, r)
    else:
        raise DimensionMismatchError(
            f"noise file has shape {noise.shape}; expected ({r}, {r}) or ({n * r}, {r})"
        )
    return Dataset(x, noise)
