"""Innovation and idiosyncratic-noise laws.

The shared driver of all customers is a K-dimensional i.i.d. mean-zero
innovation sequence whose log moment generating function (log-MGF) is finite
everywhere and available in closed form together with its gradient. Both
take a batch of eta vectors, shape ``(..., K)``, so a caller evaluates many
points in one call. The idiosyncratic per-customer noise needs only one
exact sampler, for sums of independent draws; no rate function reads its law.

Every reader of the innovations reads them along one direction, through the
scalar loading ``L = beta_sum . xi``. ``InnovationModel.along(direction)`` is
the law of ``direction . xi``, a one-dimensional law, and ``ModelSpec.loading``
forms it once per model: a path draws its loadings from it, a window sum
``sum_j h_j L_j`` is one of its ``sample_sums``, and the rate curves and the
steepness check evaluate its log-MGF. Any law along a direction draws its
rows and reduces each one, and draws a window sum's loadings in blocks; the
Gaussian law along ``direction`` is ``N(0, direction' cov direction)``, one
normal per loading and one per window sum.

Closed-form log-MGFs are a hard requirement: the rate-function machinery
does convex analysis on them, so purely empirical laws are rejected at model
load time.
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError, SteepnessWarning

# |lambda| magnitudes probed by the steepness spot check.
_STEEPNESS_PROBES = (1e2, 1e3, 1e4)
_SUM_BLOCK_DRAWS = 1 << 14  # draws made at once by the default sample_sums


def _rows_matmul(rows: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ m`` into ``out``, each row's bits independent of the row count.

    numpy multiplies a lone row by a vector kernel, which rounds unlike the
    matrix kernels it takes for two or more rows, so a lone row is doubled.
    """
    if len(rows) != 1:
        return np.matmul(rows, m, out=out)
    out[...] = np.matmul(np.concatenate([rows, rows]), m)[:1]
    return out


class InnovationModel(abc.ABC):
    """Law of the K-dimensional innovation vector.

    Contract: ``log_mgf(0) == 0``, ``grad_log_mgf(0) == 0`` (mean zero),
    ``log_mgf`` convex and finite on all of R^K. Both take ``eta`` of shape
    ``(..., dim)``, a batch of vectors, and evaluate each vector alike
    whatever the batch: ``log_mgf`` returns shape ``(...)`` and
    ``grad_log_mgf`` shape ``(..., dim)``.
    """

    dim: int

    @abc.abstractmethod
    def log_mgf(self, eta: np.ndarray) -> np.ndarray:
        """Lambda_xi(eta) = log E exp(eta . xi) at each vector of ``eta``."""

    @abc.abstractmethod
    def grad_log_mgf(self, eta: np.ndarray) -> np.ndarray:
        """Gradient of ``log_mgf`` at each vector of ``eta``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. innovation vectors, shape (size, dim)."""

    def sample_sums(self, rng: np.random.Generator, h: np.ndarray, size: int) -> np.ndarray:
        """``size`` i.i.d. draws of ``sum_j h[j] x_j``, the ``x_j`` i.i.d. draws of this one-dimensional law.

        The default draws all ``len(h)`` values of each sum, in blocks of
        about ``_SUM_BLOCK_DRAWS`` draws, and reduces them row by row. Block
        draws continue one stream exactly, and a row sum, unlike a
        matrix-vector product, rounds alike for any row count, so the bytes
        do not depend on the block size. Laws whose sums have a closed form
        override this with one draw per sum.
        """
        h = np.asarray(h, dtype=np.float64)
        block = max(1, _SUM_BLOCK_DRAWS // len(h))
        out = np.empty(size, dtype=np.float64)
        for start in range(0, size, block):
            n = min(block, size - start)
            x = self.sample(rng, n * len(h)).reshape(n, len(h))
            x *= h
            x.sum(axis=1, out=out[start : start + n])
        return out

    def along(self, direction: np.ndarray) -> InnovationModel:
        """The law of ``direction . xi``, as a one-dimensional law.

        The default draws this law's rows and reduces each with
        ``_rows_matmul``, so a draw has the bytes of the row product for any
        draw size. Laws with a closed form along a direction (e.g. Gaussian)
        override this with that law.
        """
        return _Along(self, np.asarray(direction, dtype=np.float64))


class _Along(InnovationModel):
    """``direction . xi`` for a law ``base`` of ``xi``: its rows, each reduced along ``direction``."""

    dim = 1

    def __init__(self, base: InnovationModel, direction: np.ndarray):
        self.base, self.direction = base, direction

    def log_mgf(self, eta: np.ndarray) -> np.ndarray:
        return self.base.log_mgf(np.asarray(eta, dtype=np.float64)[..., :1] * self.direction)

    def grad_log_mgf(self, eta: np.ndarray) -> np.ndarray:
        grad = self.base.grad_log_mgf(np.asarray(eta, dtype=np.float64)[..., :1] * self.direction)
        return (grad * self.direction).sum(axis=-1, keepdims=True)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.empty(size, dtype=np.float64)
        return _rows_matmul(self.base.sample(rng, size), self.direction, out)[:, None]


@dataclass(frozen=True)
class GaussianInnovations(InnovationModel):
    """Joint-normal innovations with mean zero and covariance ``cov``.

    log-MGF is eta' cov eta / 2 with gradient cov eta. The covariance may be
    singular (positive semidefinite); sampling uses a symmetric factor.
    """

    cov: np.ndarray
    _factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ModelValidationError("cov_square", "covariance must be a square matrix")
        if not (np.abs(cov - cov.T) <= 1e-12).all():
            raise ModelValidationError("cov_symmetric", "covariance must be symmetric")
        evals, evecs = np.linalg.eigh(cov)
        if evals.min(initial=0.0) < -1e-10 * max(1.0, float(evals.max(initial=0.0))):
            raise ModelValidationError(
                "cov_psd", "covariance must be positive semidefinite"
            )
        cov.setflags(write=False)
        factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
        factor.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_factor", factor)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    def log_mgf(self, eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=np.float64)
        grad = self.grad_log_mgf(eta)
        out = grad[..., 0] * eta[..., 0]
        for j in range(1, len(self.cov)):
            out += grad[..., j] * eta[..., j]
        return 0.5 * out

    def grad_log_mgf(self, eta: np.ndarray) -> np.ndarray:
        """``cov eta``, added up column by column, so a vector rounds alike in any batch.

        A sum over the short last axis would reduce each vector on its own, at
        several times the cost for a large batch.
        """
        eta = np.asarray(eta, dtype=np.float64)
        cols = self.cov.T
        grad = eta[..., :1] * cols[0]
        for j in range(1, len(cols)):
            grad += eta[..., j : j + 1] * cols[j]
        return grad

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.dim))
        if self.dim == 1:  # same bytes as the 1x1 matrix product, without BLAS
            z *= self._factor[0, 0]
            return z
        return _rows_matmul(z, self._factor.T, np.empty_like(z))

    def sample_sums(self, rng: np.random.Generator, h: np.ndarray, size: int) -> np.ndarray:
        """One normal per sum: for a one-dimensional law the sum is exactly N(0, (h . h) cov)."""
        if self.dim != 1:
            raise ValueError(f"sample_sums needs a one-dimensional law, got dimension {self.dim}")
        h = np.asarray(h, dtype=np.float64)
        sigma = math.sqrt(max(float(self.cov[0, 0]) * float(np.sum(h * h)), 0.0))
        return rng.standard_normal(size) * sigma

    def along(self, direction: np.ndarray) -> GaussianInnovations:
        """One normal per draw: ``direction . xi`` is exactly N(0, direction' cov direction).

        A variance that overflows a double is refused.
        """
        direction = np.asarray(direction, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            var = float(direction @ self.cov @ direction)
        if not math.isfinite(var):
            raise ModelValidationError(
                "loading_variance", f"the loading variance direction' cov direction is {var}, "
                "past the range of doubles",
            )
        return GaussianInnovations(cov=[[max(var, 0.0)]])


class NoiseModel(abc.ABC):
    """Idiosyncratic per-customer noise law (scalar, mean zero)."""

    @abc.abstractmethod
    def sample_aggregate(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Exact-law draws of sums of ``counts`` i.i.d. noise terms.

        ``counts`` is an integer array and the result a float array of its
        shape: one draw per sum, in place of one draw per customer.
        """


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """N(0, var) noise; a sum of n draws is exactly N(0, n var)."""

    var: float

    def __post_init__(self):
        if self.var < 0:
            raise ModelValidationError("noise_var_nonnegative", "noise variance must be >= 0")

    def sample_aggregate(self, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        scale = np.sqrt(self.var * counts)  # before the draws, so fewer arrays are alive at once
        return rng.standard_normal(counts.shape) * scale


def check_steepness(model: InnovationModel, direction: np.ndarray) -> bool:
    """Spot check that |d/d lambda log_mgf(lambda * direction)| grows without bound.

    Evaluates the directional derivative magnitude at +-1e2, 1e3, 1e4, one
    batch per side, and requires strict growth on both sides. A slope that
    overflows (raising ``OverflowError`` or reading as non-finite) has grown
    past every float and counts as growth. This cannot prove steepness; a
    failure is reported as a warning here and becomes a hard error only if
    Legendre bracketing actually fails. The package checks the loading law
    ``ModelSpec.loading`` along the limit curve's scale ``phi / C``.
    """
    ok = True
    direction = np.asarray(direction, dtype=np.float64)
    points = np.asarray(_STEEPNESS_PROBES)[:, None] * direction
    with np.errstate(over="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            try:
                mags = np.abs((model.grad_log_mgf(sign * points) * direction).sum(axis=-1)).tolist()
            except OverflowError:
                continue
            if not all(a < b or not math.isfinite(b) for a, b in zip(mags, mags[1:])):
                ok = False
    if not ok:
        warnings.warn(
            "innovation log-MGF derivative did not grow at large |lambda|; "
            "Legendre inversion may fail to bracket",
            SteepnessWarning,
            stacklevel=2,
        )
    return ok
