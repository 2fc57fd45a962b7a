"""Innovation and idiosyncratic-noise laws.

The shared driver of all customers is a K-dimensional i.i.d. mean-zero
innovation sequence whose log moment generating function (log-MGF) is finite
everywhere and available in closed form together with its gradient. The
idiosyncratic per-customer noise needs only one exact sampler, for sums of
independent draws; no rate function reads its law.

A window sum is one linear functional ``sum_j kernel[j] . xi_j`` of the
innovations. ``InnovationModel.sample_projections`` draws such sums: any law
draws every innovation row and reduces the rows in blocks, and the Gaussian
law draws each sum from its exact normal law, one normal per sum. In the same
way ``InnovationModel.along(direction)`` is the law of ``direction . xi``, a
one-dimensional law that a path samples for its loadings: any law draws its
rows and reduces each one, and the Gaussian law is ``N(0, direction' cov
direction)``, one normal per draw.

The window quadrature reads a law along one direction, ``beta_bar``, at many
scalars at once: ``InnovationModel.ray(direction)`` returns a ``Ray``, the vectorized
``log_mgf(scales)`` and ``slope(scales)`` of ``log_mgf(s * direction)``. The
default ray evaluates the law once per scalar; the Gaussian ray forms the
quadratic form ``direction' cov direction`` once and is then a product.

Closed-form log-MGFs are a hard requirement: the rate-function machinery
does convex analysis on them, so purely empirical laws are rejected at model
load time.
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ModelValidationError, SteepnessWarning

# |lambda| magnitudes probed by the steepness spot check.
_STEEPNESS_PROBES = (1e2, 1e3, 1e4)
_PROJECTION_BLOCK_ROWS = 1 << 14  # innovation rows drawn at once by sample_projections


def _rows_matmul(rows: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ m`` into ``out``, each row's bits independent of the row count.

    numpy multiplies a lone row by a vector kernel, which rounds unlike the
    matrix kernels it takes for two or more rows, so a lone row is doubled.
    """
    if len(rows) != 1:
        return np.matmul(rows, m, out=out)
    out[...] = np.matmul(np.concatenate([rows, rows]), m)[:1]
    return out


class Ray(NamedTuple):
    """An innovation law along one direction ``u``, for arrays of scalars ``s``.

    ``log_mgf(s)`` is ``log_mgf(s * u)`` at each scalar and ``slope(s)`` its
    derivative in ``s``, ``u . grad_log_mgf(s * u)``; both return an array of
    the shape of ``s``.
    """

    log_mgf: Callable[[np.ndarray], np.ndarray]
    slope: Callable[[np.ndarray], np.ndarray]


class InnovationModel(abc.ABC):
    """Law of the K-dimensional innovation vector.

    Contract: ``log_mgf(0) == 0``, ``grad_log_mgf(0) == 0`` (mean zero),
    ``log_mgf`` convex and finite on all of R^K.
    """

    dim: int

    @abc.abstractmethod
    def log_mgf(self, eta: np.ndarray) -> float:
        """Lambda_xi(eta) = log E exp(eta . xi)."""

    @abc.abstractmethod
    def grad_log_mgf(self, eta: np.ndarray) -> np.ndarray:
        """Gradient of ``log_mgf`` at eta."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` i.i.d. innovation vectors, shape (size, dim)."""

    def sample_projections(self, rng: np.random.Generator, kernel: np.ndarray, size: int) -> np.ndarray:
        """``size`` i.i.d. draws of ``sum_j kernel[j] . xi_j``, for ``kernel`` of shape (span, dim).

        The default draws all ``span`` innovation rows of each sum, in blocks
        of about ``_PROJECTION_BLOCK_ROWS`` rows, and reduces them row by row.
        Block draws continue one stream exactly, and a row sum, unlike a
        matrix-vector product, rounds alike for any row count, so the bytes do
        not depend on the block size. Laws whose projections have a closed
        form override this with one draw per sum.
        """
        span = len(kernel)
        flat = np.asarray(kernel, dtype=np.float64).ravel()
        block = max(1, _PROJECTION_BLOCK_ROWS // span)
        out = np.empty(size, dtype=np.float64)
        for start in range(0, size, block):
            n = min(block, size - start)
            xi = self.sample(rng, n * span).reshape(n, flat.size)
            xi *= flat
            xi.sum(axis=1, out=out[start : start + n])
        return out

    def along(self, direction: np.ndarray) -> InnovationModel:
        """The law of ``direction . xi``, as a one-dimensional law.

        The default draws this law's rows and reduces each with
        ``_rows_matmul``, so a draw has the bytes of the row product for any
        draw size. Laws with a closed form along a direction (e.g. Gaussian)
        override this with that law.
        """
        return _Along(self, np.asarray(direction, dtype=np.float64))

    def ray(self, direction: np.ndarray) -> Ray:
        """This law along ``direction``, evaluated once per scalar.

        Laws with a closed form along rays (e.g. Gaussian) override this with a
        vectorized ray.
        """
        direction = np.asarray(direction, dtype=np.float64)

        def log_mgf(scales: np.ndarray) -> np.ndarray:
            return np.array([self.log_mgf(s * direction) for s in np.asarray(scales)])

        def slope(scales: np.ndarray) -> np.ndarray:
            return np.array(
                [float(direction @ self.grad_log_mgf(s * direction)) for s in np.asarray(scales)]
            )

        return Ray(log_mgf, slope)


class _Along(InnovationModel):
    """``direction . xi`` for a law ``base`` of ``xi``: its rows, each reduced along ``direction``."""

    dim = 1

    def __init__(self, base: InnovationModel, direction: np.ndarray):
        self.base, self.direction = base, direction

    def log_mgf(self, eta: np.ndarray) -> float:
        return self.base.log_mgf(float(np.asarray(eta)[0]) * self.direction)

    def grad_log_mgf(self, eta: np.ndarray) -> np.ndarray:
        grad = self.base.grad_log_mgf(float(np.asarray(eta)[0]) * self.direction)
        return np.array([float(self.direction @ grad)])

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
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
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

    def log_mgf(self, eta: np.ndarray) -> float:
        eta = np.asarray(eta, dtype=np.float64)
        return 0.5 * float(eta @ self.cov @ eta)

    def grad_log_mgf(self, eta: np.ndarray) -> np.ndarray:
        return self.cov @ np.asarray(eta, dtype=np.float64)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.dim))
        if self.dim == 1:  # same bytes as the 1x1 matrix product, without BLAS
            z *= self._factor[0, 0]
            return z
        return _rows_matmul(z, self._factor.T, np.empty_like(z))

    def sample_projections(self, rng: np.random.Generator, kernel: np.ndarray, size: int) -> np.ndarray:
        """One normal per sum: the sum is exactly N(0, sum_j kernel_j' cov kernel_j)."""
        kernel = np.asarray(kernel, dtype=np.float64)
        sigma = math.sqrt(max(float(np.sum((kernel @ self.cov) * kernel)), 0.0))
        return rng.standard_normal(size) * sigma

    def along(self, direction: np.ndarray) -> GaussianInnovations:
        """One normal per draw: ``direction . xi`` is exactly N(0, direction' cov direction)."""
        direction = np.asarray(direction, dtype=np.float64)
        return GaussianInnovations(cov=[[max(float(direction @ self.cov @ direction), 0.0)]])

    def ray(self, direction: np.ndarray) -> Ray:
        """``0.5 q s**2`` and ``q s`` with ``q = direction' cov direction``, formed once."""
        quad = float(np.asarray(direction) @ self.cov @ np.asarray(direction))

        def log_mgf(scales: np.ndarray) -> np.ndarray:
            s = np.asarray(scales, dtype=np.float64)
            return 0.5 * quad * s * s

        def slope(scales: np.ndarray) -> np.ndarray:
            return quad * np.asarray(scales, dtype=np.float64)

        return Ray(log_mgf, slope)


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

    Evaluates the directional derivative magnitude at +-1e2, 1e3, 1e4 and
    requires strict growth on both sides. A slope that overflows (raising
    ``OverflowError`` or reading as non-finite) has grown past every float
    and counts as growth. This cannot prove steepness; a failure is reported
    as a warning here and becomes a hard error only if Legendre bracketing
    actually fails.
    """
    ok = True
    probes = np.asarray(_STEEPNESS_PROBES)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = model.ray(direction).slope
        for sign in (1.0, -1.0):
            try:
                mags = np.abs(slope(sign * probes)).tolist()
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
