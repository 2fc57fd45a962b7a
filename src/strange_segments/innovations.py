"""Innovation and idiosyncratic-noise laws.

The shared driver of all customers is a K-dimensional i.i.d. mean-zero
innovation sequence whose log moment generating function (log-MGF) is finite
everywhere and available in closed form together with its gradient. The
idiosyncratic per-customer noise only needs a log-MGF finite near 0 and an
exact sampler for sums of independent draws.

Closed-form log-MGFs are a hard requirement: the rate-function machinery
does convex analysis on them, so purely empirical laws are rejected at model
load time.
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelValidationError, SteepnessWarning

# |lambda| magnitudes probed by the steepness spot check.
_STEEPNESS_PROBES = (1e2, 1e3, 1e4)


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

    def log_mgf_ray(self, direction: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """log_mgf(s * direction) for an array of scalars s.

        Quadrature only ever evaluates along one ray; models with a closed
        form along rays (e.g. Gaussian) override this with a vectorized
        version.
        """
        direction = np.asarray(direction, dtype=np.float64)
        return np.array([self.log_mgf(s * direction) for s in np.asarray(scales)])

    def grad_log_mgf_ray(self, direction: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Directional derivative direction . grad log_mgf(s * direction)."""
        direction = np.asarray(direction, dtype=np.float64)
        return np.array(
            [float(direction @ self.grad_log_mgf(s * direction)) for s in np.asarray(scales)]
        )


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
        return z @ self._factor.T

    def log_mgf_ray(self, direction: np.ndarray, scales: np.ndarray) -> np.ndarray:
        quad = float(np.asarray(direction) @ self.cov @ np.asarray(direction))
        s = np.asarray(scales, dtype=np.float64)
        return 0.5 * quad * s * s

    def grad_log_mgf_ray(self, direction: np.ndarray, scales: np.ndarray) -> np.ndarray:
        quad = float(np.asarray(direction) @ self.cov @ np.asarray(direction))
        return quad * np.asarray(scales, dtype=np.float64)


class NoiseModel(abc.ABC):
    """Idiosyncratic per-customer noise law (scalar, mean zero)."""

    variance: float

    @abc.abstractmethod
    def log_mgf_eps(self, lam: float) -> float:
        """Lambda_eps(lambda), finite on an open interval around 0."""

    @abc.abstractmethod
    def sample_aggregate(self, counts, rng: np.random.Generator):
        """Exact-law draws of sums of ``counts`` i.i.d. noise terms.

        ``counts`` may be a scalar or an integer array; the result matches
        its shape. This is the O(1)-per-step shortcut that replaces summing
        one draw per customer.
        """

    @abc.abstractmethod
    def sample_individual(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` literal single-customer draws (for literal mode and tests)."""


@dataclass(frozen=True)
class GaussianNoise(NoiseModel):
    """N(0, var) noise; a sum of n draws is exactly N(0, n var)."""

    var: float

    def __post_init__(self):
        if self.var < 0:
            raise ModelValidationError("noise_var_nonnegative", "noise variance must be >= 0")

    @property
    def variance(self) -> float:
        return self.var

    def log_mgf_eps(self, lam: float) -> float:
        return 0.5 * self.var * float(lam) ** 2

    def sample_aggregate(self, counts, rng: np.random.Generator):
        counts = np.asarray(counts)
        scale = np.sqrt(self.var * counts)
        draws = rng.standard_normal(counts.shape) * scale
        return float(draws) if draws.ndim == 0 else draws

    def sample_individual(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(n) * np.sqrt(self.var)


def check_steepness(model: InnovationModel, direction: np.ndarray) -> bool:
    """Spot check that |d/d lambda log_mgf(lambda * direction)| grows without bound.

    Evaluates the directional derivative magnitude at +-1e2, 1e3, 1e4 and
    requires strict growth on both sides. This cannot prove steepness; a
    failure is reported as a warning here and becomes a hard error only if
    Legendre bracketing actually fails.
    """
    ok = True
    for sign in (1.0, -1.0):
        mags = np.abs(model.grad_log_mgf_ray(direction, sign * np.asarray(_STEEPNESS_PROBES)))
        if not (mags[0] < mags[1] < mags[2]):
            ok = False
    if not ok:
        warnings.warn(
            "innovation log-MGF derivative did not grow at large |lambda|; "
            "Legendre inversion may fail to bracket",
            SteepnessWarning,
            stacklevel=2,
        )
    return ok
