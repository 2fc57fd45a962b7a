"""The loading law and the idiosyncratic-noise law.

The shared driver of all customers is a K-dimensional i.i.d. mean-zero
Gaussian innovation sequence with the model document's covariance ``cov``.
Every reader takes it only through the scalar loading ``L = beta_sum . xi``,
whose law ``ModelSpec.loading`` forms once per model: ``GaussianInnovations``,
``N(0, q)`` with ``q = beta_sum' cov beta_sum``. A path draws its loadings
from it, a window sum ``sum_j h_j L_j`` is one of its ``sample_sums``, and the
rate curves evaluate its log-MGF and slope. Each method takes a float array
of any shape and works on it element by element. The idiosyncratic
per-customer noise needs only one exact sampler, for sums of independent
draws; no rate function reads its law.

Closed-form log-MGFs are a hard requirement: the rate-function machinery
does convex analysis on them, so purely empirical laws are rejected at model
load time.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidationError


@dataclass(frozen=True)
class GaussianInnovations:
    """The loading law ``N(0, var)``, ``var = beta_sum' cov beta_sum``.

    log-MGF ``var eta**2 / 2`` with slope ``var eta``. A variance that is
    zero, negative or past the range of doubles is refused: a flat log-MGF
    has no rate function to invert.
    """

    var: float

    def __post_init__(self):
        if not 0.0 < self.var < math.inf:
            raise ModelValidationError(
                "loading_variance", f"the loading variance beta_sum' cov beta_sum is {self.var}; "
                "it must be positive and within the range of doubles",
            )

    def log_mgf(self, eta: np.ndarray) -> np.ndarray:
        """log E exp(eta L) at each element of ``eta``."""
        eta = np.asarray(eta, dtype=np.float64)
        return 0.5 * ((eta * self.var) * eta)

    def slope(self, eta: np.ndarray) -> np.ndarray:
        """Derivative of ``log_mgf`` at each element of ``eta``."""
        return np.asarray(eta, dtype=np.float64) * self.var

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. loadings, shape ``(size,)``: one normal each."""
        z = rng.standard_normal(size)
        z *= math.sqrt(self.var)
        return z

    def sample_sums(self, rng: np.random.Generator, h: np.ndarray, size: int) -> np.ndarray:
        """``size`` i.i.d. draws of ``sum_j h[j] L_j``: one normal each, from its law N(0, (h . h) var)."""
        h = np.asarray(h, dtype=np.float64)
        return rng.standard_normal(size) * math.sqrt(self.var * float(np.sum(h * h)))


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
