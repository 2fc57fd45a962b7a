"""Static workload-model description and deterministic population arithmetic.

A server hosts ``K_groups`` customer groups. Group ``i`` has ``n_i(t) =
c_i * floor(t**alpha)`` customers at integer time ``t >= 0``, each with mean
workload ``mu_i`` and loading weights ``beta_i`` onto a shared K-dimensional
moving-average driver. Everything in this module is deterministic and exact:
populations and the cumulative normalizer ``N(t)`` are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, TYPE_CHECKING

import numpy as np

from .errors import ModelValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .innovations import InnovationModel, NoiseModel

# Relative half-width of the near-integer band in which floor(t**alpha) is
# resolved exactly instead of trusting the floating-point power.
_FLOOR_GUARD = 1e-9

# Largest denominator for which alpha is treated as an exact small rational
# and the floor is settled by integer exponentiation.
_MAX_RATIONAL_DEN = 64


@lru_cache(maxsize=64)
def _exact_rational(alpha: float) -> tuple[int, int] | None:
    """(p, q) when alpha is exactly the small rational p/q, else None.

    Memoized: a path growth asks for it up to three times, always with the
    model's one alpha.
    """
    frac = Fraction(alpha).limit_denominator(_MAX_RATIONAL_DEN)
    if frac == Fraction(alpha):
        return frac.numerator, frac.denominator
    return None


def floor_power(t: int, alpha: float) -> int:
    """floor(t**alpha) with a guard against floating-point boundary error.

    When ``t**alpha`` computed in floats lands within a small band around an
    integer ``n``, the plain floor may be off by one (e.g. ``4**0.5`` or
    ``1000**(1/3)``). Inside the band the result is settled exactly by
    integer exponentiation when ``alpha`` is a small rational ``p/q``
    (``t**alpha >= n`` iff ``t**p >= n**q``); otherwise the value is snapped
    to the nearest integer, which recovers the intended value whenever the
    float ``alpha`` itself is an approximation (1/3, 0.1, ...).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if t == 0:
        return 0
    v = float(t) ** alpha
    n = round(v)
    if abs(v - n) <= _FLOOR_GUARD * max(1.0, abs(v)):
        pq = _exact_rational(alpha)
        if pq is not None:
            p, q = pq
            return n if t**p >= n**q else n - 1
        return n
    return int(np.floor(v))


def floor_power_prefix(t_max: int, alpha: float, start: int = 0) -> np.ndarray:
    """Array of floor(t**alpha) for t = start..t_max (int64).

    Integer alpha is an exact integer power whenever it fits in 64 bits.
    Otherwise the float power is used everywhere except inside the
    near-integer guard band, where the same exact resolution as
    ``floor_power`` is applied. Agrees with ``floor_power`` element by
    element, so a range that starts later is a slice of the full array.
    """
    pq = _exact_rational(alpha)
    if pq is not None and pq[1] == 1 and pq[0] * max(t_max, 2).bit_length() < 62:
        t = np.arange(start, t_max + 1, dtype=np.int64)
        return t if pq[0] == 1 else t ** pq[0]
    t = np.arange(start, t_max + 1, dtype=np.float64)
    v = t**alpha
    out = np.floor(v).astype(np.int64)
    n = np.rint(v)
    risky = np.flatnonzero(np.abs(v - n) <= _FLOOR_GUARD * np.maximum(1.0, np.abs(v)))
    if pq is not None:
        p, q = pq
        for i in risky.tolist():
            ni = int(n[i])
            out[i] = ni if (start + i) ** p >= ni**q else ni - 1
    else:
        out[risky] = n[risky].astype(np.int64)
    return out


@dataclass(frozen=True)
class CustomerGroup:
    """One customer group: size coefficient, mean workload, loading weights."""

    c: int
    mu: float
    beta: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.c, int) or isinstance(self.c, bool) or self.c < 1:
            raise ModelValidationError(
                "group_c_positive_integer",
                f"group size coefficient c must be a positive integer, got {self.c!r}",
            )
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))


@dataclass(frozen=True)
class MACoefficients:
    """Finite two-sided moving-average coefficients phi_k, keyed by lag.

    ``trunc_tol`` is carried over from the model document's optional key of
    the same name; no computation reads it.
    """

    coeffs: Mapping[int, float]
    trunc_tol: float = 0.0

    def __post_init__(self):
        items = {int(k): float(v) for k, v in dict(self.coeffs).items()}
        object.__setattr__(self, "coeffs", items)
        if self.trunc_tol < 0:
            raise ModelValidationError("trunc_tol_nonnegative", "trunc_tol must be >= 0")
        if not items:
            raise ModelValidationError("phi_nonempty", "at least one MA coefficient is required")

    @property
    def lags(self) -> tuple[int, ...]:
        return tuple(sorted(self.coeffs))

    @property
    def max_lag(self) -> int:
        """Largest positive lag L+ (0 when all lags are <= 0)."""
        return max(max(self.coeffs), 0)

    @property
    def min_lag(self) -> int:
        """Smallest lag; -min_lag is the look-ahead depth L-."""
        return min(min(self.coeffs), 0)

    @property
    def reach(self) -> int:
        """Width max_lag - min_lag of the filter's support: one output reads reach + 1 innovations."""
        return self.max_lag - self.min_lag

    def total(self) -> float:
        return float(sum(self.coeffs.values()))


@dataclass(frozen=True)
class ModelSpec:
    """Full workload model: growth exponent, groups, MA driver, noise.

    Immutable after construction; all derived aggregates are cached and
    recomputed deterministically from the fields.
    """

    alpha: float
    groups: tuple[CustomerGroup, ...]
    ma: MACoefficients
    innovations: "InnovationModel"
    noise: "NoiseModel | None" = None

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.alpha <= 0:
            raise ModelValidationError("alpha_positive", f"alpha must be > 0, got {self.alpha}")
        if not self.groups:
            raise ModelValidationError("groups_nonempty", "at least one customer group is required")
        k = self.innovations.dim
        for i, g in enumerate(self.groups, start=1):
            if len(g.beta) != k:
                raise ModelValidationError(
                    "beta_dimension",
                    f"group {i} has beta of length {len(g.beta)}, expected innovation dim {k}",
                )
        if self.ma.total() == 0.0:
            raise ModelValidationError(
                "phi_total_nonzero",
                "the MA coefficients must not sum to zero (phi != 0)",
            )

    @property
    def dim(self) -> int:
        return self.innovations.dim

    @cached_property
    def total_c(self) -> int:
        """C = sum of the group size coefficients."""
        return sum(g.c for g in self.groups)

    @cached_property
    def beta_sum(self) -> np.ndarray:
        """beta = sum_i c_i beta_i (unnormalized aggregate loading)."""
        out = np.zeros(self.dim)
        for g in self.groups:
            out += g.c * np.asarray(g.beta)
        out.setflags(write=False)
        return out

    @cached_property
    def loading(self) -> "InnovationModel":
        """Law of the scalar loading ``L = beta_sum . xi``, the one random input every reader takes.

        ``innovations.along(beta_sum)``: ``N(0, beta_sum' cov beta_sum)`` for
        Gaussian innovations, whose variance must not overflow a double.
        """
        return self.innovations.along(self.beta_sum)

    @cached_property
    def phi_total(self) -> float:
        return self.ma.total()


def _check_normalizer_width(spec: ModelSpec, steps: int, last: int, what: str, remedy: str) -> None:
    """Refuse a normalizer over ``steps`` steps up to step ``last`` that may not fit in int64.

    Each step adds at most ``total_c * floor(last**alpha)`` customers, so
    ``steps`` times that bounds the sum, which must stay below 2**62.
    ``what`` names the normalizer in the error and ``remedy`` says what to change.
    """
    if spec.total_c * steps * max(floor_power(last, spec.alpha), 1) >= 2**62:
        raise ModelValidationError(
            "normalizer_width",
            f"{what} may exceed 64-bit integer range for alpha={spec.alpha}; {remedy}",
        )


def cumulative_population_prefix(
    spec: ModelSpec, t_max: int, start: int = 0, before: int = 0
) -> np.ndarray:
    """Normalizer N(start..t_max) as int64, with an overflow guard.

    N(t) = sum_{k=1..t} sum_i c_i * floor(k**alpha), with N(0) = 0. ``before``
    is N(start - 1) (0 for ``start`` 0). The integer sums are exact, so a
    range that starts later is a slice of the full array. The guard rejects
    horizons whose normalizer would not fit in 64-bit.
    """
    _check_normalizer_width(spec, t_max + 1, t_max, f"N({t_max})", "reduce the horizon")
    out = floor_power_prefix(t_max, spec.alpha, start)
    out *= spec.total_c
    out[:1] += before
    return np.cumsum(out, out=out)
