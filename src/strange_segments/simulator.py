"""Workload-deviation path generation.

Each step aggregates the deviation of every customer present at time t. The
shared component is the moving-average driver Z(t) weighted by the group
loadings, which collapses to ``floor(t**alpha) * (beta_sum . Z(t))`` because
all group populations scale with the same power of t; idiosyncratic noise is
added as an exact-law aggregate draw (one per step), literal per-customer
draws, or not at all. The path keeps the cumulative deviation S and the
integer normalizer N; the steps are formed and summed block by block, so no
path-length temporary is made beyond the loading product, floor(t**alpha)
and the step noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelValidationError
from .model_core import MACoefficients, ModelSpec, cumulative_population_prefix, floor_power_prefix

_NOISE_MODES = ("aggregate", "literal", "off")
_LITERAL_DRAW_BUDGET = 10**9
_CUMSUM_CHUNK = 8192


@dataclass(frozen=True)
class PathConfig:
    """Horizon, seed and noise handling for one simulated path.

    ``noise_mode=None`` resolves to "aggregate" when the model has a noise
    law and "off" otherwise.
    """

    t_max: int
    seed: int
    noise_mode: Optional[str] = None
    record_steps: bool = False

    def __post_init__(self):
        if self.t_max < 1:
            raise ModelValidationError("t_max_positive", "t_max must be >= 1")
        if self.noise_mode is not None and self.noise_mode not in _NOISE_MODES:
            raise ModelValidationError(
                "noise_mode", f"noise_mode must be one of {_NOISE_MODES}"
            )


@dataclass(frozen=True)
class WorkloadPath:
    """Simulated trajectory: S(0..t_max), N(0..t_max) and, when recorded, the steps D."""

    S: np.ndarray
    N: np.ndarray
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        self.S.setflags(write=False)
        self.N.setflags(write=False)
        if self.D is not None:
            self.D.setflags(write=False)

    @property
    def t_max(self) -> int:
        return len(self.S) - 1


def innovation_span(spec: ModelSpec, t_max: int) -> tuple[int, int]:
    """Index range [j_min, j_max] of innovations feeding Z(1..t_max).

    Every Z(t) needs xi(t - lag) over the stored lags, so the span covers
    1 - L+ through t_max + L- and no window at the path edges is truncated.
    """
    return 1 - spec.ma.max_lag, t_max - spec.ma.min_lag


def _resolve_noise_mode(spec: ModelSpec, mode: Optional[str]) -> str:
    """Noise mode to run: None means "aggregate" when the model has a noise law, else "off"."""
    if mode is None:
        return "aggregate" if spec.noise is not None else "off"
    if mode != "off" and spec.noise is None:
        raise ModelValidationError(
            "noise_model_missing", f"noise_mode {mode!r} requires a noise law in the model"
        )
    return mode


def _child_streams(ss: np.random.SeedSequence) -> tuple[np.random.Generator, np.random.Generator]:
    """(innovation stream, noise stream) of one path, spawned from ``ss`` in that order."""
    child_xi, child_eps = ss.spawn(2)
    return np.random.default_rng(child_xi), np.random.default_rng(child_eps)


def _ma_filter(ma: MACoefficients, loaded: np.ndarray, width: int) -> np.ndarray:
    """Moving average sum_k phi_k * loaded(t - k) for ``width`` consecutive t.

    Works along the last axis of ``loaded``, which covers the innovation span
    of those outputs: its entry 0 lies max_lag steps before the first t.
    """
    out = np.zeros(loaded.shape[:-1] + (width,), dtype=np.float64)
    for lag, coeff in ma.coeffs.items():
        start = ma.max_lag - lag
        out += coeff * loaded[..., start : start + width]
    return out


def _step_noise(
    spec: ModelSpec, mode: str, counts: np.ndarray, rng: np.random.Generator, start: int = 0
) -> np.ndarray:
    """Idiosyncratic noise terms for steps start+1..len(counts).

    ``counts[i]`` is the number of customers present at step i + 1 and
    ``mode`` is a resolved mode other than "off". Aggregate mode draws each
    step's sum in one exact-law draw; literal mode sums one draw per customer
    and refuses a path whose total draws N(len(counts)) exceed the budget,
    including the steps before ``start`` drawn by earlier calls.
    """
    if mode == "aggregate":
        return np.asarray(spec.noise.sample_aggregate(counts[start:], rng), dtype=np.float64)
    total_draws = int(counts.sum())
    if total_draws > _LITERAL_DRAW_BUDGET:
        raise ModelValidationError(
            "literal_draw_budget",
            f"literal noise would need {total_draws} draws "
            f"(budget {_LITERAL_DRAW_BUDGET}); use aggregate mode",
        )
    out = np.empty(len(counts) - start, dtype=np.float64)
    for i, n in enumerate(counts[start:].tolist()):
        out[i] = spec.noise.sample_individual(n, rng).sum()
    return out


def simulate(
    spec: ModelSpec,
    cfg: PathConfig,
    injected_innovations: Optional[np.ndarray] = None,
    injected_step_noise: Optional[np.ndarray] = None,
) -> WorkloadPath:
    """Generate one workload path.

    Randomness is drawn from two child streams of ``cfg.seed``, innovations
    first and noise second. ``injected_innovations`` (shape (span, K) or
    (span,) when K == 1, covering ``innovation_span``) and
    ``injected_step_noise`` (one aggregate term per step) bypass the samplers
    entirely and make the path a deterministic function of the inputs.

    The loading product ``xi @ beta_sum``, ``floor(t**alpha)``, the
    normalizer N and the step noise are whole-path arrays. The MA filter, the
    ``floor(t**alpha)`` weighting, the noise add, the copy into D and the
    cumulative sum then run over ``_CUMSUM_CHUNK``-step blocks aligned at
    step 0 and write straight into S, so the path allocates no other
    path-length array.
    """
    t_max = cfg.t_max
    mode = _resolve_noise_mode(spec, cfg.noise_mode)
    k_dim = spec.dim
    j_min, j_max = innovation_span(spec, t_max)
    span = j_max - j_min + 1
    rng_xi, rng_eps = _child_streams(np.random.SeedSequence(cfg.seed))

    if injected_innovations is not None:
        xi = np.asarray(injected_innovations, dtype=np.float64)
        if xi.ndim == 1:
            xi = xi[:, None]
        if xi.shape != (span, k_dim):
            raise ModelValidationError(
                "injected_innovations_shape",
                f"injected innovations must have shape ({span}, {k_dim}) for "
                f"t_max={t_max}, got {xi.shape}",
            )
    else:
        xi = spec.innovations.sample(rng_xi, span)

    # Sum_i n_i(t) beta_i' Z(t) = floor(t**alpha) * beta_sum . Z(t); fold the
    # loading first so each lag is one vectorized slice.
    loaded = xi @ spec.beta_sum
    del xi  # a sampled innovation array is no longer needed

    fp = floor_power_prefix(t_max, spec.alpha)  # floor(t**alpha), t = 0..t_max
    n_prefix = cumulative_population_prefix(spec, t_max)

    eps = None
    if injected_step_noise is not None:
        eps = np.asarray(injected_step_noise, dtype=np.float64)
        if eps.shape != (t_max,):
            raise ModelValidationError(
                "injected_noise_shape",
                f"injected step noise must have shape ({t_max},), got {eps.shape}",
            )
    elif mode != "off":
        eps = _step_noise(spec, mode, n_prefix[1:] - n_prefix[:-1], rng_eps)

    s = np.empty(t_max + 1, dtype=np.float64)
    s[0] = 0.0
    steps = np.zeros(t_max + 1, dtype=np.float64) if cfg.record_steps else None
    # Steps i+1..j form one block; within it the plain cumulative sum is
    # accurate enough, and the running total handed to the next block is kept
    # with a Neumaier compensation term so the error does not grow with the
    # horizon (exact whenever every partial sum is representable).
    reach = spec.ma.max_lag - spec.ma.min_lag
    carry = comp = 0.0
    for i in range(0, t_max, _CUMSUM_CHUNK):
        j = min(i + _CUMSUM_CHUNK, t_max)
        d = _ma_filter(spec.ma, loaded[i : j + reach], j - i)
        d *= fp[i + 1 : j + 1]
        if eps is not None:
            d += eps[i:j]
        if steps is not None:
            steps[i + 1 : j + 1] = d
        block = np.cumsum(d, out=s[i + 1 : j + 1])
        tot = float(block[-1])
        block += carry + comp
        new = carry + tot
        if abs(carry) >= abs(tot):
            comp += (carry - new) + tot
        else:
            comp += (tot - new) + carry
        carry = new

    return WorkloadPath(S=s, N=n_prefix, D=steps)


def segment_average(path: WorkloadPath, k: int, l: int) -> float:
    """Average deviation over (k, l]: (S(l) - S(k)) / (N(l) - N(k))."""
    if not 0 <= k < l <= path.t_max:
        raise ValueError(f"need 0 <= k < l <= {path.t_max}, got ({k}, {l})")
    return float((path.S[l] - path.S[k]) / float(path.N[l] - path.N[k]))
