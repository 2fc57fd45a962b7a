"""Monte Carlo harnesses confronting simulated paths with the asymptotics.

Two checks are provided. The strong-law harness measures, per replicate, the
first completion time T_r of deviant segments on a path whose horizon is
doubled until the largest requested r is observed, and compares the medians
of log T_r / r (and R_t / log t) against the predicted constant, the
transform of the limit curve at the capacity threshold. The window harness
estimates tail probabilities of single segment averages at positions k (in
units of the segment length) and compares the empirical exponents with the
position-indexed transforms.

All replicates and sample chunks derive their streams from
(master_seed, work-unit index), so results are identical for any worker
count and merge order.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ModelValidationError
from .model_core import ModelSpec, floor_power_prefix
from .modeldoc import canonical_document, parse_model_document
from .rate_function import RateFunctionCtx, invert_capacity, lambda_limit_prime, legendre, set_rate
from .segments import ThresholdSet, r_stat, t_stat
from .simulator import (
    PathConfig,
    _child_streams,
    _ma_filter,
    _resolve_noise_mode,
    _step_noise,
    innovation_span,
    simulate,
)

_ULDP_CHUNK = 8192
_NEAR_MEAN_RATE = 1e-4


@dataclass(frozen=True)
class StrongLawRun:
    """Configuration of a strong-law verification run."""

    spec: ModelSpec
    c_p: float
    r_grid: tuple[int, ...] = (6, 8, 10, 12, 14)
    t_grid: tuple[int, ...] = (100, 1000)
    replicates: int = 50
    master_seed: int = 0
    noise_mode: Optional[str] = None  # None resolves like PathConfig
    horizon_cap: int = 10_000_000
    initial_horizon: Optional[int] = None

    def __post_init__(self):
        if not self.r_grid or min(self.r_grid) < 1:
            raise ModelValidationError("r_grid", "r_grid entries must be >= 1")
        if any(t < 2 for t in self.t_grid):
            raise ModelValidationError("t_grid", "t_grid entries must be >= 2")
        if self.t_grid and self.horizon_cap < max(self.t_grid):
            raise ModelValidationError(
                "horizon_cap", "horizon_cap must cover the largest t_grid entry"
            )
        if self.replicates < 1:
            raise ModelValidationError("replicates", "need at least one replicate")

    def resolved_initial_horizon(self) -> int:
        if self.initial_horizon is not None:
            base = self.initial_horizon
        else:
            base = max(8 * max(self.r_grid), 256)
        need = max(self.t_grid, default=2)
        return min(max(base, need), self.horizon_cap)


@dataclass(frozen=True)
class UldpRun:
    """Configuration of a window tail-probability run."""

    spec: ModelSpec
    k_grid: tuple[Fraction, ...]
    t: int
    tset: ThresholdSet
    samples: int
    master_seed: int = 0
    noise_mode: Optional[str] = None

    def __post_init__(self):
        grid = tuple(Fraction(str(k)) if not isinstance(k, Fraction) else k for k in self.k_grid)
        if any(k < 0 for k in grid):
            raise ModelValidationError("k_grid", "window offsets must be >= 0")
        object.__setattr__(self, "k_grid", grid)
        if self.t < 1:
            raise ModelValidationError("t_positive", "segment length t must be >= 1")
        if self.samples < 1:
            raise ModelValidationError("samples", "need at least one sample")


@dataclass
class RunResult:
    """Row-oriented results plus a JSON-ready summary."""

    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _percentiles(values: Sequence[float]) -> dict:
    """Linear-interpolation percentiles that stay finite-safe.

    Censored observations enter as +inf; interpolating toward an infinite
    order statistic yields +inf instead of nan.
    """
    arr = np.sort(np.asarray(list(values), dtype=np.float64))

    def pct(q: float) -> float:
        pos = (len(arr) - 1) * q / 100.0
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        a, b = float(arr[lo]), float(arr[hi])
        if hi == lo or a == b:
            return a
        if np.isinf(b):
            return b
        return a + (pos - lo) * (b - a)

    return {"median": pct(50.0), "q25": pct(25.0), "q75": pct(75.0)}


def _strong_law_replicate(args: tuple) -> dict:
    (doc, c_p, r_grid, t_grid, noise_mode, horizon_cap, initial_horizon, master_seed, rep) = args
    spec = parse_model_document(doc)
    tset = ThresholdSet.above(c_p)
    r_max = max(r_grid)
    mode = _resolve_noise_mode(spec, noise_mode)
    rng_xi, rng_eps = _child_streams(np.random.SeedSequence(master_seed, spawn_key=(rep,)))

    # Each doubling draws the innovations and noise of the new steps only.
    horizon = initial_horizon
    xi = np.empty((0, spec.dim), dtype=np.float64)
    eps = np.empty(0, dtype=np.float64) if mode != "off" else None
    while True:
        j_min, j_max = innovation_span(spec, horizon)
        xi = np.vstack([xi, spec.innovations.sample(rng_xi, j_max - j_min + 1 - len(xi))])
        if eps is not None:
            counts = spec.total_c * floor_power_prefix(horizon, spec.alpha)[1:]
            eps = np.concatenate([eps, _step_noise(spec, mode, counts, rng_eps, start=len(eps))])
        path = simulate(
            spec,
            PathConfig(horizon, seed=master_seed, noise_mode="off"),
            injected_innovations=xi,
            injected_step_noise=eps,
        )
        if t_stat(path, tset, r_max).value is not None or horizon >= horizon_cap:
            break
        horizon = min(2 * horizon, horizon_cap)

    reports = {r: t_stat(path, tset, r) for r in r_grid}
    r_values = {t: r_stat(path, tset, t) for t in t_grid}
    return {
        "replicate": rep,
        "horizon": horizon,
        "T": {r: rep_.value for r, rep_ in reports.items()},
        "R": {t: rep_.value for t, rep_ in r_values.items()},
    }


def run_strong_law(cfg: StrongLawRun, workers: int = 1) -> RunResult:
    """Measure log T_r / r and R_t / log t across replicates.

    Refuses capacities at or below the mean slope, where the predicted
    constant degenerates to 0 and the normalized statistics have no limit.
    """
    ctx = RateFunctionCtx(cfg.spec)
    mean = lambda_limit_prime(ctx, 0.0)
    if cfg.c_p <= mean:
        raise ModelValidationError(
            "capacity_above_mean",
            f"capacity threshold {cfg.c_p:g} is not above the mean slope {mean:g}; "
            "the predicted constant is 0 and the run is degenerate",
        )
    predicted = legendre(ctx, "limit", cfg.c_p).value

    doc = canonical_document(cfg.spec)
    initial = cfg.resolved_initial_horizon()
    units = [
        (doc, cfg.c_p, cfg.r_grid, cfg.t_grid, cfg.noise_mode, cfg.horizon_cap, initial, cfg.master_seed, rep)
        for rep in range(cfg.replicates)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_strong_law_replicate, units))
    else:
        reps = [_strong_law_replicate(u) for u in units]
    reps.sort(key=lambda d: d["replicate"])

    result = RunResult()
    for rep in reps:
        for r in cfg.r_grid:
            value = rep["T"][r]
            result.rows.append(
                {
                    "replicate": rep["replicate"],
                    "statistic": "T",
                    "grid": r,
                    "value": value,
                    "normalized": math.log(value) / r if value is not None else None,
                    "censored": value is None,
                }
            )
        for t in cfg.t_grid:
            value = rep["R"][t]
            result.rows.append(
                {
                    "replicate": rep["replicate"],
                    "statistic": "R",
                    "grid": t,
                    "value": value,
                    "normalized": value / math.log(t),
                    "censored": False,
                }
            )

    # Censored completion times exceed the final horizon; treating them as
    # +inf keeps them in the order statistics instead of dropping them.
    t_stats = {}
    for r in cfg.r_grid:
        vals = [
            row["normalized"] if row["normalized"] is not None else math.inf
            for row in result.rows
            if row["statistic"] == "T" and row["grid"] == r
        ]
        entry = _percentiles(vals)
        entry["censored"] = sum(
            1 for row in result.rows if row["statistic"] == "T" and row["grid"] == r and row["censored"]
        )
        t_stats[str(r)] = entry
    r_stats = {}
    for t in cfg.t_grid:
        vals = [row["normalized"] for row in result.rows if row["statistic"] == "R" and row["grid"] == t]
        r_stats[str(t)] = _percentiles(vals)

    result.summary = {
        "predicted_rate": predicted,
        "predicted_reciprocal": 1.0 / predicted,
        "capacity": cfg.c_p,
        "replicates": cfg.replicates,
        "log_T_over_r": t_stats,
        "R_over_log_t": r_stats,
        "duality_consistent": _check_duality(reps, cfg.r_grid, cfg.t_grid),
    }
    return result


def _check_duality(reps: list[dict], r_grid, t_grid) -> bool:
    """Within each replicate, T_r <= t must hold exactly when R_t >= r."""
    for rep in reps:
        for r in r_grid:
            t_r = rep["T"][r]
            for t in t_grid:
                lhs = t_r is not None and t_r <= t
                rhs = rep["R"][t] >= r
                if lhs != rhs:
                    return False
    return True


def _window_bounds(k: Fraction, t: int) -> tuple[int, int]:
    """Summation bounds for the window (kt, (k+1)t], ceil/floor convention."""
    lo = math.ceil(k * t) + 1
    hi = math.floor((k + 1) * t)
    return lo, hi


def _uldp_chunk(args: tuple) -> tuple[int, int]:
    (doc, k_str, t, kind, a, b, size, master_seed, k_idx, chunk_idx, noise_mode) = args
    spec = parse_model_document(doc)
    tset = ThresholdSet(kind, a, b)
    k = Fraction(k_str)
    lo, hi = _window_bounds(k, t)
    width = hi - lo + 1

    mode = _resolve_noise_mode(spec, noise_mode)
    if mode == "literal":
        raise ModelValidationError(
            "noise_mode", "literal noise is not supported for window sampling; use aggregate"
        )
    rng_xi, rng_eps = _child_streams(np.random.SeedSequence(master_seed, spawn_key=(k_idx, chunk_idx)))

    ma = spec.ma
    span = width + ma.max_lag - ma.min_lag
    xi = spec.innovations.sample(rng_xi, size * span).reshape(size, span, spec.dim)
    zsum = _ma_filter(ma, xi @ spec.beta_sum, width)

    window_fp = floor_power_prefix(hi, spec.alpha)[lo:]
    weights = window_fp.astype(np.float64)
    values = zsum @ weights
    n_window = spec.total_c * int(window_fp.sum())
    if mode == "aggregate":
        values = values + spec.noise.sample_aggregate(np.full(size, n_window, dtype=np.int64), rng_eps)

    averages = values / float(n_window)
    return int(np.count_nonzero(tset.contains_array(averages))), size


def run_uldp(cfg: UldpRun, workers: int = 1) -> RunResult:
    """Estimate window tail probabilities and their exponents per offset k."""
    ctx = RateFunctionCtx(cfg.spec)
    doc = canonical_document(cfg.spec)

    units = []
    for k_idx, k in enumerate(cfg.k_grid):
        remaining = cfg.samples
        chunk_idx = 0
        while remaining > 0:
            size = min(_ULDP_CHUNK, remaining)
            units.append(
                (doc, str(k), cfg.t, cfg.tset.kind, cfg.tset.a, cfg.tset.b, size,
                 cfg.master_seed, k_idx, chunk_idx, cfg.noise_mode)
            )
            remaining -= size
            chunk_idx += 1

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_uldp_chunk, units))
    else:
        outcomes = [_uldp_chunk(u) for u in units]

    successes: dict[int, int] = {}
    for unit, (hits, _) in zip(units, outcomes):
        k_idx = unit[8]
        successes[k_idx] = successes.get(k_idx, 0) + hits

    result = RunResult()
    exponents = []
    for k_idx, k in enumerate(cfg.k_grid):
        hits = successes[k_idx]
        p_hat = hits / cfg.samples
        se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.samples)
        capped = hits == 0
        if capped:
            # zero successes only bound the probability from above
            exponent = math.log(cfg.samples) / cfg.t
        else:
            exponent = -math.log(p_hat) / cfg.t
        predicted = set_rate(ctx, float(k), cfg.tset)
        exponents.append(exponent)
        result.rows.append(
            {
                "k": float(k),
                "t": cfg.t,
                "samples": cfg.samples,
                "successes": hits,
                "p_hat": p_hat,
                "se": se,
                "exponent": exponent,
                "exponent_is_lower_bound": capped,
                "predicted": predicted,
            }
        )

    result.summary = {
        "t": cfg.t,
        "samples": cfg.samples,
        "set": {"kind": cfg.tset.kind, "a": cfg.tset.a, "b": cfg.tset.b},
        "per_k": {str(float(k)): row for k, row in zip(cfg.k_grid, result.rows)},
        "exponents_nondecreasing_in_k": all(
            exponents[i] <= exponents[i + 1] for i in range(len(exponents) - 1)
        ),
    }
    return result


def sla_plan(
    spec: ModelSpec,
    r_target: int,
    horizon: int,
    ctx: Optional[RateFunctionCtx] = None,
) -> dict:
    """Capacity headroom for "no deviant segment of length r_target by horizon".

    Sets the target decay rate to log(horizon) / r_target and inverts the
    limit transform. The echo field re-derives the segment length from the
    recommended capacity as a consistency check.
    """
    if horizon <= 1:
        raise ModelValidationError("horizon_gt_one", "horizon must be > 1")
    if r_target < 1:
        raise ModelValidationError("r_target_positive", "r_target must be >= 1")
    ctx = ctx or RateFunctionCtx(spec)
    target_rate = math.log(horizon) / r_target
    capacity = invert_capacity(ctx, target_rate)
    achieved = legendre(ctx, "limit", capacity).value
    plan = {
        "horizon": horizon,
        "r_target": r_target,
        "target_rate": target_rate,
        "capacity_headroom": capacity,
        "predicted_longest_segment": math.log(horizon) / achieved,
        "warning": None,
    }
    if target_rate < _NEAR_MEAN_RATE:
        plan["warning"] = "prediction unreliable near the mean"
    return plan
