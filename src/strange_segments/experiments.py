"""Monte Carlo harnesses confronting simulated paths with the asymptotics.

Two checks are provided. The strong-law harness measures, per replicate, the
first completion time T_r of deviant segments on a path whose horizon grows
by an eighth until the largest requested r is observed, and compares the medians
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

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ModelValidationError
from .model_core import ModelSpec, floor_power_prefix
from .modeldoc import canonical_document, parse_model_document
from .rate_function import RateFunctionCtx, invert_capacity, lambda_limit_prime, legendre, set_rate
from .segments import ThresholdSet, _TScan, r_stat, t_stat
from .simulator import (
    _CUMSUM_CHUNK, PathConfig, _PathBuilder, _child_streams, _ma_filter, _resolve_noise_mode, simulate,
)

_log = logging.getLogger(__name__)

_ULDP_CHUNK = 8192
_NEAR_MEAN_RATE = 1e-4


@dataclass(frozen=True)
class StrongLawRun:
    """Configuration of a strong-law verification run.

    ``initial_horizon`` (>= 1, raised to the largest ``t_grid`` entry and lowered
    to ``horizon_cap``) only sets where a replicate's horizon starts to grow,
    not the results. The horizon grows by an eighth, and by at least one
    8,192-step summation block, until T of the largest r appears or the cap
    is reached.
    """

    spec: ModelSpec
    c_p: float
    r_grid: tuple[int, ...] = (6, 8, 10, 12, 14)
    t_grid: tuple[int, ...] = (100, 1000)
    replicates: int = 50
    master_seed: int = 0
    noise_mode: Optional[str] = None  # resolved like PathConfig
    horizon_cap: int = 10_000_000
    initial_horizon: Optional[int] = None

    def __post_init__(self):
        if not self.r_grid or min(self.r_grid) < 1:
            raise ModelValidationError("r_grid", "r_grid entries must be >= 1")
        if len(set(self.r_grid)) < len(self.r_grid):
            raise ModelValidationError("r_grid", "r_grid entries must be distinct")
        if any(t < 2 for t in self.t_grid):
            raise ModelValidationError("t_grid", "t_grid entries must be >= 2")
        if len(set(self.t_grid)) < len(self.t_grid):
            raise ModelValidationError("t_grid", "t_grid entries must be distinct")
        if self.horizon_cap < 1:
            raise ModelValidationError("horizon_cap", "horizon_cap must be >= 1")
        if self.t_grid and self.horizon_cap < max(self.t_grid):
            raise ModelValidationError(
                "horizon_cap", "horizon_cap must cover the largest t_grid entry"
            )
        if self.initial_horizon is not None and self.initial_horizon < 1:
            raise ModelValidationError("initial_horizon", "initial_horizon must be >= 1")
        if self.replicates < 1:
            raise ModelValidationError("replicates", "need at least one replicate")
        object.__setattr__(self, "noise_mode", _resolve_noise_mode(self.spec, self.noise_mode))

    def resolved_initial_horizon(self) -> int:
        base = self.initial_horizon or max(8 * max(self.r_grid), 256)  # None: the default start
        return min(max(base, max(self.t_grid, default=2)), self.horizon_cap)


@dataclass(frozen=True)
class UldpRun:
    """Configuration of a window tail-probability run."""

    spec: ModelSpec
    k_grid: tuple[Fraction, ...]
    t: int
    tset: ThresholdSet
    samples: int
    master_seed: int = 0
    noise_mode: Optional[str] = None  # resolved like PathConfig

    def __post_init__(self):
        grid = tuple(Fraction(str(k)) if not isinstance(k, Fraction) else k for k in self.k_grid)
        if any(k < 0 for k in grid):
            raise ModelValidationError("k_grid", "window offsets must be >= 0")
        if len({float(k) for k in grid}) < len(grid):  # rows and summary key offsets by float
            raise ModelValidationError("k_grid", "window offsets must be distinct as floats")
        object.__setattr__(self, "k_grid", grid)
        if self.t < 1:
            raise ModelValidationError("t_positive", "segment length t must be >= 1")
        for k in grid:
            lo, hi = _window_bounds(k, self.t)
            if hi < lo:
                raise ModelValidationError(
                    "k_grid", f"the window ({float(k * self.t):g}, {float((k + 1) * self.t):g}] "
                    f"at offset {k} holds no integer step; use a longer t",
                )
        if self.samples < 1:
            raise ModelValidationError("samples", "need at least one sample")
        object.__setattr__(self, "noise_mode", _resolve_noise_mode(self.spec, self.noise_mode))


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


def _run_units(fn, units: list, workers: int) -> list:
    """``fn`` over the work units, outcomes in unit order.

    More than one worker runs the units in a process pool of at most one
    process per unit and per available CPU; the outcomes are the same for any
    worker count.
    """
    if workers < 1:
        raise ModelValidationError("workers", "need at least one worker")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        cpus = os.cpu_count() or 1
    workers = min(workers, len(units), cpus)
    if workers <= 1:
        return [fn(u) for u in units]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


def _strong_law_replicate(args: tuple) -> dict:
    (doc, c_p, r_grid, t_grid, noise_mode, horizon_cap, initial_horizon, master_seed, rep) = args
    spec = parse_model_document(doc)
    tset = ThresholdSet.above(c_p)
    r_max = max(r_grid)

    # One builder keeps the path across the growths: each one draws, forms
    # and sums, and the scan reads, only the steps past the last horizon. A
    # growth by an eighth ends the path less than one growth past T_{r_max}.
    horizon = initial_horizon
    cfg = PathConfig(horizon, seed=master_seed, noise_mode=noise_mode)
    builder = _PathBuilder(spec, cfg, horizon_cap, np.random.SeedSequence(master_seed, spawn_key=(rep,)))
    scan = _TScan(tset, r_max)
    growths = 0
    while True:
        path = simulate(spec, replace(cfg, t_max=horizon), builder=builder)
        growths += 1
        longest = scan.advance(path)
        if longest.value is not None or horizon >= horizon_cap:
            break
        horizon = min(horizon + max(horizon // 8, _CUMSUM_CHUNK), horizon_cap)

    reports = {r: longest if r == r_max else t_stat(path, tset, r) for r in r_grid}
    r_values = {t: r_stat(path, tset, t) for t in t_grid}
    return {
        "horizon": horizon,
        "growths": growths,
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
    reps = _run_units(_strong_law_replicate, units, workers)
    r_max = max(cfg.r_grid)
    for idx, rep in enumerate(reps):  # to the log only, never to the rows or the summary
        _log.debug(
            "strong-law replicate %d: final horizon %d after %d growths (%d steps formed, each once); "
            "T_%d = %s", idx, rep["horizon"], rep["growths"], rep["horizon"], r_max, rep["T"][r_max],
        )

    # Censored completion times exceed the final horizon; treating them as
    # +inf keeps them in the order statistics instead of dropping them.
    result = RunResult()
    t_columns = {r: [] for r in cfg.r_grid}
    r_columns = {t: [] for t in cfg.t_grid}
    for idx, rep in enumerate(reps):
        for r in cfg.r_grid:
            value = rep["T"][r]
            normalized = math.log(value) / r if value is not None else None
            result.rows.append(
                {
                    "replicate": idx,
                    "statistic": "T",
                    "grid": r,
                    "value": value,
                    "normalized": normalized,
                    "censored": value is None,
                }
            )
            t_columns[r].append(math.inf if normalized is None else normalized)
        for t in cfg.t_grid:
            value = rep["R"][t]
            normalized = value / math.log(t)
            result.rows.append(
                {
                    "replicate": idx,
                    "statistic": "R",
                    "grid": t,
                    "value": value,
                    "normalized": normalized,
                    "censored": False,
                }
            )
            r_columns[t].append(normalized)

    t_stats = {}
    for r, column in t_columns.items():
        entry = _percentiles(column)
        entry["censored"] = column.count(math.inf)  # only censored entries are infinite
        t_stats[str(r)] = entry
    r_stats = {str(t): _percentiles(column) for t, column in r_columns.items()}

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


def _window_kernel(spec: ModelSpec, weights: np.ndarray) -> np.ndarray:
    """Kernel of the window sum ``sum_t weights[t] * beta_sum . Z(t)``, shape (span, dim).

    The sum is ``sum_j h[j] * beta_sum . xi(j)`` over the ``span`` innovation
    rows that feed the window, with ``h = phi (*) weights``: the MA filter of
    the reversed, zero-padded weights, reversed. Row j of the kernel is
    ``h[j] * beta_sum``.
    """
    reach = spec.ma.reach
    h = _ma_filter(spec.ma, np.pad(weights[::-1], reach), len(weights) + reach)[::-1]
    return np.multiply.outer(h, spec.beta_sum)


def _uldp_chunk(args: tuple) -> tuple[int, int]:
    """(hits, size): how many of ``size`` sampled window averages at offset k lie in the set.

    The innovation law draws the window sums against ``_window_kernel`` from
    the chunk's innovation stream: a Gaussian law one normal per sum from the
    sum's exact law, any other law every innovation row of the window,
    reduced in blocks. The noise stream draws each window's aggregate noise.
    ``noise_mode`` is already resolved by ``UldpRun``.
    """
    (doc, k_str, t, tset, size, master_seed, k_idx, chunk_idx, noise_mode) = args
    spec = parse_model_document(doc)
    lo, hi = _window_bounds(Fraction(k_str), t)
    rng_xi, rng_eps = _child_streams(np.random.SeedSequence(master_seed, spawn_key=(k_idx, chunk_idx)))

    window_fp = floor_power_prefix(hi, spec.alpha, lo)
    kernel = _window_kernel(spec, window_fp.astype(np.float64))
    values = spec.innovations.sample_projections(rng_xi, kernel, size)
    n_window = spec.total_c * int(window_fp.sum())
    if noise_mode == "aggregate":
        values = values + spec.noise.sample_aggregate(np.full(size, n_window, dtype=np.int64), rng_eps)

    averages = values / float(n_window)
    return int(np.count_nonzero(tset.contains(averages))), size


def run_uldp(cfg: UldpRun, workers: int = 1) -> RunResult:
    """Estimate window tail probabilities and their exponents per offset k."""
    ctx = RateFunctionCtx(cfg.spec)
    doc = canonical_document(cfg.spec)

    starts = range(0, cfg.samples, _ULDP_CHUNK)
    units = [
        (doc, str(k), cfg.t, cfg.tset, min(_ULDP_CHUNK, cfg.samples - start),
         cfg.master_seed, k_idx, chunk_idx, cfg.noise_mode)
        for k_idx, k in enumerate(cfg.k_grid)
        for chunk_idx, start in enumerate(starts)
    ]
    outcomes = _run_units(_uldp_chunk, units, workers)
    successes = [
        sum(hits for hits, _ in outcomes[i : i + len(starts)])
        for i in range(0, len(outcomes), len(starts))
    ]

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


def sla_plan(spec: ModelSpec, r_target: int, horizon: int) -> dict:
    """Capacity headroom for "no deviant segment of length r_target by horizon".

    Sets the target decay rate to log(horizon) / r_target and inverts the
    limit transform. The echo field re-derives the segment length from the
    recommended capacity as a consistency check.
    """
    if horizon <= 1:
        raise ModelValidationError("horizon_gt_one", "horizon must be > 1")
    if r_target < 1:
        raise ModelValidationError("r_target_positive", "r_target must be >= 1")
    ctx = RateFunctionCtx(spec)
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
