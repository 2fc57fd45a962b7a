"""Workload-deviation path generation.

Each step aggregates the deviation of every customer present at time t. The
shared component is the moving-average driver Z(t) weighted by the group
loadings, which collapses to ``floor(t**alpha) * (beta_sum . Z(t))`` because
all group populations scale with the same power of t; idiosyncratic noise is
added as one exact-law draw of each step's sum over its customers, or not at
all. The path keeps the cumulative deviation S and the integer normalizer N.
The innovations are drawn in blocks of rows, and the steps are formed, given
their noise and summed block by block, so no path-length temporary is made
beyond the loading product and floor(t**alpha). A large growth draws its
innovation blocks on one worker thread while the calling thread forms and
sums the steps of the block before. One path builder does this. It owns the
path's two random streams and draws, forms, sums and normalizes only the
steps past the horizon it last reached, continuing the summation block that
horizon left open, so no step is formed twice: ``simulate`` forms a path in
one go with a builder of its own, and a caller that grows a horizon keeps
one builder across the growths, every element equal to a path formed in one
go. Injected innovations replace the draws only of a path formed in one go.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .errors import ModelValidationError
from .innovations import _rows_matmul
from .model_core import MACoefficients, ModelSpec, cumulative_population_prefix, floor_power_prefix

_NOISE_MODES = ("aggregate", "off")
_CUMSUM_CHUNK = 8192
_DRAW_BLOCK_ROWS = 1 << 16  # innovation rows drawn at once
# A growth drawing at least this many innovation rows draws them on a worker
# thread; below it, starting the thread costs more than the overlap saves.
_THREAD_MIN_ROWS = 4 * _DRAW_BLOCK_ROWS


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
        if self.noise_mode is not None:
            _check_noise_mode(self.noise_mode)


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
    j_min = 1 - spec.ma.max_lag
    return j_min, j_min + t_max - 1 + spec.ma.reach


def _check_noise_mode(mode: str) -> None:
    """Refuse a noise mode outside ``_NOISE_MODES``."""
    if mode not in _NOISE_MODES:
        raise ModelValidationError(
            "noise_mode", f"noise_mode must be one of {_NOISE_MODES}, got {mode!r}"
        )


def _resolve_noise_mode(spec: ModelSpec, mode: Optional[str]) -> str:
    """Noise mode to run: None means "aggregate" when the model has a noise law, else "off"."""
    if mode is None:
        return "aggregate" if spec.noise is not None else "off"
    _check_noise_mode(mode)
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


class _PathBuilder:
    """One path's S and N, grown in place to longer and longer horizons.

    The builder owns the path's two random streams, spawned from ``ss``
    (default ``SeedSequence(cfg.seed)``), and its resolved noise mode. Each
    growth draws only the innovations and step noise past the last horizon,
    continuing both streams, so a path grown in pieces draws what a path
    formed in one go draws. Injected innovations replace the innovation
    draws of a first growth; their shape is checked before anything is drawn
    or written.

    Innovations come in ``_DRAW_BLOCK_ROWS``-row blocks. A growth of at
    least ``_THREAD_MIN_ROWS`` new rows draws them on a worker thread of a
    pool that lives only for that growth; a smaller one draws them inline,
    where a thread would cost more than it saves. Only the worker reads the
    innovation stream and only the caller reads the noise stream, which it
    draws per summation block. Block draws continue a stream exactly and
    ``_rows_matmul`` rounds each row alike for any row count, so the path
    does not depend on the blocks or the thread.

    S and N are buffers sized for the horizon cap. Steps are formed and
    summed in ``_CUMSUM_CHUNK``-step blocks aligned at step 0: within a block
    the plain cumulative sum is accurate enough, and the running total handed
    to the next block is kept with a Neumaier compensation term so the error
    does not grow with the horizon (exact whenever every partial sum is
    representable). A growth forms each new step once and continues the
    block the last horizon left open: the block's plain running sum is added
    to its first new step before the cumulative sum, which adds left to right,
    so every element equals a path formed in one go at the new horizon.
    """

    def __init__(
        self, spec: ModelSpec, cfg: PathConfig, cap: int, ss: Optional[np.random.SeedSequence] = None
    ):
        self.spec = spec
        self.cfg = cfg
        self.cap = cap
        self.mode = _resolve_noise_mode(spec, cfg.noise_mode)
        self._rng_xi, self._rng_eps = _child_streams(np.random.SeedSequence(cfg.seed) if ss is None else ss)
        self.t = 0  # horizon formed so far
        self.s = self.n = self.d = None  # S, N and the steps D, allocated by the first growth
        self._loaded = np.empty(0, dtype=np.float64)  # the max_lag - min_lag loading values past t
        self._open = 0.0  # plain sum of the open block's steps (0 at a block edge)
        self._carry = self._comp = 0.0  # compensated sum of the steps before the open block

    def grow(self, t_max: int, xi: Optional[np.ndarray] = None) -> WorkloadPath:
        """The path up to ``t_max``; ``xi`` is the whole path's innovations to inject, or None to draw.

        Only a first growth takes ``xi``: it covers the innovation span from its start.
        """
        spec = self.spec
        lo = self.t  # steps lo+1..t_max are formed
        j_min, j_max = innovation_span(spec, t_max)
        span = j_max - j_min + 1
        kept = len(self._loaded)  # innovation rows lo+kept.. are new: the last horizon's span on
        fresh = span - lo - kept
        if xi is not None:
            xi = np.asarray(xi, dtype=np.float64)
            if xi.ndim == 1:
                xi = xi[:, None]
            if xi.shape != (span, spec.dim):
                raise ModelValidationError(
                    "injected_innovations_shape",
                    f"injected innovations must have shape ({span}, {spec.dim}) for "
                    f"t_max={t_max}, got {xi.shape}",
                )

        n_new = cumulative_population_prefix(spec, t_max, lo, int(self.n[lo - 1]) if lo else 0)
        if lo == 0:  # formed in one go, the path keeps the normalizer's own array as N
            self.n = n_new if t_max == self.cap else np.empty(self.cap + 1, dtype=np.int64)
        if self.n is not n_new:
            self.n[lo : t_max + 1] = n_new
        del n_new
        fp = floor_power_prefix(t_max, spec.alpha, lo)  # floor(t**alpha), t = lo..t_max
        if lo == 0:
            self.s = np.empty(self.cap + 1, dtype=np.float64)
            self.s[0] = 0.0
            self.d = np.zeros(self.cap + 1, dtype=np.float64) if self.cfg.record_steps else None

        n, s, steps = self.n, self.s, self.d
        noise = spec.noise if self.mode == "aggregate" else None
        reach = spec.ma.reach
        # Sum_i n_i(t) beta_i' Z(t) = floor(t**alpha) * beta_sum . Z(t); fold the
        # loading first so each lag is one vectorized slice.
        loaded = np.empty(span - lo, dtype=np.float64)
        loaded[:kept] = self._loaded
        filled = kept  # loading values formed so far
        carry, comp, total = self._carry, self._comp, self._open
        i = lo
        threaded = xi is None and 0 < fresh and fresh >= _THREAD_MIN_ROWS
        with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as pool:
            for rows in [xi] if xi is not None else self._draw_blocks(fresh, pool):
                if spec.dim == 1:  # same bytes as the 1x1 matrix product, without BLAS
                    np.multiply(rows[:, 0], spec.beta_sum[0], out=loaded[filled : filled + len(rows)])
                else:
                    _rows_matmul(rows, spec.beta_sum, out=loaded[filled : filled + len(rows)])
                filled += len(rows)
                while i < t_max:  # steps i+1..j: the rest of the block holding step i+1
                    j = min(i - i % _CUMSUM_CHUNK + _CUMSUM_CHUNK, t_max)
                    if j - lo + reach > filled:  # its loading is not formed yet
                        break
                    d = _ma_filter(spec.ma, loaded[i - lo : j - lo + reach], j - i)
                    d *= fp[i + 1 - lo : j + 1 - lo]
                    if noise is not None:  # one exact-law draw of each step's noise sum
                        d += noise.sample_aggregate(np.diff(n[i : j + 1]), self._rng_eps)
                    if steps is not None:
                        steps[i + 1 : j + 1] = d
                    d[0] += total
                    block = np.cumsum(d, out=s[i + 1 : j + 1])
                    total = float(block[-1])
                    block += carry + comp
                    if j % _CUMSUM_CHUNK == 0:  # the block is complete: hand its total to the carry
                        new = carry + total
                        if abs(carry) >= abs(total):
                            comp += (carry - new) + total
                        else:
                            comp += (total - new) + carry
                        carry, total = new, 0.0
                    i = j
        self._carry, self._comp, self._open = carry, comp, total
        self._loaded = loaded[t_max - lo :].copy()
        self.t = t_max
        return WorkloadPath(
            S=s[: t_max + 1], N=n[: t_max + 1], D=None if steps is None else steps[: t_max + 1]
        )

    def _draw_blocks(self, count: int, pool: Optional[ThreadPoolExecutor]) -> Iterator[np.ndarray]:
        """The innovation stream's next ``count`` rows, in blocks of ``_DRAW_BLOCK_ROWS`` rows.

        Without ``pool`` each block is drawn when it is asked for. With it,
        each block is drawn on the pool's one worker while the caller forms
        the steps of the block before: the next draw is submitted before a
        block is handed over, so at most one draw is in flight. Block draws
        continue the stream exactly, so the rows do not depend on either.
        """
        sample, rng = self.spec.innovations.sample, self._rng_xi
        sizes = [min(_DRAW_BLOCK_ROWS, count - a) for a in range(0, count, _DRAW_BLOCK_ROWS)]
        if pool is None:
            for size in sizes:
                yield sample(rng, size)
            return
        ahead = pool.submit(sample, rng, sizes[0])
        for size in sizes[1:]:
            rows = ahead.result()
            ahead = pool.submit(sample, rng, size)
            yield rows
        yield ahead.result()


def simulate(
    spec: ModelSpec,
    cfg: PathConfig,
    injected_innovations: Optional[np.ndarray] = None,
    *,
    builder: Optional[_PathBuilder] = None,
) -> WorkloadPath:
    """Generate one workload path.

    Randomness is drawn from two child streams of ``cfg.seed``, innovations
    first and noise second. ``injected_innovations`` (shape (span, K) or
    (span,) when K == 1, covering ``innovation_span``) bypass the innovation
    sampler; with noise off they make the path a deterministic function of
    the input. Injection forms a path in one go only, so it is refused
    together with ``builder``.

    The loading product ``xi @ beta_sum``, ``floor(t**alpha)`` and the
    normalizer N are whole-path arrays. The innovations are drawn in blocks
    of ``_DRAW_BLOCK_ROWS`` rows, on a worker thread when the path draws at
    least ``_THREAD_MIN_ROWS`` of them; the calling thread folds each block
    into the loading product. The MA filter, the ``floor(t**alpha)``
    weighting, the step noise, drawn per block, the copy into D and the
    cumulative sum run over ``_CUMSUM_CHUNK``-step blocks aligned at step 0,
    each as soon as its innovations are loaded, and write straight into S,
    so the path allocates no other path-length array. The worker is gone
    when ``simulate`` returns or raises.

    Without ``builder`` the path is formed in one go by a builder of its own.
    A ``builder`` made for the same spec and the same ``cfg`` up to its
    horizon, and holding an earlier, shorter horizon, grows that path in
    place instead: it draws from its own streams, the loading product,
    ``floor(t**alpha)`` and N then cover only the steps past the earlier
    horizon, and the summation continues that horizon's open
    block. The returned path shares the builder's buffers and equals the one
    formed in one go.
    """
    if builder is None:
        builder = _PathBuilder(spec, cfg, cfg.t_max)
    elif injected_innovations is not None:
        raise ValueError("injected innovations form a path in one go; they take no builder")
    elif (
        builder.spec is not spec
        or replace(builder.cfg, t_max=cfg.t_max) != cfg
        or not builder.t <= cfg.t_max <= builder.cap
    ):
        raise ValueError(
            f"a builder at horizon {builder.t} (cap {builder.cap}) cannot grow this path "
            f"to t_max={cfg.t_max}"
        )
    return builder.grow(cfg.t_max, injected_innovations)
