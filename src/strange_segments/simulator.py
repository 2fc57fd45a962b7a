"""Workload-deviation path generation.

Each step aggregates the deviation of every customer present at time t. The
shared component is the moving-average driver Z(t) weighted by the group
loadings, which collapses to ``floor(t**alpha) * (beta_sum . Z(t))`` because
all group populations scale with the same power of t; when the model has a
noise law, idiosyncratic noise is added as one exact-law draw of each step's
sum over its customers. A model without one gives a noise-free path, so a
caller runs a model with noise off as ``replace(spec, noise=None)``. The
path keeps the cumulative deviation S and the integer normalizer N. The
path reads the innovations only through each loading ``beta_sum . xi``,
so it draws the loadings from their own law, the model's ``loading``: one
normal per step, whatever the innovations' dimension. The
loadings are drawn in blocks; the steps' moving average of them, weighted by
floor(t**alpha), is formed, given noise and summed block by block, so no
path-length temporary is made beyond floor(t**alpha). A large growth draws
and forms its blocks on one worker thread while the calling thread gives
noise to and sums the steps of the block before. One path builder does
this. It owns the path's two random streams and draws, forms,
sums and normalizes only the steps past the horizon it last reached,
continuing the summation block that horizon left open, so no step is formed
twice: ``simulate`` forms a path in one go with a builder of its own, and a
caller that grows a horizon keeps one builder across the growths, every
element equal to a path formed in one go. Injected innovations replace the
draws only of a path formed in one go: their rows become loadings once, the
product ``xi @ beta_sum``, and those take the same blocks and worker thread
as drawn ones. A path whose sum overflows a double is refused.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator, Optional

import numpy as np

from .errors import ModelValidationError
from .model_core import MACoefficients, ModelSpec, cumulative_population_prefix, floor_power_prefix

_CUMSUM_CHUNK = 8192
_DRAW_BLOCK_ROWS = 1 << 16  # loadings drawn at once, give or take the MA reach
# A growth drawing at least this many loadings draws them on a worker thread;
# below it, starting the thread costs more than the overlap saves.
_THREAD_MIN_ROWS = 4 * _DRAW_BLOCK_ROWS


@dataclass(frozen=True)
class PathConfig:
    """Horizon and seed of one simulated path, and whether it records the steps D.

    Whether the path has idiosyncratic noise is the model's to say: it has
    when ``spec.noise`` is set.
    """

    t_max: int
    seed: int
    record_steps: bool = False

    def __post_init__(self):
        if self.t_max < 1:
            raise ModelValidationError("t_max_positive", "t_max must be >= 1")


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


def _child_streams(ss: np.random.SeedSequence) -> tuple[np.random.Generator, np.random.Generator]:
    """(innovation stream, noise stream) of one path, spawned from ``ss`` in that order."""
    child_xi, child_eps = ss.spawn(2)
    return np.random.default_rng(child_xi), np.random.default_rng(child_eps)


def _rows_matmul(rows: np.ndarray, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows @ m`` into ``out``, each row's bits independent of the row count.

    numpy multiplies a lone row by a vector kernel, which rounds unlike the
    matrix kernels it takes for two or more rows, so a lone row is doubled.
    """
    if len(rows) != 1:
        return np.matmul(rows, m, out=out)
    out[...] = np.matmul(np.concatenate([rows, rows]), m)[:1]
    return out


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
    (default ``SeedSequence(cfg.seed)``) whether or not the model has a
    noise law. Its loadings are given once, at construction: ``loadings``,
    the injected loadings of the innovation span of steps 1..cap (entry 0
    lies max_lag steps before step 1), or None to draw them from
    ``spec.loading``. It draws step noise exactly when ``spec.noise`` is
    set. Each growth draws only the loadings and step noise past the last
    horizon, continuing both streams, so a path grown in pieces draws what a
    path formed in one go draws.

    Loadings are drawn or sliced in blocks of the steps up to each multiple
    of ``_DRAW_BLOCK_ROWS``. A growth of at least ``_THREAD_MIN_ROWS`` new
    loadings forms its blocks on a worker thread of a pool that lives only
    for that growth; a smaller one forms them inline, where a thread would
    cost more than it saves. Whoever takes a block's loadings also forms
    its steps' shared part. Only the worker reads the innovation stream and
    only the caller reads the noise stream, which it draws per summation
    block. Block draws continue a stream exactly, and each step is formed
    from its own loadings alone, so the path does not depend on the blocks
    or the thread.

    S and N are buffers sized for the horizon cap. Steps are summed in
    ``_CUMSUM_CHUNK``-step blocks aligned at step 0, which the draw blocks
    never straddle: within a block the plain cumulative sum is accurate
    enough, and the running total handed to the next block is kept with a
    Neumaier compensation term so the error does not grow with the horizon
    (exact whenever every partial sum is representable). A growth forms each
    new step once and continues the block the last horizon left open: the
    block's plain running sum is added to its first new step before the
    cumulative sum, which adds left to right, so every element equals a path
    formed in one go at the new horizon. A sum past the range of doubles is
    refused after the growth, so neither thread warns of it.
    """

    def __init__(
        self, spec: ModelSpec, cfg: PathConfig, cap: int, ss: Optional[np.random.SeedSequence] = None,
        loadings: Optional[np.ndarray] = None,
    ):
        self.spec = spec
        self.cfg = cfg
        self.cap = cap
        self._rng_xi, self._rng_eps = _child_streams(np.random.SeedSequence(cfg.seed) if ss is None else ss)
        self._loadings = loadings
        self.t = 0  # horizon formed so far
        self.s = self.n = self.d = None  # S, N and the steps D, allocated by the first growth
        self._loaded = np.empty(0, dtype=np.float64)  # the reach drawn loadings past the last step formed
        self._open = 0.0  # plain sum of the open block's steps (0 at a block edge)
        self._carry = self._comp = 0.0  # compensated sum of the steps before the open block

    def grow(self, t_max: int) -> WorkloadPath:
        """The path up to ``t_max``."""
        spec = self.spec
        lo = self.t  # steps lo+1..t_max are formed
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

        n, s, steps, noise = self.n, self.s, self.d, spec.noise
        carry, comp, total = self._carry, self._comp, self._open
        threaded = t_max + spec.ma.reach - lo - len(self._loaded) >= _THREAD_MIN_ROWS  # loadings it takes
        quiet = np.errstate(over="ignore", invalid="ignore")  # an overflowing S is refused below
        with ThreadPoolExecutor(max_workers=1) if threaded else nullcontext() as pool, quiet:
            for a, shared in self._blocks(lo, t_max, fp, pool):
                i, b = a, a + len(shared)
                while i < b:  # steps i+1..j: the rest of the summation block holding step i+1
                    j = min(i - i % _CUMSUM_CHUNK + _CUMSUM_CHUNK, b)
                    d = shared[i - a : j - a]
                    if noise is not None:  # one exact-law draw of each step's noise sum
                        counts = spec.total_c * fp[i + 1 - lo : j + 1 - lo]  # customers of steps i+1..j
                        d += noise.sample_aggregate(counts, self._rng_eps)
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
        self.t = t_max
        new = s[lo + 1 : t_max + 1]  # every new S: adding a block's carry can overflow once
        if new.size and not (np.isfinite(new.min()) and np.isfinite(new.max())):  # NaN reaches both
            t = lo + 1 + int(np.argmin(np.isfinite(new)))
            raise ModelValidationError(
                "path_overflow", f"the path's cumulative deviation S({t}) is {s[t]}, past the range of doubles",
            )
        return WorkloadPath(
            S=s[: t_max + 1], N=n[: t_max + 1], D=None if steps is None else steps[: t_max + 1]
        )

    def _blocks(
        self, lo: int, t_max: int, fp: np.ndarray, pool: Optional[ThreadPoolExecutor]
    ) -> Iterator[tuple[int, np.ndarray]]:
        """``(a, floor(t**alpha) * beta_sum . Z(t) of steps a+1..b)``, in blocks covering lo+1..t_max.

        Blocks end at multiples of ``_DRAW_BLOCK_ROWS`` and at ``t_max``. A
        block reads the loadings of its steps' innovation span, so the last
        max_lag - min_lag of them are the first of the next block's; drawn
        ones are kept in ``_loaded`` for the next block and growth. With
        ``pool``, the pool's one worker forms each block while the caller
        sums the block before: the next block is submitted before a block is
        handed over, so at most one is in flight.
        """
        if lo == t_max:
            return
        edges = [lo, *range(lo - lo % _DRAW_BLOCK_ROWS + _DRAW_BLOCK_ROWS, t_max, _DRAW_BLOCK_ROWS), t_max]
        blocks = list(zip(edges, edges[1:]))
        ma, loadings, sample, rng = self.spec.ma, self._loadings, self.spec.loading.sample, self._rng_xi

        def block(a: int, b: int) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):  # numpy's error state is per thread
                if loadings is not None:
                    loaded = loadings[a : b + ma.reach]
                else:
                    drawn = sample(rng, b - a + ma.reach - len(self._loaded))
                    loaded = np.concatenate([self._loaded, drawn]) if len(self._loaded) else drawn
                    self._loaded = loaded[b - a :].copy()
                out = _ma_filter(ma, loaded, b - a)
                out *= fp[a + 1 - lo : b + 1 - lo]
            return out

        if pool is None:
            for a, b in blocks:
                yield a, block(a, b)
            return
        ahead = pool.submit(block, *blocks[0])
        for k, (a, _) in enumerate(blocks):
            done = ahead.result()
            if k + 1 < len(blocks):
                ahead = pool.submit(block, *blocks[k + 1])
            yield a, done


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
    (span,) when K == 1, covering the innovation span ``1 - max_lag`` through
    ``t_max - min_lag``, ``t_max + reach`` rows) bypass the innovation sampler;
    for a model without a noise law they make the path a deterministic
    function of the input. Their shape is checked before anything is drawn,
    and they become loadings once, as the product ``xi @ beta_sum``.
    Injection forms a path in one go only, so it is refused together with
    ``builder``.

    ``floor(t**alpha)`` and the normalizer N are whole-path arrays. The
    loadings ``beta_sum . xi``, drawn from their own law or injected, are
    taken in blocks of about ``_DRAW_BLOCK_ROWS``, on a worker thread when
    the path takes at least ``_THREAD_MIN_ROWS`` of them. Each block's MA
    filter and ``floor(t**alpha)`` weighting are formed where its loadings
    are taken. The step noise, drawn per block, the copy into D and the
    cumulative sum run over ``_CUMSUM_CHUNK``-step blocks aligned at step 0,
    each as soon as its draw block is formed, and write straight into S, so
    the path allocates no other path-length array. The worker is gone when
    ``simulate`` returns or raises.

    Without ``builder`` the path is formed in one go by a builder of its own.
    A ``builder`` made for the same spec and the same ``cfg`` up to its
    horizon, and holding an earlier, shorter horizon, grows that path in
    place instead: it draws from its own streams, ``floor(t**alpha)`` and N
    then cover only the steps past the earlier horizon, and the summation
    continues that horizon's open block. The returned path shares the
    builder's buffers and equals the one formed in one go.
    """
    if builder is not None:
        if injected_innovations is not None:
            raise ValueError("injected innovations form a path in one go; they take no builder")
        if (
            builder.spec is not spec
            or replace(builder.cfg, t_max=cfg.t_max) != cfg
            or not builder.t <= cfg.t_max <= builder.cap
        ):
            raise ValueError(
                f"a builder at horizon {builder.t} (cap {builder.cap}) cannot grow this path "
                f"to t_max={cfg.t_max}"
            )
        return builder.grow(cfg.t_max)
    loadings = None
    if injected_innovations is not None:
        xi = np.asarray(injected_innovations, dtype=np.float64)
        xi = xi[:, None] if xi.ndim == 1 else xi
        span = cfg.t_max + spec.ma.reach
        if xi.shape != (span, spec.dim):
            raise ModelValidationError(
                "injected_innovations_shape",
                f"injected innovations must have shape ({span}, {spec.dim}) for "
                f"t_max={cfg.t_max}, got {xi.shape}",
            )
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing path is refused once summed
            loadings = _rows_matmul(xi, spec.beta_sum, np.empty(span))
    return _PathBuilder(spec, cfg, cfg.t_max, loadings=loadings).grow(cfg.t_max)
