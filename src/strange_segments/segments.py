"""Detection of long deviant segments on a simulated workload path.

A segment ``(k, l)`` is deviant for a threshold set ``A`` when its average
deviation ``(S(l) - S(k)) / (N(l) - N(k))`` lies in ``A``. Two statistics
summarize a path:

* ``R_t(A)``: the longest deviant segment ending by time ``t`` (0 if none);
* ``T_r(A)``: the first time ``l`` by which some deviant segment of length
  at least ``r`` has completed (absent if none within the horizon).

They are dual: ``T_r <= m`` exactly when ``R_m >= r``.

For one-sided sets the fast scans work on the tilted walk
``G(m) = S(m) - a N(m)``; in exact arithmetic the segment average exceeds
``a`` exactly when ``G(l) > G(k)``, so both statistics reduce to widest-ramp
searches. Both search the same predicate: a deviant segment of length at
least ``w`` ends at ``l`` when ``G(l) > min(G(0..l-w))``. ``t_stat`` takes
the first such ``l`` for ``w = r``, and ``r_stat`` the largest ``w`` for
which one exists by ``t``.

The comparisons are strict and exact on the float walk ``S - a*N``, which is
itself rounded. The brute-force oracles compare the rounded ratio
``(S(l) - S(k)) / (N(l) - N(k))`` with the threshold instead, so on paths
where some segment average equals the threshold exactly (integer injected
paths, say) the fast and brute-force statistics can disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simulator import WorkloadPath

# Walk indices per block of the t_stat scan and of each r_stat probe; its few
# block-sized arrays stay in cache.
_SCAN_BLOCK = 16384
_SET_KINDS = ("above", "below", "interval")


@dataclass(frozen=True)
class ThresholdSet:
    """Open target set: (a, inf), (-inf, a) or (a, b)."""

    kind: str  # "above" | "below" | "interval"
    a: float
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _SET_KINDS:
            raise ValueError(f"unknown set kind {self.kind!r}")
        if self.kind == "interval":
            if self.b is None or not self.a < self.b:
                raise ValueError("interval sets need a < b")
        elif self.b is not None:
            raise ValueError(f"set kind {self.kind!r} takes no upper endpoint")

    @classmethod
    def above(cls, a: float) -> "ThresholdSet":
        return cls("above", float(a))

    @classmethod
    def below(cls, a: float) -> "ThresholdSet":
        return cls("below", float(a))

    @classmethod
    def interval(cls, a: float, b: float) -> "ThresholdSet":
        return cls("interval", float(a), float(b))

    def contains(self, x: float | np.ndarray) -> bool | np.ndarray:
        """Membership of a float, or elementwise of an array; NaN is never inside."""
        if self.kind == "above":
            return x > self.a
        if self.kind == "below":
            return x < self.a
        return (x > self.a) & (x < self.b)


@dataclass(frozen=True)
class SegmentReport:
    """Statistic value plus a witnessing segment, when one exists.

    ``value`` is the segment length for the R statistic (0 when no segment
    qualifies) and the completion time for the T statistic (None when no
    qualifying segment completes within the horizon).
    """

    value: Optional[int]
    witness: Optional[tuple[int, int]]


def _check_horizon(path: WorkloadPath, t: int) -> None:
    if not 1 <= t <= path.t_max:
        raise ValueError(f"horizon {t} outside 1..{path.t_max}")


def _ramp_widths(g: np.ndarray) -> np.ndarray:
    """For each index l, the width l - k of the widest ramp ending at l.

    A ramp is a pair k < l with g[k] < g[l] (strict). The earliest such k is
    always a strict prefix-minimum record, and the record values decrease, so
    one searchsorted per index finds it. Entries with no ramp are 0.
    """
    n = len(g)
    pm = np.minimum.accumulate(g)
    is_rec = np.empty(n, dtype=bool)
    is_rec[0] = True
    is_rec[1:] = g[1:] < pm[:-1]
    rec_pos = np.flatnonzero(is_rec)
    rec_val = g[rec_pos]  # strictly decreasing
    first = np.searchsorted(-rec_val, -g, side="right")
    widths = np.zeros(n, dtype=np.int64)
    ok = first < len(rec_pos)
    idx = np.flatnonzero(ok)
    widths[idx] = idx - rec_pos[first[idx]]
    return np.maximum(widths, 0)


def _one_sided_walk(path: WorkloadPath, tset: ThresholdSet, start: int, stop: int) -> np.ndarray:
    """Indices start..stop-1 of the walk for which membership of (k, l) means walk[l] > walk[k].

    That is ``S - a N`` above a and ``a N - S`` below it, formed in one array;
    the two round alike, since x - y = -(y - x) exactly in floating point.
    """
    g = path.N[start:stop].astype(np.float64)
    if tset.kind == "above":
        g *= -tset.a
        g += path.S[start:stop]
    else:
        g *= tset.a
        g -= path.S[start:stop]
    return g


def _first_deviant_end(
    g: np.ndarray, prefix_min: np.ndarray, w: int, start: int = 0
) -> Optional[int]:
    """First l >= start with g[l] > min(g[:l - w + 1]), or None; needs w >= 1.

    This ends the earliest ramp of width >= w on the walk that ends at or
    after ``start``; ``prefix_min`` is ``np.minimum.accumulate(g)``. The
    ends are compared in blocks of ``_SCAN_BLOCK``, and the scan stops at
    the first block with a hit.
    """
    for lo in range(max(start, w), len(g), _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, len(g))
        hit = g[lo:hi] > prefix_min[lo - w:hi - w]
        i = int(np.argmax(hit))
        if hit[i]:
            return lo + i
    return None


def _direct_widths(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """For each l <= t, the width of the widest deviant segment ending at l, by enumeration."""
    s, n = path.S, path.N.astype(np.float64)
    widths = np.zeros(t + 1, dtype=np.int64)
    for l in range(1, t + 1):
        avg = (s[l] - s[:l]) / (n[l] - n[:l])
        hits = np.flatnonzero(tset.contains(avg))
        if hits.size:
            widths[l] = l - int(hits[0])
    return widths


def _endpoint_widths(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """For each l = 0..t, the width of the widest deviant segment ending at l."""
    _check_horizon(path, t)
    if tset.kind == "interval":
        return _direct_widths(path, tset, t)
    return _ramp_widths(_one_sided_walk(path, tset, 0, t + 1))


def _widest(widths: np.ndarray) -> SegmentReport:
    """R statistic from per-endpoint widths; the witness ends at the first widest endpoint."""
    value = int(widths.max())
    if value == 0:
        return SegmentReport(0, None)
    l = int(np.argmax(widths))
    return SegmentReport(value, (l - value, l))


def r_stat(path: WorkloadPath, tset: ThresholdSet, t: int) -> SegmentReport:
    """Longest deviant segment ending by time t.

    One-sided sets use the duality with ``T``: ``R_t >= w`` exactly when a
    ramp of width >= w ends by t, a predicate that shrinks as w grows. The
    largest such w is found by galloping (1, 2, 4, ...) and then bisection.
    The first end ``T_w`` of a ramp of width >= w does not decrease as w
    grows, so each probe resumes at the end the last successful probe found
    and stops at its first hit; only a failing probe reads on to t. The
    witness ends at the first such ramp's end l, which is also the first
    endpoint of widest width. Interval sets fall back to direct enumeration.
    """
    if tset.kind == "interval":
        return brute_force_r(path, tset, t)
    _check_horizon(path, t)
    g = _one_sided_walk(path, tset, 0, t + 1)
    prefix_min = np.minimum.accumulate(g)
    end = _first_deviant_end(g, prefix_min, 1)
    if end is None:
        return SegmentReport(0, None)
    lo, hi = 1, 2  # the widest ramp found (first ending at `end`) and the next width to try
    while hi <= t:
        probe = _first_deviant_end(g, prefix_min, hi, end)
        if probe is None:
            break
        lo, end, hi = hi, probe, 2 * hi
    hi = min(hi, t + 1)  # no ramp of width hi ends by t
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe = _first_deviant_end(g, prefix_min, mid, end)
        if probe is None:
            hi = mid
        else:
            lo, end = mid, probe
    return SegmentReport(lo, (end - lo, end))


def r_stat_trajectory(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """R_1..R_t in one pass (index 0 of the result is R_0 = 0).

    Must agree with recomputing ``r_stat`` at every horizon; the running
    maximum of per-endpoint widths is exactly that.
    """
    return np.maximum.accumulate(_endpoint_widths(path, tset, t))


class _TScan:
    """Resumable scan for T_r on a one-sided set over a path that keeps growing.

    The state is the next walk index ``end`` to test as the end of a ramp of
    width >= r, the minimum ``low`` of the walk before the earliest start
    such an end can have (index ``end - r``), and the first index ``low_at``
    where that minimum occurs. ``advance`` tests the ends up to the horizon
    of the path it is given in blocks of ``max(_SCAN_BLOCK, r)`` ends. Each
    block re-reads the r walk values before its first end from the path and
    goes through ``_first_deviant_end``; a block without a hit only moves
    the state on. The first hit is final, since T_r depends only on the path
    up to it.
    """

    def __init__(self, tset: ThresholdSet, r: int):
        self.tset, self.r = tset, r
        self.end = r
        self.low, self.low_at = np.inf, -1
        self.report = SegmentReport(None, None)

    def advance(self, path: WorkloadPath) -> SegmentReport:
        """T_r over ``path``, which extends every path this scan was given before."""
        r = self.r
        block = max(_SCAN_BLOCK, r)
        while self.report.value is None and self.end <= path.t_max:
            base = self.end - r  # walk index of g[0]
            stop = min(self.end + block, path.t_max + 1)
            g = _one_sided_walk(path, self.tset, base, stop)
            pm = np.minimum.accumulate(g)
            np.minimum(pm, self.low, out=pm)
            l = _first_deviant_end(g, pm, r)
            if l is not None:
                head = g[: l - r + 1]
                k = int(np.argmin(head))
                k = self.low_at if self.low <= head[k] else base + k
                self.report = SegmentReport(base + l, (k, base + l))
            else:
                k = int(np.argmin(g[: stop - self.end]))  # the starts of ends before stop
                if g[k] < self.low:
                    self.low, self.low_at = float(g[k]), base + k
                self.end = stop
        return self.report


def t_stat(path: WorkloadPath, tset: ThresholdSet, r: int) -> SegmentReport:
    """First time a deviant segment of length >= r completes, if any.

    One-sided sets run a fresh ``_TScan`` over the path: it scans the tilted
    walk in blocks and returns at the first block with a hit, so no
    path-length array is made, and the running minimum it carries gives the
    witness start. Interval sets fall back to direct enumeration.
    """
    if r < 1:
        raise ValueError("segment length r must be >= 1")
    if tset.kind == "interval":
        return brute_force_t(path, tset, r)
    return _TScan(tset, r).advance(path)


def brute_force_r(path: WorkloadPath, tset: ThresholdSet, t: int) -> SegmentReport:
    """Direct evaluation of the R statistic over every segment (k, l)."""
    _check_horizon(path, t)
    return _widest(_direct_widths(path, tset, t))


def brute_force_t(path: WorkloadPath, tset: ThresholdSet, r: int) -> SegmentReport:
    """Direct evaluation of the T statistic over every segment (k, l)."""
    if r < 1:
        raise ValueError("segment length r must be >= 1")
    s, n = path.S, path.N.astype(np.float64)
    for l in range(r, path.t_max + 1):
        avg = (s[l] - s[: l - r + 1]) / (n[l] - n[: l - r + 1])
        hits = np.flatnonzero(tset.contains(avg))
        if hits.size:
            return SegmentReport(l, (int(hits[0]), l))
    return SegmentReport(None, None)
