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
which one exists by ``t``. Both form the walk a block at a time and carry
its running minimum across blocks: ``r_stat`` keeps that minimum as its one
path-length array, since a ramp may start anywhere before its end, and
``t_stat`` keeps none.

The comparisons are strict and exact on the float walk ``S - a*N``, which is
itself rounded. The brute-force oracles compare the rounded ratio
``(S(l) - S(k)) / (N(l) - N(k))`` with the threshold instead, so on paths
where some segment average equals the threshold exactly (integer injected
paths, say) the fast and brute-force statistics can disagree.

This module alone decides what a threshold set admits and what a query
accepts. ``ThresholdSet`` refuses an unknown kind as ``set`` and bad
endpoints as ``interval_endpoints``; the queries refuse a horizon outside
``1..t_max`` as ``horizon`` and a length below 1 as ``segment_length``,
before any scan. ``ThresholdSet.nearest`` gives the point of a set's closure
nearest a value, where ``rate_function.set_rate`` evaluates the transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ModelValidationError
from .simulator import WorkloadPath

# Walk indices per block of the t_stat scan and of the r_stat pass; a block's
# walk and comparison arrays stay in cache.
_SCAN_BLOCK = 16384
_SET_KINDS = ("above", "below", "interval")


@dataclass(frozen=True)
class ThresholdSet:
    """Open target set: (a, inf), (-inf, a) or (a, b), refused as ``set`` or ``interval_endpoints``."""

    kind: str  # "above" | "below" | "interval"
    a: float
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _SET_KINDS:
            raise ModelValidationError("set", f"unknown set kind {self.kind!r}")
        if self.kind == "interval":
            if self.b is None or not self.a < self.b:
                raise ModelValidationError("interval_endpoints", "interval sets need a < b")
        elif self.b is not None:
            raise ModelValidationError("interval_endpoints", f"set kind {self.kind!r} takes no b")

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

    def nearest(self, x: float) -> float:
        """The point of the set's closure nearest ``x``: ``x`` itself when the closure holds it."""
        if self.kind == "above":
            return max(x, self.a)
        if self.kind == "below":
            return min(x, self.a)
        return min(max(x, self.a), self.b)


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
        raise ModelValidationError("horizon", f"horizon {t} outside 1..{path.t_max}")


def _check_length(r: int) -> None:
    if r < 1:
        raise ModelValidationError("segment_length", f"segment length r must be >= 1, got {r}")


def _one_sided_walk(
    path: WorkloadPath, tset: ThresholdSet, start: int, stop: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Indices start..stop-1 of the walk for which membership of (k, l) means walk[l] > walk[k].

    That is ``S - a N`` above a and ``a N - S`` below it, formed in one array
    (``out`` when given) by one multiply of the integer ``N`` and one add;
    the two round alike, since x - y = -(y - x) exactly in floating point.
    """
    if tset.kind == "above":
        g = np.multiply(path.N[start:stop], -tset.a, out=out)
        g += path.S[start:stop]
    else:
        g = np.multiply(path.N[start:stop], tset.a, out=out)
        g -= path.S[start:stop]
    return g


def _running_min(g: np.ndarray, low: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.minimum.accumulate(g)`` floored at ``low``, the minimum of the walk before ``g``."""
    out = np.minimum.accumulate(g, out=out)
    np.minimum(out, low, out=out)
    return out


def _first_deviant_end(
    g: np.ndarray, lo: int, prefix_min: np.ndarray, w: int, start: int
) -> Optional[int]:
    """First l >= start with g[l - lo] > min(walk[:l - w + 1]), or None; needs w >= 1 and start >= lo.

    This ends the earliest ramp of width >= w on the walk that ends at or
    after ``start``. ``g`` holds the walk from index ``lo`` on, and
    ``prefix_min`` its running minimum from index 0 through the last index
    of ``g``. The ends are compared in blocks of ``_SCAN_BLOCK``, and the
    scan stops at the first block with a hit.
    """
    stop = lo + len(g)
    for a in range(max(start, w), stop, _SCAN_BLOCK):
        b = min(a + _SCAN_BLOCK, stop)
        hit = g[a - lo:b - lo] > prefix_min[a - w:b - w]
        i = int(np.argmax(hit))
        if hit[i]:
            return a + i
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


def _widest(widths: np.ndarray) -> SegmentReport:
    """R statistic from per-endpoint widths; the witness ends at the first widest endpoint."""
    value = int(widths.max())
    if value == 0:
        return SegmentReport(0, None)
    l = int(np.argmax(widths))
    return SegmentReport(value, (l - value, l))


def r_stat(path: WorkloadPath, tset: ThresholdSet, t: int) -> SegmentReport:
    """Longest deviant segment ending by time t.

    One-sided sets scan the walk once, left to right, in blocks of
    ``_SCAN_BLOCK`` indices. Each block's walk is formed in a buffer that
    the next block reuses; its running minimum, carried on from the blocks
    before, is kept in the one path-length array, since a ramp may start at
    any earlier index. The block's ends are then tested for a ramp one wider
    than the widest found so far. Only a block that admits one is searched
    further: the width gallops (doubling) and then bisects between that
    width and the block's last end, each probe resuming at the first end the
    last successful probe found, since that first end never moves back as
    the width grows. The witness ends at the first end of a widest ramp,
    which is also the first endpoint of widest width. Interval sets fall
    back to direct enumeration.
    """
    if tset.kind == "interval":
        return brute_force_r(path, tset, t)
    _check_horizon(path, t)
    prefix_min = np.empty(t + 1)
    buf = np.empty(min(_SCAN_BLOCK, t + 1))
    width = end = 0  # the widest ramp found, first ending at `end`
    for lo in range(0, t + 1, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, t + 1)
        g = _one_sided_walk(path, tset, lo, hi, buf[: hi - lo])
        _running_min(g, prefix_min[lo - 1] if lo else np.inf, prefix_min[lo:hi])
        probe = _first_deviant_end(g, lo, prefix_min, width + 1, lo)
        if probe is None:
            continue
        width, end, top = width + 1, probe, hi  # no ramp of width `top` ends before hi
        gallop = True
        while top - width > 1:
            mid = min(2 * width, top - 1) if gallop else (width + top) // 2
            probe = _first_deviant_end(g, lo, prefix_min, mid, end)
            if probe is None:
                top, gallop = mid, False
            else:
                width, end = mid, probe
    if width == 0:
        return SegmentReport(0, None)
    return SegmentReport(width, (end - width, end))


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
            l = _first_deviant_end(g, 0, _running_min(g, self.low), r, r)
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
    _check_length(r)
    if tset.kind == "interval":
        return brute_force_t(path, tset, r)
    return _TScan(tset, r).advance(path)


def brute_force_r(path: WorkloadPath, tset: ThresholdSet, t: int) -> SegmentReport:
    """Direct evaluation of the R statistic over every segment (k, l)."""
    _check_horizon(path, t)
    return _widest(_direct_widths(path, tset, t))


def brute_force_t(path: WorkloadPath, tset: ThresholdSet, r: int) -> SegmentReport:
    """Direct evaluation of the T statistic over every segment (k, l)."""
    _check_length(r)
    s, n = path.S, path.N.astype(np.float64)
    for l in range(r, path.t_max + 1):
        avg = (s[l] - s[: l - r + 1]) / (n[l] - n[: l - r + 1])
        hits = np.flatnonzero(tset.contains(avg))
        if hits.size:
            return SegmentReport(l, (int(hits[0]), l))
    return SegmentReport(None, None)
