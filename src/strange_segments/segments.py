"""Detection of long deviant segments on a simulated workload path.

A segment ``(k, l)`` is deviant for a threshold set ``A`` when its average
deviation ``(S(l) - S(k)) / (N(l) - N(k))`` lies in ``A``. Two statistics
summarize a path:

* ``R_t(A)``: the longest deviant segment ending by time ``t`` (0 if none);
* ``T_r(A)``: the first time ``l`` by which some deviant segment of length
  at least ``r`` has completed (absent if none within the horizon).

They are dual: ``T_r <= m`` exactly when ``R_m >= r``.

For one-sided sets the fast scans work on the tilted walk
``G(m) = S(m) - a N(m)``; the segment average exceeds ``a`` exactly when
``G(l) > G(k)``, so both statistics reduce to widest-ramp searches. All
comparisons are exact binary float comparisons; averages exactly equal to a
threshold never qualify because the target sets are open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .simulator import WorkloadPath


@dataclass(frozen=True)
class ThresholdSet:
    """Open target set: (a, inf), (-inf, a) or (a, b)."""

    kind: str  # "above" | "below" | "interval"
    a: float
    b: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("above", "below", "interval"):
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

    def contains(self, x: float) -> bool:
        if self.kind == "above":
            return x > self.a
        if self.kind == "below":
            return x < self.a
        return self.a < x < self.b

    def contains_array(self, x: np.ndarray) -> np.ndarray:
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


def _tilted_walk(path: WorkloadPath, a: float, t: int) -> np.ndarray:
    return path.S[: t + 1] - a * path.N[: t + 1].astype(np.float64)


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


def _one_sided_walk(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """Walk for which membership of (k, l) means walk[l] > walk[k]."""
    g = _tilted_walk(path, tset.a, t)
    return g if tset.kind == "above" else -g


def _direct_widths(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """For each l <= t, the width of the widest deviant segment ending at l, by enumeration."""
    s, n = path.S, path.N.astype(np.float64)
    widths = np.zeros(t + 1, dtype=np.int64)
    for l in range(1, t + 1):
        avg = (s[l] - s[:l]) / (n[l] - n[:l])
        hits = np.flatnonzero(tset.contains_array(avg))
        if hits.size:
            widths[l] = l - int(hits[0])
    return widths


def _endpoint_widths(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """For each l = 0..t, the width of the widest deviant segment ending at l."""
    if not 1 <= t <= path.t_max:
        raise ValueError(f"horizon {t} outside 1..{path.t_max}")
    if tset.kind == "interval":
        return _direct_widths(path, tset, t)
    return _ramp_widths(_one_sided_walk(path, tset, t))


def _widest(widths: np.ndarray) -> SegmentReport:
    """R statistic from per-endpoint widths; the witness ends at the first widest endpoint."""
    value = int(widths.max())
    if value == 0:
        return SegmentReport(0, None)
    l = int(np.argmax(widths))
    return SegmentReport(value, (l - value, l))


def r_stat(path: WorkloadPath, tset: ThresholdSet, t: int) -> SegmentReport:
    """Longest deviant segment ending by time t.

    One-sided sets use the linear-time ramp scan on the tilted walk; interval
    sets fall back to direct enumeration.
    """
    return _widest(_endpoint_widths(path, tset, t))


def r_stat_trajectory(path: WorkloadPath, tset: ThresholdSet, t: int) -> np.ndarray:
    """R_1..R_t in one pass (index 0 of the result is R_0 = 0).

    Must agree with recomputing ``r_stat`` at every horizon; the running
    maximum of per-endpoint widths is exactly that.
    """
    return np.maximum.accumulate(_endpoint_widths(path, tset, t))


def t_stat(path: WorkloadPath, tset: ThresholdSet, r: int) -> SegmentReport:
    """First time a deviant segment of length >= r completes, if any.

    One-sided sets keep the running minimum of the tilted walk delayed by r
    steps; the first index beating that minimum ends the earliest qualifying
    segment.
    """
    if r < 1:
        raise ValueError("segment length r must be >= 1")
    t = path.t_max
    if tset.kind == "interval":
        return brute_force_t(path, tset, r)
    if r > t:
        return SegmentReport(None, None)
    g = _one_sided_walk(path, tset, t)
    delayed_min = np.minimum.accumulate(g)[:-r]
    hit = g[r:] > delayed_min
    pos = np.flatnonzero(hit)
    if pos.size == 0:
        return SegmentReport(None, None)
    l = int(pos[0]) + r
    k = int(np.argmin(g[: l - r + 1]))
    return SegmentReport(l, (k, l))


def brute_force_r(path: WorkloadPath, tset: ThresholdSet, t: int) -> SegmentReport:
    """Direct evaluation of the R statistic over every segment (k, l)."""
    if not 1 <= t <= path.t_max:
        raise ValueError(f"horizon {t} outside 1..{path.t_max}")
    return _widest(_direct_widths(path, tset, t))


def brute_force_t(path: WorkloadPath, tset: ThresholdSet, r: int) -> SegmentReport:
    """Direct evaluation of the T statistic over every segment (k, l)."""
    if r < 1:
        raise ValueError("segment length r must be >= 1")
    s, n = path.S, path.N.astype(np.float64)
    for l in range(r, path.t_max + 1):
        avg = (s[l] - s[: l - r + 1]) / (n[l] - n[: l - r + 1])
        hits = np.flatnonzero(tset.contains_array(avg))
        if hits.size:
            return SegmentReport(l, (int(hits[0]), l))
    return SegmentReport(None, None)
