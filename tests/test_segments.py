from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strange_segments import (
    PathConfig,
    ThresholdSet,
    WorkloadPath,
    brute_force_r,
    brute_force_t,
    load_model,
    r_stat,
    r_stat_trajectory,
    segment_average,
    simulate,
    t_stat,
)
from strange_segments import segments
from strange_segments.segments import SegmentReport, _endpoint_widths, _first_deviant_end, _widest

MODELS = Path(__file__).resolve().parent.parent / "models"


def make_path(d, n_steps=None):
    """Synthetic path from per-step deviations and normalizer increments."""
    d = np.asarray(d, dtype=np.float64)
    if n_steps is None:
        n = np.arange(len(d) + 1, dtype=np.int64)
    else:
        n = np.concatenate([[0], np.cumsum(np.asarray(n_steps, dtype=np.int64))])
    s = np.concatenate([[0.0], np.cumsum(d)])
    return WorkloadPath(S=s, N=n)


UNIT_D = [1.0, -1.0, 1.0, 1.0, -1.0]  # S = [1, 0, 1, 2, 1] on unit increments


class TestWorkedExample:
    def setup_method(self):
        self.path = make_path(UNIT_D)
        self.above = ThresholdSet.above(0.5)

    def test_r_statistic(self):
        rep = r_stat(self.path, self.above, 5)
        assert rep.value == 2 and rep.witness == (2, 4)

    def test_r_zero_on_flat_path(self):
        rep = r_stat(make_path([0.0] * 5), self.above, 5)
        assert rep.value == 0 and rep.witness is None

    def test_below_set(self):
        rep = r_stat(self.path, ThresholdSet.below(-0.5), 5)
        assert rep.value == 1
        assert rep.witness in ((1, 2), (4, 5))

    def test_t_statistic(self):
        rep = t_stat(self.path, self.above, 2)
        assert rep.value == 4 and rep.witness == (2, 4)
        rep = t_stat(self.path, self.above, 1)
        assert rep.value == 1 and rep.witness == (0, 1)

    def test_t_absent(self):
        rep = t_stat(make_path([0.0] * 5), self.above, 2)
        assert rep.value is None and rep.witness is None

    def test_boundary_average_excluded(self):
        # segment (0, 4) has average exactly 0.5; open sets exclude it
        assert segment_average(self.path, 0, 4) == 0.5
        assert r_stat(self.path, self.above, 5).value == 2

    def test_brute_force_agrees(self):
        assert brute_force_r(self.path, self.above, 5).value == 2
        assert brute_force_t(self.path, self.above, 2).value == 4


def random_paths(seed, count, max_len=200):
    """Mixed-sign deviations over mixed normalizer growth profiles."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_len + 1))
        style = rng.integers(0, 3)
        if style == 0:
            d = rng.integers(-3, 4, size=n).astype(np.float64)
        elif style == 1:
            d = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
        else:
            d = rng.standard_normal(n) + np.arange(n) * rng.uniform(-0.02, 0.02)
        growth = rng.integers(0, 3)
        if growth == 0:
            steps = np.ones(n, dtype=np.int64)
        elif growth == 1:
            steps = np.arange(1, n + 1, dtype=np.int64)
        else:
            steps = rng.integers(1, 5, size=n).astype(np.int64)
        yield make_path(d, steps)


def random_sets(rng):
    kind = rng.integers(0, 3)
    a = float(rng.uniform(-1.5, 1.5))
    if kind == 0:
        return ThresholdSet.above(a)
    if kind == 1:
        return ThresholdSet.below(a)
    return ThresholdSet.interval(a, a + float(rng.uniform(0.1, 2.0)))


class TestFastEqualsBruteForce:
    def test_randomized(self):
        rng = np.random.default_rng(99)
        for path in random_paths(7, 200):
            tset = random_sets(rng)
            t = path.t_max
            assert r_stat(path, tset, t).value == brute_force_r(path, tset, t).value
            r = int(rng.integers(1, t + 1))
            assert t_stat(path, tset, r).value == brute_force_t(path, tset, r).value

    def test_witnesses_satisfy_membership(self):
        rng = np.random.default_rng(123)
        for path in random_paths(8, 100):
            tset = random_sets(rng)
            rep = r_stat(path, tset, path.t_max)
            if rep.witness is not None:
                k, l = rep.witness
                assert l - k == rep.value
                assert tset.contains(segment_average(path, k, l))
            rep = t_stat(path, tset, 2)
            if rep.witness is not None:
                k, l = rep.witness
                assert l == rep.value and l - k >= 2
                assert tset.contains(segment_average(path, k, l))
        # a float and an array probe get the same answers: open at each end, NaN never inside
        for tset in (ThresholdSet.above(0.3), ThresholdSet.below(0.3), ThresholdSet.interval(-0.2, 0.3)):
            ends = (-0.2, 0.3) if tset.kind == "interval" else (0.3,)
            probes = [float("nan"), 0.05, -5.0, 5.0]
            for end in ends:
                probes += [end, np.nextafter(end, -np.inf), np.nextafter(end, np.inf)]
            lo, hi = {"above": (0.3, np.inf), "below": (-np.inf, 0.3), "interval": (-0.2, 0.3)}[tset.kind]
            array = tset.contains(np.asarray(probes))
            assert array.tolist() == [bool(tset.contains(float(x))) for x in probes]
            assert array.tolist() == [lo < x < hi for x in probes]


class TestDuality:
    def test_exhaustive_small_horizons(self):
        # {T_r <= m} must equal {R_m >= r} for every r, m
        for path in random_paths(21, 10, max_len=100):
            t = path.t_max
            for tset in (ThresholdSet.above(0.3), ThresholdSet.below(-0.2)):
                traj = r_stat_trajectory(path, tset, t)
                t_values = {r: t_stat(path, tset, r).value for r in range(1, t + 1)}
                for r in range(1, t + 1):
                    for m in range(1, t + 1):
                        lhs = t_values[r] is not None and t_values[r] <= m
                        rhs = traj[m] >= r
                        assert lhs == rhs, (r, m, t_values[r], traj[m])


class TestMonotonicity:
    def test_r_nondecreasing_in_t_and_t_nondecreasing_in_r(self):
        for path in random_paths(33, 20, max_len=120):
            tset = ThresholdSet.above(0.25)
            traj = r_stat_trajectory(path, tset, path.t_max)
            assert (np.diff(traj) >= 0).all()
            t_vals = [t_stat(path, tset, r).value for r in range(1, 20)]
            filtered = [v for v in t_vals if v is not None]
            assert filtered == sorted(filtered)
            # once absent, absent for all larger r
            seen_none = False
            for v in t_vals:
                if v is None:
                    seen_none = True
                assert not (seen_none and v is not None)


class TestTrajectory:
    def test_matches_per_horizon_recomputation(self):
        for path in random_paths(55, 15, max_len=80):
            for tset in (
                ThresholdSet.above(0.4),
                ThresholdSet.below(-0.3),
                ThresholdSet.interval(-0.2, 0.6),
            ):
                traj = r_stat_trajectory(path, tset, path.t_max)
                for m in range(1, path.t_max + 1):
                    assert traj[m] == r_stat(path, tset, m).value


class TestIntervalSets:
    def test_interval_uses_direct_evaluation(self):
        rng = np.random.default_rng(77)
        for path in random_paths(61, 50, max_len=60):
            a = float(rng.uniform(-1.0, 0.5))
            tset = ThresholdSet.interval(a, a + 0.8)
            t = path.t_max
            assert r_stat(path, tset, t).value == brute_force_r(path, tset, t).value
            assert t_stat(path, tset, 3).value == brute_force_t(path, tset, 3).value

    def test_set_validation(self):
        with pytest.raises(ValueError):
            ThresholdSet.interval(1.0, 1.0)
        with pytest.raises(ValueError):
            ThresholdSet("above", 1.0, 2.0)
        with pytest.raises(ValueError):
            ThresholdSet("sideways", 1.0)


class TestArgumentChecks:
    def test_horizon_range(self):
        path = make_path(UNIT_D)
        with pytest.raises(ValueError):
            r_stat(path, ThresholdSet.above(0.0), 0)
        with pytest.raises(ValueError):
            r_stat(path, ThresholdSet.above(0.0), 6)
        with pytest.raises(ValueError):
            t_stat(path, ThresholdSet.above(0.0), 0)

    def test_r_longer_than_path_is_absent(self):
        path = make_path(UNIT_D)
        assert t_stat(path, ThresholdSet.above(-10.0), 6).value is None


@given(
    d=st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=40),
    a_num=st.integers(min_value=-4, max_value=4),
    kind=st.sampled_from(["above", "below"]),
)
@settings(max_examples=200, deadline=None)
def test_fast_equals_brute_force_on_integer_paths(d, a_num, kind):
    path = make_path([float(x) for x in d])
    a = a_num / 4.0  # dyadic threshold keeps every comparison exact
    tset = ThresholdSet.above(a) if kind == "above" else ThresholdSet.below(a)
    t = path.t_max
    assert r_stat(path, tset, t).value == brute_force_r(path, tset, t).value
    for r in (1, 2, max(1, t // 2)):
        assert t_stat(path, tset, r).value == brute_force_t(path, tset, r).value


def widest_scan(path, tset, t):
    """R_t from the per-endpoint ramp widths: the reference for the duality search."""
    return _widest(_endpoint_widths(path, tset, t))


@given(
    d=st.one_of(
        st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=1, max_size=60),
        st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=60),
    ),
    growth=st.lists(st.integers(min_value=1, max_value=4), min_size=60, max_size=60),
    a=st.one_of(st.integers(min_value=-8, max_value=8).map(lambda n: n / 4.0),
                st.floats(min_value=-2.0, max_value=2.0)),
    kind=st.sampled_from(["above", "below"]),
)
@settings(deadline=None)  # the example budget comes from the hypothesis profile
def test_duality_search_equals_widest_scan(d, growth, a, kind):
    path = make_path(d, growth[: len(d)])
    tset = ThresholdSet(kind, a)
    for t in range(1, path.t_max + 1):
        assert r_stat(path, tset, t) == widest_scan(path, tset, t)


class TestDualitySearchEdges:
    above = ThresholdSet.above(0.5)

    @pytest.mark.parametrize("d, t, value, witness", [
        ([0.0, 0.0, 0.0], 3, 0, None),  # R = 0: no ramp at all
        ([1.0], 1, 1, (0, 1)),  # t = 1 with a segment
        ([0.0], 1, 0, None),  # t = 1 without one
        ([0.0, 1.0, -1.0, 1.0, -1.0], 5, 1, (1, 2)),  # R = 1, first widest endpoint
        ([1.0] * 8, 8, 8, (0, 8)),  # R = t at a power of two
        ([1.0] * 13, 13, 13, (0, 13)),  # galloping passes t before it fails
        ([1.0] * 13, 6, 6, (0, 6)),  # horizon shorter than the path
    ])
    def test_cases(self, d, t, value, witness):
        path = make_path(d)
        rep = r_stat(path, self.above, t)
        assert (rep.value, rep.witness) == (value, witness)
        assert rep == widest_scan(path, self.above, t)

    @pytest.mark.parametrize("kind, a", [("above", 0.4), ("below", -0.4)])
    def test_long_two_group_walk(self, kind, a):
        # resumed probes across many scan blocks, at block edges and at the full horizon
        spec, _ = load_model(str(MODELS / "two_group.json"))
        path = simulate(spec, PathConfig(t_max=200_000, seed=21))
        tset = ThresholdSet(kind, a)
        for t in (1, 8191, 8192, 65536, 200_000):
            assert r_stat(path, tset, t) == widest_scan(path, tset, t), t

    def test_positive_drift_long_path(self):
        rng = np.random.default_rng(5)
        path = make_path(1.0 + 0.1 * rng.standard_normal(5000))
        for t in (1, 2, 3, 1000, 4095, 4096, 4097, 5000):
            rep = r_stat(path, self.above, t)
            assert rep.value == t and rep.witness == (0, t)
            assert rep == widest_scan(path, self.above, t)


def full_scan_t(path, tset, r):
    """T_r by one scan of the whole walk: the reference for the blocked scan."""
    if r > path.t_max:
        return SegmentReport(None, None)
    g = path.S - tset.a * path.N.astype(np.float64)
    if tset.kind == "below":
        g = -g
    l = _first_deviant_end(g, np.minimum.accumulate(g), r)
    if l is None:
        return SegmentReport(None, None)
    return SegmentReport(l, (int(np.argmin(g[: l - r + 1])), l))


def scan_blocks(r):
    """Block constants around r: one block per index, a small one, and r - 1, r, r + 1."""
    return sorted({1, 7, max(r - 1, 1), r, r + 1})


@given(
    d=st.one_of(
        st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=1, max_size=60),
        st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=60),
    ),
    growth=st.lists(st.integers(min_value=1, max_value=4), min_size=60, max_size=60),
    a=st.one_of(st.integers(min_value=-8, max_value=8).map(lambda n: n / 4.0),
                st.floats(min_value=-2.0, max_value=2.0)),
    kind=st.sampled_from(["above", "below"]),
    r=st.integers(min_value=1, max_value=62),
)
@settings(max_examples=300, deadline=None)
def test_blocked_scan_equals_full_scan(d, growth, a, kind, r):
    path = make_path(d, growth[: len(d)])
    tset = ThresholdSet(kind, a)
    want = full_scan_t(path, tset, r)
    for block in scan_blocks(r):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(segments, "_SCAN_BLOCK", block)
            assert t_stat(path, tset, r) == want, block


class TestScanBlockEdges:
    above = ThresholdSet.above(0.0)

    @staticmethod
    def t_stat_blocks(path, tset, r, blocks, monkeypatch):
        reports = set()
        for block in blocks:
            monkeypatch.setattr(segments, "_SCAN_BLOCK", block)
            reports.add(t_stat(path, tset, r))
        assert len(reports) == 1
        return reports.pop()

    @pytest.mark.parametrize("first", [7, 14])
    def test_hit_at_a_block_start(self, monkeypatch, first):
        # S falls to -(first - 1), then jumps; with blocks of 7 the first hit of
        # T_2 is index `first`, the first index of a block
        d = [-1.0] * (first - 1) + [10.0] + [-1.0] * 9
        path = make_path(d)
        want = SegmentReport(first, (first - 2, first))
        assert full_scan_t(path, self.above, 2) == want
        assert self.t_stat_blocks(path, self.above, 2, [7], monkeypatch) == want

    def test_r_longer_than_a_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        path = make_path(rng.standard_normal(300) + 0.05)
        for r in (10, 40, 299):
            want = full_scan_t(path, self.above, r)
            assert self.t_stat_blocks(path, self.above, r, [1, 7], monkeypatch) == want

    def test_r_longer_than_the_path(self, monkeypatch):
        path = make_path([1.0] * 5)
        rep = self.t_stat_blocks(path, self.above, 6, scan_blocks(6), monkeypatch)
        assert rep == SegmentReport(None, None)

    def test_no_hit(self, monkeypatch):
        path = make_path([-1.0] * 50)
        for r in (1, 3, 49, 50):
            rep = self.t_stat_blocks(path, self.above, r, scan_blocks(r), monkeypatch)
            assert rep == SegmentReport(None, None)

    def test_running_minimum_crosses_blocks(self, monkeypatch):
        # S = 0, 0, -1, -5, -2, -5, -3: S(6) beats the minimum at 3 but no
        # value of the block holding 4..5, so T_2 needs the carried minimum
        path = make_path([0.0, -1.0, -4.0, 3.0, -3.0, 2.0])
        want = SegmentReport(6, (3, 6))
        assert full_scan_t(path, self.above, 2) == want
        assert self.t_stat_blocks(path, self.above, 2, [1, 2, 3], monkeypatch) == want

    def test_witness_is_the_first_minimum_across_blocks(self, monkeypatch):
        # S = 0, -1, -2, -3, -3, -3, -3, -3, 5: the minimum first occurs at 3,
        # and the blocks after the one holding index 3 tie it
        path = make_path([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 8.0])
        want = SegmentReport(8, (3, 8))
        assert full_scan_t(path, self.above, 2) == want
        assert self.t_stat_blocks(path, self.above, 2, [1, 2, 3, 4, 5, 7], monkeypatch) == want


def resumed_t(path, tset, r, cuts):
    """T_r by one scan state advanced over the path cut at ``cuts``, then over the whole path.

    Each report on the way must equal one-shot ``t_stat`` on that prefix.
    """
    scan = segments._TScan(tset, r)
    for cut in sorted(set(cuts)):
        if 1 <= cut < path.t_max:
            prefix = WorkloadPath(S=path.S[: cut + 1], N=path.N[: cut + 1])
            assert scan.advance(prefix) == t_stat(prefix, tset, r), cut
    return scan.advance(path)


@given(
    d=st.one_of(
        st.lists(st.integers(min_value=-3, max_value=3).map(float), min_size=1, max_size=60),
        st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=1, max_size=60),
    ),
    growth=st.lists(st.integers(min_value=1, max_value=4), min_size=60, max_size=60),
    a=st.one_of(st.integers(min_value=-8, max_value=8).map(lambda n: n / 4.0),
                st.floats(min_value=-2.0, max_value=2.0)),
    kind=st.sampled_from(["above", "below"]),
    r=st.integers(min_value=1, max_value=62),
    block=st.integers(min_value=1, max_value=9),
    cuts=st.lists(st.integers(min_value=1, max_value=60), max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_resumed_scan_equals_one_shot(d, growth, a, kind, r, block, cuts):
    path = make_path(d, growth[: len(d)])
    tset = ThresholdSet(kind, a)
    # besides the drawn cuts: one before r and one at a block edge
    cuts = cuts + [r - 1, block * (1 + len(cuts))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segments, "_SCAN_BLOCK", block)
        want = t_stat(path, tset, r)
        assert resumed_t(path, tset, r, cuts) == want
    assert want == full_scan_t(path, tset, r)


class TestResumedScan:
    above = ThresholdSet.above(0.0)

    @pytest.mark.parametrize("cuts", [[2], [3], [4], [2, 3, 4, 5], [5, 6, 7]])
    @pytest.mark.parametrize("block", [1, 2, 3, 16384])
    def test_tied_minimum_on_either_side_of_a_cut(self, cuts, block, monkeypatch):
        # S = 0, -1, -3, -2, -3, -3, -3, 5: the minimum -3 first occurs at 2 and
        # again from 4 on, so the cuts put the tie before, between or after them
        path = make_path([-1.0, -2.0, 1.0, -1.0, 0.0, 0.0, 8.0])
        monkeypatch.setattr(segments, "_SCAN_BLOCK", block)
        want = SegmentReport(7, (2, 7))
        assert full_scan_t(path, self.above, 2) == want
        assert resumed_t(path, self.above, 2, cuts) == want

    def test_hit_is_final(self):
        path = make_path([1.0, 1.0, -9.0, 5.0])
        scan = segments._TScan(self.above, 1)
        assert scan.advance(WorkloadPath(S=path.S[:2], N=path.N[:2])) == SegmentReport(1, (0, 1))
        assert scan.advance(path) == SegmentReport(1, (0, 1))

    def test_no_hit_keeps_the_scan_open(self):
        path = make_path([-1.0] * 20 + [50.0])
        scan = segments._TScan(self.above, 3)
        for cut in (2, 10, 20):
            prefix = WorkloadPath(S=path.S[: cut + 1], N=path.N[: cut + 1])
            assert scan.advance(prefix) == SegmentReport(None, None)
        assert scan.advance(path) == SegmentReport(21, (18, 21)) == full_scan_t(path, self.above, 3)
