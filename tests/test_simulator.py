import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strange_segments import (
    ModelValidationError,
    PathConfig,
    parse_model_document,
    simulate,
)
from strange_segments import simulator
from strange_segments.innovations import GaussianInnovations
from strange_segments.model_core import floor_power_prefix
from strange_segments.simulator import (
    _CUMSUM_CHUNK,
    _DRAW_BLOCK_ROWS,
    _THREAD_MIN_ROWS,
    _PathBuilder,
    _child_streams,
    _ma_filter,
    _resolve_noise_mode,
    innovation_span,
)

from conftest import segment_average, unit_document


class TestInjectedExamples:
    def test_spec_example_path(self, unit_spec):
        cfg = PathConfig(t_max=3, seed=0, noise_mode="off", record_steps=True)
        path = simulate(unit_spec, cfg, injected_innovations=np.array([1.0, -1.0, 1.0]))
        assert path.D[1:].tolist() == [1.0, -2.0, 3.0]
        assert path.S.tolist() == [0.0, 1.0, -1.0, 2.0]
        assert path.N.tolist() == [0, 1, 3, 6]

    def test_all_zero_innovations(self, unit_spec):
        cfg = PathConfig(t_max=32, seed=0, noise_mode="off")
        path = simulate(unit_spec, cfg, injected_innovations=np.zeros(32))
        assert (path.S == 0.0).all()

    def test_segment_average_examples(self, unit_spec):
        cfg = PathConfig(t_max=3, seed=0, noise_mode="off")
        path = simulate(unit_spec, cfg, injected_innovations=np.array([1.0, -1.0, 1.0]))
        assert segment_average(path, 0, 3) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert segment_average(path, 1, 2) == -1.0

    def test_injection_is_exact_integer_sum(self, unit_spec):
        # integer innovations and integer weights keep every partial sum exact
        rng = np.random.default_rng(4)
        xi = rng.integers(-3, 4, size=200).astype(np.float64)
        cfg = PathConfig(t_max=200, seed=0, noise_mode="off")
        path = simulate(unit_spec, cfg, injected_innovations=xi)
        direct = np.cumsum(np.arange(1, 201, dtype=np.float64) * xi)
        assert path.S[1:].tolist() == direct.tolist()

    def test_injected_shape_validated(self, unit_spec):
        cfg = PathConfig(t_max=5, seed=0, noise_mode="off")
        with pytest.raises(ModelValidationError, match="injected"):
            simulate(unit_spec, cfg, injected_innovations=np.zeros(4))

    def test_injected_innovations_refused_before_any_draw(self, monkeypatch, noisy_unit_spec):
        # a refused growth leaves the builder as it was: it drew nothing and wrote nothing
        cfg = PathConfig(t_max=20, seed=3)
        builder = _PathBuilder(noisy_unit_spec, cfg, 20)
        draws = []
        for law, name in [(GaussianInnovations, "sample"), (type(noisy_unit_spec.noise), "sample_aggregate")]:
            monkeypatch.setattr(law, name, lambda *args: draws.append(args))
        with pytest.raises(ModelValidationError) as info:
            builder.grow(20, np.zeros(19))
        assert info.value.invariant == "injected_innovations_shape"
        assert builder.t == 0 and builder.n is None and draws == []
        monkeypatch.undo()
        grown = simulate(noisy_unit_spec, cfg, builder=builder)
        assert grown.S.tobytes() == simulate(noisy_unit_spec, cfg).S.tobytes()


class TestTwoSidedMA:
    def test_window_against_direct_convolution(self):
        doc = unit_document(
            phi=[{"lag": -1, "value": 0.5}, {"lag": 0, "value": 1.0}, {"lag": 2, "value": 0.25}]
        )
        spec = parse_model_document(doc)
        t_max = 50
        j_min, j_max = innovation_span(spec, t_max)
        assert (j_min, j_max) == (1 - 2, t_max + 1)
        rng = np.random.default_rng(7)
        xi = rng.standard_normal(j_max - j_min + 1)
        cfg = PathConfig(t_max=t_max, seed=0, noise_mode="off", record_steps=True)
        path = simulate(spec, cfg, injected_innovations=xi)

        def xi_at(j):
            return xi[j - j_min]

        for t in (1, 2, 25, 50):
            z = 0.5 * xi_at(t + 1) + 1.0 * xi_at(t) + 0.25 * xi_at(t - 2)
            assert path.D[t] == pytest.approx(t * z, rel=1e-12)


class TestReproducibility:
    def test_same_seed_bit_exact(self, noisy_unit_spec):
        cfg = PathConfig(t_max=500, seed=123456789)
        a = simulate(noisy_unit_spec, cfg)
        b = simulate(noisy_unit_spec, cfg)
        assert a.S.tobytes() == b.S.tobytes()
        assert a.N.tobytes() == b.N.tobytes()

    def test_different_seeds_differ(self, unit_spec):
        a = simulate(unit_spec, PathConfig(t_max=100, seed=1))
        b = simulate(unit_spec, PathConfig(t_max=100, seed=2))
        assert not np.array_equal(a.S, b.S)

    def test_monte_carlo_mean_zero(self, unit_spec):
        # sample mean of the average deviation over (0, 50] across paths
        vals = []
        for seed in range(2000):
            path = simulate(unit_spec, PathConfig(t_max=50, seed=seed, noise_mode="off"))
            vals.append(segment_average(path, 0, 50))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) <= 4 * se


class TestNoiseModes:
    def test_aggregate_vs_literal_distribution(self, noisy_unit_spec):
        # S(20) with aggregate noise against a noise-free path plus one draw
        # per customer, N(20) draws in all: same law
        n = 10_000
        rng = np.random.default_rng(20)
        sd = np.sqrt(noisy_unit_spec.noise.var)
        agg = np.empty(n)
        lit = np.empty(n)
        for i in range(n):
            agg[i] = simulate(noisy_unit_spec, PathConfig(t_max=20, seed=i, noise_mode="aggregate")).S[-1]
            off = simulate(noisy_unit_spec, PathConfig(t_max=20, seed=i + n, noise_mode="off"))
            lit[i] = off.S[-1] + (rng.standard_normal(int(off.N[-1])) * sd).sum()
        from test_innovations import ks_critical, two_sample_ks

        assert two_sample_ks(agg, lit) < ks_critical(n, n)

    def test_noise_variance_decays_like_inverse_normalizer(self, noisy_unit_spec):
        # paired on/off paths share innovations, so the difference of the
        # segment averages isolates the noise term, whose variance is
        # var_eps / N(t); regress log variance on log N(t)
        rng = np.random.default_rng(10)
        ts = [10, 20, 50, 100, 200]
        reps = 600
        t_max = max(ts)
        diffs = {t: [] for t in ts}
        for i in range(reps):
            xi = noisy_unit_spec.innovations.sample(rng, t_max)
            on = simulate(
                noisy_unit_spec, PathConfig(t_max=t_max, seed=i, noise_mode="aggregate"),
                injected_innovations=xi,
            )
            off = simulate(
                noisy_unit_spec, PathConfig(t_max=t_max, seed=i, noise_mode="off"),
                injected_innovations=xi,
            )
            for t in ts:
                diffs[t].append(segment_average(on, 0, t) - segment_average(off, 0, t))
        log_n = np.log([float(on.N[t]) for t in ts])
        log_var = np.log([np.var(diffs[t], ddof=1) for t in ts])
        slope = np.polyfit(log_n, log_var, 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_noise_mode_needs_noise_model(self, unit_spec):
        with pytest.raises(ModelValidationError, match="noise"):
            simulate(unit_spec, PathConfig(t_max=10, seed=0, noise_mode="aggregate"))

    def test_default_mode_resolution(self, unit_spec, noisy_unit_spec):
        # no noise law: default resolves to off; with one: aggregate
        a = simulate(unit_spec, PathConfig(t_max=10, seed=0))
        b = simulate(unit_spec, PathConfig(t_max=10, seed=0, noise_mode="off"))
        assert a.S.tolist() == b.S.tolist()
        c = simulate(noisy_unit_spec, PathConfig(t_max=10, seed=0))
        d = simulate(noisy_unit_spec, PathConfig(t_max=10, seed=0, noise_mode="off"))
        assert not np.array_equal(c.S, d.S)


class TestPathInvariants:
    def test_normalizer_properties(self, unit_spec):
        path = simulate(unit_spec, PathConfig(t_max=100, seed=0, noise_mode="off"))
        assert path.N[0] == 0 and path.S[0] == 0.0
        assert (np.diff(path.N) > 0).all()
        assert path.N.dtype == np.int64

    def test_config_validation(self):
        with pytest.raises(ModelValidationError):
            PathConfig(t_max=0, seed=0)
        for mode in ("sometimes", "literal"):
            with pytest.raises(ModelValidationError) as info:
                PathConfig(t_max=10, seed=0, noise_mode=mode)
            assert info.value.invariant == "noise_mode"


MODELS = Path(__file__).resolve().parent.parent / "models"


def full_array_path(spec, cfg, injected_innovations=None):
    """The whole-path synthesis `simulate` replaced: one array per stage, then a chunked cumsum.

    Returns (S, N, D); `simulate` must reproduce every element exactly.
    """
    t_max = cfg.t_max
    mode = _resolve_noise_mode(spec, cfg.noise_mode)
    j_min, j_max = innovation_span(spec, t_max)
    rng_xi, rng_eps = _child_streams(np.random.SeedSequence(cfg.seed))
    if injected_innovations is None:
        xi = spec.innovations.sample(rng_xi, j_max - j_min + 1)
    else:
        xi = np.asarray(injected_innovations, dtype=np.float64).reshape(j_max - j_min + 1, -1)
    driver = _ma_filter(spec.ma, xi @ spec.beta_sum, t_max)
    fp = floor_power_prefix(t_max, spec.alpha)
    n_prefix = np.cumsum(spec.total_c * fp, dtype=np.int64)
    d = fp[1:].astype(np.float64) * driver
    if mode != "off":
        d = d + spec.noise.sample_aggregate(n_prefix[1:] - n_prefix[:-1], rng_eps)
    s = np.zeros(t_max + 1)
    carry = comp = 0.0
    for i in range(0, t_max, _CUMSUM_CHUNK):
        seg = np.cumsum(d[i : i + _CUMSUM_CHUNK])
        s[1 + i : 1 + i + len(seg)] = (carry + comp) + seg
        tot = float(seg[-1])
        new = carry + tot
        if abs(carry) >= abs(tot):
            comp += (carry - new) + tot
        else:
            comp += (tot - new) + carry
        carry = new
    return s, n_prefix, np.concatenate([[0.0], d])


class TestBlockEdges:
    """The blocked synthesis equals the whole-path one at and around the block edges."""

    T_MAX = (1, _CUMSUM_CHUNK - 1, _CUMSUM_CHUNK, _CUMSUM_CHUNK + 1, 3 * _CUMSUM_CHUNK + 5)

    @staticmethod
    def spec(name):
        return parse_model_document(json.loads((MODELS / name).read_text()))

    @staticmethod
    def assert_same(path, ref):
        s, n, d = ref
        assert (path.S == s).all() and path.S.dtype == s.dtype
        assert (path.N == n).all() and path.N.dtype == n.dtype
        assert (path.D == d).all()

    @pytest.mark.parametrize("t_max", T_MAX)
    @pytest.mark.parametrize("model", ["unit.json", "unit_noisy.json", "two_group.json"])
    def test_sampled(self, model, t_max):
        spec = self.spec(model)  # aggregate noise where the model has a noise law
        cfg = PathConfig(t_max=t_max, seed=t_max, record_steps=True)
        self.assert_same(simulate(spec, cfg), full_array_path(spec, cfg))

    @pytest.mark.parametrize("t_max", T_MAX)
    @pytest.mark.parametrize("model", ["unit.json", "unit_noisy.json", "two_group.json"])
    def test_injected(self, model, t_max):
        spec = self.spec(model)
        j_min, j_max = innovation_span(spec, t_max)
        xi = np.random.default_rng(t_max).standard_normal((j_max - j_min + 1, spec.dim))
        cfg = PathConfig(t_max=t_max, seed=0, noise_mode="off", record_steps=True)
        self.assert_same(simulate(spec, cfg, injected_innovations=xi),
                         full_array_path(spec, cfg, injected_innovations=xi))
        # injected innovations with sampled aggregate noise
        if spec.noise is not None:
            cfg = PathConfig(t_max=t_max, seed=3, record_steps=True)
            self.assert_same(simulate(spec, cfg, injected_innovations=xi),
                             full_array_path(spec, cfg, injected_innovations=xi))

    def test_steps_not_recorded(self):
        spec = self.spec("two_group.json")
        path = simulate(spec, PathConfig(t_max=_CUMSUM_CHUNK + 1, seed=2))
        s, n, _ = full_array_path(spec, PathConfig(t_max=_CUMSUM_CHUNK + 1, seed=2))
        assert path.D is None
        assert (path.S == s).all() and (path.N == n).all()


class TestGrowInPlace:
    """A path grown through a sequence of horizons equals a one-shot path at each one."""

    HORIZONS = {
        "unaligned": [1000 * 2**k for k in range(6)],  # 1000 -> 32000, crossing blocks
        "aligned": [_CUMSUM_CHUNK, 2 * _CUMSUM_CHUNK],
        "first_steps": [1, 2, 3],
        "around_an_edge": [_CUMSUM_CHUNK - 1, _CUMSUM_CHUNK + 1],
    }

    @staticmethod
    def grow(spec, horizons, cfg_for, inputs_for=lambda h: None):
        """(grown path, one-shot path) per horizon, compared after the last growth.

        ``inputs_for(h)`` gives the innovations the one-shot path at horizon h injects, or None.
        """
        builder = _PathBuilder(spec, cfg_for(horizons[0]), horizons[-1] + 5)
        grown = [simulate(spec, cfg_for(h), builder=builder) for h in horizons]
        # earlier paths share the buffers, which each growth extends past the last horizon
        return [(path, simulate(spec, cfg_for(h), inputs_for(h))) for h, path in zip(horizons, grown)]

    @staticmethod
    def assert_same(path, ref):
        for name in ("S", "N", "D"):
            a, b = getattr(path, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name

    @pytest.mark.parametrize("horizons", HORIZONS.values(), ids=HORIZONS.keys())
    @pytest.mark.parametrize("model", ["unit.json", "unit_noisy.json", "two_group.json"])
    def test_sampled(self, model, horizons):
        spec = TestBlockEdges.spec(model)  # aggregate noise where the model has a noise law
        pairs = self.grow(spec, horizons, lambda h: PathConfig(t_max=h, seed=8, record_steps=True))
        for path, ref in pairs:
            self.assert_same(path, ref)

    @pytest.mark.parametrize("horizons", HORIZONS.values(), ids=HORIZONS.keys())
    @pytest.mark.parametrize("model", ["unit.json", "unit_noisy.json", "two_group.json"])
    def test_injected(self, model, horizons):
        # a path grown in pieces equals one formed in one go from the rows its
        # innovation stream draws, injected, with the noise it draws itself
        spec = TestBlockEdges.spec(model)  # aggregate noise where the model has a noise law
        cap = horizons[-1]
        j_min, j_max = innovation_span(spec, cap)
        rng_xi, _ = _child_streams(np.random.SeedSequence(4))
        xi = spec.innovations.sample(rng_xi, j_max - j_min + 1)

        def inputs_for(h):
            j_min, j_max = innovation_span(spec, h)
            return xi[: j_max - j_min + 1]

        pairs = self.grow(spec, horizons, lambda h: PathConfig(t_max=h, seed=4, record_steps=True), inputs_for)
        for path, ref in pairs:
            self.assert_same(path, ref)

    EDGE_STEPS = list(range(_CUMSUM_CHUNK - 5, _CUMSUM_CHUNK + 6))  # one step at a time across an edge

    @given(
        model=st.sampled_from(["unit.json", "unit_noisy.json", "two_group.json"]),
        seed=st.integers(0, 2**32 - 1),
        horizons=st.lists(
            st.one_of(
                st.integers(1, 3 * _CUMSUM_CHUNK),
                st.builds(lambda b, off: b * _CUMSUM_CHUNK + off, st.integers(1, 3), st.integers(-2, 2)),
            ),
            min_size=1,
            max_size=6,
        ).map(sorted),  # repeated horizons are growths by no step
    )
    @example(model="two_group.json", seed=5, horizons=EDGE_STEPS)
    @example(model="unit_noisy.json", seed=6, horizons=EDGE_STEPS)
    @settings(max_examples=25, deadline=None)
    def test_any_schedule(self, model, seed, horizons):
        spec = TestBlockEdges.spec(model)  # aggregate noise where the model has a noise law
        pairs = self.grow(spec, horizons, lambda h: PathConfig(t_max=h, seed=seed, record_steps=True))
        for path, ref in pairs:
            self.assert_same(path, ref)

    def test_builder_must_fit_the_path(self, unit_spec, noisy_unit_spec):
        builder = _PathBuilder(unit_spec, PathConfig(t_max=50, seed=1), 100)
        simulate(unit_spec, PathConfig(t_max=50, seed=1), builder=builder)
        for spec, cfg in [
            (unit_spec, PathConfig(t_max=49, seed=1)),  # shorter than the path so far
            (unit_spec, PathConfig(t_max=101, seed=1)),  # past the cap
            (unit_spec, PathConfig(t_max=60, seed=1, record_steps=True)),
            (unit_spec, PathConfig(t_max=60, seed=2)),  # the builder draws from seed 1's streams
            (unit_spec, PathConfig(t_max=60, seed=1, noise_mode="off")),  # equal to None only once resolved
            (noisy_unit_spec, PathConfig(t_max=60, seed=1)),
        ]:
            with pytest.raises(ValueError, match="builder"):
                simulate(spec, cfg, builder=builder)
        # injection forms a path in one go only, so a builder that fits is refused too
        with pytest.raises(ValueError, match="builder"):
            simulate(unit_spec, PathConfig(t_max=60, seed=1), np.zeros(60), builder=builder)
        assert builder.t == 50
        grown = simulate(unit_spec, PathConfig(t_max=60, seed=1), builder=builder)
        assert grown.S.tobytes() == simulate(unit_spec, PathConfig(t_max=60, seed=1)).S.tobytes()


class TestDrawThread:
    """Innovation blocks drawn on a worker thread or inline give the same path, and no thread outlives a growth."""

    # innovation rows just below and above one draw block and the thread
    # threshold: a path draws t_max rows plus at most 3 for the MA lags
    T_MAX = (_DRAW_BLOCK_ROWS - 4, _DRAW_BLOCK_ROWS + 1, _THREAD_MIN_ROWS - 4, _THREAD_MIN_ROWS + 1)
    MODES = [("unit.json", "off"), ("unit_noisy.json", "aggregate"), ("two_group.json", "aggregate"),
             ("two_group.json", "off")]

    @pytest.mark.parametrize("t_max", T_MAX)
    @pytest.mark.parametrize("model, noise_mode", MODES)
    def test_one_go(self, monkeypatch, model, noise_mode, t_max):
        spec = TestBlockEdges.spec(model)
        cfg = PathConfig(t_max=t_max, seed=t_max, noise_mode=noise_mode, record_steps=True)
        ref = full_array_path(spec, cfg)
        for threshold in (0, _THREAD_MIN_ROWS, 2**62):  # always, at its size, never threaded
            monkeypatch.setattr(simulator, "_THREAD_MIN_ROWS", threshold)
            TestBlockEdges.assert_same(simulate(spec, cfg), ref)

    HORIZONS = [1000, _DRAW_BLOCK_ROWS + 5, _THREAD_MIN_ROWS + 7, 2 * _THREAD_MIN_ROWS + 11]

    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("model, noise_mode", MODES)
    def test_grown_in_pieces(self, monkeypatch, model, noise_mode, record_steps):
        spec = TestBlockEdges.spec(model)
        cfg_for = lambda h: PathConfig(t_max=h, seed=31, noise_mode=noise_mode, record_steps=record_steps)
        one_go = simulate(spec, cfg_for(self.HORIZONS[-1]))  # with the default threshold
        for threshold in (0, _THREAD_MIN_ROWS, 2**62):
            monkeypatch.setattr(simulator, "_THREAD_MIN_ROWS", threshold)
            for path, ref in TestGrowInPlace.grow(spec, self.HORIZONS, cfg_for):
                for a, b in [(path.S, ref.S), (path.N, ref.N), (path.D, ref.D), (ref.S, one_go.S[: len(ref.S)])]:
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("threshold, on_worker", [(0, True), (2**62, False)])
    def test_draws_run_on_a_worker_and_leave_no_thread(self, monkeypatch, threshold, on_worker):
        spec = TestBlockEdges.spec("two_group.json")
        sample, threads = GaussianInnovations.sample, set()

        def spy(self, rng, size):
            threads.add(threading.get_ident())
            return sample(self, rng, size)

        monkeypatch.setattr(GaussianInnovations, "sample", spy)
        monkeypatch.setattr(simulator, "_THREAD_MIN_ROWS", threshold)
        before = threading.active_count()
        simulate(spec, PathConfig(t_max=3 * _DRAW_BLOCK_ROWS, seed=2))
        assert threading.active_count() == before
        assert len(threads) == 1 and (threading.get_ident() not in threads) == on_worker

    def test_hand_off_under_fast_thread_switches(self, monkeypatch):
        # switching threads every microsecond interleaves the worker's draws with
        # the caller's steps as finely as the interpreter allows; the path is
        # formed on a helper thread so that a stuck hand-off fails here, not hangs
        spec = TestBlockEdges.spec("two_group.json")
        cfg = PathConfig(t_max=5 * _DRAW_BLOCK_ROWS + 7, seed=12, record_steps=True)
        monkeypatch.setattr(simulator, "_THREAD_MIN_ROWS", 0)
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(simulate(spec, cfg)), daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive() and len(got) == 1
        TestBlockEdges.assert_same(got[0], full_array_path(spec, cfg))

    @pytest.mark.parametrize("threshold", [0, 2**62])
    def test_sampler_failure_reaches_the_caller_and_leaves_no_thread(self, monkeypatch, threshold):
        class Boom(RuntimeError):
            pass

        spec = TestBlockEdges.spec("two_group.json")
        sample, calls = GaussianInnovations.sample, []

        def fails_on_second_block(self, rng, size):
            calls.append(size)
            if len(calls) == 2:
                raise Boom("second block")
            return sample(self, rng, size)

        monkeypatch.setattr(GaussianInnovations, "sample", fails_on_second_block)
        monkeypatch.setattr(simulator, "_THREAD_MIN_ROWS", threshold)
        before = threading.active_count()
        with pytest.raises(Boom, match="second block"):
            simulate(spec, PathConfig(t_max=3 * _DRAW_BLOCK_ROWS, seed=2))
        assert threading.active_count() == before
        assert calls == [_DRAW_BLOCK_ROWS, _DRAW_BLOCK_ROWS]
