import logging
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from strange_segments import (
    GaussianInnovations,
    ModelValidationError,
    QuadratureError,
    RateFunctionCtx,
    StrongLawRun,
    ThresholdSet,
    UldpRun,
    invert_capacity,
    load_model,
    parse_model_document,
    run_strong_law,
    run_uldp,
    sla_plan,
)
import strange_segments.experiments as experiments
import strange_segments.innovations as innovations
import strange_segments.simulator as simulator
from strange_segments.experiments import _window_bounds
from strange_segments.innovations import InnovationModel
from strange_segments.model_core import floor_power_prefix
from strange_segments.modeldoc import canonical_document

from conftest import segment_average

MODELS = Path(__file__).resolve().parent.parent / "models"


def small_strong_law(spec, **overrides):
    kwargs = dict(
        spec=spec,
        c_p=1.0,
        r_grid=(2, 3, 4),
        t_grid=(16, 64),
        replicates=8,
        master_seed=42,
        noise_mode="off",
        initial_horizon=64,
    )
    kwargs.update(overrides)
    return StrongLawRun(**kwargs)


class TestStrongLaw:
    def test_refuses_capacity_at_mean(self, unit_spec):
        with pytest.raises(ModelValidationError, match="mean"):
            run_strong_law(small_strong_law(unit_spec, c_p=0.0))

    def test_predicted_constant(self, unit_spec):
        res = run_strong_law(small_strong_law(unit_spec))
        assert res.summary["predicted_rate"] == pytest.approx(0.5, abs=1e-10)
        assert res.summary["predicted_reciprocal"] == pytest.approx(2.0, abs=1e-9)

    def test_rows_complete_and_duality_consistent(self, unit_spec):
        cfg = small_strong_law(unit_spec)
        res = run_strong_law(cfg)
        t_rows = [r for r in res.rows if r["statistic"] == "T"]
        r_rows = [r for r in res.rows if r["statistic"] == "R"]
        assert len(t_rows) == cfg.replicates * len(cfg.r_grid)
        assert len(r_rows) == cfg.replicates * len(cfg.t_grid)
        assert res.summary["duality_consistent"] is True

    def test_reproducible_and_worker_independent(self, unit_spec):
        cfg = small_strong_law(unit_spec)
        a = run_strong_law(cfg)
        b = run_strong_law(cfg)
        c = run_strong_law(cfg, workers=2)
        assert a.rows == b.rows == c.rows
        assert a.summary == b.summary == c.summary

    def test_censoring_reported(self, unit_spec):
        # cap the horizon so large r cannot complete
        cfg = small_strong_law(
            unit_spec, c_p=3.0, r_grid=(2, 12), t_grid=(16, 32),
            initial_horizon=32, horizon_cap=32, replicates=4,
        )
        res = run_strong_law(cfg)
        censored = [r for r in res.rows if r["censored"]]
        assert censored, "expected censored replicates at this cap"
        assert res.summary["log_T_over_r"]["12"]["censored"] > 0
        for row in censored:
            assert row["value"] is None and row["normalized"] is None

    def test_replicates_logged_at_debug_only(self, unit_spec, caplog):
        cfg = small_strong_law(unit_spec, replicates=3)
        caplog.set_level(logging.DEBUG, logger="strange_segments.experiments")
        logged = run_strong_law(cfg)
        lines = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.DEBUG]
        assert [line.split(":")[0] for line in lines] == [f"strong-law replicate {i}" for i in range(3)]
        assert all("growths (" in line and "steps formed" in line and "T_4 = " in line for line in lines)
        caplog.clear()
        caplog.set_level(logging.INFO, logger="strange_segments.experiments")
        quiet = run_strong_law(cfg)
        assert not caplog.records
        assert logged.rows == quiet.rows and logged.summary == quiet.summary


class TestGrowthSchedule:
    """A replicate's path grows by an eighth, by at least 8,192 steps, until T_{r_max} appears."""

    @pytest.mark.parametrize("model, noise_mode", [("unit.json", "off"), ("two_group.json", "aggregate")])
    @pytest.mark.parametrize("rep", range(4))
    def test_same_outputs_as_one_go_and_bounded_overshoot(self, model, noise_mode, rep):
        spec, _ = load_model(str(MODELS / model))
        cap, r_grid = 400_000, (2, 4, 8)

        def replicate(initial):
            args = (canonical_document(spec), 1.5, r_grid, (100, 1000), noise_mode, cap, initial, 7, rep)
            return experiments._strong_law_replicate(args)

        grown, whole = replicate(1000), replicate(cap)
        assert grown["T"] == whole["T"] and grown["R"] == whole["R"]
        t_last = grown["T"][max(r_grid)]
        assert t_last is not None and t_last > 8192  # found after at least one growth
        assert grown["horizon"] - t_last < max(t_last // 8, simulator._CUMSUM_CHUNK)


class TestWindowBounds:
    def test_integer_offsets(self):
        assert _window_bounds(Fraction(0), 40) == (1, 40)
        assert _window_bounds(Fraction(1), 40) == (41, 80)
        assert _window_bounds(Fraction(4), 40) == (161, 200)

    def test_fractional_offsets_use_ceil_floor(self):
        # (kt, (k+1)t] with kt = 5.0 exactly
        assert _window_bounds(Fraction(1, 2), 10) == (6, 15)
        # kt = 3.3: sum over ceil(kt+1)=5 .. floor((k+1)t)=13
        assert _window_bounds(Fraction(33, 100), 10) == (5, 13)


class TestUldp:
    def test_small_run_sane(self, unit_spec):
        cfg = UldpRun(
            spec=unit_spec,
            k_grid=(0, 1),
            t=10,
            tset=ThresholdSet.above(0.4),
            samples=4000,
            master_seed=3,
        )
        res = run_uldp(cfg)
        assert len(res.rows) == 2
        for row in res.rows:
            assert 0.0 <= row["p_hat"] <= 1.0
            assert row["se"] >= 0.0
            assert row["exponent"] > 0.0
            assert row["predicted"] > 0.0

    def test_worker_independence(self, unit_spec):
        cfg = UldpRun(
            spec=unit_spec,
            k_grid=(0, 2),
            t=8,
            tset=ThresholdSet.above(0.5),
            samples=20_000,
            master_seed=11,
        )
        a = run_uldp(cfg, workers=1)
        b = run_uldp(cfg, workers=3)
        assert a.rows == b.rows
        assert a.summary == b.summary

    def test_zero_successes_reports_bound(self, unit_spec):
        cfg = UldpRun(
            spec=unit_spec,
            k_grid=(0,),
            t=30,
            tset=ThresholdSet.above(50.0),
            samples=500,
            master_seed=5,
        )
        res = run_uldp(cfg)
        row = res.rows[0]
        assert row["successes"] == 0
        assert row["exponent_is_lower_bound"] is True
        assert row["exponent"] == pytest.approx(np.log(500) / 30)

    def test_window_sampling_matches_path_simulation(self, unit_spec):
        # the direct window sampler and whole-path simulation share the law;
        # compare empirical means/variances of the window average at k=1
        from strange_segments import PathConfig, simulate
        from strange_segments.experiments import _uldp_chunk
        from strange_segments.modeldoc import canonical_document

        t = 12
        doc = canonical_document(unit_spec)
        hits, size = _uldp_chunk((doc, "1", t, ThresholdSet.above(0.25), 4000, 9, 0, 0, "off"))
        p_window = hits / size
        count = 0
        for seed in range(4000):
            path = simulate(unit_spec, PathConfig(t_max=2 * t, seed=seed, noise_mode="off"))
            if segment_average(path, t, 2 * t) > 0.25:
                count += 1
        p_path = count / 4000
        se = np.sqrt(p_path * (1 - p_path) / 4000)
        assert abs(p_window - p_path) <= 5 * se

    def test_noise_mode_resolved_once(self, unit_spec, noisy_unit_spec):
        def run(spec, mode=None):
            return UldpRun(spec=spec, k_grid=(0,), t=5, tset=ThresholdSet.above(0.5),
                           samples=10, noise_mode=mode)

        assert run(unit_spec).noise_mode == "off"
        assert run(noisy_unit_spec).noise_mode == "aggregate"
        assert run(noisy_unit_spec, "off").noise_mode == "off"
        with pytest.raises(ModelValidationError) as info:
            run(unit_spec, "aggregate")
        assert info.value.invariant == "noise_model_missing"
        for mode in ("sometimes", "literal"):  # refused, not run without noise
            with pytest.raises(ModelValidationError) as info:
                run(noisy_unit_spec, mode)
            assert info.value.invariant == "noise_mode"


def _one_shot_window_sums(spec, k, t, size, seed):
    """Oracle in the filter-then-weights order: every innovation of the chunk
    drawn at once, loaded, moving-averaged, then weighted in one product.

    Also returns ``sum_j |loaded_j * h_j|`` per sample, the scale of the
    rounding error, with the kernel ``h = phi (*) weights`` from ``np.convolve``.
    """
    lo, hi = _window_bounds(k, t)
    weights = floor_power_prefix(hi, spec.alpha)[lo:].astype(np.float64)
    width = len(weights)
    span = width + spec.ma.max_lag - spec.ma.min_lag
    xi = spec.innovations.sample(np.random.default_rng(seed), size * span)
    loaded = xi.reshape(size, span, spec.dim) @ spec.beta_sum
    sums = simulator._ma_filter(spec.ma, loaded, width) @ weights
    phi = [spec.ma.coeffs.get(lag, 0.0) for lag in range(spec.ma.max_lag, spec.ma.min_lag - 1, -1)]
    kernel = np.convolve(weights, phi)
    return sums, np.abs(loaded * kernel).sum(axis=1)


def _block_cases():
    for model in ("unit.json", "two_group.json"):
        spec, _ = load_model(str(MODELS / model))
        for k in (Fraction(0), Fraction(7, 3), Fraction(4)):
            for t in (3, 40, 20_000):
                lo, hi = _window_bounds(k, t)
                span = hi - lo + 1 + spec.ma.max_lag - spec.ma.min_lag
                block = max(1, innovations._PROJECTION_BLOCK_ROWS // span)
                for size in sorted({1, 2, block - 1, block, block + 1, 8192}):
                    if size >= 1 and size * span <= 1 << 22:  # the oracle holds them all
                        yield pytest.param(spec, k, t, size, id=f"{model}-k{k}-t{t}-n{size}")


def _row_sums(spec, k, t, size):
    """Window sums from the default sampler, which draws every innovation row.

    The Gaussian law overrides it with one draw per sum; it is called here
    directly so the row-drawing path that other laws take stays checked.
    """
    lo, hi = _window_bounds(k, t)
    kernel = experiments._window_kernel(spec, floor_power_prefix(hi, spec.alpha)[lo:].astype(np.float64))
    return InnovationModel.sample_projections(spec.innovations, np.random.default_rng(size), kernel, size)


class TestBlockedWindowSums:
    @pytest.mark.parametrize("spec, k, t, size", _block_cases())
    def test_bitwise_equal_to_one_shot(self, spec, k, t, size, monkeypatch):
        blocked = _row_sums(spec, k, t, size)
        assert blocked.shape == (size,)
        for rows in (1, 1 << 62):  # one sample per block, and every sample in one block
            monkeypatch.setattr(innovations, "_PROJECTION_BLOCK_ROWS", rows)
            other = _row_sums(spec, k, t, size)
            assert other.tobytes() == blocked.tobytes()

    @pytest.mark.parametrize("spec, k, t, size", _block_cases())
    def test_near_filter_then_weights(self, spec, k, t, size):
        sums = _row_sums(spec, k, t, size)
        reference, scale = _one_shot_window_sums(spec, k, t, size, size)
        assert np.all(np.abs(sums - reference) <= 16 * np.finfo(np.float64).eps * scale)


def _exact_law_case(model):
    """(spec, kernel, closed-form variance (h . h) beta_sum' cov beta_sum) of the window (0, 40]."""
    spec, _ = load_model(str(MODELS / model))
    lo, hi = _window_bounds(Fraction(0), 40)
    weights = floor_power_prefix(hi, spec.alpha)[lo:].astype(np.float64)
    phi = [spec.ma.coeffs.get(lag, 0.0) for lag in range(spec.ma.max_lag, spec.ma.min_lag - 1, -1)]
    h = np.convolve(weights, phi)
    beta = spec.beta_sum
    variance = float(h @ h) * float(beta @ spec.innovations.cov @ beta)
    return spec, experiments._window_kernel(spec, weights), variance


class TestExactWindowSums:
    @pytest.mark.parametrize("model", ["unit.json", "two_group.json"])
    def test_one_normal_per_sum(self, model):
        spec, kernel, variance = _exact_law_case(model)
        size = 1000
        rng = np.random.default_rng(5)
        draws = spec.innovations.sample_projections(rng, kernel, size)
        reference = np.random.default_rng(5)
        sigma = np.sqrt(np.sum((kernel @ spec.innovations.cov) * kernel))
        assert sigma == pytest.approx(np.sqrt(variance), rel=1e-12)
        assert draws.tobytes() == (reference.standard_normal(size) * sigma).tobytes()
        # the stream moved on by exactly `size` normals
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_loading_in_the_null_space_of_a_singular_cov(self):
        # the quadratic form rounds to -5.5e-17 here; the sums are exactly 0
        v = np.array([0.50084929, 0.07496536]) / np.sqrt(0.50084929)
        law = GaussianInnovations(cov=np.outer(v, v))
        kernel = np.multiply.outer(np.array([1.17, 1.47, 2.23, 2.56, 2.85]), np.array([v[1], -v[0]]))
        assert np.sum((kernel @ law.cov) * kernel) < 0
        assert np.all(law.sample_projections(np.random.default_rng(0), kernel, 100) == 0.0)

    @pytest.mark.parametrize("model", ["unit.json", "two_group.json"])
    def test_variance_matches_closed_form_and_row_draws(self, model):
        spec, kernel, variance = _exact_law_case(model)
        size = 1 << 16
        exact = spec.innovations.sample_projections(np.random.default_rng(3), kernel, size)
        rows = InnovationModel.sample_projections(spec.innovations, np.random.default_rng(4), kernel, size)
        # standard error of a normal sample's variance: var * sqrt(2 / (n - 1))
        se = variance * np.sqrt(2.0 / (size - 1))
        assert abs(exact.var(ddof=1) - variance) <= 5 * se
        assert abs(exact.var(ddof=1) - rows.var(ddof=1)) <= 5 * np.sqrt(2.0) * se


class TestSlaPlan:
    def test_unit_model_inverse(self, unit_spec):
        plan = sla_plan(unit_spec, r_target=10, horizon=148)
        assert plan["target_rate"] == pytest.approx(np.log(148) / 10, abs=1e-15)
        assert plan["capacity_headroom"] == pytest.approx(np.sqrt(2 * np.log(148) / 10), abs=1e-6)
        assert plan["predicted_longest_segment"] == pytest.approx(10.0, rel=1e-6)
        assert plan["warning"] is None

    def test_near_mean_warning(self, unit_spec):
        plan = sla_plan(unit_spec, r_target=10**6, horizon=2)
        assert plan["capacity_headroom"] < 2e-3
        assert plan["warning"] == "prediction unreliable near the mean"

    def test_variance_scaling(self, unit_spec, cov4_spec):
        base = sla_plan(unit_spec, r_target=10, horizon=148)["capacity_headroom"]
        scaled = sla_plan(cov4_spec, r_target=10, horizon=148)["capacity_headroom"]
        assert scaled == pytest.approx(2.0 * base, rel=1e-6)

    def test_argument_validation(self, unit_spec):
        with pytest.raises(ModelValidationError):
            sla_plan(unit_spec, r_target=0, horizon=100)
        with pytest.raises(ModelValidationError):
            sla_plan(unit_spec, r_target=5, horizon=1)

    def test_inverse_consistency(self, unit_spec):
        ctx = RateFunctionCtx(unit_spec)
        assert invert_capacity(ctx, 0.5) == pytest.approx(1.0, abs=1e-6)


class TestConfigValidation:
    def test_grids_checked(self, unit_spec):
        with pytest.raises(ModelValidationError):
            StrongLawRun(spec=unit_spec, c_p=1.0, r_grid=())
        with pytest.raises(ModelValidationError):
            StrongLawRun(spec=unit_spec, c_p=1.0, t_grid=(1,))
        with pytest.raises(ModelValidationError):
            UldpRun(spec=unit_spec, k_grid=(-1,), t=5, tset=ThresholdSet.above(1.0), samples=10)
        # duplicates would double rows and censored counts, or overwrite a summary entry
        for grids in ({"r_grid": (2, 12, 12)}, {"t_grid": (16, 64, 16)}):
            with pytest.raises(ModelValidationError) as info:
                StrongLawRun(spec=unit_spec, c_p=1.0, **grids)
            assert info.value.invariant == next(iter(grids))
        for k_grid in ((0, Fraction(0), 1), ("0", "0.0", "1"), (Fraction(1, 2), "0.5"),
                       (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))):
            with pytest.raises(ModelValidationError) as info:
                UldpRun(spec=unit_spec, k_grid=k_grid, t=5, tset=ThresholdSet.above(1.0), samples=10)
            assert info.value.invariant == "k_grid"

    @pytest.mark.parametrize("k_grid", [(0, Fraction(1, 2)), (Fraction(7, 3),)])
    def test_empty_window_refused(self, unit_spec, k_grid):
        # t = 1 and a fractional kt: ceil(kt) + 1 lies past floor(kt + 1)
        with pytest.raises(ModelValidationError) as info:
            UldpRun(spec=unit_spec, k_grid=k_grid, t=1, tset=ThresholdSet.above(1.0), samples=10)
        assert info.value.invariant == "k_grid"
        # a longer window at the same offsets holds a step
        UldpRun(spec=unit_spec, k_grid=k_grid, t=2, tset=ThresholdSet.above(1.0), samples=10)

    def test_strong_law_noise_mode_resolved_once(self, unit_spec, noisy_unit_spec):
        assert small_strong_law(unit_spec, noise_mode=None).noise_mode == "off"
        assert small_strong_law(noisy_unit_spec, noise_mode=None).noise_mode == "aggregate"
        assert small_strong_law(noisy_unit_spec, noise_mode="off").noise_mode == "off"
        with pytest.raises(ModelValidationError) as info:
            small_strong_law(unit_spec, noise_mode="aggregate")
        assert info.value.invariant == "noise_model_missing"
        for mode in ("sometimes", "literal"):
            with pytest.raises(ModelValidationError) as info:
                small_strong_law(noisy_unit_spec, noise_mode=mode)
            assert info.value.invariant == "noise_mode"

    @pytest.mark.parametrize("cap", [0, -3])
    def test_horizon_cap_positive(self, unit_spec, cap):
        # with no t_grid entry to cover, a cap below one still names its invariant
        with pytest.raises(ModelValidationError) as info:
            small_strong_law(unit_spec, t_grid=(), horizon_cap=cap)
        assert info.value.invariant == "horizon_cap"


class _SerialPool:
    """Stand-in for ProcessPoolExecutor: records max_workers and maps in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, units):
        return map(fn, units)


class TestRunUnits:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_needs_a_worker(self, unit_spec, workers):
        with pytest.raises(ModelValidationError) as info:
            run_strong_law(small_strong_law(unit_spec, replicates=2), workers=workers)
        assert info.value.invariant == "workers"
        with pytest.raises(ModelValidationError) as info:
            run_uldp(UldpRun(spec=unit_spec, k_grid=(0,), t=5, tset=ThresholdSet.above(1.0),
                             samples=10), workers=workers)
        assert info.value.invariant == "workers"

    def test_pool_has_at_most_one_process_per_unit(self, unit_spec, monkeypatch):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(64)))
        cfg = small_strong_law(unit_spec, replicates=2)
        assert run_strong_law(cfg, workers=64).rows == run_strong_law(cfg).rows
        uldp = UldpRun(spec=unit_spec, k_grid=(0, 1, 2), t=5, tset=ThresholdSet.above(1.0),
                       samples=10)
        assert run_uldp(uldp, workers=64).rows == run_uldp(uldp).rows
        assert run_uldp(uldp, workers=2).rows == run_uldp(uldp).rows
        # single-worker runs never build a pool, so only the three pooled calls record a size
        assert _SerialPool.sizes == [2, 3, 2]

    def test_pool_has_at_most_one_process_per_cpu(self, unit_spec, monkeypatch):
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "sizes", [])
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = small_strong_law(unit_spec, replicates=5)
        assert run_strong_law(cfg, workers=5000).rows == run_strong_law(cfg).rows
        # without an affinity mask the CPU count bounds the pool, and one CPU runs in-process
        monkeypatch.delattr(experiments.os, "sched_getaffinity")
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        assert run_strong_law(cfg, workers=5000).rows == run_strong_law(cfg).rows
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        assert run_strong_law(cfg, workers=5000).rows == run_strong_law(cfg).rows
        assert _SerialPool.sizes == [2, 3]


class TestErrorsCrossProcesses:
    def test_model_validation_error_round_trips(self):
        err = pickle.loads(pickle.dumps(ModelValidationError("horizon_cap", "must be >= 1")))
        assert type(err) is ModelValidationError
        assert err.invariant == "horizon_cap" and str(err) == "must be >= 1"

    def test_quadrature_error_round_trips(self):
        err = pickle.loads(pickle.dumps(QuadratureError("order limit reached", 3.5e-7)))
        assert type(err) is QuadratureError
        assert err.achieved == 3.5e-7 and str(err) == "order limit reached"
