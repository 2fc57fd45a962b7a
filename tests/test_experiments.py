from fractions import Fraction

import numpy as np
import pytest

from strange_segments import (
    ModelValidationError,
    RateFunctionCtx,
    StrongLawRun,
    ThresholdSet,
    UldpRun,
    invert_capacity,
    parse_model_document,
    run_strong_law,
    run_uldp,
    sla_plan,
)
import strange_segments.simulator as simulator
from strange_segments.experiments import _window_bounds


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

    def test_noise_mode_literal_runs(self, noisy_unit_spec):
        cfg = small_strong_law(
            noisy_unit_spec, noise_mode="literal", replicates=2, initial_horizon=32, r_grid=(2,)
        )
        res = run_strong_law(cfg)
        assert res.summary["duality_consistent"] is True

    def test_literal_noise_respects_draw_budget(self, noisy_unit_spec, monkeypatch):
        # N(64) = 2080 fits the budget and the extension to 128 draws only
        # 6176 more, but the whole path then needs N(128) = 8256 draws.
        monkeypatch.setattr(simulator, "_LITERAL_DRAW_BUDGET", 8000)
        cfg = small_strong_law(
            noisy_unit_spec, noise_mode="literal", c_p=3.0, r_grid=(20,), t_grid=(16,),
            replicates=1, initial_horizon=64, horizon_cap=4096,
        )
        with pytest.raises(ModelValidationError) as excinfo:
            run_strong_law(cfg)
        assert excinfo.value.invariant == "literal_draw_budget"


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
        from strange_segments import PathConfig, segment_average, simulate
        from strange_segments.experiments import _uldp_chunk
        from strange_segments.modeldoc import canonical_document

        t = 12
        doc = canonical_document(unit_spec)
        hits, size = _uldp_chunk((doc, "1", t, "above", 0.25, None, 4000, 9, 0, 0, None))
        p_window = hits / size
        count = 0
        for seed in range(4000):
            path = simulate(unit_spec, PathConfig(t_max=2 * t, seed=seed, noise_mode="off"))
            if segment_average(path, t, 2 * t) > 0.25:
                count += 1
        p_path = count / 4000
        se = np.sqrt(p_path * (1 - p_path) / 4000)
        assert abs(p_window - p_path) <= 5 * se

    def test_literal_noise_rejected(self, noisy_unit_spec):
        cfg = UldpRun(
            spec=noisy_unit_spec,
            k_grid=(0,),
            t=5,
            tset=ThresholdSet.above(0.5),
            samples=100,
            master_seed=1,
            noise_mode="literal",
        )
        with pytest.raises(ModelValidationError, match="literal"):
            run_uldp(cfg)


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
