"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Criteria 6 and 7 assert pre-registered Monte Carlo bands that sit below the
finite-size bias of the statistics they measure (ROADMAP item 6 tabulates
criterion 6's finite-r medians, and item 4 splits criterion 7's gap into its
rate, cumulant and prefactor parts); they are asserted exactly as stated, so
a red outcome there is a faithful report, not a regression in this package.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from strange_segments import (
    RateFunctionCtx,
    StrongLawRun,
    ThresholdSet,
    UldpRun,
    lambda_k,
    lambda_limit,
    legendre,
    parse_model_document,
    run_strong_law,
    run_uldp,
)
from strange_segments.cli import main
from strange_segments.segments import brute_force_r, brute_force_t, r_stat, t_stat

from conftest import gaussian_closed_form, lorenz, trajectory, unit_document
from test_segments import random_paths, random_sets

K_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)


def verdict(num, name, ok, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


class TestCriterion1ClosedFormConjugate:
    def test_three_gaussian_models(self, unit_spec, phi2_spec, cov4_spec):
        start = time.monotonic()
        worst = 0.0
        for spec in (unit_spec, phi2_spec, cov4_spec):
            ctx = RateFunctionCtx(spec)
            for x in np.arange(0.1, 3.0 + 1e-12, 0.1):
                err = abs(legendre(ctx, "limit", float(x)).value - gaussian_closed_form(spec, float(x)))
                worst = max(worst, err)
        elapsed = time.monotonic() - start
        ok = worst <= 1e-8 and elapsed < 1.0
        assert verdict(1, "closed-form conjugate", ok, f"max err {worst:.2e}, {elapsed:.2f} s")


class TestCriterion2SegmentConjugateOracle:
    def test_window_zero_conjugate(self, unit_spec):
        value = legendre(RateFunctionCtx(unit_spec), 0.0, 1.0).value
        err = abs(value - 0.375)
        assert verdict(2, "segment-k conjugate oracle", err <= 1e-8, f"value {value:.12f}")


class TestCriterion3MonotonicitySuite:
    def test_full_grids(self, unit_spec):
        ctx = RateFunctionCtx(unit_spec)
        grid = np.arange(0.25, 3.0 + 1e-12, 0.25)
        violations = 0
        for lam in grid:
            vals = [lambda_k(ctx, k, float(lam)) for k in K_GRID]
            violations += sum(1 for a, b in zip(vals, vals[1:]) if b > a + 1e-8)
        for x in grid:
            vals = [legendre(ctx, k, float(x)).value for k in K_GRID]
            violations += sum(1 for a, b in zip(vals, vals[1:]) if b < a - 1e-8)
        ps = np.linspace(0.0, 1.0, 101)
        for p in ps:
            vals = [lorenz(1.0, k, float(p)) for k in K_GRID]
            violations += sum(1 for a, b in zip(vals, vals[1:]) if b < a - 1e-8)
        assert verdict(3, "monotonicity suite", violations == 0, f"{violations} violations")


class TestCriterion4ConvergenceToLimit:
    def test_sup_gap_shrinks(self, unit_spec):
        ctx = RateFunctionCtx(unit_spec)
        lams = np.linspace(-2.0, 2.0, 81)
        sups = []
        for k in (1.0, 10.0, 100.0, 1000.0):
            sups.append(max(abs(lambda_k(ctx, k, float(l)) - lambda_limit(ctx, float(l))) for l in lams))
        monotone = all(b < a for a, b in zip(sups, sups[1:]))
        ok = monotone and sups[-1] < 5e-3
        assert verdict(4, "window-curve convergence", ok,
                       f"sups {['%.2e' % s for s in sups]}")


class TestCriterion5DetectorExactness:
    def test_thousand_paths_and_duality(self):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        checked = 0
        for path in random_paths(seed=1, count=1000, max_len=200):
            tset = random_sets(rng)
            t = path.t_max
            assert r_stat(path, tset, t).value == brute_force_r(path, tset, t).value
            for r in (1, int(rng.integers(2, t + 1))):
                assert t_stat(path, tset, r).value == brute_force_t(path, tset, r).value
            checked += 1
        duality_pairs = 0
        for path in random_paths(seed=2, count=10, max_len=100):
            t = path.t_max
            for tset in (ThresholdSet.above(0.3), ThresholdSet.below(-0.25)):
                traj = trajectory(path, tset, t)
                for r in range(1, t + 1):
                    t_r = t_stat(path, tset, r).value
                    for m in range(1, t + 1):
                        assert ((t_r is not None) and t_r <= m) == (traj[m] >= r)
                        duality_pairs += 1
        elapsed = time.monotonic() - start
        ok = checked == 1000 and elapsed < 30.0
        assert verdict(5, "detector exactness", ok,
                       f"{checked} paths, {duality_pairs} duality pairs, {elapsed:.1f} s")


class TestCriterion6StrongLaw:
    def test_unit_model_bands(self, unit_spec):
        start = time.monotonic()
        cfg = StrongLawRun(
            spec=unit_spec, c_p=1.0, r_grid=(6, 12, 14), t_grid=(100, 1000),
            replicates=50, master_seed=0,
        )
        res = run_strong_law(cfg)
        elapsed = time.monotonic() - start
        predicted = res.summary["predicted_rate"]
        med6 = res.summary["log_T_over_r"]["6"]["median"]
        med12 = res.summary["log_T_over_r"]["12"]["median"]
        med14 = res.summary["log_T_over_r"]["14"]["median"]
        band_ok = 0.30 <= med12 <= 0.70
        trend_ok = abs(med14 - predicted) < abs(med6 - predicted)
        ok = band_ok and trend_ok and elapsed < 600.0
        verdict(6, "strong law", ok,
                f"pred {predicted:.3f}, med6 {med6:.4f}, med12 {med12:.4f}, med14 {med14:.4f}, "
                f"{elapsed:.1f} s")
        assert trend_ok, "median at r=14 should be closer to the prediction than at r=6"
        assert band_ok, (
            f"median log T_12/12 = {med12:.4f} outside the stated band [0.30, 0.70]; "
            "the exact median of this statistic at r=12 is about 0.706 (finite-size "
            "prefactor bias), so the stated upper edge excludes the true value"
        )
        assert elapsed < 600.0


class TestCriterion7UldpDeskCheck:
    def test_window_exponents(self, unit_spec):
        start = time.monotonic()
        cfg = UldpRun(
            spec=unit_spec, k_grid=(Fraction(0), Fraction(1), Fraction(4)), t=40,
            tset=ThresholdSet.above(0.4), samples=100_000, master_seed=0,
        )
        res = run_uldp(cfg)
        elapsed = time.monotonic() - start
        exps = [row["exponent"] for row in res.rows]
        predicted0 = res.rows[0]["predicted"]
        ordering_ok = all(a <= b for a, b in zip(exps, exps[1:]))
        rel_err = abs(exps[0] - predicted0) / predicted0
        band_ok = rel_err <= 0.25
        ok = ordering_ok and band_ok and elapsed < 300.0
        verdict(7, "window tail exponents", ok,
                f"exponents {['%.4f' % e for e in exps]}, predicted k=0 {predicted0:.4f}, "
                f"rel err {rel_err:.0%}, {elapsed:.1f} s")
        assert ordering_ok, "empirical exponents must be nondecreasing in k"
        assert band_ok, (
            f"k=0 exponent {exps[0]:.4f} vs predicted {predicted0:.4f} "
            f"(rel err {rel_err:.0%} > 25%); the exact Gaussian value of this "
            "estimator at t=40 is 0.1072, 79% above the asymptotic prediction "
            "0.06, so the stated band cannot hold at this window length"
        )
        assert elapsed < 300.0


class TestCriterion8NoiseWashout:
    def test_noise_does_not_move_the_medians(self):
        noisy = parse_model_document(unit_document(noise={"type": "gaussian_noise", "var": 1.0}))
        common = dict(c_p=1.0, r_grid=(6, 12, 14), t_grid=(100,), replicates=50, master_seed=0)
        res_off = run_strong_law(StrongLawRun(spec=replace(noisy, noise=None), **common))
        res_on = run_strong_law(StrongLawRun(spec=noisy, **common))
        ok = True
        details = []
        for r in ("6", "12", "14"):
            on = res_on.summary["log_T_over_r"][r]
            off = res_off.summary["log_T_over_r"][r]
            gap = abs(on["median"] - off["median"])
            iqr = max(on["q75"] - on["q25"], off["q75"] - off["q25"])
            details.append(f"r={r}: gap {gap:.4f} vs IQR {iqr:.4f}")
            ok = ok and gap < iqr
        assert verdict(8, "noise washout", ok, "; ".join(details))


class TestCriterion9Reproducibility:
    def test_cli_byte_identical_across_reruns_and_workers(self, tmp_path, model_file):
        model = model_file(unit_document())
        outputs = {}
        for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            prefix = tmp_path / f"uldp_{tag}"
            assert main(["verify-uldp", "--model", model, "--seed", "17", "--t", "10",
                         "--k-grid", "0,1", "--samples", "20000", "--set", "above",
                         "--a", "0.4", "--workers", workers, "--out", str(prefix)]) == 0
            outputs[tag] = (
                (tmp_path / f"uldp_{tag}.csv").read_bytes(),
                (tmp_path / f"uldp_{tag}.summary.json").read_bytes(),
            )
        uldp_ok = outputs["a"] == outputs["b"] == outputs["c"]

        for tag, workers in (("a", "1"), ("b", "3")):
            prefix = tmp_path / f"sl_{tag}"
            assert main(["verify-strong-law", "--model", model, "--seed", "23", "--cp", "1.0",
                         "--replicates", "8", "--r-grid", "2,4", "--t-grid", "32",
                         "--noise-mode", "off", "--workers", workers, "--out", str(prefix)]) == 0
        sl_ok = (
            (tmp_path / "sl_a.csv").read_bytes() == (tmp_path / "sl_b.csv").read_bytes()
            and (tmp_path / "sl_a.summary.json").read_bytes() == (tmp_path / "sl_b.summary.json").read_bytes()
        )

        for tag in ("a", "b"):
            assert main(["simulate", "--model", model, "--seed", "31", "--t-max", "200",
                         "--out", str(tmp_path / f"sim_{tag}")]) == 0
        sim_ok = (tmp_path / "sim_a.csv").read_bytes() == (tmp_path / "sim_b.csv").read_bytes()

        assert main(["replay", "--manifest", str(tmp_path / "sim_a.manifest.json"),
                     "--out", str(tmp_path / "sim_replay")]) == 0
        replay_ok = (tmp_path / "sim_replay.csv").read_bytes() == (tmp_path / "sim_a.csv").read_bytes()

        ok = uldp_ok and sl_ok and sim_ok and replay_ok
        assert verdict(9, "reproducibility", ok,
                       f"uldp {uldp_ok}, strong-law {sl_ok}, simulate {sim_ok}, replay {replay_ok}")
