import math

import numpy as np
import pytest

from strange_segments import GaussianInnovations, GaussianNoise, ModelValidationError


def two_sample_ks(a, b):
    """Two-sample Kolmogorov-Smirnov statistic (sup distance of ECDFs)."""
    a, b = np.sort(a), np.sort(b)
    merged = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, merged, side="right") / len(a)
    cdf_b = np.searchsorted(b, merged, side="right") / len(b)
    return np.abs(cdf_a - cdf_b).max()


def ks_critical(n, m, alpha=0.01):
    c = {0.05: 1.358, 0.01: 1.628}[alpha]
    return c * np.sqrt((n + m) / (n * m))


class TestGaussianLogMgf:
    def test_scalar_examples(self):
        m = GaussianInnovations(var=1.0)
        assert m.log_mgf(2.0) == 2.0
        assert m.log_mgf(0.0) == 0.0

    def test_one_dimensional_examples(self):
        m = GaussianInnovations(var=4.0)
        assert m.log_mgf(np.array([0.5, -1.0, 0.0])).tolist() == [0.5, 2.0, 0.0]
        assert m.slope(np.array([0.5, -1.0])).tolist() == [2.0, -4.0]

    def test_any_shape_evaluates_each_element_alone(self):
        m = GaussianInnovations(var=0.7321)
        eta = np.random.default_rng(2).normal(size=12) * 3.0
        vals, slopes = m.log_mgf(eta), m.slope(eta)
        assert vals.shape == slopes.shape == (12,)
        for i, e in enumerate(eta):
            assert vals[i] == m.log_mgf(e) and slopes[i] == m.slope(e)
        assert m.log_mgf(eta.reshape(3, 4)).tolist() == vals.reshape(3, 4).tolist()
        assert m.slope(eta.reshape(3, 4)).tolist() == slopes.reshape(3, 4).tolist()


class TestLoadingVariance:
    @pytest.mark.parametrize("var", [0.0, -1e-17, float("inf"), float("nan")])
    def test_degenerate_or_non_finite_variance_is_refused(self, var):
        with pytest.raises(ModelValidationError) as info:
            GaussianInnovations(var=var)
        assert info.value.invariant == "loading_variance"


class TestSampling:
    def test_mean_zero(self):
        m = GaussianInnovations(var=0.8)
        draws = m.sample(np.random.default_rng(11), 100_000)
        assert abs(draws.mean()) <= 4 * np.sqrt(m.var / len(draws))

    def test_empirical_log_mgf_converges(self):
        m = GaussianInnovations(var=1.0)
        draws = m.sample(np.random.default_rng(3), 1_000_000)
        for eta in (0.25, -0.4, 0.5):
            emp = np.log(np.mean(np.exp(eta * draws)))
            exact = m.log_mgf(eta)
            assert abs(emp - exact) <= 0.02 * max(abs(exact), 1e-3)

    @pytest.mark.parametrize("sd", [1.0, 0.7321, -1.3e-5])
    def test_draws_are_one_scaled_normal_each(self, sd):
        m = GaussianInnovations(var=sd**2)
        draws = m.sample(np.random.default_rng(6), 100_000)
        assert draws.shape == (100_000,)
        assert (draws == np.random.default_rng(6).standard_normal(100_000) * math.sqrt(sd**2)).all()

    def test_draws_in_pieces_equal_one_draw(self):
        m = GaussianInnovations(var=0.5)
        sizes = [1] * 40 + [2, 3, 1, 500, 1]
        whole = m.sample(np.random.default_rng(8), sum(sizes))
        rng = np.random.default_rng(8)
        assert (np.concatenate([m.sample(rng, n) for n in sizes]) == whole).all()


class TestNoise:
    def test_degenerate_noise_is_zero(self):
        n = GaussianNoise(var=0.0)
        assert (n.sample_aggregate(np.array([17, 1]), np.random.default_rng(0)) == 0.0).all()

    def test_aggregate_matches_literal_sum_variance(self):
        n = GaussianNoise(var=1.0)
        rng = np.random.default_rng(21)
        agg = n.sample_aggregate(np.full(100_000, 4), rng)
        lit = (rng.standard_normal(4 * 100_000) * np.sqrt(n.var)).reshape(-1, 4).sum(axis=1)
        assert abs(agg.var() - 4.0) <= 0.2
        assert abs(lit.var() - 4.0) <= 0.2

    def test_single_draw_distribution_matches(self):
        n = GaussianNoise(var=2.0)
        rng = np.random.default_rng(9)
        agg = n.sample_aggregate(np.ones(10_000, dtype=np.int64), rng)
        lit = rng.standard_normal(10_000) * np.sqrt(n.var)
        assert two_sample_ks(agg, lit) < ks_critical(10_000, 10_000)

    def test_negative_variance_rejected(self):
        with pytest.raises(ModelValidationError):
            GaussianNoise(var=-1.0)
