import numpy as np
import pytest

from strange_segments import (
    GaussianInnovations,
    GaussianNoise,
    ModelValidationError,
    SteepnessWarning,
    check_steepness,
)
from strange_segments.innovations import InnovationModel


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
        m = GaussianInnovations(cov=np.array([[1.0]]))
        assert m.log_mgf(np.array([2.0])) == 2.0
        assert m.log_mgf(np.array([0.0])) == 0.0

    def test_bivariate_example(self):
        m = GaussianInnovations(cov=np.eye(2))
        assert m.log_mgf(np.array([1.0, 1.0])) == 1.0

    def test_gradient_matches_finite_differences(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        m = GaussianInnovations(cov=cov)
        h = 1e-5
        for eta in ([0.3, -1.2], [2.0, 0.0], [-0.7, 0.9]):
            eta = np.array(eta)
            grad = m.grad_log_mgf(eta)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (m.log_mgf(eta + e) - m.log_mgf(eta - e)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_ray_shortcuts_match_generic(self):
        cov = np.array([[2.0, 0.3], [0.3, 0.5]])
        m = GaussianInnovations(cov=cov)
        u = np.array([0.8, -0.4])
        s = np.linspace(-3, 3, 11)
        ray = m.ray(u)
        vals = ray.log_mgf(s)
        grads = ray.slope(s)
        for i, si in enumerate(s):
            assert vals[i] == pytest.approx(m.log_mgf(si * u), abs=1e-14)
            assert grads[i] == pytest.approx(float(u @ m.grad_log_mgf(si * u)), abs=1e-14)

    def test_convex_along_sampled_lines(self):
        m = GaussianInnovations(cov=np.array([[1.0, 0.4], [0.4, 2.0]]))
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.normal(size=(2, 2))
            mid = m.log_mgf((a + b) / 2)
            assert mid <= (m.log_mgf(a) + m.log_mgf(b)) / 2 + 1e-12


class TestGaussianValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ModelValidationError, match="symmetric"):
            GaussianInnovations(cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(ModelValidationError, match="semidefinite"):
            GaussianInnovations(cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_singular_psd_accepted(self):
        m = GaussianInnovations(cov=np.array([[1.0, 1.0], [1.0, 1.0]]))
        draws = m.sample(np.random.default_rng(0), 1000)
        # both coordinates ride the same factor
        assert np.allclose(draws[:, 0], draws[:, 1])


class TestSampling:
    def test_mean_zero(self):
        m = GaussianInnovations(cov=np.array([[1.0, 0.2], [0.2, 0.8]]))
        draws = m.sample(np.random.default_rng(11), 100_000)
        se = np.sqrt(np.diag(m.cov) / len(draws))
        assert (np.abs(draws.mean(axis=0)) <= 4 * se).all()

    def test_empirical_log_mgf_converges(self):
        m = GaussianInnovations(cov=np.array([[1.0]]))
        draws = m.sample(np.random.default_rng(3), 1_000_000)[:, 0]
        for eta in (0.25, -0.4, 0.5):
            emp = np.log(np.mean(np.exp(eta * draws)))
            exact = m.log_mgf(np.array([eta]))
            assert abs(emp - exact) <= 0.02 * max(abs(exact), 1e-3)

    @pytest.mark.parametrize("factor", [1.0, 0.7321, -1.3e-5])
    def test_one_dimensional_draws_equal_the_matrix_product(self, factor):
        # a 1x1 product rounds one multiplication, so the elementwise form is byte-identical
        m = GaussianInnovations(cov=np.array([[factor**2]]))
        z = np.random.default_rng(6).standard_normal((100_000, 1))
        draws = m.sample(np.random.default_rng(6), 100_000)
        assert draws.shape == (100_000, 1)
        assert (draws == z @ m._factor.T).all()


    def test_draws_in_pieces_equal_one_draw(self):
        # a lone row must round like a row of a longer draw; numpy gives it another kernel
        m = GaussianInnovations(cov=np.array([[1.0, 0.2], [0.2, 0.5]]))
        sizes = [1] * 40 + [2, 3, 1, 500, 1]
        whole = m.sample(np.random.default_rng(8), sum(sizes))
        rng = np.random.default_rng(8)
        assert (np.concatenate([m.sample(rng, n) for n in sizes]) == whole).all()


class TestAlong:
    def test_gaussian_law_along_a_direction(self):
        cov = np.array([[1.0, 0.2], [0.2, 0.5]])
        u = np.array([1.6, 1.4])
        law = GaussianInnovations(cov=cov).along(u)
        assert isinstance(law, GaussianInnovations) and law.dim == 1
        assert law.cov.tolist() == [[float(u @ cov @ u)]]

    def test_gaussian_draws_are_one_scaled_normal_each(self):
        law = GaussianInnovations(cov=np.array([[1.0, 0.2], [0.2, 0.5]])).along(np.array([1.6, 1.4]))
        draws = law.sample(np.random.default_rng(3), 1000)
        assert draws.shape == (1000, 1)
        assert (draws[:, 0] == np.random.default_rng(3).standard_normal(1000) * law._factor[0, 0]).all()

    def test_default_law_along_a_direction(self):
        base = _BoundedSlopeModel()
        u = np.array([-2.0])
        law = base.along(u)
        assert law.dim == 1
        for eta in (-0.7, 0.0, 1.3):
            assert law.log_mgf(np.array([eta])) == base.log_mgf(eta * u)
            assert law.grad_log_mgf(np.array([eta])).tolist() == [float(u @ base.grad_log_mgf(eta * u))]


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


class _BoundedSlopeModel(InnovationModel):
    """log-MGF sqrt(1 + eta^2) - 1: convex but with derivative bounded by 1."""

    dim = 1

    def log_mgf(self, eta):
        return float(np.sqrt(1.0 + float(eta[0]) ** 2) - 1.0)

    def grad_log_mgf(self, eta):
        e = float(eta[0])
        return np.array([e / np.sqrt(1.0 + e * e)])

    def sample(self, rng, size):  # pragma: no cover - not exercised
        return rng.standard_normal((size, 1))


class TestSteepness:
    def test_gaussian_passes(self):
        m = GaussianInnovations(cov=np.array([[1.0]]))
        assert check_steepness(m, np.array([1.0])) is True

    def test_flat_curve_warns(self):
        # degenerate covariance: the directional derivative is identically 0
        m = GaussianInnovations(cov=np.array([[0.0]]))
        with pytest.warns(SteepnessWarning):
            assert check_steepness(m, np.array([1.0])) is False

    def test_bounded_slope_passes_spot_check(self):
        # strictly increasing but bounded slope slips past the probes; the
        # hard failure is deferred to Legendre bracketing (see rate tests)
        assert check_steepness(_BoundedSlopeModel(), np.array([1.0])) is True
