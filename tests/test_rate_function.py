import gc
import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strange_segments.rate_function as rate_function
from strange_segments import (
    BracketError,
    CustomerGroup,
    GaussianInnovations,
    InnovationModel,
    LegendreResult,
    MACoefficients,
    ModelSpec,
    ModelValidationError,
    NumericalError,
    RateFunctionCtx,
    ThresholdSet,
    check_steepness,
    gaussian_closed_form,
    invert_capacity,
    lambda_k,
    lambda_k_prime,
    lambda_limit,
    legendre,
    lorenz,
    parse_model_document,
    set_rate,
)
from strange_segments.cli import main
from strange_segments.rate_function import lambda_limit_prime
from test_innovations import _BoundedSlopeModel

from conftest import unit_document

MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.fixture
def unit_ctx(unit_spec):
    return RateFunctionCtx(unit_spec)


class _SkellamModel(InnovationModel):
    """Centred Skellam(1/2, 1/2): log-MGF cosh(eta) - 1, so the slope sinh is not linear."""

    dim = 1

    def log_mgf(self, eta):
        return 2.0 * math.sinh(0.5 * float(eta[0])) ** 2  # cosh - 1 without cancellation

    def grad_log_mgf(self, eta):
        return np.array([math.sinh(float(eta[0]))])

    def sample(self, rng, size):  # pragma: no cover - not exercised
        raise NotImplementedError


class _NumpySkellamModel(_SkellamModel):
    """The same law with ``np.sinh``, whose slope reads inf where ``math.sinh`` raises."""

    def grad_log_mgf(self, eta):
        return np.sinh(np.asarray(eta, dtype=np.float64))


class TestSteepnessOverflow:
    @pytest.mark.parametrize("model", [_SkellamModel(), _NumpySkellamModel()],
                             ids=["math-sinh-raises", "np-sinh-inf"])
    def test_overflowing_slope_counts_as_growth(self, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither a SteepnessWarning nor a numpy overflow
            assert check_steepness(model, np.array([1.0])) is True


def _skellam_transform(x):
    """x asinh(x) - sqrt(1 + x^2) + 1, written without cancellation near 0."""
    return x * math.asinh(x) - x * x / (math.sqrt(1.0 + x * x) + 1.0)


def _skellam_spec():
    return ModelSpec(
        alpha=1.0,
        groups=(CustomerGroup(c=1, mu=0.0, beta=(1.0,)),),
        ma=MACoefficients({0: 1.0}),
        innovations=_SkellamModel(),
    )


@pytest.fixture
def skellam_ctx():
    return RateFunctionCtx(_skellam_spec())


@pytest.fixture
def derivative_calls(monkeypatch):
    """Counts calls of both log-MGF derivatives made through the module."""
    calls = [0]
    for name in ("lambda_limit_prime", "lambda_k_prime"):
        original = getattr(rate_function, name)

        def counted(*args, _original=original):
            calls[0] += 1
            return _original(*args)

        monkeypatch.setattr(rate_function, name, counted)
    return calls


class TestLambdaLimit:
    def test_unit_model(self, unit_ctx):
        assert lambda_limit(unit_ctx, 1.0) == 0.5
        assert lambda_limit(unit_ctx, 0.0) == 0.0

    def test_vector_model(self):
        doc = unit_document(
            groups=[{"c": 1, "mu": 0.0, "beta": [0.5, 0.5]}],
            phi=[{"lag": 0, "value": 2.0}],
            innovations={"type": "gaussian", "cov": [[1.0, 0.0], [0.0, 1.0]]},
        )
        ctx = RateFunctionCtx(parse_model_document(doc))
        # (lam * phi)^2 |beta_bar|^2 / 2 = 4 * 0.5 / 2
        assert lambda_limit(ctx, 1.0) == pytest.approx(1.0, abs=1e-15)


class TestLambdaK:
    def test_closed_form_k0(self, unit_ctx):
        assert lambda_k(unit_ctx, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_lambda_exact(self, unit_ctx):
        assert lambda_k(unit_ctx, 3.7, 0.0) == 0.0

    def test_large_k_approaches_limit(self, unit_ctx):
        assert lambda_k(unit_ctx, 1000.0, 1.0) == pytest.approx(0.5, abs=5e-3)

    def test_derivative_examples(self, unit_ctx):
        assert lambda_k_prime(unit_ctx, 0.0, 0.0) == 0.0
        assert lambda_k_prime(unit_ctx, 0.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert lambda_k_prime(unit_ctx, 1000.0, 1.0) == pytest.approx(1.0, abs=5e-3)

    def test_derivative_matches_finite_differences(self, unit_ctx):
        h = 1e-5
        for k in (0.0, 0.5, 2.0, 20.0):
            for lam in (0.3, 1.0, -1.7):
                fd = (lambda_k(unit_ctx, k, lam + h) - lambda_k(unit_ctx, k, lam - h)) / (2 * h)
                exact = lambda_k_prime(unit_ctx, k, lam)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_negative_k_rejected(self, unit_ctx):
        for call in (lambda_k, lambda_k_prime):
            with pytest.raises(ModelValidationError, match="window offset") as info:
                call(unit_ctx, -0.5, 1.0)
            assert info.value.invariant == "window_offset"
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ModelValidationError, match="finite"):
                legendre(unit_ctx, bad, 1.0)
        assert unit_ctx._curves == {}  # a refused offset leaves no curve behind


class TestLegendre:
    def test_paper_example_limit(self, unit_ctx):
        res = legendre(unit_ctx, "limit", 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-10)
        assert res.argmax_lambda == pytest.approx(1.0, abs=1e-8)

    def test_mean_point_is_exactly_zero(self, unit_ctx):
        res = legendre(unit_ctx, "limit", 0.0)
        assert res.value == 0.0 and res.argmax_lambda == 0.0
        res = legendre(unit_ctx, 2.0, 0.0)
        assert res.value == 0.0

    def test_segment_conjugate_closed_form(self, unit_ctx):
        # window curve at k=0 is 2 lam^2 / 3, conjugate 3 x^2 / 8
        res = legendre(unit_ctx, 0.0, 1.0)
        assert res.value == pytest.approx(0.375, abs=1e-8)

    @pytest.mark.parametrize("x", [1e3, 1e4])
    def test_segment_conjugate_at_large_x(self, unit_ctx, x):
        # the window estimates grow like x^2, so the quadrature tolerance is relative to them
        res = legendre(unit_ctx, 0.0, x)
        assert res.value == pytest.approx(0.375 * x * x, rel=1e-12)
        assert res.argmax_lambda == pytest.approx(0.75 * x, rel=1e-12)

    def test_negative_branch(self, unit_ctx):
        res = legendre(unit_ctx, "limit", -2.0)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.argmax_lambda < 0

    def test_matches_gaussian_closed_form(self, unit_spec, phi2_spec, cov4_spec):
        for spec in (unit_spec, phi2_spec, cov4_spec):
            ctx = RateFunctionCtx(spec)
            for x in np.arange(0.1, 3.01, 0.1):
                num = legendre(ctx, "limit", float(x)).value
                assert abs(num - gaussian_closed_form(spec, float(x))) <= 1e-8

    def test_steepness_violation_raises(self):
        spec = ModelSpec(
            alpha=1.0,
            groups=(CustomerGroup(c=1, mu=0.0, beta=(1.0,)),),
            ma=MACoefficients({0: 1.0}),
            innovations=_BoundedSlopeModel(),
        )
        ctx = RateFunctionCtx(spec)
        with pytest.raises(BracketError, match="steepness"):
            legendre(ctx, "limit", 2.0)  # slope never exceeds 1

    @pytest.mark.parametrize("x", [1e-3, 0.5, 3.0, 100.0, 1e4, -0.7, -50.0])
    def test_nonlinear_slope_matches_closed_form(self, skellam_ctx, x):
        value = legendre(skellam_ctx, "limit", x).value
        assert value == pytest.approx(_skellam_transform(x), rel=1e-9, abs=0.0)

    def test_derivative_budget(self, unit_ctx, derivative_calls):
        res = legendre(unit_ctx, 2.0, 1.0)
        # window curve at k=2 is (76/75) lam^2 / 2, conjugate 75 x^2 / 152
        assert res.value == pytest.approx(75.0 / 152.0, rel=1e-12)
        assert derivative_calls[0] <= 20

    @pytest.mark.parametrize("x", [1.0, -1.0])
    def test_root_on_a_bracket_end(self, unit_ctx, derivative_calls, x):
        # Lambda'(lam) = lam passes x exactly at the first bracket end, which is the root
        res = legendre(unit_ctx, "limit", x)
        assert (res.value, res.argmax_lambda) == (0.5, x)
        assert derivative_calls[0] <= 2

    def test_root_search_is_bounded(self):
        # a step function has no root; bisection toward 0 outlasts the step cap
        with pytest.raises(NumericalError, match="root search"):
            rate_function._increasing_root(
                lambda lam: math.copysign(1.0, lam), -1.0, 1.0, 0.0, g_lo=-1.0, g_hi=1.0
            )

    def test_non_finite_x_rejected(self, unit_ctx):
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                legendre(unit_ctx, "limit", x)


class TestGaussianClosedForm:
    def test_examples(self, unit_spec, phi2_spec):
        assert gaussian_closed_form(unit_spec, 1.0) == 0.5
        assert gaussian_closed_form(unit_spec, 0.0) == 0.0
        assert gaussian_closed_form(phi2_spec, 1.0) == 0.125

    def test_non_gaussian_rejected(self):
        spec = ModelSpec(
            alpha=1.0,
            groups=(CustomerGroup(c=1, mu=0.0, beta=(1.0,)),),
            ma=MACoefficients({0: 1.0}),
            innovations=_BoundedSlopeModel(),
        )
        with pytest.raises(ModelValidationError, match="Gaussian"):
            gaussian_closed_form(spec, 1.0)


class TestInvertCapacity:
    def test_unit_inverse(self, unit_ctx):
        # Lambda*(C) = C^2 / 2, so C = sqrt(2 r)
        for rate in (1e-9, 1e-3, 0.5, 50.0):
            want = math.sqrt(2.0 * rate)
            assert invert_capacity(unit_ctx, rate) == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_derivative_budget(self, unit_ctx, derivative_calls):
        assert invert_capacity(unit_ctx, 0.5) == pytest.approx(1.0, rel=1e-12)
        assert derivative_calls[0] <= 100

    @pytest.mark.parametrize("rate", [1e-9, 0.1, 10.0, 200.0])
    def test_nonlinear_slope_round_trip(self, skellam_ctx, rate):
        capacity = invert_capacity(skellam_ctx, rate)
        assert capacity > 0.0
        assert _skellam_transform(capacity) == pytest.approx(rate, rel=1e-6, abs=0.0)

    def test_tiny_rate_lands_near_mean(self, unit_ctx):
        assert invert_capacity(unit_ctx, 1e-9) < 1e-4

    def test_scaled_covariance(self, cov4_spec):
        ctx = RateFunctionCtx(cov4_spec)
        assert invert_capacity(ctx, 0.5) == pytest.approx(2.0, abs=1e-6)

    def test_rejects_nonpositive_rate(self, unit_ctx):
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                invert_capacity(unit_ctx, rate)


class TestLorenz:
    def test_examples(self):
        assert lorenz(1.0, 0.0, 0.5) == 0.25
        assert lorenz(1.7, 12.0, 1.0) == 1.0
        assert lorenz(1.0, 1.0, 0.5) == pytest.approx((2.25 - 1.0) / 3.0, abs=1e-15)

    def test_endpoints(self):
        for k in (0.0, 0.5, 3.0, 100.0):
            assert lorenz(0.9, k, 0.0) == 0.0
            assert lorenz(0.9, k, 1.0) == 1.0

    def test_ordering_in_k(self):
        ps = np.linspace(0.0, 1.0, 101)
        ks = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        for alpha in (0.5, 1.0, 2.0):
            curves = [np.array([lorenz(alpha, k, float(p)) for p in ps]) for k in ks]
            for lo, hi in zip(curves, curves[1:]):
                assert (hi >= lo - 1e-12).all()

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lorenz(1.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            lorenz(1.0, -1.0, 0.5)


class TestMonotonicityInK:
    K_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)

    def test_lambda_k_nonincreasing(self, unit_ctx):
        for lam in (-2.0, -0.5, 0.25, 1.0, 3.0):
            vals = [lambda_k(unit_ctx, k, lam) for k in self.K_GRID]
            for a, b in zip(vals, vals[1:]):
                assert b <= a + 1e-8

    def test_conjugate_nondecreasing(self, unit_ctx):
        for x in (0.25, 1.0, 2.0):
            vals = [legendre(unit_ctx, k, x).value for k in self.K_GRID]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-8

    def test_positivity_chain(self, unit_ctx, unit_spec):
        c_p = 1.0
        limit = legendre(unit_ctx, "limit", c_p).value
        lo = legendre(unit_ctx, 0.0, c_p).value
        assert 0.0 < lo <= limit
        for k in self.K_GRID:
            val = legendre(unit_ctx, k, c_p).value
            assert lo - 1e-10 <= val <= limit + 1e-10


class TestConvergenceToLimit:
    def test_locally_uniform(self, unit_ctx):
        lams = np.linspace(-2.0, 2.0, 41)
        sups = []
        for k in (1.0, 10.0, 100.0, 1000.0):
            sups.append(
                max(abs(lambda_k(unit_ctx, k, float(l)) - lambda_limit(unit_ctx, float(l))) for l in lams)
            )
        assert all(b < a for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 5e-3


class TestSetRate:
    def test_threshold_sets(self, unit_ctx):
        assert set_rate(unit_ctx, "limit", ThresholdSet.above(1.0)) == pytest.approx(0.5, abs=1e-9)
        assert set_rate(unit_ctx, "limit", ThresholdSet.below(-1.0)) == pytest.approx(0.5, abs=1e-9)
        # sets reaching the mean have rate 0
        assert set_rate(unit_ctx, "limit", ThresholdSet.above(-0.5)) == 0.0
        assert set_rate(unit_ctx, "limit", ThresholdSet.below(0.5)) == 0.0
        assert set_rate(unit_ctx, "limit", ThresholdSet.interval(-1.0, 1.0)) == 0.0

    def test_interval_takes_nearer_endpoint(self, unit_ctx):
        val = set_rate(unit_ctx, "limit", ThresholdSet.interval(1.0, 2.0))
        assert val == pytest.approx(0.5, abs=1e-9)
        val = set_rate(unit_ctx, "limit", ThresholdSet.interval(-3.0, -2.0))
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_mean_slope_is_zero(self, unit_ctx):
        assert lambda_limit_prime(unit_ctx, 0.0) == 0.0


class TestCtxValidation:
    def test_bad_tolerances(self, unit_spec):
        with pytest.raises(ModelValidationError):
            RateFunctionCtx(unit_spec, quad_tol=0.0)
        with pytest.raises(ModelValidationError):
            RateFunctionCtx(unit_spec, root_tol=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ModelValidationError, match="finite"):
                RateFunctionCtx(unit_spec, quad_tol=bad)
            with pytest.raises(ModelValidationError, match="finite"):
                RateFunctionCtx(unit_spec, root_tol=bad)

    def test_unknown_curve(self, unit_ctx):
        with pytest.raises(ValueError):
            legendre(unit_ctx, "nonsense", 1.0)


def _uncached_quadrature(ctx, k, lam, differentiated):
    """The window quadrature with the Gauss-Legendre grid rebuilt on every estimate."""
    spec = ctx.spec
    coeff = spec.phi_total * (spec.alpha + 1.0) / rate_function._interval_mass(spec.alpha, k)
    ray = spec.innovations.ray(spec.beta_bar)

    def estimate(order):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        y = k + 0.5 * (nodes + 1.0)
        g = coeff * y**spec.alpha
        if differentiated:
            vals = g * ray.slope(g * lam)
        else:
            vals = ray.log_mgf(g * lam)
        return 0.5 * float(weights @ vals)

    order = rate_function._QUAD_ORDER
    prev = estimate(order)
    while True:
        order *= 2
        cur = estimate(order)
        if abs(cur - prev) < ctx.quad_tol * max(1.0, abs(cur)):
            return cur
        prev = cur


class TestQuadratureGrid:
    @pytest.mark.parametrize("doc", [
        json.loads((MODELS / "unit.json").read_text()),
        json.loads((MODELS / "two_group.json").read_text()),
        unit_document(alpha=2.5),
    ], ids=["unit", "two_group", "alpha2.5"])
    def test_cached_grid_equals_uncached_estimate(self, doc):
        ctx = RateFunctionCtx(parse_model_document(doc))
        for k in (0.0, 0.5, 2.0, 20.0, 100.0):
            for lam in (-1.7, -0.3, 0.4, 2.0):
                assert lambda_k(ctx, k, lam) == _uncached_quadrature(ctx, k, lam, False)
                assert lambda_k_prime(ctx, k, lam) == _uncached_quadrature(ctx, k, lam, True)

    def test_shared_arrays_are_read_only(self, unit_ctx):
        lambda_k_prime(unit_ctx, 0.5, 1.0)
        nodes, weights = rate_function._leggauss(64)
        spec = unit_ctx.spec
        coeff = spec.phi_total * (spec.alpha + 1.0) / rate_function._interval_mass(spec.alpha, 0.5)
        g, grid_weights = rate_function._window_grid(spec.alpha, coeff, 0.5, 64)
        assert grid_weights is weights
        for arr in (nodes, weights, g):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert lambda_k_prime(unit_ctx, 0.5, 1.0) == _uncached_quadrature(unit_ctx, 0.5, 1.0, True)

    def test_repeated_rate_query_is_byte_identical(self, capsys):
        argv = ["rate", "--model", str(MODELS / "two_group.json"), "--x=-0.8,0.3,1.0,2.5",
                "--k", "0,0.5,1,2,5,20,100", "--limit"]
        rate_function._window_grid.cache_clear()
        rate_function._leggauss.cache_clear()
        outputs = []
        for _ in range(5):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0].count("\n") == 1 + 8 * 4
        assert outputs[4] == outputs[0]


_SHARED_SPECS = {
    "unit": parse_model_document(json.loads((MODELS / "unit.json").read_text())),
    "two_group": parse_model_document(json.loads((MODELS / "two_group.json").read_text())),
    "skellam": _skellam_spec(),  # the default, per-node ray
}
_CURVES = ("limit", 0.0, 0.5, 2.0, 20.0, 100.0)
_BOUND = 2 * rate_function._MAX_BRACKET_DOUBLINGS + 1


def _query(ctx, query):
    kind, which, x = query
    if kind == "legendre":
        return legendre(ctx, which, x)
    if kind == "set_rate":
        return set_rate(ctx, which, ThresholdSet.above(x) if x >= 0.0 else ThresholdSet.below(x))
    return invert_capacity(ctx, abs(x) + 0.05)


_queries = st.tuples(
    st.sampled_from(("legendre", "legendre", "set_rate", "invert_capacity")),
    st.sampled_from(_CURVES),
    st.one_of(st.sampled_from((0.0, -0.0)),  # exactly the mean slope of every model here
              st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)),
)


class TestSharedCurvePoints:
    """One context serves many queries; each curve computes its shared points once."""

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(sorted(_SHARED_SPECS)), queries=st.lists(_queries, min_size=1, max_size=6))
    def test_shared_ctx_equals_fresh_ctx(self, model, queries):
        spec = _SHARED_SPECS[model]
        shared = RateFunctionCtx(spec)
        for query in queries:
            got, want = _query(shared, query), _query(RateFunctionCtx(spec), query)
            assert got == want
            if query[0] == "legendre":
                assert got.argmax_lambda == want.argmax_lambda
                assert math.copysign(1.0, got.value) == math.copysign(1.0, want.value)

    def test_mean_and_both_sides_on_every_curve(self):
        for spec in _SHARED_SPECS.values():
            shared = RateFunctionCtx(spec)
            for which in _CURVES:
                for x in (0.0, 0.4, -0.4, 1.3, -1.3):
                    got, want = legendre(shared, which, x), legendre(RateFunctionCtx(spec), which, x)
                    assert (got.value, got.argmax_lambda) == (want.value, want.argmax_lambda)
                assert legendre(shared, which, 0.0) == LegendreResult(0.0, 0.0)

    def test_points_stay_bounded(self):
        ctx = RateFunctionCtx(_SHARED_SPECS["unit"])
        window_xs = np.linspace(-40.0, 40.0, 500).tolist()
        limit_xs = window_xs[:494] + [-1e12, 1e12, -1e-9, 1e-9, 0.0, 1e6]
        assert len(set(window_xs)) == len(set(limit_xs)) == 500
        for x in limit_xs:
            legendre(ctx, "limit", x)
            if x > 0.0:
                invert_capacity(ctx, x)
        for x in window_xs:
            legendre(ctx, 2.0, x)
        assert set(ctx._curves) == {"limit", 2.0}
        for curve in ctx._curves.values():
            keys = curve.slopes.keys() | curve.values.keys()
            assert len(keys) <= _BOUND
            assert keys <= {rate_function._ZERO} | {
                (side, j) for side in (1.0, -1.0) for j in range(rate_function._MAX_BRACKET_DOUBLINGS)
            }

    def test_one_ctx_makes_fewer_window_evaluations(self, monkeypatch):
        calls = [0]
        original = rate_function.lambda_k_prime

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(rate_function, "lambda_k_prime", counted)
        spec, xs = _SHARED_SPECS["two_group"], (0.3, 0.9, 1.7, 2.6)
        shared = RateFunctionCtx(spec)
        one = [legendre(shared, 0.5, x) for x in xs]
        on_one, calls[0] = calls[0], 0
        four = [legendre(RateFunctionCtx(spec), 0.5, x) for x in xs]
        assert one == four
        assert on_one < calls[0]

    def test_dropped_ctx_is_freed_without_the_collector(self):
        ctx = RateFunctionCtx(_SHARED_SPECS["two_group"])
        legendre(ctx, "limit", 1.0)
        legendre(ctx, 0.5, -1.0)
        set_rate(ctx, 20.0, ThresholdSet.above(0.7))
        invert_capacity(ctx, 0.3)
        ref = weakref.ref(ctx)
        gc.disable()
        try:
            del ctx
            assert ref() is None
        finally:
            gc.enable()
