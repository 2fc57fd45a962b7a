import numpy as np
import pytest

from strange_segments import (
    CustomerGroup,
    MACoefficients,
    ModelSpec,
    ModelValidationError,
    cumulative_population,
    floor_power,
    parse_model_document,
    population,
)
from strange_segments.innovations import GaussianInnovations
from strange_segments.model_core import cumulative_population_prefix, floor_power_prefix

from conftest import unit_document


def make_spec(alpha=1.0, groups=None, phi=None, dim=1):
    groups = groups or [CustomerGroup(c=1, mu=0.0, beta=(1.0,) * dim)]
    phi = phi or {0: 1.0}
    return ModelSpec(
        alpha=alpha,
        groups=tuple(groups),
        ma=MACoefficients(phi),
        innovations=GaussianInnovations(cov=np.eye(dim)),
    )


class TestFloorPower:
    def test_plain_values(self):
        assert floor_power(3, 1.0) == 3
        assert floor_power(5, 0.5) == 2
        assert floor_power(0, 1.7) == 0

    def test_exact_power_boundaries(self):
        # cases where the float power sits exactly on / next to an integer
        assert floor_power(4, 0.5) == 2
        assert floor_power(9, 0.5) == 3
        assert floor_power(10, 2.0) == 100
        assert floor_power(1000, 1.5) == 31622
        assert floor_power(10**6, 0.5) == 1000

    def test_float_alpha_snap(self):
        # float(1/3) is not exactly 1/3; 8**(1/3) must still floor to 2
        assert floor_power(8, 1.0 / 3.0) == 2
        assert floor_power(27, 1.0 / 3.0) == 3

    def test_prefix_agrees_with_scalar(self):
        for alpha in (1.0, 0.5, 2.0, 1.5, 1.0 / 3.0, 0.7):
            arr = floor_power_prefix(512, alpha)
            expected = [floor_power(t, alpha) for t in range(513)]
            assert arr.tolist() == expected


class TestPopulation:
    def test_examples(self):
        spec = make_spec(groups=[CustomerGroup(c=2, mu=0.0, beta=(1.0,))])
        assert population(spec, 1, 3) == 6
        spec = make_spec(alpha=0.5)
        assert population(spec, 1, 5) == 2
        assert population(spec, 1, 0) == 0

    def test_bad_group_index(self):
        spec = make_spec()
        with pytest.raises(ModelValidationError):
            population(spec, 0, 1)
        with pytest.raises(ModelValidationError):
            population(spec, 2, 1)

    def test_monotone_in_t(self):
        spec = make_spec(alpha=0.7)
        values = [population(spec, 1, t) for t in range(100)]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestCumulativePopulation:
    def test_examples(self):
        assert cumulative_population(make_spec(), 3) == 6
        assert cumulative_population(make_spec(alpha=1.7), 0) == 0
        two = make_spec(
            groups=[CustomerGroup(c=1, mu=0.0, beta=(1.0,)), CustomerGroup(c=2, mu=0.0, beta=(0.0,))]
        )
        assert cumulative_population(two, 2) == 9

    def test_telescoping_exact(self):
        spec = make_spec(
            alpha=0.8,
            groups=[CustomerGroup(c=2, mu=1.0, beta=(1.0,)), CustomerGroup(c=3, mu=0.5, beta=(0.5,))],
        )
        for t in range(1, 60):
            step = sum(population(spec, i, t) for i in (1, 2))
            assert cumulative_population(spec, t) - cumulative_population(spec, t - 1) == step
            assert cumulative_population(spec, t) >= spec.total_c

    def test_prefix_matches_scalar(self):
        for alpha in (1.0, 0.5, 1.3):
            spec = make_spec(alpha=alpha, groups=[CustomerGroup(c=3, mu=0.0, beta=(1.0,))])
            prefix = cumulative_population_prefix(spec, 200)
            assert prefix.dtype == np.int64
            for t in (0, 1, 7, 100, 200):
                assert int(prefix[t]) == cumulative_population(spec, t)
        assert (np.diff(prefix[1:]) >= 0).all() and (np.diff(prefix) >= 0).all()

    def test_overflow_guard(self):
        spec = make_spec(alpha=2.0)
        with pytest.raises(ModelValidationError, match="64-bit"):
            cumulative_population_prefix(spec, 10**7)


class TestAggregates:
    def test_beta_bar_single(self):
        spec = make_spec(groups=[CustomerGroup(c=1, mu=0.0, beta=(1.0, 0.0))], dim=2)
        assert spec.beta_bar.tolist() == [1.0, 0.0]

    def test_beta_bar_two_groups(self):
        spec = make_spec(
            groups=[
                CustomerGroup(c=1, mu=0.0, beta=(1.0, 0.0)),
                CustomerGroup(c=1, mu=0.0, beta=(0.0, 1.0)),
            ],
            dim=2,
        )
        assert spec.beta_bar.tolist() == [0.5, 0.5]

    def test_total_phi(self):
        spec = make_spec(phi={0: 0.5, 1: 0.5})
        assert spec.phi_total == 1.0

    def test_zero_phi_rejected(self):
        with pytest.raises(ModelValidationError, match="phi"):
            make_spec(phi={0: 0.5, 1: -0.5})


class TestValidation:
    def test_alpha_positive(self):
        with pytest.raises(ModelValidationError):
            make_spec(alpha=0.0)
        with pytest.raises(ModelValidationError):
            make_spec(alpha=-1.0)

    def test_c_must_be_positive_integer(self):
        with pytest.raises(ModelValidationError):
            CustomerGroup(c=0, mu=0.0, beta=(1.0,))
        with pytest.raises(ModelValidationError):
            CustomerGroup(c=1.5, mu=0.0, beta=(1.0,))

    def test_beta_dimension_checked(self):
        with pytest.raises(ModelValidationError, match="beta"):
            make_spec(groups=[CustomerGroup(c=1, mu=0.0, beta=(1.0, 2.0))], dim=1)

    def test_document_round_trip(self):
        spec = parse_model_document(unit_document())
        assert spec.alpha == 1.0
        assert spec.total_c == 1
        assert spec.phi_total == 1.0


class TestMACoefficients:
    def test_finite_generator_kept_whole(self):
        ma = MACoefficients({-1: 0.25, 0: 1.0})
        assert ma.coeffs == {-1: 0.25, 0: 1.0}
        assert ma.max_lag == 0 and ma.min_lag == -1
