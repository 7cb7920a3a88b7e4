import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agebranch import AgeMeasure, ScalarField

# dyadic ages keep shift/translate identities exact in floating point
dyadic_ages = st.lists(
    st.integers(min_value=0, max_value=64).map(lambda k: k / 8.0), min_size=0, max_size=8
)


def test_integrate_null_measure():
    assert AgeMeasure.empty().integrate(ScalarField.constant(5.0)) == 0.0


def test_integrate_counting():
    nu = AgeMeasure.from_ages([0.0, 1.0, 3.0])
    assert nu.integrate(ScalarField.constant(1.0)) == 3.0


def test_integrate_two_term_exponential():
    nu = AgeMeasure.from_ages([1.0, 3.0])
    f = ScalarField.exp_decay(1.0, 1.0)
    assert nu.integrate(f) == pytest.approx(0.4176665095393063, abs=1e-12)


def test_dist_fn_boundary_is_inclusive():
    nu = AgeMeasure.from_ages([1.0, 3.0])
    assert nu.dist_fn(1.0) == 1
    assert nu.dist_fn(0.5) == 0
    assert nu.dist_fn(-1.0) == 0


def test_dist_fn_counts_multiplicity():
    assert AgeMeasure.from_ages([1.0, 1.0, 3.0]).dist_fn(2.0) == 2


def test_total_mass_and_sorting():
    nu = AgeMeasure.from_ages([3.0, 1.0, 2.0])
    assert nu.ages == (1.0, 2.0, 3.0)
    assert nu.total_mass == 3


def test_negative_age_rejected():
    with pytest.raises(ValueError):
        AgeMeasure.from_ages([-0.5])


def test_shift_examples():
    assert AgeMeasure.from_ages([0.0, 2.0]).shift(1.0).ages == (1.0, 3.0)
    nu = AgeMeasure.from_ages([0.5, 1.5])
    assert nu.shift(0.0) is nu
    with pytest.raises(ValueError):
        nu.shift(-1.0)


@given(dyadic_ages, st.integers(min_value=0, max_value=32).map(lambda k: k / 8.0))
@settings(max_examples=40, deadline=None)
def test_shift_integrate_change_of_variables(ages, t):
    nu = AgeMeasure.from_ages(ages)
    f = ScalarField.exp_decay(2.0, 0.5, 0.25)
    shifted = nu.integrate(f) if t == 0 else nu.shift(t).integrate(f)
    translated = nu.integrate(lambda x: f(np.asarray(x) + t))
    assert shifted == translated


@given(dyadic_ages, st.integers(min_value=0, max_value=16).map(lambda k: k / 8.0),
       st.integers(min_value=-8, max_value=72).map(lambda k: k / 8.0))
@settings(max_examples=40, deadline=None)
def test_shift_distribution_function_translates(ages, t, x):
    nu = AgeMeasure.from_ages(ages)
    assert nu.shift(t).dist_fn(x) == nu.dist_fn(x - t)


def test_weighted_inverse_uniform_alpha():
    nu = AgeMeasure.from_ages([1.0, 3.0])
    alpha = ScalarField.constant(1.0)
    assert nu.alpha_weighted_inverse(alpha, 0.25) == 1.0
    assert nu.alpha_weighted_inverse(alpha, 0.6) == 3.0
    # boundary y: the strict inequality selects the next atom
    assert nu.alpha_weighted_inverse(alpha, 0.5) == 3.0


def test_weighted_inverse_single_atom():
    nu = AgeMeasure.point(2.5)
    assert nu.alpha_weighted_inverse(ScalarField.rational(3.0), 0.99) == 2.5


def test_weighted_inverse_empty_population():
    with pytest.raises(ValueError):
        AgeMeasure.empty().alpha_weighted_inverse(ScalarField.constant(1.0), 0.5)


@given(
    st.lists(st.integers(min_value=0, max_value=40).map(lambda k: k / 4.0), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=60, deadline=None)
def test_weighted_inverse_galois_relation(ages, y):
    nu = AgeMeasure.from_ages(ages)
    alpha = ScalarField.exp_decay(1.0, 0.3, 0.5)
    a = nu.alpha_weighted_inverse(alpha, y)
    weights = [float(alpha(age)) for age in nu.ages]
    total = sum(weights)
    below = sum(w for age, w in zip(nu.ages, weights) if age < a)
    upto = sum(w for age, w in zip(nu.ages, weights) if age <= a)
    assert a in nu.ages
    assert below <= y * total + 1e-12
    assert upto > y * total - 1e-12


def test_weighted_inverse_sampling_frequencies_match_enumeration():
    # Monte-Carlo frequencies against the exact per-atom law alpha(a) mult(a) / <nu, alpha>
    nu = AgeMeasure.from_ages([0.5, 0.5, 2.0, 4.0])
    alpha = ScalarField.exp_decay(1.0, 0.5, 0.2)
    rng = np.random.default_rng(1234)
    n = 40_000
    draws = [nu.alpha_weighted_inverse(alpha, rng.random()) for _ in range(n)]
    weights = {a: 0.0 for a in set(nu.ages)}
    for a in nu.ages:
        weights[a] += float(alpha(a))
    total = sum(weights.values())
    for atom, w in weights.items():
        p = w / total
        freq = sum(1 for d in draws if d == atom) / n
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se


def test_rho_identity_and_examples():
    nu = AgeMeasure.from_ages([0.3, 1.7])
    assert nu.rho_distance(nu) == 0.0
    assert AgeMeasure.point(0.0).rho_distance(AgeMeasure.empty()) == pytest.approx(1.0, abs=1e-15)
    assert AgeMeasure.point(0.0).rho_distance(AgeMeasure.point(1.0)) == pytest.approx(
        0.6321205588285577, abs=1e-15
    )


def test_rho_against_quadrature_oracle():
    from scipy.integrate import quad

    nu1 = AgeMeasure.from_ages([0.2, 0.9, 0.9, 3.0])
    nu2 = AgeMeasure.from_ages([0.5, 1.1])
    oracle, _ = quad(
        lambda x: math.exp(-x) * abs(nu1.dist_fn(x) - nu2.dist_fn(x)),
        0.0,
        50.0,
        points=sorted(set(nu1.ages) | set(nu2.ages)),
        limit=200,
    )
    assert nu1.rho_distance(nu2) == pytest.approx(oracle, abs=1e-9)


@given(dyadic_ages, dyadic_ages, dyadic_ages)
@settings(max_examples=40, deadline=None)
def test_rho_metric_axioms(a, b, c):
    na, nb, nc = AgeMeasure.from_ages(a), AgeMeasure.from_ages(b), AgeMeasure.from_ages(c)
    assert na.rho_distance(nb) == nb.rho_distance(na)
    assert na.rho_distance(nc) <= na.rho_distance(nb) + nb.rho_distance(nc) + 1e-12
    if a != b:
        assert na.rho_distance(nb) >= 0.0


def test_scalar_field_catalog_bounds():
    cases = [
        (ScalarField.constant(2.0), 2.0, 2.0),
        (ScalarField.exp_decay(1.5, 2.0, 0.5), 2.0, 0.5),
        (ScalarField.rational(3.0), 3.0, 0.0),
        (ScalarField.step([1.0, 2.0], [0.5, 3.0, 1.0]), 3.0, 0.5),
        (ScalarField.pwlinear([0.0, 1.0, 4.0], [1.0, 0.25, 2.0]), 2.0, 0.25),
    ]
    for field, sup, inf in cases:
        assert field.sup == sup
        assert field.inf == inf
        xs = np.linspace(0.0, 20.0, 4001)
        vals = np.asarray(field(xs))
        assert vals.max() <= sup + 1e-12
        assert vals.min() >= inf - 1e-12


def test_scalar_field_interval_bounds_match_dense_sampling():
    fields = [
        ScalarField.exp_decay(1.0, 1.0, 0.3),
        ScalarField.step([0.7, 2.0], [1.0, 0.2, 0.6]),
        ScalarField.pwlinear([0.0, 0.5, 1.5, 3.0], [0.1, 1.0, 0.4, 0.8]),
        ScalarField.rational(2.0),
    ]
    for field in fields:
        for lo, hi in [(0.0, 0.7), (0.3, 2.0), (1.0, None), (2.0, 2.5)]:
            xs = np.linspace(lo, 30.0 if hi is None else hi, 30_001)
            if hi is not None:
                xs = xs[xs < hi]  # half-open interval
            vals = np.asarray(field(xs))
            assert field.sup_on(lo, hi) >= vals.max() - 1e-9
            assert field.sup_on(lo, hi) <= vals.max() + 0.05  # continuity slack at knots
            assert field.inf_on(lo, hi) <= vals.min() + 1e-9


def test_step_field_half_open_semantics():
    field = ScalarField.step([1.0], [1.0, 5.0])
    assert field(0.999) == 1.0
    assert field(1.0) == 5.0
    # on [0, 1) the jump at 1.0 must not leak into the supremum
    assert field.sup_on(0.0, 1.0) == 1.0
    assert field.sup_on(0.0, 1.5) == 5.0


def test_pwlinear_interpolation_and_extrapolation():
    field = ScalarField.pwlinear([1.0, 2.0], [1.0, 3.0])
    assert field(0.0) == 1.0  # constant before the first knot
    assert field(1.5) == 2.0
    assert field(10.0) == 3.0  # constant after the last knot


def test_derivative_fn_smooth_kinds():
    f = ScalarField.exp_decay(2.0, 0.5, 0.1)
    deriv, bound = f.derivative_fn()
    xs = np.linspace(0.0, 10.0, 101)
    fd = (np.asarray(f(xs + 1e-6)) - np.asarray(f(xs - 1e-6))) / 2e-6
    assert np.allclose(deriv(xs), fd, atol=1e-6)
    assert np.max(np.abs(deriv(xs))) <= bound + 1e-12
    with pytest.raises(ValueError):
        ScalarField.step([1.0], [1.0, 2.0]).derivative_fn()


def test_field_from_dict():
    cases = [
        ({"kind": "constant", "value": 1.5}, ScalarField.constant(1.5)),
        ({"kind": "expdecay", "amplitude": 1.0, "rate": 2.0, "floor": 0.5}, ScalarField.exp_decay(1.0, 2.0, 0.5)),
        ({"kind": "expdecay", "amplitude": 1, "rate": 2.0}, ScalarField.exp_decay(1.0, 2.0, 0.0)),
        ({"kind": "rational", "scale": 2.5}, ScalarField.rational(2.5)),
        ({"kind": "rational"}, ScalarField.rational(1.0)),
        ({"kind": "step", "thresholds": [1.0], "values": [0.5, 2]}, ScalarField.step([1.0], [0.5, 2.0])),
        ({"kind": "pwlinear", "xs": [0, 2.0], "ys": [1.0, 3.0]}, ScalarField.pwlinear([0.0, 2.0], [1.0, 3.0])),
    ]
    for d, field in cases:
        assert ScalarField.from_dict(d) == field
    with pytest.raises(ValueError):
        ScalarField.from_dict({"kind": "cubic"})


def test_field_validation_errors():
    with pytest.raises(ValueError):
        ScalarField.constant(-1.0)
    with pytest.raises(ValueError):
        ScalarField.exp_decay(1.0, -2.0)
    with pytest.raises(ValueError):
        ScalarField.step([2.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        ScalarField.pwlinear([0.0, 1.0], [1.0, -0.5])
