import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agebranch import AgeMeasure, ScalarField
from agebranch.measures import index_ranges, interleave, json_number, json_numbers
from oracles import weighted_index


def weighted_inverse(nu: AgeMeasure, alpha, y: float) -> float:
    """The atom of ``nu`` that ``weighted_index`` picks at ``y``, its population taken as one segment.

    It is the right-continuous inverse of the alpha-weighted distribution
    function: the smallest atom whose cumulative weight exceeds ``y * <nu, alpha>``.
    """
    w = np.asarray(alpha(nu.as_array()), dtype=np.float64)
    return nu.ages[int(weighted_index(w, [y], None, [len(w)])[0])]


def test_integrate_null_measure():
    assert AgeMeasure.empty().integrate(ScalarField.constant(5.0)) == 0.0


def test_integrate_counting():
    nu = AgeMeasure.from_ages([0.0, 1.0, 3.0])
    assert nu.integrate(ScalarField.constant(1.0)) == 3.0


def test_integrate_two_term_exponential():
    nu = AgeMeasure.from_ages([1.0, 3.0])
    f = ScalarField.exp_decay(1.0, 1.0)
    assert nu.integrate(f) == pytest.approx(0.4176665095393063, abs=1e-12)


def test_total_mass_and_sorting():
    nu = AgeMeasure.from_ages([3.0, 1.0, 2.0])
    assert nu.ages == (1.0, 2.0, 3.0)
    assert nu.total_mass == 3


def test_negative_age_rejected():
    with pytest.raises(ValueError):
        AgeMeasure.from_ages([-0.5])


def test_weighted_inverse_uniform_alpha():
    nu = AgeMeasure.from_ages([1.0, 3.0])
    alpha = ScalarField.constant(1.0)
    assert weighted_inverse(nu, alpha, 0.25) == 1.0
    assert weighted_inverse(nu, alpha, 0.6) == 3.0
    # boundary y: the strict inequality selects the next atom
    assert weighted_inverse(nu, alpha, 0.5) == 3.0


def test_weighted_inverse_single_atom():
    nu = AgeMeasure.point(2.5)
    assert weighted_inverse(nu, ScalarField.rational(3.0), 0.99) == 2.5


def test_weighted_inverse_empty_population():
    with pytest.raises(ValueError, match="mass is zero"):
        weighted_inverse(AgeMeasure.empty(), ScalarField.constant(1.0), 0.5)


@given(
    st.lists(st.integers(min_value=0, max_value=40).map(lambda k: k / 4.0), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=60, deadline=None)
def test_weighted_inverse_galois_relation(ages, y):
    nu = AgeMeasure.from_ages(ages)
    alpha = ScalarField.exp_decay(1.0, 0.3, 0.5)
    a = weighted_inverse(nu, alpha, y)
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
    draws = [weighted_inverse(nu, alpha, rng.random()) for _ in range(n)]
    weights = {a: 0.0 for a in set(nu.ages)}
    for a in nu.ages:
        weights[a] += float(alpha(a))
    total = sum(weights.values())
    for atom, w in weights.items():
        p = w / total
        freq = sum(1 for d in draws if d == atom) / n
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) <= 3 * se


def test_weighted_index_clamps_to_segment_end():
    # a passed total above the cumulative sum must not pick past the segment
    w = np.array([0.25, 0.5, 0.25, 1.0, 1.0])
    got = weighted_index(w, [0.999, 0.999], [1.5, 4.0], [3, 2])
    assert got.tolist() == [2, 1]


def test_interleave_matches_np_insert():
    rng = np.random.default_rng(3)
    for n, k in [(0, 0), (0, 2), (5, 0), (5, 3), (40, 12)]:
        values = rng.random(n)
        slots = np.sort(rng.choice(n + k, size=k, replace=False))
        out, held = interleave(values, slots, -1.0)
        assert out.tolist() == np.insert(values, slots - np.arange(k), -1.0).tolist()
        assert out[held].tolist() == values.tolist()
        assert np.flatnonzero(~held).tolist() == slots.tolist()


def test_index_ranges_concatenates_aranges():
    starts, counts = np.array([4, 0, 9, 2]), np.array([2, 3, 0, 1])
    assert index_ranges(starts, counts).tolist() == [4, 5, 0, 1, 2, 2]
    assert index_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).tolist() == []


def test_json_number_accepts_finite_numbers_only():
    assert json_number(2) == 2.0 and isinstance(json_number(2), float)
    assert json_numbers([0, 1.5]) == [0.0, 1.5]
    for bad in (True, "1.0", None, math.inf, math.nan, 10**400, [1.0]):
        with pytest.raises(ValueError, match="rate: must be a finite number"):
            json_number(bad, "rate")
    with pytest.raises(ValueError, match="must be a list"):
        json_numbers("12")


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
    xs = np.linspace(0.0, 10.0, 101)
    for f in (ScalarField.constant(0.5), ScalarField.exp_decay(2.0, 0.5, 0.1), ScalarField.rational(2.0)):
        fd = (np.asarray(f(xs + 1e-6)) - np.asarray(f(xs - 1e-6))) / 2e-6
        assert np.allclose(f.derivative_fn()(xs), fd, atol=1e-6), f.kind
    for f in (ScalarField.step([1.0], [1.0, 2.0]), ScalarField.step([], [1.0]),
              ScalarField.pwlinear([0.0, 1.0], [1.0, 0.5])):
        assert f.derivative_fn() is None, f.kind


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
