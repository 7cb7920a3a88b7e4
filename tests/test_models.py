import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from agebranch import (
    AgeMeasure,
    BranchingModel,
    GroupSizeLaw,
    ImmigrationMechanism,
    OffspringLaw,
    OffspringPmf,
    ScalarField,
    SimConfig,
    stationary_laplace,
)
from agebranch import models
from oracles import group_second_moment, pmf_second_moment, single_arrivals

ONE = ScalarField.constant(1.0)


def test_generating_function_examples():
    law = OffspringLaw.table({0: 0.5, 2: 0.5})
    assert law.g_by_regime(0.0)[law.regime_indices(0.0)] == 0.5
    assert law.g_by_regime(1.0)[law.regime_indices(3.0)] == 1.0
    law2 = OffspringLaw.table({0: 0.6, 2: 0.4})
    assert law2.g_by_regime(0.5)[0] == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(ValueError):
        law.g_by_regime(1.5)


def test_mean_examples():
    assert OffspringLaw.table({0: 1.0}).mean_by_regime().tolist() == [0.0]
    assert OffspringLaw.table({0: 0.5, 2: 0.5}).mean_by_regime().tolist() == [1.0]
    assert OffspringLaw.table({0: 0.6, 2: 0.4}).mean_by_regime()[0] == pytest.approx(0.8, abs=1e-15)


def test_geometric_and_poisson_closed_forms_vs_series():
    geo = OffspringPmf.geometric(0.4)
    poi = OffspringPmf.poisson(1.7)
    ks = np.arange(0, 200)
    geo_p = 0.6 * 0.4**ks
    poi_p = np.empty(len(ks))
    poi_p[0] = math.exp(-1.7)
    for k in range(1, len(ks)):
        poi_p[k] = poi_p[k - 1] * 1.7 / k
    for pmf, probs in [(geo, geo_p), (poi, poi_p)]:
        assert pmf.mean == pytest.approx(float(np.sum(ks * probs)), abs=1e-10)
        assert pmf_second_moment(pmf) == pytest.approx(float(np.sum(ks**2 * probs)), abs=1e-9)
        for z in (0.0, 0.3, 1.0):
            assert pmf.g(z) == pytest.approx(float(np.sum(probs * z**ks)), abs=1e-12)


def test_mean_matches_finite_difference_of_g():
    # Richardson-extrapolated one-sided difference of (1 - g(z)) / (1 - z)
    law = OffspringLaw.table({0: 0.25, 1: 0.3, 2: 0.25, 5: 0.2})
    h = 1e-4
    d1 = (1.0 - law.g_by_regime(1.0 - h)[0]) / h
    d2 = (1.0 - law.g_by_regime(1.0 - h / 2)[0]) / (h / 2)
    assert 2 * d2 - d1 == pytest.approx(law.mean_by_regime()[0], abs=1e-6)


def test_g_monotone_and_convex_in_z():
    laws = [
        OffspringLaw.table({0: 0.5, 2: 0.5}),
        OffspringLaw.geometric(0.35),
        OffspringLaw.poisson(2.0),
    ]
    zs = np.linspace(0.0, 1.0, 51)
    for law in laws:
        vals = np.array([law.g_by_regime(z)[0] for z in zs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_pgf_slope_is_the_pgf_and_its_derivative():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    pmfs = [
        OffspringPmf.table({0: 0.25, 1: 0.3, 2: 0.25, 5: 0.2}),
        OffspringPmf.table({3: 1.0}),
        OffspringPmf.geometric(0.35),
        OffspringPmf.geometric(0.0),
        OffspringPmf.poisson(2.0),
        OffspringPmf.poisson(0.0),
    ]
    for pmf in pmfs:
        pgf_slope = pmf.pgf_slope()
        q = mpmath.mpf(pmf.param)
        if pmf.kind == "pmf":
            exact = lambda z: (sum(p * z**k for k, p in zip(pmf.counts, pmf.probs)),
                               sum(k * p * z ** (k - 1) for k, p in zip(pmf.counts, pmf.probs) if k))
        elif pmf.kind == "geometric":
            exact = lambda z: ((1 - q) / (1 - q * z), q * (1 - q) / (1 - q * z) ** 2)
        else:
            exact = lambda z: (mpmath.exp(q * (z - 1)), q * mpmath.exp(q * (z - 1)))
        for z in (0.0, 1e-3, 0.3, 0.77, 1.0):
            value, slope = pgf_slope(z)
            ref_value, ref_slope = exact(mpmath.mpf(z))
            assert abs(value - ref_value) <= 4 * _EPS * abs(ref_value), (pmf, z)
            assert abs(slope - ref_slope) <= 8 * _EPS * abs(ref_slope), (pmf, z)
            assert pmf.g(z) == value, (pmf, z)  # bitwise: g is the closure's value
        assert pmf.mean == pgf_slope(1.0)[1]  # bitwise: the mean is the slope at 1


def test_pmf_must_normalize():
    with pytest.raises(ValueError):
        OffspringPmf.table({0: 0.6, 2: 0.5})
    with pytest.raises(ValueError):
        OffspringPmf.geometric(1.0)
    with pytest.raises(ValueError):
        OffspringPmf.poisson(-0.1)
    with pytest.raises(ValueError, match="finite"):
        OffspringPmf.poisson(math.inf)


def test_offspring_sampling_matches_pmf():
    law = OffspringLaw.table({0: 0.3, 1: 0.2, 3: 0.5})
    rng = np.random.default_rng(77)
    n = 30_000
    draws = np.array([law.sample(np.zeros(1), rng)[0] for _ in range(n)])
    for k, p in [(0, 0.3), (1, 0.2), (3, 0.5)]:
        freq = np.mean(draws == k)
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


class _Uniforms:
    """A generator stand-in whose ``random(n)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, n):
        return self.u[:n].copy()


_SHORT = 0.5 - 1e-13  # a second weight that leaves the table 1e-13 short of 1


@pytest.mark.parametrize("draw, first, last", [
    (lambda u: OffspringPmf.table({0: 0.5, 2: _SHORT}).sample(u, 3), 0, 2),
    (lambda u: GroupSizeLaw.table({1: 0.5, 3: _SHORT}).sample(u, 3), 1, 3),
    (lambda u: GroupSizeLaw.declared({1: 0.5, 3: _SHORT}, 0.0).sample(u, 3), 1, 3),
    (lambda u: ImmigrationMechanism("finite", 1.0, groups=(
        (0.5, AgeMeasure.point(0.0)), (_SHORT, AgeMeasure.from_ages([1.0, 1.0, 2.0])),
    )).sample_groups(u, 3)[0], 1, 3),
], ids=["offspring-pmf", "size-pmf", "size-declared", "finite-mechanism"])
def test_a_uniform_past_a_short_table_draws_its_last_entry(draw, first, last):
    top = 0.5 + _SHORT  # the last cumulative weight, below 1 and below the largest uniform
    assert top < 1.0 - 2.0**-53
    assert draw(_Uniforms([0.0, top, 1.0 - 2.0**-53])).tolist() == [first, last, last]


def test_regime_selection():
    law = OffspringLaw(
        (OffspringPmf.table({0: 1.0}), OffspringPmf.table({2: 1.0})),
        (1.0,),
    )
    xs = [0.0, 0.5, math.nextafter(1.0, 0.0), 1.0, 5.0]  # regimes are left-closed at the threshold
    assert law.mean_by_regime()[law.regime_indices(xs)].tolist() == [0.0, 0.0, 0.0, 2.0, 2.0]


def test_constants_plug_in_examples():
    crit = BranchingModel(ONE, OffspringLaw.table({0: 0.5, 2: 0.5}))
    assert crit.constants() == (0.0, 1.0, 1.0)
    sub = BranchingModel(ONE, OffspringLaw.table({0: 0.6, 2: 0.4}))
    c0, c1, beta = sub.constants()
    assert (c0, c1, beta) == (pytest.approx(-0.2), 1.0, pytest.approx(0.8))
    pd = BranchingModel(ScalarField.constant(2.0), OffspringLaw.table({0: 1.0}))
    assert pd.constants() == (-2.0, 2.0, 0.0)


def test_constants_exact_for_age_varying_catalog():
    alpha = ScalarField.step([1.0, 3.0], [2.0, 0.5, 1.0])
    law = OffspringLaw(
        (OffspringPmf.table({0: 0.3, 2: 0.7}), OffspringPmf.table({0: 0.9, 2: 0.1})),
        (2.0,),
    )
    model = BranchingModel(alpha, law)
    c0, c1, beta = model.constants()
    xs = np.linspace(0.0, 25.0, 250_001)
    a = np.asarray(alpha(xs))
    m = law.mean_by_regime()[law.regime_indices(xs)]
    assert c1 == pytest.approx(float(a.max()), abs=0.0)
    assert c0 >= float((a * (m - 1)).max()) - 1e-12
    assert c0 == pytest.approx(float((a * (m - 1)).max()), abs=1e-6)
    assert beta >= float((a * m).max()) - 1e-12
    assert beta == pytest.approx(float((a * m).max()), abs=1e-6)


def test_constants_ordering_properties():
    for model in [
        BranchingModel(ScalarField.exp_decay(1.0, 0.5, 0.5), OffspringLaw.geometric(0.3)),
        BranchingModel(ScalarField.step([2.0], [1.5, 0.8]), OffspringLaw.poisson(0.9)),
    ]:
        c0, c1, beta = model.constants()
        assert c0 <= beta
        assert c1 >= model.alpha.inf > 0.0


def test_alpha_must_be_bounded_away_from_zero():
    with pytest.raises(ValueError):
        BranchingModel(ScalarField.rational(1.0), OffspringLaw.table({0: 1.0}))


def test_psi_single_immigrants():
    imm = single_arrivals(2.0)
    h = ScalarField.constant(1.0)
    assert imm.psi(h) == pytest.approx(2.0 * (1 - math.exp(-1)), abs=1e-12)
    assert imm.psi(ScalarField.constant(0.0)) == 0.0


def test_psi_two_group_example():
    imm = ImmigrationMechanism.finite_support(
        [(1.0, AgeMeasure.point(0.0)), (1.0, AgeMeasure.point(0.0, 2))]
    )
    assert imm.psi(ONE) == pytest.approx(1.4967852755919449, abs=1e-12)


def test_psi_parametric_vs_brute_series():
    imm = ImmigrationMechanism.parametric(1.5, GroupSizeLaw.zeta_tail(3.0))
    h = ScalarField.constant(0.7)
    q = math.exp(-0.7)
    ks = np.arange(1, 2_000_000, dtype=np.float64)
    zeta3 = float(np.sum(ks**-3.0)) + 0.5 * 2e6**-2.0  # tail correction
    brute = 1.5 * float(np.sum(ks**-3.0 / zeta3 * (1 - q**ks)))
    assert imm.psi(h) == pytest.approx(brute, abs=1e-9)


def test_psi_upper_bounds():
    imm = ImmigrationMechanism.finite_support(
        [(0.5, AgeMeasure.from_ages([0.0, 1.0])), (1.5, AgeMeasure.point(2.0))]
    )
    for theta in (0.1, 1.0, 10.0):
        h = ScalarField.constant(theta)
        val = imm.psi(h)
        assert 0.0 <= val <= imm.total_rate + 1e-12
        assert val <= imm.first_moment_of(h) + 1e-12


def test_log_moment_criterion_trichotomy():
    singles = single_arrivals(3.0)
    assert singles.log_moment_criterion() == ("finite", 0.0)

    zeta3 = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.zeta_tail(3.0))
    status, value = zeta3.log_moment_criterion()
    assert status == "finite"
    # brute-force oracle: direct summation of k^-3 log k, tail < 1e-13
    ks = np.arange(1, 10**7, dtype=np.float64)
    oracle = float(np.sum(np.log(ks) / ks**3)) / 1.2020569031595942
    assert value == pytest.approx(oracle, abs=1e-10)

    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail())
    assert heavy.log_moment_criterion() == ("infinite", None)

    declared = ImmigrationMechanism.parametric(
        1.0, GroupSizeLaw.declared({1: 0.7, 2: 0.2}, undeclared_tail=0.1)
    )
    assert declared.log_moment_criterion() == ("unknown", None)


def test_finite_group_log_moment_value():
    imm = ImmigrationMechanism.finite_support(
        [(1.0, AgeMeasure.point(0.0)), (2.0, AgeMeasure.point(0.0, 3))]
    )
    assert imm.log_moment_criterion()[1] == pytest.approx(2.0 * math.log(3.0), abs=1e-12)


def test_sample_group_point_mass():
    imm = single_arrivals(5.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        sizes, ages = imm.sample_groups(rng, 1)
        assert sizes.tolist() == [1] and ages.tolist() == [0.0]


def test_sample_group_categorical_frequencies():
    imm = ImmigrationMechanism.finite_support(
        [(1.0, AgeMeasure.point(0.0)), (1.0, AgeMeasure.point(0.0, 2))]
    )
    rng = np.random.default_rng(44)
    n = 10_000
    singles = int(np.count_nonzero(imm.sample_groups(rng, n)[0] == 1))
    se = math.sqrt(0.25 / n)
    assert abs(singles / n - 0.5) <= 3 * se


def test_sample_group_parametric_degenerate():
    imm = ImmigrationMechanism.parametric(
        1.0, GroupSizeLaw.table({2: 1.0}), age_atoms=((5.0, 1.0),)
    )
    rng = np.random.default_rng(9)
    sizes, ages = imm.sample_groups(rng, 1)
    assert sizes.tolist() == [2] and ages.tolist() == [5.0, 5.0]


def test_sample_group_zeta_size_frequencies():
    law = GroupSizeLaw.zeta_tail(3.0)
    rng = np.random.default_rng(11)
    n = 20_000
    draws = np.array([law.sample(rng, 1)[0] for _ in range(n)])
    zeta3 = 1.2020569031595942
    for k in (1, 2, 3):
        p = k**-3.0 / zeta3
        assert abs(np.mean(draws == k) - p) <= 3 * math.sqrt(p * (1 - p) / n)
    assert law.mean_size == pytest.approx(1.6449340668 / zeta3, abs=1e-9)


def _one_size(law, rng):
    """One group size as a single draw walks the inverse CDF: a uniform, then the table or the chunks."""
    if law.kind in ("pmf", "declared"):
        idx = np.searchsorted(np.cumsum(law.probs), rng.random(), side="right")
        return law.sizes[min(int(idx), len(law.sizes) - 1)]
    u, acc = rng.random(), 0.0
    for ks, probs in law._chunks():
        cum = acc + np.cumsum(probs)
        idx = int(np.searchsorted(cum, u, side="right"))
        if idx < len(ks):
            return int(ks[idx])
        acc = float(cum[-1])
    raise RuntimeError("past the table")


def _one_group(imm, rng):
    """One group: a running sum of the weights, or a size and then its members' ages."""
    if imm.kind == "finite":
        u, acc = rng.random() * imm.total_rate, 0.0
        for w, g in imm.groups:
            acc += w
            if u < acc:
                return g
        return imm.groups[-1][1]
    k = _one_size(imm.size_law, rng)
    ages = np.asarray([a for a, _ in imm.age_atoms])
    if len(ages) == 1:
        return AgeMeasure.from_ages(np.repeat(ages[0], k))
    return AgeMeasure.from_ages(ages[rng.choice(len(ages), size=k, p=[p for _, p in imm.age_atoms])])


@pytest.mark.parametrize("law, n", [
    (GroupSizeLaw.table({1: 0.1, 2: 0.2, 5: 0.3, 9: 0.4}), 500),
    (GroupSizeLaw.declared({1: 0.6, 3: 0.4}, undeclared_tail=0.0), 500),
    (GroupSizeLaw.zeta_tail(2.2), 500),
    (GroupSizeLaw.zeta_tail(1.5), 100),
    (GroupSizeLaw.log_squared_tail(), 40),  # this stream stays below the table cap
], ids=lambda v: getattr(v, "kind", v))
def test_vector_size_draws_equal_one_size_draws(law, n):
    one, many = np.random.default_rng(2), np.random.default_rng(2)
    expected = [_one_size(law, one) for _ in range(n)]
    drawn = law.sample(many, n)
    assert drawn.dtype == np.int64 and drawn.tolist() == expected
    assert law.sample(many, 0).tolist() == []
    assert [law.sample(many, 1).tolist() for _ in range(5)] == [[_one_size(law, one)] for _ in range(5)]
    assert many.random() == one.random()  # both read the stream to the same place


_MECHANISMS = [
    ImmigrationMechanism.finite_support([
        (0.1, AgeMeasure.point(0.0)), (0.2, AgeMeasure.from_ages([0.5, 0.0, 2.0])),
        (0.3, AgeMeasure.point(1.0, 2)), (0.4, AgeMeasure.point(3.0)),
    ]),
    single_arrivals(3.0),
    ImmigrationMechanism.parametric(1.5, GroupSizeLaw.table({1: 0.5, 4: 0.5}), age_atoms=((0.7, 1.0),)),
    ImmigrationMechanism.parametric(1.5, GroupSizeLaw.zeta_tail(2.5)),
    ImmigrationMechanism.parametric(2.0, GroupSizeLaw.zeta_tail(3.0), age_atoms=((0.0, 0.3), (1.1, 0.7))),
]


@pytest.mark.parametrize("imm", _MECHANISMS, ids=lambda m: f"{m.kind}-{m.size_law.kind if m.size_law else len(m.groups)}")
def test_vector_group_draws_equal_one_group_draws(imm):
    n = 300
    one, single, many = (np.random.default_rng(7) for _ in range(3))
    expected = [_one_group(imm, one) for _ in range(n)]
    sizes, ages = imm.sample_groups(many, n)
    assert sizes.dtype == np.int64 and ages.dtype == np.float64
    assert sizes.tolist() == [g.total_mass for g in expected]
    assert ages.tolist() == [a for g in expected for a in g.ages]
    singles = [imm.sample_groups(single, 1) for _ in range(n)]
    assert [s.tolist() for s, _ in singles] == [[g.total_mass] for g in expected]
    assert [a.tolist() for _, a in singles] == [list(g.ages) for g in expected]
    assert one.random() == single.random() == many.random()


def test_size_draw_past_the_table_cap_raises():
    law = GroupSizeLaw.log_squared_tail()
    with pytest.raises(RuntimeError, match="group-size draw exceeded the supported range"):
        law.sample(np.random.default_rng(0), 40)
    with pytest.raises(RuntimeError, match="group-size draw exceeded the supported range"):
        ImmigrationMechanism.parametric(1.0, law).sample_groups(np.random.default_rng(0), 40)
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError, match="past the table"):
        [_one_size(law, rng) for _ in range(40)]


def test_group_laplace_sum_against_brute():
    # brute numerators converge geometrically for q < 1; the normalizers need
    # an integral-test tail correction since the raw weight sums converge slowly
    K = 3_000_000
    for law, lo in [(GroupSizeLaw.zeta_tail(2.5), 1), (GroupSizeLaw.log_squared_tail(), 2)]:
        ks = np.arange(lo, K, dtype=np.float64)
        if law.kind == "zeta":
            w = ks**-2.5
            total = float(np.sum(w)) + K**-1.5 / 1.5 + 0.5 * K**-2.5
        else:
            w = 1.0 / (ks * np.log(ks) ** 2)
            total = float(np.sum(w)) + 1.0 / math.log(K) + 0.5 / (K * math.log(K) ** 2)
        for q in (0.0, 0.3, 0.9):
            val = law.laplace_sum(q, 1e-12)
            brute = float(np.sum(w * q**ks)) / total
            assert val == pytest.approx(brute, abs=1e-7)


def test_declared_tail_refuses_uncertified_laplace():
    law = GroupSizeLaw.declared({1: 0.8}, undeclared_tail=0.2)
    with pytest.raises(ValueError):
        law.laplace_sum(0.5, 1e-6)
    with pytest.raises(ValueError):
        law.sample(np.random.default_rng(0), 1)


_SEAM = math.exp(-1.0)  # direct series at or below, the mu = log q expansion above
_POLYLOG_QS = (0.0, 1e-3, _SEAM - 1e-12, _SEAM, _SEAM + 1e-12, 0.9, 1 - 1e-3, 1 - 1e-7, 1.0)


@pytest.mark.parametrize("s", [1.5, 2.0, 2.5, 3.0, 3.0 - 1e-9, 3.0 + 1e-9, 3.5, 5.0])
def test_zeta_laplace_closed_form_matches_polylog(s):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    law = GroupSizeLaw.zeta_tail(s)
    values = law.laplace_sum(np.array(_POLYLOG_QS), 1e-12)
    for q, value in zip(_POLYLOG_QS, values):
        oracle = float(mpmath.polylog(s, q) / mpmath.zeta(s)) if q > 0 else 0.0
        assert abs(value - oracle) <= 1e-12, (s, q)
        assert law.laplace_sum(q, 1e-12) == value


def test_zeta_laplace_near_one_is_certified_not_refused():
    # the chunk walk alone needs more than 2^24 terms here and refused
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    q = 1 - 1e-7
    oracle = float(mpmath.polylog(2.5, q) / mpmath.zeta(2.5))
    assert abs(GroupSizeLaw.zeta_tail(2.5).laplace_sum(q, 1e-12) - oracle) <= 1e-12


_ZETA_SS = (1.05, 1.5, 2.0, 2.5, 3.0 - 1e-9, 3.0, 3.0 + 1e-9, 3.5, 5.0, 12.0)
_EPS = 2.0**-52


def _zeta_gamma_arguments():
    """The zeta and Gamma arguments of _polylog_mu_series, mean_size, the
    oracle's size_second_moment and the normalising zeta(s) over _ZETA_SS."""
    zetas, gammas = set(), set()
    n = np.arange(models._MU_TERMS + 1, dtype=np.float64)
    for s in _ZETA_SS:
        x = s - n
        xe = np.minimum(x, -0.5)
        zetas.update(x[x != 1.0], 1.0 - xe, 1.0 - x[n > s], [s])
        zetas.update([s - 1.0] if s > 2.0 else [])
        zetas.update([s - 2.0] if s > 3.0 else [])
        gammas.update(n + 1.0, 1.0 - xe, [] if s.is_integer() else [1.0 - s])
    return sorted(map(float, zetas)), sorted(map(float, gammas))


# sha256 of the coefficients, rounding weights and remainder scales of the mu
# series, recorded (numpy 2.4.6, CPython 3.11 on x86-64 Linux) before the zeta
# values were cached: caching must not move a bit
_MU_SERIES_DIGESTS = {
    1.5: "f3d083248ddfee9f206163e0a1cdfc2891cdbe9fd308533ee45ffd04bbbba9e4",
    2.0: "64b624b8a104744a8f8afa9748037a6afa478e25197aae1aa67b116f7be145e5",
    3.0: "e6d007c2fba74c2b76b43f6100aaa213b3273582e6cb08b075a25dcbe4242401",
    3.7: "a13ec8678ef88a2676be6dfc66117f994b3ad7be7807b1d90d12effda2732497",
}


@pytest.mark.parametrize("s", sorted(_MU_SERIES_DIGESTS))
def test_mu_series_evaluates_each_zeta_argument_once_on_the_same_bits(s):
    models._zeta_real.cache_clear()
    models._polylog_mu_series.cache_clear()
    digest = hashlib.sha256()
    for a in models._polylog_mu_series(s):
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    assert digest.hexdigest() == _MU_SERIES_DIGESTS[s]
    n = np.arange(models._MU_TERMS + 1, dtype=np.float64)
    x = s - n
    arguments = set(np.where(x == 1.0, 2.0, x)) | set(1.0 - np.minimum(x, -0.5)) | set(1.0 - x[n > s])
    assert models._zeta_real.cache_info().misses == len(arguments)


def test_in_package_zeta_and_gamma_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    zetas, gammas = _zeta_gamma_arguments()
    values = models._zeta(np.array(zetas))
    for x, value in zip(zetas, values):
        assert float(models._zeta(x)) == value  # scalar and array calls agree
        ref, mx = mpmath.zeta(x), mpmath.mpf(x)
        if x > -0.5:
            scale = abs(ref)  # relative error
            bound = 8
        else:  # near the trivial zeros: against the functional-equation envelope
            scale = 2 * (2 * mpmath.pi) ** (mx - 1) * mpmath.gamma(1 - mx) * mpmath.zeta(1 - mx)
            bound = 50
        assert abs(mpmath.mpf(float(value)) - ref) <= bound * _EPS * scale, x
    for x, value in zip(gammas, models._gamma(np.array(gammas))):
        ref = mpmath.gamma(x)
        assert abs(mpmath.mpf(float(value)) - ref) <= 8 * _EPS * abs(ref), x


def test_in_package_zeta_special_points():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    assert float(models._zeta(0.0)) == -0.5
    assert float(models._zeta(1.0)) == math.inf
    trivial = models._zeta(-2.0 * np.arange(1, 21))
    assert np.all(trivial == 0.0) and not np.any(np.signbit(trivial))
    # across the seam between Euler-Maclaurin and the functional equation
    for x in (math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)):
        ref = mpmath.zeta(x)
        assert abs(mpmath.mpf(float(models._zeta(x))) - ref) <= 8 * _EPS * abs(ref), x
    # next to the pole and next to zero, where 1 - x rounds
    for x in (1.0 - 1e-9, 1.0 + 1e-9, 1e-9, -1e-9):
        ref = mpmath.zeta(x)
        assert abs(mpmath.mpf(float(models._zeta(x))) - ref) <= 8 * _EPS * abs(ref), x


def test_certified_laplace_sum_skips_the_walk_bookkeeping():
    # np.unique loads numpy.ma on first use; with every q certified it is not called
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import numpy as np; "
        "from agebranch import GroupSizeLaw; before = set(sys.modules); "
        "GroupSizeLaw.zeta_tail(3.0).laplace_sum(np.linspace(0.0, 1.0, 11), 1e-9); "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    res = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True,
                         check=True, timeout=300)
    assert json.loads(res.stdout) == []


def test_array_laplace_sum_and_psi_equal_scalar_calls(monkeypatch):
    qs = np.array([0.0, 0.3, _SEAM, 0.9, 0.3, 0.999, 1 - 1e-9, 0.9])
    laws = [
        GroupSizeLaw.table({1: 0.5, 3: 0.25, 7: 0.25}),
        GroupSizeLaw.declared({1: 0.6, 2: 0.4 - 1e-13}, undeclared_tail=1e-13),
        GroupSizeLaw.zeta_tail(2.5),
        GroupSizeLaw.zeta_tail(3.0 + 1e-9),  # near-integer: some entries take the walk
        GroupSizeLaw.log_squared_tail(),
    ]
    walks = []
    original = GroupSizeLaw._series_walk
    monkeypatch.setattr(GroupSizeLaw, "_series_walk", lambda self, q, tol: walks.append(q) or original(self, q, tol))
    for law in laws:
        qs_law = qs[qs <= 0.9] if law.kind == "log_squared" else qs  # the walk is slow near 1
        walks.clear()
        values = law.laplace_sum(qs_law, 1e-12)
        assert values.shape == qs_law.shape
        assert len(walks) == len(set(walks))  # at most one walk per distinct q
        assert np.array_equal(values, [law.laplace_sum(float(q), 1e-12) for q in qs_law])
    h = np.array([[0.0, 0.2, 1.5, 1e-8], [3.0, 0.7, 0.0, 2e-9]])
    mechanisms = [
        ImmigrationMechanism.finite_support(
            [(1.0, AgeMeasure.point(0.0)), (0.5, AgeMeasure.from_ages([0.0, 1.0, 1.0]))]
        ),
        ImmigrationMechanism.parametric(
            2.0, GroupSizeLaw.zeta_tail(3.0), age_atoms=((0.0, 0.25), (1.0, 0.75))
        ),
        ImmigrationMechanism.none(),
    ]
    for imm in mechanisms:
        values = imm.psi_from_exponents({0.0: h[0], 1.0: h[1]})
        assert values.shape == h[0].shape
        scalar = [imm.psi_from_exponents({0.0: float(a), 1.0: float(b)}) for a, b in zip(*h)]
        assert all(isinstance(v, float) for v in scalar)
        assert np.array_equal(values, scalar)


def test_zeta_log_moment_is_minus_the_zeta_derivative():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    for s in (1.001, 1.1, 1.5, 2.0, 3.0, 3.25, 6.0, 10.0, 25.0):
        ref = -mpmath.zeta(s, derivative=1)
        assert abs(mpmath.mpf(models._zeta_log_moment(s)) - ref) <= 2 * _EPS * abs(ref), s


def test_zeta_log_moment_is_computed_once_per_exponent():
    law = GroupSizeLaw.zeta_tail(3.25)
    first = law.log_moment()
    hits = models._zeta_log_moment.cache_info().hits
    assert law.log_moment() == first
    assert models._zeta_log_moment.cache_info().hits == hits + 1


def test_immigration_validation_errors():
    with pytest.raises(ValueError):
        ImmigrationMechanism.finite_support([(1.0, AgeMeasure.empty())])
    with pytest.raises(ValueError):
        ImmigrationMechanism("finite", 2.0, groups=((1.0, AgeMeasure.point(0.0)),))
    with pytest.raises(ValueError):
        GroupSizeLaw.table({0: 1.0})
    with pytest.raises(ValueError):
        GroupSizeLaw.zeta_tail(1.0)


@pytest.mark.parametrize("make, match", [
    (lambda: GroupSizeLaw.table({1: 1.5, 2: -0.5}), "probabilities must be >= 0"),
    (lambda: GroupSizeLaw.declared({1: 1.2, 2: -0.3}, 0.1), "probabilities must be >= 0"),
    (lambda: GroupSizeLaw.declared({-1: 0.5, 1: 0.5}, 0.0), "integers >= 1"),
    (lambda: GroupSizeLaw.declared({0: 0.5, 1: 0.5}, 0.0), "integers >= 1"),
    (lambda: GroupSizeLaw("declared", (1, 2.5), (0.5, 0.5)), "integers >= 1"),
    (lambda: GroupSizeLaw("pmf", (1,), (0.5,), undeclared_tail=0.5), "0 for a pmf"),
], ids=["pmf-signed", "declared-signed", "declared-negative-size", "declared-zero-size",
        "declared-fractional-size", "pmf-with-tail"])
def test_size_tables_refuse_what_offspring_tables_refuse(make, match):
    # a signed or non-integer table is no law: sampling and the Laplace series would disagree
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make, value", [
    (lambda: OffspringPmf.table({0: 0.5, 10**20: 0.5}), "100000000000000000000"),
    (lambda: GroupSizeLaw.table({1: 0.5, 2**63: 0.5}), "9223372036854775808"),
    (lambda: GroupSizeLaw.declared({1: 0.5, 1e19: 0.5}, 0.0), "1e+19"),
    (lambda: GroupSizeLaw.declared({1: 0.5, math.inf: 0.5}, 0.0), "inf"),
], ids=["offspring-count", "size", "declared-float-size", "declared-infinite-size"])
def test_tables_refuse_values_past_int64(make, value):
    # counts and sizes are drawn as int64: a larger one overflowed in the draw
    with pytest.raises(ValueError, match=rf"< 2\*\*63, got {re.escape(value)}$"):
        make()
    assert OffspringPmf.table({0: 0.5, 2**63 - 1: 0.5}).counts == (0, 2**63 - 1)


@pytest.mark.parametrize("key", ["1_0", " 2", "+2", "02", "2.0", "-0", "x", "\u0662"])
def test_pmf_keys_must_be_canonical_integers(key):
    # int() reads each of these (all but "2.0" and "x" as 10, 2 or 0), so two
    # keys could name one count and one entry be dropped
    for build, pmf in ((OffspringLaw.from_dict, {"0": 0.5, key: 0.5}), (GroupSizeLaw.from_dict, {"1": 0.5, key: 0.5})):
        with pytest.raises(ValueError, match=f"pmf key {re.escape(repr(key))} is not an integer in canonical form"):
            build({"kind": "pmf", "pmf": pmf})
    assert OffspringLaw.from_dict({"kind": "pmf", "pmf": {"0": 0.5, "10": 0.5}}).regimes[0].counts == (0, 10)


def test_pmf_keys_past_the_int_digit_limit_are_named():
    # int() refuses a string of more than 4,300 digits without naming it; the key
    # is refused by its first 20 characters before int() reads it
    key = "7" * 5000
    for build, pmf in ((OffspringLaw.from_dict, {"0": 0.5, key: 0.5}), (GroupSizeLaw.from_dict, {"1": 0.5, key: 0.5})):
        with pytest.raises(ValueError) as caught:
            build({"kind": "pmf", "pmf": pmf})
        assert str(caught.value) == "pmf key '77777777777777777777'... has 5000 characters, too long for a count below 2**63"


NAN = math.nan
_SUBCRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.6, 2: 0.4}))
_PMF = OffspringPmf.table({0: 0.5, 2: 0.5})


@pytest.mark.parametrize("make, match", [
    (lambda: OffspringPmf.table({0: NAN, 2: 1.0}), "probabilities must be >= 0"),
    (lambda: OffspringLaw((_PMF, _PMF), (NAN,)), "thresholds must be > 0"),
    (lambda: GroupSizeLaw.zeta_tail(NAN), "exponent > 1"),
    (lambda: GroupSizeLaw.table({1: NAN, 2: 1.0}), "probabilities must be >= 0"),
    (lambda: GroupSizeLaw.declared({1: 1.0}, NAN), "undeclared tail mass must be >= 0"),
    (lambda: ScalarField.constant(NAN), "constant field must be >= 0"),
    (lambda: ScalarField.exp_decay(NAN, 1.0), "amplitude >= 0"),
    (lambda: ScalarField.exp_decay(1.0, NAN), "rate > 0"),
    (lambda: ScalarField.exp_decay(1.0, 1.0, NAN), "floor >= 0"),
    (lambda: ScalarField.rational(NAN), "rational scale must be >= 0"),
    (lambda: ScalarField.step([NAN], [1.0, 2.0]), "knot positions must be >= 0"),
    (lambda: ScalarField.step([1.0], [1.0, NAN]), "field values must be >= 0"),
    (lambda: ScalarField.pwlinear([0.0, NAN], [1.0, 2.0]), "knot positions must be"),
    (lambda: ScalarField.pwlinear([0.0, 1.0], [NAN, 2.0]), "field values must be >= 0"),
    (lambda: ImmigrationMechanism.parametric(1.0, GroupSizeLaw.table({1: 1.0}), [(NAN, 1.0)]),
     "age atoms must be >= 0"),
    (lambda: ImmigrationMechanism.parametric(1.0, GroupSizeLaw.table({1: 1.0}), [(0.0, NAN)]),
     "age atom probabilities must be >= 0"),
    (lambda: SimConfig(_SUBCRITICAL, AgeMeasure.point(0.0), 1.0, (0.5, NAN)),
     "snapshot times must lie within"),
    (lambda: stationary_laplace(_SUBCRITICAL, single_arrivals(1.0), ONE, NAN),
     "tolerance must be > 0, got nan"),
], ids=["offspring-prob", "offspring-threshold", "zeta-exponent", "size-prob", "declared-tail",
        "constant", "expdecay-amplitude", "expdecay-rate", "expdecay-floor", "rational",
        "step-threshold", "step-value", "pwlinear-x", "pwlinear-y", "age-atom", "age-atom-prob",
        "snapshot-time", "stationary-tolerance"])
def test_public_constructors_refuse_nan(make, match):
    # NaN fails every comparison, so each range check is written to fail on it
    with pytest.raises(ValueError, match=match):
        make()


INF = math.inf


@pytest.mark.parametrize("make, match", [
    (lambda: GroupSizeLaw.zeta_tail(INF), "finite exponent > 1 .*, got inf"),
    (lambda: ScalarField.constant(INF), "constant field must be >= 0 and finite, got inf"),
    (lambda: ScalarField.exp_decay(INF, 1.0), "finite amplitude >= 0 and floor >= 0, got inf and 0.0"),
    (lambda: ScalarField.exp_decay(1.0, INF), "finite rate > 0, got inf"),
    (lambda: ScalarField.exp_decay(1.0, 1.0, INF), "finite amplitude >= 0 and floor >= 0, got 1.0 and inf"),
    (lambda: ScalarField.rational(INF), "rational scale must be >= 0 and finite, got inf"),
    (lambda: ScalarField.step([INF], [1.0, 2.0]), "knot positions must be >= 0 and finite, got inf"),
    (lambda: ScalarField.step([1.0], [1.0, INF]), "field values must be >= 0 and finite, got inf"),
    (lambda: ScalarField.pwlinear([0.0, INF], [1.0, 2.0]), "knot positions must be >= 0 and finite, got inf"),
    (lambda: ScalarField.pwlinear([0.0, 1.0], [INF, 2.0]), "field values must be >= 0 and finite, got inf"),
    (lambda: SimConfig(_SUBCRITICAL, AgeMeasure.point(0.0), INF, (0.5,)), "t_end must be > 0 and finite, got inf"),
    (lambda: OffspringLaw((_PMF, _PMF), (INF,)), "regime thresholds must be > 0 and finite, got inf"),
    (lambda: ImmigrationMechanism.parametric(1.0, GroupSizeLaw.table({1: 1.0}), [(INF, 1.0)]),
     "age atoms must be >= 0 and finite, got inf"),
], ids=["zeta-exponent", "constant", "expdecay-amplitude", "expdecay-rate", "expdecay-floor", "rational",
        "step-threshold", "step-value", "pwlinear-x", "pwlinear-y", "t-end", "offspring-threshold", "age-atom"])
def test_public_constructors_refuse_infinities(make, match):
    # each would build an object whose moments or suprema are inf or nan
    # (a zeta law's first moment, a field's sup), refused later or not at all
    with pytest.raises(ValueError, match=match):
        make()


def test_expdecay_whose_supremum_overflows_is_refused():
    # each part is finite, but f.sup = amplitude + floor is inf
    with pytest.raises(ValueError, match=r"amplitude 1e\+308 plus floor 1e\+308, is not finite"):
        ScalarField.exp_decay(1e308, 1.0, 1e308)
    assert ScalarField.exp_decay(1e308, 1.0, 0.0).sup == 1e308


def test_first_and_second_moments_of_groups():
    imm = ImmigrationMechanism.finite_support(
        [(2.0, AgeMeasure.from_ages([0.0, 1.0])), (1.0, AgeMeasure.point(3.0))]
    )
    f = ScalarField.exp_decay(1.0, 1.0)
    m1 = 2.0 * (1 + math.exp(-1)) + 1.0 * math.exp(-3)
    m2 = 2.0 * (1 + math.exp(-1)) ** 2 + 1.0 * math.exp(-3) ** 2
    assert imm.first_moment_of(f) == pytest.approx(m1, abs=1e-12)
    assert group_second_moment(imm, f) == pytest.approx(m2, abs=1e-12)
    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail())
    assert math.isinf(heavy.first_moment_of(f))


def test_first_moment_from_values_is_first_moment_of_at_the_atoms():
    f = ScalarField.exp_decay(1.0, 1.0)
    finite = ImmigrationMechanism.finite_support(
        [(2.0, AgeMeasure.from_ages([0.0, 1.0, 1.0])), (1.0, AgeMeasure.from_ages([1.0, 3.0]))]
    )
    parametric = ImmigrationMechanism.parametric(
        1.5, GroupSizeLaw.zeta_tail(3.0), ((0.0, 0.25), (0.5, 0.25), (2.0, 0.5))
    )
    zeta_mean = (math.pi**2 / 6.0) / 1.2020569031595942  # zeta(2) / zeta(3)
    expected = {
        finite: 2.0 * (1.0 + 2.0 * math.exp(-1.0)) + math.exp(-1.0) + math.exp(-3.0),
        parametric: 1.5 * zeta_mean * (0.25 + 0.25 * math.exp(-0.5) + 0.5 * math.exp(-2.0)),
    }
    scales = np.array([0.0, 0.5, 2.0])
    for imm, m1 in expected.items():
        at = {a: float(f(a)) for a in imm.atom_ages()}
        assert imm.first_moment_from_values(at) == imm.first_moment_of(f)
        assert imm.first_moment_of(f) == pytest.approx(m1, rel=1e-12)
        # an array of values gives, entry by entry, the bits of the scalar call
        got = imm.first_moment_from_values({a: scales * v for a, v in at.items()})
        assert got.tolist() == [imm.first_moment_from_values({a: s * v for a, v in at.items()}) for s in scales]
    heavy = ImmigrationMechanism.parametric(1.0, GroupSizeLaw.log_squared_tail(), ((0.0, 0.5), (1.0, 0.5)))
    assert math.isinf(heavy.first_moment_from_values({0.0: 1.0, 1.0: 0.5}))
    assert np.isinf(heavy.first_moment_from_values({0.0: scales, 1.0: scales})).all()
    assert ImmigrationMechanism.none().first_moment_from_values({}) == 0.0


def test_model_from_dict():
    alpha = {"kind": "step", "thresholds": [1.5], "values": [2.0, 0.5]}
    pmf = {"kind": "pmf", "pmf": {"2": 0.7, "0": 0.3}}
    offspring = [
        (pmf, OffspringLaw.table({0: 0.3, 2: 0.7})),
        ({"kind": "geometric", "q": 0.4}, OffspringLaw.geometric(0.4)),
        ({"kind": "poisson", "mean": 1.2}, OffspringLaw.poisson(1.2)),
        (
            {"kind": "regimes", "thresholds": [1.5], "regimes": [pmf, {"kind": "geometric", "q": 0.4}]},
            OffspringLaw((OffspringPmf.table({0: 0.3, 2: 0.7}), OffspringPmf.geometric(0.4)), (1.5,)),
        ),
    ]
    for d, law in offspring:
        model = BranchingModel.from_dict({"alpha": alpha, "offspring": d})
        assert model == BranchingModel(ScalarField.step([1.5], [2.0, 0.5]), law)

    ages = [{"age": 0.0, "prob": 0.5}, {"age": 1.0, "prob": 0.5}]
    sizes = [
        ({"kind": "pmf", "pmf": {"3": 0.25, "1": 0.75}}, GroupSizeLaw.table({1: 0.75, 3: 0.25})),
        ({"kind": "zeta", "exponent": 3}, GroupSizeLaw.zeta_tail(3.0)),
        ({"kind": "log_squared"}, GroupSizeLaw.log_squared_tail()),
        ({"kind": "declared", "pmf": {"1": 0.5}, "undeclared_tail": 0.5}, GroupSizeLaw.declared({1: 0.5}, 0.5)),
        ({"kind": "declared", "pmf": {"1": 1.0}}, GroupSizeLaw.declared({1: 1.0}, 0.0)),
    ]
    for d, law in sizes:
        assert GroupSizeLaw.from_dict(d) == law
        imm = ImmigrationMechanism.from_dict({"kind": "parametric", "total_rate": 2.0, "sizes": d, "ages": ages})
        assert imm == ImmigrationMechanism.parametric(2.0, law, age_atoms=((0.0, 0.5), (1.0, 0.5)))
    finite = {"kind": "finite", "groups": [{"rate": 1.0, "ages": [1.0, 0.0]}, {"rate": 0.5, "ages": [2]}]}
    assert ImmigrationMechanism.from_dict(finite) == ImmigrationMechanism.finite_support(
        [(1.0, AgeMeasure.from_ages([0.0, 1.0])), (0.5, AgeMeasure.point(2.0))]
    )

    for parse, d in (
        (OffspringLaw.from_dict, {"kind": "binomial"}),
        (GroupSizeLaw.from_dict, {"kind": "uniform"}),
        (ImmigrationMechanism.from_dict, {"kind": "periodic"}),
    ):
        with pytest.raises(ValueError, match="unknown kind"):
            parse(d)
