"""Branching and immigration model objects with exact generating-function calculus.

The offspring law catalog (finite support, geometric, Poisson, and finite
age-regime mixtures of those) keeps the generating function, its mean, and the
growth constants exact: every bound downstream is driven by

* ``c1``   the supremum of the death-rate field (the dominating hazard),
* ``c0``   the supremum of ``alpha(x) * (mean(x) - 1)`` (mean growth exponent),
* ``beta`` the supremum of ``alpha(x) * mean(x)`` (event-intensity exponent),

and these must not carry hidden numerical error.

Immigration mechanisms carry both an analytic face (for the Laplace functional
``psi`` and the log-moment ergodicity criterion) and a generative face (group
sampling); the test suite cross-validates the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

from .measures import AgeMeasure, ScalarField, index_ranges, json_number, json_numbers

__all__ = [
    "OffspringPmf",
    "OffspringLaw",
    "BranchingModel",
    "GroupSizeLaw",
    "ImmigrationMechanism",
]

_NORMALIZATION_TOL = 1e-12
_PSI_TOL = 1e-12  # absolute accuracy of psi where a group-size series is truncated
_INT64_MAX = 2**63 - 1  # counts and sizes are sampled and summed as int64


def _sorted_table(pmf: dict[int, float]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """A finite law's values in ascending order, and their probabilities as floats."""
    items = sorted(pmf.items())
    return tuple(k for k, _ in items), tuple(float(p) for _, p in items)


def _check_table(what: str, law: str, values: tuple, probs: tuple, least: int, tail: float = 0.0) -> None:
    """Refuse a table that is no law, on which sampling and the generating functions would disagree."""
    if len(values) != len(probs) or not values:
        raise ValueError(f"{law} table needs matching, nonempty values and probabilities")
    bad = [k for k in values if not (least <= k <= _INT64_MAX and k == int(k))]  # NaN and inf fail the range
    if bad:
        raise ValueError(f"{what} must be integers >= {least} and < 2**63, got {bad[0]!r}")
    if not all(p >= 0 for p in probs):  # NaN fails every comparison
        raise ValueError(f"{law} probabilities must be >= 0")
    total = sum(probs) + tail
    if not abs(total - 1.0) <= _NORMALIZATION_TOL:
        raise ValueError(f"{law} table{' plus undeclared tail' if tail else ''} sums to {total!r}, not 1")


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse CDF: each u's first index whose running sum exceeds it, clamped in place to the last."""
    idx = cum.searchsorted(u, side="right")
    return np.minimum(idx, len(cum) - 1, out=idx)


@dataclass(frozen=True)
class OffspringPmf:
    """A single offspring distribution over counts in one age regime."""

    kind: str  # "pmf" | "geometric" | "poisson"
    counts: tuple[int, ...] = ()
    probs: tuple[float, ...] = ()
    param: float = 0.0  # geometric: q in [0,1); poisson: mu >= 0

    def __post_init__(self) -> None:
        if self.kind == "pmf":
            _check_table("offspring counts", "offspring", self.counts, self.probs, 0)
        elif self.kind == "geometric":
            if not (0.0 <= self.param < 1.0):
                raise ValueError("geometric parameter q must lie in [0, 1)")
        elif self.kind == "poisson":
            if not 0.0 <= self.param < math.inf:  # an infinite mean has no slope at 1
                raise ValueError("poisson mean must be finite and >= 0")
        else:
            raise ValueError(f"unknown offspring pmf kind {self.kind!r}")

    @classmethod
    def table(cls, pmf: dict[int, float]) -> "OffspringPmf":
        return cls("pmf", *_sorted_table(pmf))

    @classmethod
    def geometric(cls, q: float) -> "OffspringPmf":
        return cls("geometric", param=float(q))

    @classmethod
    def poisson(cls, mu: float) -> "OffspringPmf":
        return cls("poisson", param=float(mu))

    def pgf_slope(self) -> Callable[[float], tuple[float, float]]:
        """``z -> (g(z), g'(z))`` in closed form, unchecked: the law's one generating function.

        ``g`` and ``mean`` read it, and the boundary solve's Newton steps and
        sources call it on arguments clipped to [0, 1] already.  A pmf sums
        ``p z**k`` and ``k p z**(k-1)`` in one pass over its terms.
        """
        if self.kind == "pmf":
            terms = tuple((k, p, k * p) for k, p in zip(self.counts, self.probs))

            def pmf_pgf_slope(z: float) -> tuple[float, float]:
                value = slope = 0.0
                for k, p, kp in terms:
                    if k:
                        value += p * z**k
                        slope += kp * z ** (k - 1)
                    else:  # p z**0 is p, bit for bit
                        value += p
                return value, slope

            return pmf_pgf_slope
        if self.kind == "geometric":
            q = self.param

            def geometric_pgf_slope(z: float) -> tuple[float, float]:
                value = (1.0 - q) / (1.0 - q * z)
                return value, value * q / (1.0 - q * z)

            return geometric_pgf_slope
        mu = self.param

        def poisson_pgf_slope(z: float) -> tuple[float, float]:
            value = math.exp(mu * (z - 1.0))
            return value, mu * value

        return poisson_pgf_slope

    def g(self, z: float) -> float:
        """Probability generating function at z in [0, 1]: ``pgf_slope``'s value."""
        if not (0.0 <= z <= 1.0):
            raise ValueError(f"generating function argument must lie in [0, 1], got {z!r}")
        return self.pgf_slope()(z)[0]

    @property
    def mean(self) -> float:
        """Mean offspring number: ``pgf_slope``'s slope at 1."""
        return self.pgf_slope()(1.0)[1]

    @cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cumsum(self.probs), np.asarray(self.counts, dtype=np.int64)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """An array of ``n`` counts, read from the stream as ``n`` draws of one."""
        if self.kind == "pmf":
            cum, counts = self._inverse_cdf
            return counts[_pick(cum, rng.random(n))]
        if self.kind == "poisson":
            return rng.poisson(self.param, n)
        if self.param == 0.0:  # geometric with q = 0 never branches and draws nothing
            return np.zeros(n, dtype=np.int64)
        # numpy's geometric counts trials to first success (support >= 1)
        return rng.geometric(1.0 - self.param, n) - 1


@dataclass(frozen=True)
class OffspringLaw:
    """Age-dependent offspring law: finitely many age regimes, one pmf each.

    ``thresholds`` splits [0, inf) into ``len(regimes)`` intervals; ages below
    ``thresholds[0]`` use ``regimes[0]`` and so on.  A single regime gives an
    age-independent law.
    """

    regimes: tuple[OffspringPmf, ...]
    thresholds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.regimes:
            raise ValueError("need at least one offspring regime")
        if len(self.thresholds) != len(self.regimes) - 1:
            raise ValueError("need exactly one threshold between consecutive regimes")
        if bad := [t for t in self.thresholds if not 0 < t < math.inf]:  # NaN too
            raise ValueError(f"regime thresholds must be > 0 and finite, got {bad[0]!r}")
        if any(self.thresholds[i] >= self.thresholds[i + 1] for i in range(len(self.thresholds) - 1)):
            raise ValueError("regime thresholds must be strictly increasing")

    @classmethod
    def table(cls, pmf: dict[int, float]) -> "OffspringLaw":
        return cls((OffspringPmf.table(pmf),))

    @classmethod
    def geometric(cls, q: float) -> "OffspringLaw":
        return cls((OffspringPmf.geometric(q),))

    @classmethod
    def poisson(cls, mu: float) -> "OffspringLaw":
        return cls((OffspringPmf.poisson(mu),))

    @cached_property
    def _thresholds(self) -> np.ndarray:
        return np.asarray(self.thresholds, dtype=np.float64)

    def regime_indices(self, xs: np.ndarray) -> np.ndarray:
        return self._thresholds.searchsorted(xs, side="right")

    def g_by_regime(self, z: float) -> np.ndarray:
        return np.array([r.g(z) for r in self.regimes])

    def mean_by_regime(self) -> np.ndarray:
        return np.array([r.mean for r in self.regimes])

    @property
    def sup_mean(self) -> float:
        return max(r.mean for r in self.regimes)

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One offspring count for each age in the array ``x``.

        One vector draw per regime, in regime order, so an array of one age
        reads the stream as one draw of its regime.
        """
        if len(self.regimes) == 1:
            return self.regimes[0].sample(rng, len(x))
        ridx = self.regime_indices(x)
        out = np.empty(len(ridx), dtype=np.int64)
        for r, pmf in enumerate(self.regimes):
            sel = ridx == r
            if sel.any():
                out[sel] = pmf.sample(rng, int(np.count_nonzero(sel)))
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "OffspringLaw":
        def one(e: dict) -> OffspringPmf:
            kind = e.get("kind")
            if kind == "pmf":
                return OffspringPmf.table(_json_pmf(e["pmf"]))
            if kind == "geometric":
                return OffspringPmf.geometric(json_number(e["q"], "q"))
            if kind == "poisson":
                return OffspringPmf.poisson(json_number(e["mean"], "mean"))
            raise ValueError(f"offspring descriptor has unknown kind {kind!r}")

        if d.get("kind") == "regimes":
            return cls(tuple(one(e) for e in d["regimes"]), tuple(json_numbers(d["thresholds"], "thresholds")))
        return cls((one(d),))


def _json_pmf(d: dict) -> dict[int, float]:
    """A JSON object from integer keys to finite probabilities.

    JSON keys are strings; each must be an integer in canonical form ("2",
    not "02", "+2", " 2" or "2.0"), so no two keys name one value.
    """
    for k in d:
        if not (k.removeprefix("-").isdecimal() and str(int(k)) == k):
            raise ValueError(f"pmf key {k!r} is not an integer in canonical form")
    return {int(k): json_number(p, "pmf") for k, p in d.items()}


@dataclass(frozen=True)
class BranchingModel:
    """Death-rate field plus age-dependent offspring law."""

    alpha: ScalarField
    offspring: OffspringLaw

    def __post_init__(self) -> None:
        if self.alpha.inf <= 0.0:
            raise ValueError("death rate must be bounded away from zero")
        if not math.isfinite(self.alpha.sup):
            raise ValueError("death rate must be bounded")
        if not math.isfinite(self.offspring.sup_mean):
            raise ValueError("offspring mean must be bounded in age")

    def constants(self) -> tuple[float, float, float]:
        """Exact (c0, c1, beta) via per-regime interval suprema of alpha.

        Within one offspring regime the mean is constant, so the supremum of
        ``alpha * (mean - 1)`` over that interval sits at the supremum of alpha
        when ``mean >= 1`` and at the infimum when ``mean < 1``.  Computed once
        per model: the simulator asks for c1 once per chunk of paths.
        """
        return _model_constants(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BranchingModel":
        return cls(ScalarField.from_dict(d["alpha"]), OffspringLaw.from_dict(d["offspring"]))


@lru_cache(maxsize=64)
def _model_constants(model: BranchingModel) -> tuple[float, float, float]:
    alpha, offspring = model.alpha, model.offspring
    c1 = alpha.sup
    edges = (0.0,) + offspring.thresholds
    c0 = -math.inf
    beta = 0.0
    for j, regime in enumerate(offspring.regimes):
        lo = edges[j]
        hi = offspring.thresholds[j] if j < len(offspring.thresholds) else None
        m = regime.mean
        if m >= 1.0:
            c0 = max(c0, (m - 1.0) * alpha.sup_on(lo, hi))
        else:
            c0 = max(c0, (m - 1.0) * alpha.inf_on(lo, hi))
        beta = max(beta, m * alpha.sup_on(lo, hi))
    return (c0, c1, beta)


# ---------------------------------------------------------------------------
# Group-size laws for parametric immigration mechanisms.
# ---------------------------------------------------------------------------

_SIZE_TABLE_CAP = 1 << 24  # hard cap on lazily built inverse-CDF tables


_EM_HEAD = 10  # Euler-Maclaurin: terms summed directly
# B_2j / (2j)! for j = 1..12: the Euler-Maclaurin corrections.
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate((
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730), 1))


def _zeta_em(x: float, xm1: float) -> tuple[float, float]:
    """``(zeta(x), -zeta'(x))``, x >= 1/2, by one Euler-Maclaurin pass, given x - 1 exactly.

    ``sum_{k<N} k^-x + N^(1-x)/(x-1) + N^-x/2 + sum_j B_2j/(2j)! (x)_(2j-1)
    N^(1-x-2j)``, smallest terms first, and the same terms differentiated in
    x: ``sum_{k<N} k^-x log k + N^(1-x) (log N/(x-1) + 1/(x-1)^2) + N^-x
    log N/2 + sum_j B_2j/(2j)! (x)_(2j-1) N^(1-x-2j) (log N - sum_(i<2j-1)
    1/(x+i))``.  The pole term takes x - 1 from the caller, so a reflected
    argument 1 - x near 1 keeps its relative accuracy.
    """
    N = float(_EM_HEAD)
    log_n = math.log(N)
    terms, slopes, rising, harmonic = [], [], x * N ** (-x - 1.0), 1.0 / x
    for j, c in enumerate(_EM_COEFFS, 1):
        term = c * rising
        terms.append(term)
        slopes.append(term * (log_n - harmonic))
        rising *= (x + 2 * j - 1) * (x + 2 * j) / (N * N)
        harmonic += 1.0 / (x + 2 * j - 1) + 1.0 / (x + 2 * j)
    head, pole, square = N**-x, N**-xm1, xm1 * xm1
    # a square that underflows to 0 comes only from a reflected argument, whose slope goes unread
    inverse_square = 1.0 / square if square else math.inf
    value = sum(reversed(terms)) + head / 2.0 + pole / xm1
    slope = sum(reversed(slopes)) + head * log_n / 2.0 + pole * (log_n / xm1 + inverse_square)
    for k in range(_EM_HEAD - 1, 0, -1):
        power = float(k) ** -x
        value += power
        slope += math.log(k) * power
    return value, slope


@lru_cache(maxsize=1024)
def _zeta_real(x: float) -> float:
    """Riemann zeta at real x (H. M. Edwards, Riemann's Zeta Function, 1974, 6.4).

    Euler-Maclaurin for x >= 1/2; below, the functional equation
    ``zeta(x) = 2^x pi^(x-1) sin(pi x/2) Gamma(1-x) zeta(1-x)``.  zeta(0) =
    -1/2, zeta(-2k) = 0 and the pole zeta(1) = inf are exact.  Against 120-bit mpmath over the arguments
    of ``_polylog_mu_series``: at most 2.2 ulps relative for x > -1/2 and 42.4
    ulps of the envelope ``2 (2 pi)^(x-1) Gamma(1-x) zeta(1-x)`` below.
    Cached: the series coefficients, envelopes and remainder scales share
    most of their arguments, and each is evaluated once (a float and a numpy
    float of one value give the same bits).
    """
    if x == 1.0:
        return math.inf
    if x == 0.0:
        return -0.5
    if x >= 0.5:
        return _zeta_em(x, x - 1.0)[0]
    if x / 2.0 == math.floor(x / 2.0):  # a trivial zero, x = -2k
        return 0.0
    return (2.0**x * math.pi ** (x - 1.0) * math.sin(math.pi * x / 2.0) * math.gamma(1.0 - x)
            * _zeta_em(1.0 - x, -x)[0])


# Elementwise over arrays, one libm evaluation per entry, so an entry does not
# depend on the array it sits in.  No pole of Gamma is ever passed.
_zeta = np.vectorize(_zeta_real, otypes=[np.float64])
_gamma = np.vectorize(math.gamma, otypes=[np.float64])


@lru_cache(maxsize=8)
def _log_squared_total() -> float:
    """Total weight of k -> 1/(k log^2 k), k >= 2, to near machine precision.

    Direct summation to K plus the Euler-Maclaurin tail
    ``integral + f(K)/2 - f'(K)/12`` (the remaining correction is O(K^-3)).
    """
    K = 1_000_000
    ks = np.arange(2, K, dtype=np.float64)
    head = float(np.sum(1.0 / (ks * np.log(ks) ** 2)))
    logK = math.log(K)
    f_K = 1.0 / (K * logK**2)
    fp_K = -(logK + 2.0) / (K**2 * logK**3)
    return head + 1.0 / logK + f_K / 2.0 - fp_K / 12.0


@lru_cache(maxsize=32)
def _zeta_log_moment(s: float) -> float:
    """``sum_k k^-s log k = -zeta'(s)``, s > 1, from ``_zeta_em``.

    Against 120-bit mpmath at 400 points of s from 1.001 to 25: at most 1.3
    ulps relative.  Cached: one evaluation per exponent.
    """
    return _zeta_em(s, s - 1.0)[1]


# The polylogarithm Li_s(q) = sum_k q^k k^-s, the zeta law's Laplace sum up to
# the factor zeta(s), in closed form (D. C. Wood, "The Computation of
# Polylogarithms", 1992).  At q <= e^-1 the direct series converges fast; above
# it, with mu = log q in (-1, 0),
#     Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_n zeta(s-n) mu^n / n!,
# and at integer s = m the poles of Gamma(1-s) and zeta(s-(m-1)) cancel into
# mu^(m-1) / (m-1)! (H_(m-1) - log(-mu)).
_DIRECT_EDGE = math.exp(-1.0)
_MU_TERMS = 40  # most terms of the mu series
# Rounding allowance relative to the summed term magnitudes: ``_zeta`` stays
# within 42.4 ulps of the magnitudes used (2.2 ulps relative for x > -1/2, 42.4
# ulps of the functional-equation envelope below) and ``math.gamma`` within
# 2.7, so about 50 ulps covers both; Horner's rule adds 2 ulps per term, and
# the (n + 1) weights cover the rounding of log q.
_ROUNDING = 2.0**-44
_polyval = np.polynomial.polynomial.polyval  # Horner's rule, elementwise in x


@lru_cache(maxsize=32)
def _polylog_mu_series(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients, rounding weights and remainder scales of the mu series.

    For n < _MU_TERMS: the coefficient ``zeta(s-n)/n!`` (zero for the pole term
    n = s-1 at integer s, which the singular term carries) and the weight
    ``(n+1) E_n / n!``.  E_n is |zeta(s-n)| for s-n > -1/2 and past that the
    functional-equation envelope ``2 (2 pi)^(s-n-1) Gamma(n+1-s) zeta(n+1-s)``,
    since near the trivial zeros the value is small but its error is not.
    The envelope also bounds the remainder after N > s terms by
    ``scale[N] r^N / (1 - r)``, r = |mu| / 2 pi, with
    ``scale[N] = 2 (2 pi)^(s-1) zeta(N+1-s)`` (inf where N <= s).
    """
    n = np.arange(_MU_TERMS + 1, dtype=np.float64)
    x = s - n
    fact = _gamma(n + 1.0)
    pole = x == 1.0
    zeta_x = np.where(pole, 0.0, _zeta(np.where(pole, 2.0, x)))
    xe = np.minimum(x, -0.5)
    envelope = 2.0 * (2.0 * math.pi) ** (xe - 1.0) * _gamma(1.0 - xe) * _zeta(1.0 - xe)
    mags = np.where(x > -0.5, np.abs(zeta_x), envelope)
    scale = np.full_like(n, np.inf)
    scale[n > s] = 2.0 * (2.0 * math.pi) ** (s - 1.0) * _zeta(1.0 - x[n > s])
    out = (zeta_x / fact)[:-1], ((n + 1.0) * mags / fact)[:-1], scale
    for a in out:
        a.flags.writeable = False
    return out


def _polylog_direct(s: float, q: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Li_s(q) for q <= e^-1 and its error bound, K terms sized at q = e^-1.

    The remainder after K terms is at most ``q^(K+1) / (1 - q)``; K is the
    least with that bound below ``target`` at the edge q = e^-1, so it serves
    every q of the branch and each value is independent of the others.
    """
    K = max(1, math.ceil(-math.log(target) - math.log1p(-_DIRECT_EDGE)) - 1)
    ks = np.arange(1, K + 1, dtype=np.float64)
    li = _polyval(q, np.concatenate(([0.0], ks**-s)))
    return li, q ** (K + 1) / (1.0 - q) + _ROUNDING * li


def _polylog_mu(s: float, q: np.ndarray, target: float) -> tuple[np.ndarray, np.ndarray]:
    """Li_s(q) for e^-1 < q < 1 by the mu series and its error bound.

    N is the least number of terms whose remainder bound is below ``target``
    at the edge |mu| = 1; with none up to _MU_TERMS, or where the bound with
    the rounding allowance misses the tolerance, the caller falls back.
    """
    coeffs, weights, scale = _polylog_mu_series(s)
    mu = np.log(q)
    r_edge = 1.0 / (2.0 * math.pi)
    fits = scale * r_edge ** np.arange(_MU_TERMS + 1) / (1.0 - r_edge) <= target
    if not fits.any():
        return np.zeros_like(q), np.full_like(q, np.inf)
    N = int(np.argmax(fits))
    r = -mu / (2.0 * math.pi)
    trunc = scale[N] * r**N / (1.0 - r)
    if float(s).is_integer():
        m = int(s)
        harmonic = sum(1.0 / j for j in range(1, m))
        power = mu ** (m - 1) / math.factorial(m - 1)
        log_term = np.log(-mu)
        singular = power * (harmonic - log_term)
        singular_mag = np.abs(power) * (harmonic + np.abs(log_term))
    else:
        singular = _gamma(1.0 - s) * (-mu) ** (s - 1.0)
        singular_mag = np.abs(singular)
    li = singular + _polyval(mu, coeffs[:N])
    rounding = _ROUNDING * (s * singular_mag + _polyval(-mu, weights[:N]))
    return li, trunc + rounding


def _zeta_laplace(s: float, q: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Li_s(q) / zeta(s) by the closed forms, with error bounds (inf where uncertified)."""
    total = _zeta_real(s)
    out, error = np.ones_like(q), np.where(q < 1.0, np.inf, 0.0)  # q = 1: the whole mass
    if tol > 0.0:
        direct = q <= _DIRECT_EDGE
        for part, series in ((direct, _polylog_direct), (~direct & (q < 1.0), _polylog_mu)):
            if part.any():
                li, bound = series(s, q[part], tol * total / 2.0)
                out[part], error[part] = np.clip(li / total, 0.0, 1.0), bound / total
    return out, error


@dataclass(frozen=True)
class GroupSizeLaw:
    """Distribution of immigrant group sizes (k >= 1 members).

    Kinds:
      * ``pmf``          finite support, everything exact.
      * ``zeta``         P(k) proportional to k^-s for k >= 1, s > 1.
      * ``log_squared``  P(k) proportional to 1/(k log^2 k) for k >= 2; the
                         size distribution is summable but its log-moment
                         diverges, the canonical non-ergodic tail.
      * ``declared``     finite weight table plus a caller-declared tail mass
                         with no convergence certificate; the log-moment
                         criterion reports "unknown" instead of guessing.
    """

    kind: str
    sizes: tuple[int, ...] = ()
    probs: tuple[float, ...] = ()
    exponent: float = 0.0
    undeclared_tail: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in ("pmf", "declared"):
            if not self.undeclared_tail >= 0 or (self.kind == "pmf" and self.undeclared_tail != 0):
                raise ValueError("undeclared tail mass must be >= 0, and 0 for a pmf")
            # sizes >= 1: L charges nonzero measures
            _check_table("group sizes", "size", self.sizes, self.probs, 1, self.undeclared_tail)
        elif self.kind == "zeta":
            if not 1.0 < self.exponent < math.inf:
                raise ValueError(
                    f"zeta size law needs a finite exponent > 1 for a finite measure, got {self.exponent!r}"
                )
        elif self.kind != "log_squared":
            raise ValueError(f"unknown group size law {self.kind!r}")

    @classmethod
    def table(cls, pmf: dict[int, float]) -> "GroupSizeLaw":
        return cls("pmf", *_sorted_table(pmf))

    @classmethod
    def zeta_tail(cls, exponent: float) -> "GroupSizeLaw":
        return cls("zeta", exponent=float(exponent))

    @classmethod
    def log_squared_tail(cls) -> "GroupSizeLaw":
        return cls("log_squared")

    @classmethod
    def declared(cls, pmf: dict[int, float], undeclared_tail: float) -> "GroupSizeLaw":
        return cls("declared", *_sorted_table(pmf), undeclared_tail=float(undeclared_tail))

    def _prob(self, ks: np.ndarray) -> np.ndarray:
        if self.kind == "zeta":
            return ks ** (-self.exponent) / _zeta_real(self.exponent)
        if self.kind == "log_squared":
            return 1.0 / (ks * np.log(ks) ** 2) / _log_squared_total()
        raise ValueError("tabulated laws have no weight function")

    def _tail_prob_mass(self, K: int) -> float:
        """Upper bound on P(size > K) for the infinite-support kinds."""
        if self.kind == "zeta":
            s = self.exponent
            return (K ** (1.0 - s) / (s - 1.0) + float(K) ** (-s)) / _zeta_real(s)
        if self.kind == "log_squared":
            return (1.0 / math.log(K) + 1.0 / (K * math.log(K) ** 2)) / _log_squared_total()
        raise ValueError("tabulated laws have no tail")

    @property
    def mean_size(self) -> float:
        if self.kind == "pmf":
            return float(sum(k * p for k, p in zip(self.sizes, self.probs)))
        if self.kind == "zeta":
            if self.exponent <= 2.0:
                return math.inf
            return _zeta_real(self.exponent - 1.0) / _zeta_real(self.exponent)
        if self.kind == "log_squared":
            return math.inf
        raise ValueError("declared laws do not certify a mean size")

    def log_moment(self) -> tuple[str, float | None]:
        """Status and value of the mean of log(size).

        Returns ("finite", value), ("infinite", None) or ("unknown", None).
        Certificates: zeta tails converge by comparison with the integral of
        x^-s log x (s > 1); the log-squared tail gives sum 1/(k log k), which
        diverges by the integral test.
        """
        if self.kind == "pmf":
            return ("finite", float(sum(p * math.log(k) for k, p in zip(self.sizes, self.probs))))
        if self.kind == "zeta":
            return ("finite", _zeta_log_moment(self.exponent) / _zeta_real(self.exponent))
        if self.kind == "log_squared":
            return ("infinite", None)
        return ("unknown", None)

    def laplace_sum(self, q, tol: float):
        """Sum of P(k) q^k over all sizes, within tol, for a float or an array of q.

        Returns a float for a float ``q`` and an array of the same shape
        otherwise; each entry is computed as a scalar call would compute it.

        * ``pmf`` / ``declared``: the exact finite sum; a declared tail mass
          above tol is refused.
        * ``zeta``: ``Li_s(q) / zeta(s)`` in closed form, exactly 0 at q = 0
          and 1 at q = 1.  For q <= e^-1, the direct series to K terms, with
          remainder at most ``q^(K+1) / (1 - q)``.  For e^-1 < q < 1, the
          expansion in mu = log q of Li_s(e^mu) to N terms, with remainder at
          most ``2 (2 pi)^(s-1) zeta(N+1-s) r^N / (1 - r)``, r = |mu| / 2 pi.
          Each value is used only where that bound plus a rounding allowance
          is within tol: near-integer s, where the Gamma(1-s) term and
          zeta(s-n) nearly cancel, and very large s fall back to the walk.
          zeta and Gamma are the package's own ``_zeta`` (Euler-Maclaurin and
          the functional equation, within 42.4 ulps of the magnitudes the
          allowance uses) and ``math.gamma`` (within 2.7 ulps).
        * ``log_squared`` (and the zeta fallback): a walk over chunks of
          sizes, once per distinct q, whose truncation remainder is bounded
          by min(q^(K+1), P(size > K)); if neither bound reaches tol within
          the table cap the computation refuses rather than returning an
          uncertified value.
        """
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        if not np.all((qs >= 0.0) & (qs <= 1.0)):
            raise ValueError("q must lie in [0, 1]")
        if self.kind in ("pmf", "declared"):
            if self.kind == "declared" and self.undeclared_tail > tol:
                raise ValueError(
                    f"declared tail mass {self.undeclared_tail} exceeds tolerance {tol}; "
                    "cannot certify the group Laplace transform"
                )
            out = sum(p * qs**k for k, p in zip(self.sizes, self.probs))
        else:
            if self.kind == "zeta":
                out, error = _zeta_laplace(self.exponent, qs, tol)
            else:
                out, error = np.empty_like(qs), np.full_like(qs, np.inf)
            uncertified = ~(error <= tol)
            if uncertified.any():
                for qv in np.unique(qs[uncertified]):
                    out[qs == qv] = self._series_walk(float(qv), tol)
        return float(out[0]) if np.ndim(q) == 0 else out

    def _chunks(self):
        """``(ks, probs)`` blocks of consecutive sizes up to the table cap, 4096 sizes doubling to 2^20.

        Built afresh on every walk: the whole table reaches 2^24 entries.
        """
        lo, chunk = (2 if self.kind == "log_squared" else 1), 4096
        while lo <= _SIZE_TABLE_CAP:
            ks = np.arange(lo, min(lo + chunk, _SIZE_TABLE_CAP + 1), dtype=np.float64)
            yield ks, self._prob(ks)
            lo += len(ks)
            chunk = min(chunk * 2, 1 << 20)

    def _series_walk(self, q: float, tol: float) -> float:
        if q == 0.0:
            return 0.0
        total = 0.0
        for ks, probs in self._chunks():
            total += float(np.sum(probs * q**ks))
            hi = int(ks[-1])
            if min(q ** (hi + 1) if q < 1.0 else 1.0, self._tail_prob_mass(hi)) < tol:
                return total
        raise ValueError(
            f"group-size series truncation cannot reach tolerance {tol} within "
            f"{_SIZE_TABLE_CAP} terms (q={q})"
        )

    @cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        return np.cumsum(self.probs), np.asarray(self.sizes, dtype=np.int64)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """An array of ``n`` sizes, read from the stream as ``n`` draws of one.

        Inverse CDF of one uniform per size; the infinite-support kinds walk
        the chunks of sizes once for all the uniforms.
        """
        if self.kind == "pmf" or self.kind == "declared":
            if self.kind == "declared" and self.undeclared_tail > 0:
                raise ValueError("declared law with undeclared tail mass cannot be sampled")
            cum, sizes = self._inverse_cdf
            return sizes[_pick(cum, rng.random(n))]
        u = rng.random(n)
        out = np.empty(n, dtype=np.int64)
        left = np.arange(n)  # the draws not yet placed in a chunk
        acc = 0.0
        for ks, probs in self._chunks():
            cum = acc + np.cumsum(probs)
            idx = cum.searchsorted(u[left], side="right")
            hit = idx < len(ks)
            out[left[hit]] = ks[idx[hit]]
            left = left[~hit]
            if not len(left):
                return out
            acc = float(cum[-1])
        raise RuntimeError(
            f"group-size draw exceeded the supported range ({_SIZE_TABLE_CAP}); "
            "this tail is too heavy to realize the group"
        )

    @classmethod
    def from_dict(cls, d: dict) -> "GroupSizeLaw":
        kind = d.get("kind")
        if kind == "pmf":
            return cls.table(_json_pmf(d["pmf"]))
        if kind == "zeta":
            return cls.zeta_tail(json_number(d["exponent"], "exponent"))
        if kind == "log_squared":
            return cls.log_squared_tail()
        if kind == "declared":
            return cls.declared(
                _json_pmf(d["pmf"]), json_number(d.get("undeclared_tail", 0.0), "undeclared_tail")
            )
        raise ValueError(f"size law descriptor has unknown kind {kind!r}")


@dataclass(frozen=True)
class ImmigrationMechanism:
    """A finite measure on nonempty populations driving Poisson group arrivals.

    Two shapes:

    * finite support: explicit (weight, group) pairs; all analytic
      functionals are exact finite sums.
    * parametric: total arrival rate, a group-size law, and an i.i.d. age
      distribution for members supported on finitely many age atoms, keeping
      the group Laplace transform exact (a power of the single-member one).
    """

    kind: str  # "finite" | "parametric"
    total_rate: float
    groups: tuple[tuple[float, AgeMeasure], ...] = ()
    size_law: GroupSizeLaw | None = None
    age_atoms: tuple[tuple[float, float], ...] = ()  # (age, prob)

    def __post_init__(self) -> None:
        if self.total_rate < 0 or not math.isfinite(self.total_rate):
            raise ValueError("total immigration rate must be finite and >= 0")
        if self.kind == "finite":
            if self.total_rate > 0 and not self.groups:
                raise ValueError("finite mechanism with positive rate needs groups")
            for w, g in self.groups:
                if w <= 0:
                    raise ValueError("group weights must be > 0")
                if g.total_mass == 0:
                    raise ValueError("immigrant groups must be nonempty")
            if self.groups and abs(sum(w for w, _ in self.groups) - self.total_rate) > _NORMALIZATION_TOL * max(
                1.0, self.total_rate
            ):
                raise ValueError("group weights must sum to the total rate")
        elif self.kind == "parametric":
            if self.total_rate > 0:
                if self.size_law is None or not self.age_atoms:
                    raise ValueError("parametric mechanism needs a size law and age atoms")
                if bad := [a for a, _ in self.age_atoms if not 0 <= a < math.inf]:  # NaN too
                    raise ValueError(f"age atoms must be >= 0 and finite, got {bad[0]!r}")
                if not all(p >= 0 for _, p in self.age_atoms):
                    raise ValueError("age atom probabilities must be >= 0")
                if not abs(sum(p for _, p in self.age_atoms) - 1.0) <= _NORMALIZATION_TOL:
                    raise ValueError("age atom probabilities must sum to 1")
        else:
            raise ValueError(f"unknown immigration kind {self.kind!r}")

    @classmethod
    def finite_support(cls, groups: Iterable[tuple[float, AgeMeasure]]) -> "ImmigrationMechanism":
        gs = tuple((float(w), g) for w, g in groups)
        return cls("finite", sum(w for w, _ in gs), groups=gs)

    @classmethod
    def single_arrivals(cls, rate: float) -> "ImmigrationMechanism":
        """Rate-lambda arrivals of single newborn immigrants (age 0)."""
        if rate == 0.0:
            return cls.none()
        return cls.finite_support([(rate, AgeMeasure.point(0.0))])

    @classmethod
    def parametric(
        cls,
        total_rate: float,
        size_law: GroupSizeLaw,
        age_atoms: Iterable[tuple[float, float]] = ((0.0, 1.0),),
    ) -> "ImmigrationMechanism":
        return cls("parametric", float(total_rate), size_law=size_law, age_atoms=tuple(age_atoms))

    @classmethod
    def none(cls) -> "ImmigrationMechanism":
        """The zero-rate mechanism (L = 0, psi = 0): a process without immigration."""
        return cls("finite", 0.0)

    # -- analytic face ------------------------------------------------------

    def atom_ages(self) -> tuple[float, ...]:
        """Distinct ages at which incoming groups place members."""
        if self.kind == "finite":
            ages: set[float] = set()
            for _, g in self.groups:
                ages.update(g.ages)
            return tuple(sorted(ages))
        return tuple(sorted({a for a, _ in self.age_atoms}))

    def psi_from_exponents(self, exponents: dict):
        """The arrival-compensation functional given a field's values at atom ages.

        ``psi(h) = integral of (1 - exp(-<nu, h>)) dL(nu)``; ``exponents`` maps
        each atom age to h(age), a float or an array (one entry per grid node,
        say).  Returns a float for floats and an array of the broadcast shape
        otherwise, each entry as a scalar call would compute it.  Lies in
        [0, total_rate], within ``_PSI_TOL`` where a group series is truncated.
        """
        scalar = all(np.ndim(e) == 0 for e in exponents.values())
        e = {a: np.atleast_1d(np.asarray(v, dtype=np.float64)) for a, v in exponents.items()}
        if self.total_rate == 0.0:
            out = np.zeros(np.broadcast_shapes((1,), *(v.shape for v in e.values())))
        elif self.kind == "finite":
            out = 0.0
            for w, g in self.groups:
                out = out + w * -np.expm1(-sum(e[a] for a in g.ages))
        else:
            q = np.clip(sum(p * np.exp(-e[a]) for a, p in self.age_atoms), 0.0, 1.0)
            assert self.size_law is not None
            s = self.size_law.laplace_sum(q, _PSI_TOL / max(self.total_rate, 1.0))
            out = self.total_rate * (1.0 - s)
        return float(out[0]) if scalar else out

    def psi(self, h) -> float:
        """psi evaluated against a callable or ScalarField h, within ``_PSI_TOL``."""
        return self.psi_from_exponents({a: float(h(a)) for a in self.atom_ages()})

    def first_moment_from_values(self, values: dict):
        """``integral of <nu, f> dL(nu)`` given f's values at atom ages.

        The twin of ``psi_from_exponents``, with the same float or array
        ``values`` and result; every entry is +inf for an infinite mean group size.
        """
        scalar = all(np.ndim(v) == 0 for v in values.values())
        out = np.zeros(np.broadcast_shapes((1,), *(np.shape(v) for v in values.values())))
        if self.kind == "finite":
            for w, g in self.groups:
                for a in g.ages:
                    out += w * values[a]
        elif self.total_rate > 0.0:
            assert self.size_law is not None
            mean_size = self.size_law.mean_size
            if math.isinf(mean_size):
                out[...] = math.inf
            else:
                for a, p in self.age_atoms:
                    out += self.total_rate * mean_size * p * values[a]
        return float(out[0]) if scalar else out

    def first_moment_of(self, f) -> float:
        """integral of <nu, f> dL(nu); may be +inf for heavy size tails."""
        return self.first_moment_from_values({a: float(f(a)) for a in self.atom_ages()})

    def log_moment_criterion(self) -> tuple[str, float | None]:
        """Finiteness of the group-size log moment, the ergodicity criterion.

        Returns ("finite", value), ("infinite", None) or ("unknown", None);
        "unknown" is an explicit outcome for uncertified tails, never a guess.
        """
        if self.total_rate == 0.0:
            return ("finite", 0.0)
        if self.kind == "finite":
            return (
                "finite",
                float(sum(w * math.log(g.total_mass) for w, g in self.groups)),
            )
        assert self.size_law is not None
        status, value = self.size_law.log_moment()
        if status == "finite":
            assert value is not None
            return ("finite", self.total_rate * value)
        return (status, None)

    # -- generative face ----------------------------------------------------

    @cached_property
    def _finite_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cumulative group weights, group sizes, first member of each group, all members' ages."""
        sizes = np.array([g.total_mass for _, g in self.groups], dtype=np.int64)
        members = np.array([a for _, g in self.groups for a in g.ages], dtype=np.float64)
        return np.cumsum([w for w, _ in self.groups]), sizes, np.cumsum(sizes) - sizes, members

    def sample_groups(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n`` nonempty groups from the normalized mechanism, as ``n`` one-group draws would.

        Returns the group sizes and their members' ages, each group's
        ascending, group after group.  A finite mechanism picks each group by
        one uniform against the running sum of the weights; a parametric one
        draws the sizes in one call when its members share one age, and else
        draws group by group, the size and then the members' ages.
        """
        if self.total_rate <= 0.0:
            raise ValueError("cannot sample a group from a zero-rate mechanism")
        if self.kind == "finite":
            cum, sizes, firsts, members = self._finite_table
            idx = _pick(cum, rng.random(n) * self.total_rate)
            return sizes[idx], members[index_ranges(firsts[idx], sizes[idx])]
        assert self.size_law is not None
        ages = np.array([a for a, _ in self.age_atoms], dtype=np.float64)
        if len(ages) == 1:
            sizes = self.size_law.sample(rng, n)
            return sizes, np.full(int(sizes.sum()), ages[0])
        probs = np.array([p for _, p in self.age_atoms])
        sizes, groups = np.empty(n, dtype=np.int64), []
        for i in range(n):
            sizes[i] = self.size_law.sample(rng, 1)[0]
            groups.append(np.sort(ages[rng.choice(len(ages), size=sizes[i], p=probs)]))
        return sizes, np.concatenate(groups) if groups else np.empty(0)

    @classmethod
    def from_dict(cls, d: dict | None) -> "ImmigrationMechanism":
        """The mechanism a descriptor names; ``None`` (JSON null) is ``none()``."""
        if d is None:
            return cls.none()
        kind = d.get("kind")
        if kind == "finite":
            return cls.finite_support(
                [(json_number(g["rate"], "rate"), AgeMeasure.from_ages(json_numbers(g["ages"], "ages")))
                 for g in d["groups"]]
            )
        if kind == "parametric":
            return cls.parametric(
                json_number(d["total_rate"], "total_rate"),
                GroupSizeLaw.from_dict(d["sizes"]),
                [(json_number(e["age"], "age"), json_number(e["prob"], "prob")) for e in d["ages"]],
            )
        raise ValueError(f"immigration descriptor has unknown kind {kind!r}")
