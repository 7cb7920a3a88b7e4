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

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np
from scipy.special import gamma as _gamma, zeta as _zeta

from .measures import AgeMeasure, ScalarField

__all__ = [
    "OffspringPmf",
    "OffspringLaw",
    "BranchingModel",
    "GroupSizeLaw",
    "ImmigrationMechanism",
]

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class OffspringPmf:
    """A single offspring distribution over counts in one age regime."""

    kind: str  # "pmf" | "geometric" | "poisson"
    counts: tuple[int, ...] = ()
    probs: tuple[float, ...] = ()
    param: float = 0.0  # geometric: q in [0,1); poisson: mu >= 0

    def __post_init__(self) -> None:
        if self.kind == "pmf":
            if len(self.counts) != len(self.probs) or not self.counts:
                raise ValueError("pmf needs matching, nonempty counts/probs")
            if any(k < 0 or k != int(k) for k in self.counts):
                raise ValueError("offspring counts must be nonnegative integers")
            if any(p < 0 for p in self.probs):
                raise ValueError("probabilities must be >= 0")
            if abs(sum(self.probs) - 1.0) > _NORMALIZATION_TOL:
                raise ValueError(f"pmf sums to {sum(self.probs)!r}, not 1")
        elif self.kind == "geometric":
            if not (0.0 <= self.param < 1.0):
                raise ValueError("geometric parameter q must lie in [0, 1)")
        elif self.kind == "poisson":
            if self.param < 0:
                raise ValueError("poisson mean must be >= 0")
        else:
            raise ValueError(f"unknown offspring pmf kind {self.kind!r}")

    @classmethod
    def table(cls, pmf: dict[int, float]) -> "OffspringPmf":
        items = sorted(pmf.items())
        return cls("pmf", tuple(k for k, _ in items), tuple(float(p) for _, p in items))

    @classmethod
    def geometric(cls, q: float) -> "OffspringPmf":
        return cls("geometric", param=float(q))

    @classmethod
    def poisson(cls, mu: float) -> "OffspringPmf":
        return cls("poisson", param=float(mu))

    def g(self, z: float) -> float:
        """Probability generating function at z in [0, 1]."""
        if not (0.0 <= z <= 1.0):
            raise ValueError(f"generating function argument must lie in [0, 1], got {z!r}")
        if self.kind == "pmf":
            return float(sum(p * z**k for k, p in zip(self.counts, self.probs)))
        if self.kind == "geometric":
            q = self.param
            return (1.0 - q) / (1.0 - q * z)
        return math.exp(self.param * (z - 1.0))

    @property
    def mean(self) -> float:
        if self.kind == "pmf":
            return float(sum(k * p for k, p in zip(self.counts, self.probs)))
        if self.kind == "geometric":
            q = self.param
            return q / (1.0 - q)
        return self.param

    @property
    def second_moment(self) -> float:
        if self.kind == "pmf":
            return float(sum(k * k * p for k, p in zip(self.counts, self.probs)))
        if self.kind == "geometric":
            q = self.param
            return q * (1.0 + q) / (1.0 - q) ** 2
        return self.param + self.param**2

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "pmf":
            u = rng.random()
            acc = 0.0
            for k, p in zip(self.counts, self.probs):
                acc += p
                if u < acc:
                    return k
            return self.counts[-1]
        if self.kind == "geometric":
            if self.param == 0.0:
                return 0
            # numpy's geometric counts trials to first success (support >= 1)
            return int(rng.geometric(1.0 - self.param)) - 1
        return int(rng.poisson(self.param))


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
        if any(t <= 0 for t in self.thresholds):
            raise ValueError("regime thresholds must be > 0")
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

    def regime_index(self, x: float) -> int:
        return bisect.bisect_right(self.thresholds, x)

    def regime_indices(self, xs: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.thresholds), xs, side="right")

    def g(self, x: float, z: float) -> float:
        return self.regimes[self.regime_index(x)].g(z)

    def g_by_regime(self, z: float) -> np.ndarray:
        return np.array([r.g(z) for r in self.regimes])

    def mean(self, x: float) -> float:
        return self.regimes[self.regime_index(x)].mean

    def mean_by_regime(self) -> np.ndarray:
        return np.array([r.mean for r in self.regimes])

    def second_moment_by_regime(self) -> np.ndarray:
        return np.array([r.second_moment for r in self.regimes])

    def second_moment(self, x: float) -> float:
        return self.regimes[self.regime_index(x)].second_moment

    @property
    def sup_mean(self) -> float:
        return max(r.mean for r in self.regimes)

    def sample(self, x: float, rng: np.random.Generator) -> int:
        return self.regimes[self.regime_index(x)].sample(rng)

    def to_dict(self) -> dict:
        def one(r: OffspringPmf) -> dict:
            if r.kind == "pmf":
                return {"kind": "pmf", "pmf": {str(k): p for k, p in zip(r.counts, r.probs)}}
            if r.kind == "geometric":
                return {"kind": "geometric", "q": r.param}
            return {"kind": "poisson", "mean": r.param}

        if len(self.regimes) == 1:
            return one(self.regimes[0])
        return {
            "kind": "regimes",
            "thresholds": list(self.thresholds),
            "regimes": [one(r) for r in self.regimes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OffspringLaw":
        def one(e: dict) -> OffspringPmf:
            kind = e.get("kind")
            if kind == "pmf":
                return OffspringPmf.table({int(k): float(p) for k, p in e["pmf"].items()})
            if kind == "geometric":
                return OffspringPmf.geometric(e["q"])
            if kind == "poisson":
                return OffspringPmf.poisson(e["mean"])
            raise ValueError(f"offspring descriptor has unknown kind {kind!r}")

        if d.get("kind") == "regimes":
            return cls(tuple(one(e) for e in d["regimes"]), tuple(float(t) for t in d["thresholds"]))
        return cls((one(d),))


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
        per model: the simulator asks for c1 on every path.
        """
        return _model_constants(self)

    def to_dict(self) -> dict:
        return {"alpha": self.alpha.to_dict(), "offspring": self.offspring.to_dict()}

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


@lru_cache(maxsize=32)
def _zeta_total(s: float) -> float:
    return float(_zeta(s))


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
    """Sum of k^-s log k over k >= 1 with an Euler-Maclaurin tail correction."""
    K = 200_000
    ks = np.arange(1, K, dtype=np.float64)
    head = float(np.sum(np.log(ks) / ks**s))
    logK = math.log(K)
    # integral_K^inf x^-s log x dx for s > 1
    tail_int = K ** (1.0 - s) * (logK / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    f_K = logK / K**s
    fp_K = (1.0 - s * logK) / K ** (s + 1.0)
    return head + tail_int + f_K / 2.0 - fp_K / 12.0


# The polylogarithm Li_s(q) = sum_k q^k k^-s, the zeta law's Laplace sum up to
# the factor zeta(s), in closed form (D. C. Wood, "The Computation of
# Polylogarithms", 1992).  At q <= e^-1 the direct series converges fast; above
# it, with mu = log q in (-1, 0),
#     Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_n zeta(s-n) mu^n / n!,
# and at integer s = m the poles of Gamma(1-s) and zeta(s-(m-1)) cancel into
# mu^(m-1) / (m-1)! (H_(m-1) - log(-mu)).
_DIRECT_EDGE = math.exp(-1.0)
_MU_TERMS = 40  # most terms of the mu series
# Rounding allowance relative to the summed term magnitudes: scipy's zeta and
# gamma stay within about 50 ulps of the magnitudes used, Horner's rule adds 2
# ulps per term, and the (n + 1) weights cover the rounding of log q.
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
    total = _zeta_total(s)
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
        if self.kind == "pmf":
            if len(self.sizes) != len(self.probs) or not self.sizes:
                raise ValueError("pmf needs matching, nonempty sizes/probs")
            if any(k < 1 or k != int(k) for k in self.sizes):
                raise ValueError("group sizes must be integers >= 1 (L charges nonzero measures)")
            if abs(sum(self.probs) - 1.0) > _NORMALIZATION_TOL:
                raise ValueError("size pmf must sum to 1")
        elif self.kind == "zeta":
            if self.exponent <= 1.0:
                raise ValueError("zeta size law needs exponent > 1 for a finite measure")
        elif self.kind == "log_squared":
            pass
        elif self.kind == "declared":
            if len(self.sizes) != len(self.probs) or not self.sizes:
                raise ValueError("declared law needs a nonempty weight table")
            if self.undeclared_tail < 0:
                raise ValueError("undeclared tail mass must be >= 0")
            if abs(sum(self.probs) + self.undeclared_tail - 1.0) > _NORMALIZATION_TOL:
                raise ValueError("declared table plus tail must sum to 1")
        else:
            raise ValueError(f"unknown group size law {self.kind!r}")

    @classmethod
    def table(cls, pmf: dict[int, float]) -> "GroupSizeLaw":
        items = sorted(pmf.items())
        return cls("pmf", tuple(k for k, _ in items), tuple(float(p) for _, p in items))

    @classmethod
    def zeta_tail(cls, exponent: float) -> "GroupSizeLaw":
        return cls("zeta", exponent=float(exponent))

    @classmethod
    def log_squared_tail(cls) -> "GroupSizeLaw":
        return cls("log_squared")

    @classmethod
    def declared(cls, pmf: dict[int, float], undeclared_tail: float) -> "GroupSizeLaw":
        items = sorted(pmf.items())
        return cls(
            "declared",
            tuple(k for k, _ in items),
            tuple(float(p) for _, p in items),
            undeclared_tail=float(undeclared_tail),
        )

    def _prob(self, ks: np.ndarray) -> np.ndarray:
        if self.kind == "zeta":
            return ks ** (-self.exponent) / _zeta_total(self.exponent)
        if self.kind == "log_squared":
            return 1.0 / (ks * np.log(ks) ** 2) / _log_squared_total()
        raise ValueError("tabulated laws have no weight function")

    def _first_size(self) -> int:
        return 2 if self.kind == "log_squared" else 1

    def _tail_prob_mass(self, K: int) -> float:
        """Upper bound on P(size > K) for the infinite-support kinds."""
        if self.kind == "zeta":
            s = self.exponent
            return (K ** (1.0 - s) / (s - 1.0) + float(K) ** (-s)) / _zeta_total(s)
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
            return _zeta_total(self.exponent - 1.0) / _zeta_total(self.exponent)
        if self.kind == "log_squared":
            return math.inf
        raise ValueError("declared laws do not certify a mean size")

    @property
    def second_moment_size(self) -> float:
        if self.kind == "pmf":
            return float(sum(k * k * p for k, p in zip(self.sizes, self.probs)))
        if self.kind == "zeta":
            if self.exponent <= 3.0:
                return math.inf
            return _zeta_total(self.exponent - 2.0) / _zeta_total(self.exponent)
        if self.kind == "log_squared":
            return math.inf
        raise ValueError("declared laws do not certify a second moment")

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
            return ("finite", _zeta_log_moment(self.exponent) / _zeta_total(self.exponent))
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
            for qv in np.unique(qs[~(error <= tol)]):
                out[qs == qv] = self._series_walk(float(qv), tol)
        return float(out[0]) if np.ndim(q) == 0 else out

    def _series_walk(self, q: float, tol: float) -> float:
        if q == 0.0:
            return 0.0
        total = 0.0
        lo = self._first_size()
        chunk = 4096
        while lo <= _SIZE_TABLE_CAP:
            hi = min(lo + chunk - 1, _SIZE_TABLE_CAP)
            ks = np.arange(lo, hi + 1, dtype=np.float64)
            total += float(np.sum(self._prob(ks) * q**ks))
            remainder = min(q ** (hi + 1) if q < 1.0 else 1.0, self._tail_prob_mass(hi))
            if remainder < tol:
                return total
            lo = hi + 1
            chunk = min(chunk * 2, 1 << 20)
        raise ValueError(
            f"group-size series truncation cannot reach tolerance {tol} within "
            f"{_SIZE_TABLE_CAP} terms (q={q})"
        )

    def sample(self, rng: np.random.Generator) -> int:
        if self.kind == "pmf" or self.kind == "declared":
            if self.kind == "declared" and self.undeclared_tail > 0:
                raise ValueError("declared law with undeclared tail mass cannot be sampled")
            u = rng.random()
            acc = 0.0
            for k, p in zip(self.sizes, self.probs):
                acc += p
                if u < acc:
                    return k
            return self.sizes[-1]
        u = rng.random()
        acc = 0.0
        lo = self._first_size()
        chunk = 4096
        while lo <= _SIZE_TABLE_CAP:
            hi = min(lo + chunk - 1, _SIZE_TABLE_CAP)
            ks = np.arange(lo, hi + 1, dtype=np.float64)
            cum = acc + np.cumsum(self._prob(ks))
            idx = int(np.searchsorted(cum, u, side="right"))
            if idx < len(ks):
                return int(lo + idx)
            acc = float(cum[-1])
            lo = hi + 1
            chunk = min(chunk * 2, 1 << 20)
        raise RuntimeError(
            f"group-size draw exceeded the supported range ({_SIZE_TABLE_CAP}); "
            "this tail is too heavy to realize the group"
        )

    def to_dict(self) -> dict:
        if self.kind == "pmf":
            return {"kind": "pmf", "pmf": {str(k): p for k, p in zip(self.sizes, self.probs)}}
        if self.kind == "zeta":
            return {"kind": "zeta", "exponent": self.exponent}
        if self.kind == "log_squared":
            return {"kind": "log_squared"}
        return {
            "kind": "declared",
            "pmf": {str(k): p for k, p in zip(self.sizes, self.probs)},
            "undeclared_tail": self.undeclared_tail,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GroupSizeLaw":
        kind = d.get("kind")
        if kind == "pmf":
            return cls.table({int(k): float(p) for k, p in d["pmf"].items()})
        if kind == "zeta":
            return cls.zeta_tail(d["exponent"])
        if kind == "log_squared":
            return cls.log_squared_tail()
        if kind == "declared":
            return cls.declared(
                {int(k): float(p) for k, p in d["pmf"].items()}, d.get("undeclared_tail", 0.0)
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
                if any(a < 0 for a, _ in self.age_atoms):
                    raise ValueError("age atoms must be >= 0")
                if any(p < 0 for _, p in self.age_atoms):
                    raise ValueError("age atom probabilities must be >= 0")
                if abs(sum(p for _, p in self.age_atoms) - 1.0) > _NORMALIZATION_TOL:
                    raise ValueError("age atom probabilities must sum to 1")
        else:
            raise ValueError(f"unknown immigration kind {self.kind!r}")

    @classmethod
    def finite_support(cls, groups: Iterable[tuple[float, AgeMeasure]]) -> "ImmigrationMechanism":
        gs = tuple((float(w), g) for w, g in groups)
        return cls("finite", sum(w for w, _ in gs), groups=gs)

    @classmethod
    def single_arrivals(cls, rate: float, age: float = 0.0) -> "ImmigrationMechanism":
        """Rate-lambda arrivals of single immigrants at a fixed age."""
        if rate == 0.0:
            return cls("finite", 0.0)
        return cls.finite_support([(rate, AgeMeasure.point(age))])

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

    def psi_from_exponents(self, exponents: dict, tol: float = 1e-12):
        """The arrival-compensation functional given a field's values at atom ages.

        ``psi(h) = integral of (1 - exp(-<nu, h>)) dL(nu)``; ``exponents`` maps
        each atom age to h(age), a float or an array (one entry per grid node,
        say).  Returns a float for floats and an array of the broadcast shape
        otherwise, each entry as a scalar call would compute it.  Lies in
        [0, total_rate].
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
            s = self.size_law.laplace_sum(q, tol / max(self.total_rate, 1.0))
            out = self.total_rate * (1.0 - s)
        return float(out[0]) if scalar else out

    def psi(self, h, tol: float = 1e-12) -> float:
        """psi evaluated against a callable or ScalarField h."""
        return self.psi_from_exponents({a: float(h(a)) for a in self.atom_ages()}, tol)

    def first_moment_of(self, f) -> float:
        """integral of <nu, f> dL(nu); may be +inf for heavy size tails."""
        if self.total_rate == 0.0:
            return 0.0
        if self.kind == "finite":
            return sum(w * g.integrate(f) for w, g in self.groups)
        assert self.size_law is not None
        mean_size = self.size_law.mean_size
        if math.isinf(mean_size):
            return math.inf
        mean_f = sum(p * float(f(a)) for a, p in self.age_atoms)
        return self.total_rate * mean_size * mean_f

    def second_moment_of(self, f) -> float:
        """integral of <nu, f>^2 dL(nu); may be +inf."""
        if self.total_rate == 0.0:
            return 0.0
        if self.kind == "finite":
            return sum(w * g.integrate(f) ** 2 for w, g in self.groups)
        assert self.size_law is not None
        m1, m2 = self.size_law.mean_size, self.size_law.second_moment_size
        if math.isinf(m1) or math.isinf(m2):
            return math.inf
        mean_f = sum(p * float(f(a)) for a, p in self.age_atoms)
        mean_f2 = sum(p * float(f(a)) ** 2 for a, p in self.age_atoms)
        var_f = mean_f2 - mean_f**2
        return self.total_rate * (m1 * var_f + m2 * mean_f**2)

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

    def sample_group(self, rng: np.random.Generator) -> AgeMeasure:
        """Draw one nonempty group from the normalized mechanism."""
        if self.total_rate <= 0.0:
            raise ValueError("cannot sample a group from a zero-rate mechanism")
        if self.kind == "finite":
            u = rng.random() * self.total_rate
            acc = 0.0
            for w, g in self.groups:
                acc += w
                if u < acc:
                    return g
            return self.groups[-1][1]
        assert self.size_law is not None
        k = self.size_law.sample(rng)
        ages = np.asarray([a for a, _ in self.age_atoms])
        probs = np.asarray([p for _, p in self.age_atoms])
        if len(ages) == 1:
            drawn = np.repeat(ages[0], k)
        else:
            drawn = ages[rng.choice(len(ages), size=k, p=probs)]
        return AgeMeasure.from_ages(drawn)

    def to_dict(self) -> dict:
        if self.kind == "finite":
            return {
                "kind": "finite",
                "groups": [{"rate": w, "ages": list(g.ages)} for w, g in self.groups],
            }
        assert self.size_law is not None
        return {
            "kind": "parametric",
            "total_rate": self.total_rate,
            "sizes": self.size_law.to_dict(),
            "ages": [{"age": a, "prob": p} for a, p in self.age_atoms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ImmigrationMechanism":
        kind = d.get("kind")
        if kind == "finite":
            return cls.finite_support(
                [(g["rate"], AgeMeasure.from_ages(g["ages"])) for g in d["groups"]]
            )
        if kind == "parametric":
            return cls.parametric(
                d["total_rate"],
                GroupSizeLaw.from_dict(d["sizes"]),
                [(e["age"], e["prob"]) for e in d["ages"]],
            )
        raise ValueError(f"immigration descriptor has unknown kind {kind!r}")
