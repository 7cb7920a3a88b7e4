"""Finite point measures on the nonnegative half-line and evaluatable rate fields.

An :class:`AgeMeasure` is a finite multiset of particle ages: the state of an
age-structured population.  A :class:`ScalarField` is a bounded nonnegative
function on ``[0, inf)`` drawn from a small declarative catalog, so that its
supremum and infimum (and those of restrictions to subintervals) are known in
closed form rather than estimated.  Both types are immutable and safe to share
across threads or processes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = ["AgeMeasure", "ScalarField", "weighted_index"]


def weighted_index(weights: np.ndarray, y: float, total: float | None = None) -> int:
    """Index of the first entry whose cumulative weight exceeds ``y * total``.

    ``total`` defaults to the last cumulative weight; a caller that already
    holds the weights' sum passes it.  The index is clamped to the last entry,
    so rounding between ``total`` and the cumulative sum cannot run past the
    end.  As ``y ~ Uniform[0, 1)`` entry ``i`` is picked with probability
    ``weights[i] / total``.
    """
    cum = weights.cumsum()
    if total is None:
        total = cum[-1]
    if not total > 0.0:
        raise ValueError("alpha-weighted mass is zero; alpha must be positive on atoms")
    idx = int(cum.searchsorted(y * total, side="right"))
    return min(idx, len(cum) - 1)


@dataclass(frozen=True)
class AgeMeasure:
    """A finite integer-valued measure on [0, inf): a sorted multiset of ages.

    The distribution function ``x -> mass on [0, x]`` is right-continuous,
    non-decreasing and integer valued.  Each entry of ``ages`` is one particle.
    """

    ages: tuple[float, ...]

    def __post_init__(self) -> None:
        for a in self.ages:
            if not (a >= 0.0) or not math.isfinite(a):
                raise ValueError(f"ages must be finite and >= 0, got {a!r}")
        if any(self.ages[i] > self.ages[i + 1] for i in range(len(self.ages) - 1)):
            object.__setattr__(self, "ages", tuple(sorted(self.ages)))

    @classmethod
    def from_ages(cls, ages: Iterable[float]) -> "AgeMeasure":
        return cls(tuple(sorted(float(a) for a in ages)))

    @classmethod
    def empty(cls) -> "AgeMeasure":
        return cls(())

    @classmethod
    def point(cls, age: float, multiplicity: int = 1) -> "AgeMeasure":
        return cls((float(age),) * multiplicity)

    @property
    def total_mass(self) -> int:
        return len(self.ages)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.ages, dtype=np.float64)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Sum of ``f`` over all particles (exact finite sum); 0 for the null measure."""
        if not self.ages:
            return 0.0
        return float(np.sum(f(self.as_array())))

    def dist_fn(self, x: float) -> int:
        """Number of particles with age <= x; 0 for x < 0."""
        if x < 0:
            return 0
        return bisect.bisect_right(self.ages, x)

    def shift(self, t: float) -> "AgeMeasure":
        """Age every particle by t >= 0; total mass is preserved."""
        if t < 0:
            raise ValueError("shift requires t >= 0")
        if t == 0 or not self.ages:
            return self
        return AgeMeasure(tuple(a + t for a in self.ages))

    def alpha_weighted_inverse(self, alpha: Callable[[np.ndarray], np.ndarray], y: float) -> float:
        """Right-continuous inverse of the alpha-weighted distribution function.

        Returns the smallest atom ``a`` whose cumulative weight exceeds
        ``y * <nu, alpha>`` (strict inequality).  As ``y ~ Uniform[0, 1)`` the
        returned age has probability ``alpha(a) * mult(a) / <nu, alpha>``.
        """
        if not self.ages:
            raise ValueError("alpha_weighted_inverse of an empty population")
        if not (0.0 <= y < 1.0):
            raise ValueError(f"y must lie in [0, 1), got {y!r}")
        w = np.asarray(alpha(self.as_array()), dtype=np.float64)
        return self.ages[weighted_index(w, y)]

    def rho_distance(self, other: "AgeMeasure") -> float:
        """Exponentially weighted L1 distance between distribution functions.

        ``integral of exp(-x) * |nu1[0,x] - nu2[0,x]| dx`` computed in closed
        form: the integrand is piecewise ``c * exp(-x)`` between the merged
        atom positions, with an explicit exponential tail term.
        """
        breaks = sorted(set(self.ages) | set(other.ages))
        if not breaks:
            return 0.0
        total = 0.0
        for k, x in enumerate(breaks):
            diff = abs(self.dist_fn(x) - other.dist_fn(x))
            if diff == 0:
                continue
            upper = math.exp(-breaks[k + 1]) if k + 1 < len(breaks) else 0.0
            total += diff * (math.exp(-x) - upper)
        return total

    def merge(self, other: "AgeMeasure") -> "AgeMeasure":
        return AgeMeasure.from_ages(self.ages + other.ages)

    def __len__(self) -> int:
        return len(self.ages)


# Catalog kinds and per-kind parameter layout:
#   constant:   params = (value,)
#   expdecay:   params = (amplitude, rate, floor);  f(x) = floor + amplitude * exp(-rate x)
#   rational:   params = (scale,);                  f(x) = scale / (1 + x)
#   step:       knots_x = thresholds, knots_y = one value per piece (len + 1)
#   pwlinear:   knots_x = sample points, knots_y = values; linear between knots,
#               constant extrapolation beyond the first/last knot
_KINDS = ("constant", "expdecay", "rational", "step", "pwlinear")


@dataclass(frozen=True)
class ScalarField:
    """A bounded nonnegative Borel function on [0, inf) from a declarative catalog.

    The catalog keeps suprema and infima analytic: the thinning simulator and
    the growth-constant computations rely on exact bounds, not sampled ones.
    """

    kind: str
    params: tuple[float, ...] = ()
    knots_x: tuple[float, ...] = ()
    knots_y: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}, expected one of {_KINDS}")
        if self.kind == "constant":
            (c,) = self.params
            if c < 0:
                raise ValueError("constant field must be >= 0")
        elif self.kind == "expdecay":
            a, b, c = self.params
            if a < 0 or c < 0:
                raise ValueError("expdecay requires amplitude >= 0 and floor >= 0")
            if b <= 0:
                raise ValueError("expdecay requires rate > 0")
        elif self.kind == "rational":
            (a,) = self.params
            if a < 0:
                raise ValueError("rational scale must be >= 0")
        elif self.kind == "step":
            if len(self.knots_y) != len(self.knots_x) + 1:
                raise ValueError("step needs one more value than thresholds")
            self._check_knots()
        elif self.kind == "pwlinear":
            if len(self.knots_x) != len(self.knots_y) or not self.knots_x:
                raise ValueError("pwlinear needs matching, nonempty knot arrays")
            self._check_knots()

    def _check_knots(self) -> None:
        if any(x < 0 for x in self.knots_x):
            raise ValueError("knot positions must be >= 0")
        if any(self.knots_x[i] >= self.knots_x[i + 1] for i in range(len(self.knots_x) - 1)):
            raise ValueError("knot positions must be strictly increasing")
        if any(v < 0 for v in self.knots_y):
            raise ValueError("field values must be >= 0")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        return cls("constant", (float(value),))

    @classmethod
    def exp_decay(cls, amplitude: float, rate: float, floor: float = 0.0) -> "ScalarField":
        return cls("expdecay", (float(amplitude), float(rate), float(floor)))

    @classmethod
    def rational(cls, scale: float = 1.0) -> "ScalarField":
        return cls("rational", (float(scale),))

    @classmethod
    def step(cls, thresholds: Iterable[float], values: Iterable[float]) -> "ScalarField":
        return cls("step", (), tuple(float(t) for t in thresholds), tuple(float(v) for v in values))

    @classmethod
    def pwlinear(cls, xs: Iterable[float], ys: Iterable[float]) -> "ScalarField":
        return cls("pwlinear", (), tuple(float(x) for x in xs), tuple(float(y) for y in ys))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Evaluate at a scalar or array of ages; vectorized."""
        arr = np.asarray(x, dtype=np.float64)
        if self.kind == "constant":
            out = np.full(arr.shape, self.params[0])
        elif self.kind == "expdecay":
            a, b, c = self.params
            out = c + a * np.exp(-b * arr)
        elif self.kind == "rational":
            out = self.params[0] / (1.0 + arr)
        elif self.kind == "step":
            idx = np.searchsorted(np.asarray(self.knots_x), arr, side="right")
            out = np.asarray(self.knots_y, dtype=np.float64)[idx]
        else:  # pwlinear: np.interp clamps beyond the knot range
            out = np.interp(arr, self.knots_x, self.knots_y)
        if arr.ndim == 0:
            return float(out)
        return out

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant" or (
            self.kind in ("step", "pwlinear") and len(set(self.knots_y)) == 1
        )

    def _limit_at_inf(self) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "expdecay":
            return self.params[2]
        if self.kind == "rational":
            return 0.0
        return self.knots_y[-1]

    def _left_limit(self, x: float) -> float:
        # Only the step kind is discontinuous; its left limit at a threshold
        # is the previous piece's value.
        if self.kind == "step":
            idx = int(np.searchsorted(np.asarray(self.knots_x), x, side="left"))
            return self.knots_y[idx]
        return self(x)

    def breakpoints(self) -> tuple[float, ...]:
        """Positions where the field is not smooth (knots); empty for smooth kinds."""
        if self.kind in ("step", "pwlinear"):
            return self.knots_x
        return ()

    def _extreme_candidates(self, lo: float, hi: float | None) -> list[float]:
        """Values whose max and min are the supremum and infimum over [lo, hi).

        All catalog kinds are piecewise monotone with known breakpoints, so the
        extremes are attained (or approached) at an endpoint or interior knot.
        """
        cands = [self(lo)]
        if hi is None:
            cands.append(self._limit_at_inf())
            cands.extend(self(t) for t in self.breakpoints() if t > lo)
        else:
            cands.append(self._left_limit(hi))
            cands.extend(self(t) for t in self.breakpoints() if lo < t < hi)
        return cands

    def sup_on(self, lo: float = 0.0, hi: float | None = None) -> float:
        """Exact supremum over [lo, hi) (hi=None means the whole tail)."""
        return max(self._extreme_candidates(lo, hi))

    def inf_on(self, lo: float = 0.0, hi: float | None = None) -> float:
        """Exact infimum over [lo, hi) (hi=None means the whole tail)."""
        return min(self._extreme_candidates(lo, hi))

    @property
    def sup(self) -> float:
        return self.sup_on(0.0, None)

    @property
    def inf(self) -> float:
        return self.inf_on(0.0, None)

    def derivative_fn(self) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
        """Derivative as a callable plus a bound on its absolute value.

        Only the C1 catalog kinds support this; step and pwlinear raise.
        """
        if self.kind == "constant":
            return (lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)), 0.0)
        if self.kind == "expdecay":
            a, b, _ = self.params
            return (lambda x: -a * b * np.exp(-b * np.asarray(x, dtype=np.float64)), a * b)
        if self.kind == "rational":
            (a,) = self.params
            return (lambda x: -a / (1.0 + np.asarray(x, dtype=np.float64)) ** 2, a)
        raise ValueError(f"field kind {self.kind!r} is not continuously differentiable")

    # -- serialization (CLI config schema) ---------------------------------

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == "constant":
            d["value"] = self.params[0]
        elif self.kind == "expdecay":
            d["amplitude"], d["rate"], d["floor"] = self.params
        elif self.kind == "rational":
            d["scale"] = self.params[0]
        elif self.kind == "step":
            d["thresholds"] = list(self.knots_x)
            d["values"] = list(self.knots_y)
        else:
            d["xs"] = list(self.knots_x)
            d["ys"] = list(self.knots_y)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScalarField":
        kind = d.get("kind")
        if kind == "constant":
            return cls.constant(d["value"])
        if kind == "expdecay":
            return cls.exp_decay(d["amplitude"], d["rate"], d.get("floor", 0.0))
        if kind == "rational":
            return cls.rational(d.get("scale", 1.0))
        if kind == "step":
            return cls.step(d["thresholds"], d["values"])
        if kind == "pwlinear":
            return cls.pwlinear(d["xs"], d["ys"])
        raise ValueError(f"field descriptor has unknown kind {kind!r}")
