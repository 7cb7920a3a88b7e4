"""Finite point measures on the nonnegative half-line and evaluatable rate fields.

An :class:`AgeMeasure` is a finite multiset of particle ages: the state of an
age-structured population.  A :class:`ScalarField` is a bounded nonnegative
function on ``[0, inf)`` drawn from a small declarative catalog, so that its
supremum and infimum (and those of restrictions to subintervals) are known in
closed form rather than estimated.  Both types are immutable and safe to share
across threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "AgeMeasure", "ScalarField", "SegmentSums", "index_ranges", "interleave", "json_number", "json_numbers",
    "segment_sums",
]


def json_number(value, field: str | None = None) -> float:
    """``value`` as a float if it is a finite JSON number; booleans, strings and null are refused."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        pass
    raise ValueError(f"{field + ': ' if field else ''}must be a finite number")


def json_numbers(value, field: str | None = None) -> list[float]:
    """``value`` as floats if it is a JSON list of finite numbers; a string is not such a list."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{field + ': ' if field else ''}must be a list of finite numbers")
    return [json_number(v, field) for v in value]


def index_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for each start and count, concatenated."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if len(ends) else 0) + (starts - ends + counts).repeat(counts)


def interleave(values: np.ndarray, slots: np.ndarray, fill) -> tuple[np.ndarray, np.ndarray]:
    """``values`` with ``fill`` at the ascending positions ``slots`` of the result, and where ``values`` went.

    The array is ``np.insert(values, slots - arange(len(slots)), fill)``,
    built by two scatters.
    """
    out = np.empty(len(values) + len(slots))
    held = np.ones(len(out), dtype=bool)
    held[slots] = False
    out[slots] = fill
    out[held] = values
    return out, held


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each consecutive segment of ``values``, segment ``i`` holding ``counts[i]`` entries.

    Each sum has the bits of ``np.add.reduce`` over its segment alone (0.0
    when empty), whatever the other segments hold: ``np.add.reduceat`` adds
    the pairwise sum of a segment's tail to its first entry, so a 0.0 leads
    every segment.
    """
    counts = np.asarray(counts, dtype=np.int64)
    leads = counts.cumsum() - counts + np.arange(len(counts))
    return np.add.reduceat(interleave(values, leads, 0.0)[0], leads)


class SegmentSums:
    """Per-segment sums of per-particle weights, segment ``i`` holding ``counts.flat[i]`` particles.

    ``ages`` are the particles' ages, segment by segment, or None when every
    weight summed is one-valued: ``at`` then evaluates a field at age 0
    alone, and each sum of k copies of that one weight is read by k from a
    table built with the additions of the sum it stands for.  Either way a
    sum has the same bits, and the sums have the shape of ``counts``.
    """

    def __init__(self, counts: np.ndarray, ages: np.ndarray | None) -> None:
        self.counts, self.by_count = counts, ages is None
        self.ages = np.zeros(1) if ages is None else ages

    def at(self, field: Callable) -> np.ndarray:
        return np.asarray(field(self.ages), dtype=np.float64)

    def pairwise(self, w: np.ndarray) -> np.ndarray:
        """``np.add.reduce`` over each segment's weights (``segment_sums``)."""
        counts = self.counts
        if self.by_count:  # one segment_sums call over the counts present
            present = np.flatnonzero(np.bincount(counts.ravel()))
            table = np.zeros(int(counts.max(initial=0)) + 1)
            table[present] = segment_sums(np.full(int(present.sum()), w[0]), present)
            return table[counts]
        return segment_sums(w, counts.ravel()).reshape(counts.shape)

    def sequential(self, w: np.ndarray) -> np.ndarray:
        """Each segment's weights added one by one from 0.0 (``np.bincount``)."""
        counts = self.counts
        if self.by_count:  # a cumsum of copies
            table = np.full(int(counts.max(initial=0)) + 1, w[0])
            table[0] = 0.0
            return np.cumsum(table, out=table)[counts]
        return np.bincount(self._segments, weights=w, minlength=counts.size).reshape(counts.shape)

    @cached_property
    def _segments(self) -> np.ndarray:  # each particle's segment
        return np.repeat(np.arange(self.counts.size), self.counts.ravel())


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
            if not 0 <= c < math.inf:  # NaN fails every comparison
                raise ValueError(f"constant field must be >= 0 and finite, got {c!r}")
        elif self.kind == "expdecay":
            a, b, c = self.params
            if not (0 <= a < math.inf and 0 <= c < math.inf):
                raise ValueError(
                    f"expdecay requires finite amplitude >= 0 and floor >= 0, got {a!r} and {c!r}"
                )
            if a + c == math.inf:
                raise ValueError(f"expdecay's supremum, amplitude {a!r} plus floor {c!r}, is not finite")
            if not 0 < b < math.inf:
                raise ValueError(f"expdecay requires a finite rate > 0, got {b!r}")
        elif self.kind == "rational":
            (a,) = self.params
            if not 0 <= a < math.inf:
                raise ValueError(f"rational scale must be >= 0 and finite, got {a!r}")
        elif self.kind == "step":
            if len(self.knots_y) != len(self.knots_x) + 1:
                raise ValueError("step needs one more value than thresholds")
            self._check_knots()
        elif self.kind == "pwlinear":
            if len(self.knots_x) != len(self.knots_y) or not self.knots_x:
                raise ValueError("pwlinear needs matching, nonempty knot arrays")
            self._check_knots()

    def _check_knots(self) -> None:
        bad = [x for x in self.knots_x if not 0 <= x < math.inf]
        if bad:
            raise ValueError(f"knot positions must be >= 0 and finite, got {bad[0]!r}")
        if not all(self.knots_x[i] < self.knots_x[i + 1] for i in range(len(self.knots_x) - 1)):
            raise ValueError("knot positions must be strictly increasing")
        bad = [v for v in self.knots_y if not 0 <= v < math.inf]
        if bad:
            raise ValueError(f"field values must be >= 0 and finite, got {bad[0]!r}")

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

    def derivative_fn(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """The derivative as a callable for the C1 kinds (constant, expdecay and
        rational); None for step and pwlinear, whatever their knots.
        """
        if self.kind == "constant":
            return lambda x: np.zeros_like(np.asarray(x, dtype=np.float64))
        if self.kind == "expdecay":
            a, b, _ = self.params
            return lambda x: -a * b * np.exp(-b * np.asarray(x, dtype=np.float64))
        if self.kind == "rational":
            (a,) = self.params
            return lambda x: -a / (1.0 + np.asarray(x, dtype=np.float64)) ** 2
        return None

    @classmethod
    def from_dict(cls, d: dict) -> "ScalarField":
        kind = d.get("kind")
        if kind == "constant":
            return cls.constant(json_number(d["value"], "value"))
        if kind == "expdecay":
            return cls.exp_decay(
                json_number(d["amplitude"], "amplitude"), json_number(d["rate"], "rate"),
                json_number(d.get("floor", 0.0), "floor"),
            )
        if kind == "rational":
            return cls.rational(json_number(d.get("scale", 1.0), "scale"))
        if kind == "step":
            return cls.step(json_numbers(d["thresholds"], "thresholds"), json_numbers(d["values"], "values"))
        if kind == "pwlinear":
            return cls.pwlinear(json_numbers(d["xs"], "xs"), json_numbers(d["ys"], "ys"))
        raise ValueError(f"field descriptor has unknown kind {kind!r}")
