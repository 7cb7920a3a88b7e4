"""Exact event-driven simulation of the age-structured population.

Between events every age advances at unit speed, so the population is stored
as a sorted list of *birth offsets* (age minus elapsed time): aging is free and
events touch O(1) entries.  Branch events are realized by thinning: waiting
times are proposed at the dominating rate ``c1 * mass`` (c1 = sup of the death
rate), ages advance to the proposal, and the proposal is accepted with
probability ``<aged state, alpha> / (c1 * mass)``.  On acceptance the dying
particle is drawn with probability proportional to ``alpha(age)`` per atom and
replaced by its offspring at age zero.  Because the population size is constant
between events and ``alpha <= c1`` pointwise, this realizes the law of the
driving point process exactly; a fresh exponential is drawn after every
accepted or rejected proposal (memorylessness makes the redraw exact).

Immigration arrivals form an independent Poisson stream of the mechanism's
total rate; the merged event stream is generated by competing exponentials.
With a zero-rate mechanism no arrival randomness is consumed, so the random
stream (hence the path) coincides with the plain branching simulation.

The kernel records observers, not objects: the population size and ages at
each snapshot time (one flat array), the branch count and running maximum of
the population size, and the event log only when asked for.  A
:class:`Trajectory` rebuilds ``AgeMeasure`` snapshots from them on access.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .measures import AgeMeasure, weighted_index
from .models import BranchingModel, ImmigrationMechanism

__all__ = ["SimConfig", "Event", "Trajectory", "replicate_rng", "simulate"]

DEFAULT_EVENT_CAP = 10_000_000


def replicate_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for one replicate, independent across paths.

    Streams are derived from (seed, *path) through a seed sequence feeding a
    Philox counter generator, so replicate r of check c never shares state
    with any other (seed, c, r) and no generator is ever shared or advanced
    across tasks.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


@dataclass(frozen=True)
class SimConfig:
    """One simulation task: model, optional immigration, horizon, seeding."""

    model: BranchingModel
    initial: AgeMeasure
    t_end: float
    snapshot_times: tuple[float, ...]
    immigration: ImmigrationMechanism | None = None
    seed: int = 0
    replicate_index: int = 0
    max_events: int = DEFAULT_EVENT_CAP

    def __post_init__(self) -> None:
        if not (self.t_end > 0):
            raise ValueError("t_end must be > 0")
        if self.max_events <= 0:
            raise ValueError("max_events must be > 0")
        times = tuple(float(s) for s in self.snapshot_times)
        if any(s < 0 or s > self.t_end for s in times):
            raise ValueError("snapshot times must lie within [0, t_end]")
        if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
            times = tuple(sorted(times))
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class Event:
    """One jump of the population path.

    ``kind`` is "branch" (a death with offspring) or "immigrate" (a group
    arrival).  Branch events carry the dying particle's age and the offspring
    count; immigration events carry the arriving group with its ages at
    arrival time.
    """

    time: float
    kind: str
    dying_age: float = math.nan
    offspring_count: int = -1
    group: AgeMeasure | None = None

    @property
    def mass_delta(self) -> int:
        if self.kind == "branch":
            return self.offspring_count - 1
        assert self.group is not None
        return self.group.total_mass


class _Snapshots(Sequence):
    """(time, AgeMeasure) pairs, each measure built only when it is read."""

    def __init__(self, traj: "Trajectory") -> None:
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.snapshot_masses)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        i = range(len(self))[i]
        masses = self._traj.snapshot_masses
        lo = int(masses[:i].sum())
        ages = self._traj.snapshot_ages[lo : lo + int(masses[i])]
        return (self._traj.snapshot_times[i], AgeMeasure(tuple(ages.tolist())))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """What one path recorded: snapshot observers, counters and the event log.

    Snapshot ``i`` (time ``snapshot_times[i]``) holds ``snapshot_masses[i]``
    particles, whose ascending ages are the next entries of the flat
    ``snapshot_ages``.  ``branches`` and ``max_mass`` count branch events and
    the running maximum of the population size over the whole path.
    ``events`` is the full log when the path was simulated with
    ``log_events=True`` and empty otherwise; ``n_events`` counts events either
    way.

    ``terminated_by`` is "t_end" (ran to the horizon), "extinction" (the
    population died and, without immigration, can never recover) or
    "event_cap" (truncated; statistics from such a path are biased and all
    consumers must check the flag).
    """

    snapshot_times: tuple[float, ...]
    snapshot_masses: np.ndarray
    snapshot_ages: np.ndarray
    branches: int
    max_mass: int
    n_events: int
    terminated_by: str
    initial: AgeMeasure
    t_end: float
    events: tuple[Event, ...] = ()

    @property
    def snapshots(self) -> Sequence:
        """(time, AgeMeasure) per recorded snapshot; ``len`` builds no measure."""
        return _Snapshots(self)

    def integrals(self, f) -> np.ndarray:
        """``<X_s, f>`` at every recorded snapshot, each summed as ``AgeMeasure.integrate``."""
        out = np.zeros(len(self.snapshot_masses))
        if len(self.snapshot_ages):
            fa = np.asarray(f(self.snapshot_ages), dtype=np.float64)
            lo = 0
            for i, m in enumerate(self.snapshot_masses.tolist()):
                if m:
                    out[i] = np.sum(fa[lo : lo + m])
                    lo += m
        return out

    def _logged_events(self, t: float) -> tuple[Event, ...]:
        if len(self.events) != self.n_events:
            raise ValueError(
                f"statistics before t_end={self.t_end!r} (t={t!r}) need the event log; "
                "simulate with log_events=True"
            )
        return self.events

    def branch_count(self, t: float) -> int:
        """Number of branch events up to and including time t."""
        if t >= self.t_end:
            return self.branches
        return sum(1 for e in self._logged_events(t) if e.kind == "branch" and e.time <= t)

    def running_max_mass(self, t: float) -> int:
        """sup of the population size over [0, t]; exact from the path's counters or log."""
        if t >= self.t_end:
            return self.max_mass
        m = self.initial.total_mass
        best = m
        for e in self._logged_events(t):
            if e.time > t:
                break
            m += e.mass_delta
            best = max(best, m)
        return best

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, k.name), getattr(other, k.name)) for k in fields(self))
        )


def simulate(
    cfg: SimConfig, rng: np.random.Generator | None = None, *, log_events: bool = True
) -> Trajectory:
    """Run one exact path of the branching process, with immigration if configured.

    Deterministic: identical (seed, replicate_index, config) gives a
    bit-identical trajectory.  Exceeding ``max_events`` truncates the path and
    flags it; it is never silently dropped.  ``log_events=False`` skips the
    ``Event`` log (Monte-Carlo estimators read only the observers); the random
    draws and every recorded number are the same either way.
    """
    if rng is None:
        rng = replicate_rng(cfg.seed, cfg.replicate_index)
    alpha = cfg.model.alpha
    offspring = cfg.model.offspring
    _, c1, _ = cfg.model.constants()
    imm = cfg.immigration
    rate_arrival = imm.total_rate if imm is not None else 0.0

    # age of particle i at time t is bases[i] + t; newborns get base = -t,
    # which is strictly smaller than every existing base, so prepending keeps
    # the list sorted
    bases: list[float] = list(cfg.initial.ages)
    clock = 0.0
    events: list[Event] = []
    snap_times = cfg.snapshot_times
    snap_masses: list[int] = []
    snap_ages: list[float] = []
    snap_pos = 0
    branches = 0
    max_mass = len(bases)

    def record_through(t: float, inclusive: bool) -> None:
        # The path is right-continuous: a snapshot exactly at a jump time sees
        # the post-jump state, so pre-event recording stays strictly below it.
        nonlocal snap_pos
        stop = (bisect.bisect_right if inclusive else bisect.bisect_left)(snap_times, t, snap_pos)
        if stop == snap_pos:
            return
        snap_masses.extend([len(bases)] * (stop - snap_pos))
        if bases:
            for s in snap_times[snap_pos:stop]:
                snap_ages.extend([b + s for b in bases])
        snap_pos = stop

    n_events = 0
    terminated_by = "t_end"
    while True:
        mass = len(bases)
        if mass == 0 and rate_arrival == 0.0:
            terminated_by = "extinction"
            record_through(cfg.t_end, inclusive=True)
            break
        t_branch = math.inf
        if mass > 0:
            t_branch = clock + rng.exponential(1.0 / (c1 * mass))
        t_arrival = math.inf
        if rate_arrival > 0.0:
            t_arrival = clock + rng.exponential(1.0 / rate_arrival)
        t_next = min(t_branch, t_arrival)
        if t_next > cfg.t_end:
            record_through(cfg.t_end, inclusive=True)
            break
        record_through(t_next, inclusive=False)
        if t_branch <= t_arrival:
            ages_now = np.asarray(bases) + t_next
            weights = np.asarray(alpha(ages_now), dtype=np.float64)
            hazard = float(np.add.reduce(weights))
            if rng.random() * c1 * mass < hazard:
                idx = weighted_index(weights, rng.random(), hazard)
                dying_age = float(ages_now[idx])
                k = offspring.sample(dying_age, rng)
                del bases[idx]
                if k:
                    bases[0:0] = [-t_next] * k
                if log_events:
                    events.append(Event(t_next, "branch", dying_age=dying_age, offspring_count=k))
                branches += 1
                n_events += 1
        else:
            assert imm is not None
            group = imm.sample_group(rng)
            for a in group.ages:
                bisect.insort(bases, a - t_next)
            if log_events:
                events.append(Event(t_next, "immigrate", group=group))
            n_events += 1
        max_mass = max(max_mass, len(bases))
        clock = t_next
        if n_events >= cfg.max_events:
            terminated_by = "event_cap"
            break

    masses = np.array(snap_masses, dtype=np.int64)
    ages = np.array(snap_ages, dtype=np.float64)
    masses.flags.writeable = False
    ages.flags.writeable = False
    return Trajectory(
        snap_times[: len(snap_masses)], masses, ages, branches, max_mass, n_events,
        terminated_by, cfg.initial, cfg.t_end, tuple(events),
    )
