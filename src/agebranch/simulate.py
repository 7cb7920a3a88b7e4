"""Exact event-driven simulation of the age-structured population.

Between events every age advances at unit speed, so the population is stored
as sorted *birth offsets* (age minus elapsed time): aging is free.  Branch
events are realized by thinning: waiting times are proposed at the dominating
rate ``c1 * mass`` (c1 = sup of the death rate), ages advance to the
proposal, and the proposal is accepted with probability
``<aged state, alpha> / (c1 * mass)``.  On acceptance the dying particle is
drawn with probability proportional to ``alpha(age)`` per atom and replaced by
its offspring at age zero.  Because the population size is constant
between events and ``alpha <= c1`` pointwise, this realizes the law of the
driving point process exactly; a fresh exponential is drawn after every
accepted or rejected proposal (memorylessness makes the redraw exact).

Immigration arrivals form an independent Poisson stream of the mechanism's
total rate; the merged event stream is generated by competing exponentials.
With a zero-rate mechanism no arrival randomness is consumed, so the random
stream (hence the path) coincides with the plain branching simulation.

One kernel, :func:`simulate_paths`, advances a chunk of independent paths in
lock step from one generator, one proposal per live path per pass, vectorised
over the paths; :func:`simulate` is that kernel at one path.  It records
observers, not objects: the population size and ages at each snapshot time
(flat arrays), the branch count and running maximum of the population size,
and the event log only when asked for.  A :class:`Trajectory` is one path of
a :class:`PathSet` and rebuilds ``AgeMeasure`` snapshots on access.

Generators are counter-based (Philox) and keyed by a tuple of integers:
``simulate`` reads stream ``(seed, replicate_index)``, and the Monte-Carlo
layer reads one stream ``(seed, check, chunk)`` per chunk of 512 replicates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random  # loaded at import, not inside the first timed draw

from .measures import AgeMeasure, index_ranges, interleave, segment_sums, weighted_index
from .models import BranchingModel, ImmigrationMechanism

__all__ = [
    "SimConfig", "Event", "Trajectory", "PathSet", "replicate_rng", "simulate", "simulate_paths",
]

DEFAULT_EVENT_CAP = 10_000_000
_BLOCK = 64  # paths per block of a chunk reduction


def replicate_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for one key, independent across keys.

    Streams are derived from (seed, *path) through a seed sequence feeding a
    Philox counter generator, so the stream of one key (a replicate, or a
    chunk of replicates of one check) never shares state with any other and
    no generator is ever shared or advanced across tasks.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *path))))


@dataclass(frozen=True)
class SimConfig:
    """One simulation task: model, immigration (none by default), horizon, seeding."""

    model: BranchingModel
    initial: AgeMeasure
    t_end: float
    snapshot_times: tuple[float, ...]
    immigration: ImmigrationMechanism = field(default_factory=ImmigrationMechanism.none)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, k.name), getattr(other, k.name)) for k in fields(self))
        )


@dataclass(frozen=True, eq=False)
class PathSet:
    """What the paths of one chunk recorded, path-major.

    Path ``p`` holds ``snapshot_masses[p, i]`` particles at snapshot ``i``
    for the first ``recorded[p]`` snapshots (fewer than all only when the
    event cap cut the path; the masses after them are 0).  Their ascending
    ages are consecutive entries of the flat ``snapshot_ages``: path by path,
    snapshot by snapshot.  ``branches``, ``max_mass`` and ``n_events`` are the
    per-path counters of :class:`Trajectory`, ``events`` the per-path logs
    when simulated with ``log_events=True`` (empty otherwise).
    """

    snapshot_times: tuple[float, ...]
    snapshot_masses: np.ndarray
    snapshot_ages: np.ndarray
    recorded: np.ndarray
    branches: np.ndarray
    max_mass: np.ndarray
    n_events: np.ndarray
    terminated_by: tuple[str, ...]
    initial: AgeMeasure
    t_end: float
    events: tuple[tuple[Event, ...], ...] = ()

    def __len__(self) -> int:
        return len(self.terminated_by)

    @property
    def capped(self) -> np.ndarray:
        """Paths cut by the event cap, whose statistics are biased."""
        return np.array([e == "event_cap" for e in self.terminated_by], dtype=bool)

    def blocks(self):
        """``(rows, masses, ages)`` for consecutive blocks of at most 64 paths.

        Reducing a chunk block by block bounds the temporaries of a reduction
        to a few arrays of one block's snapshot ages.
        """
        masses = self.snapshot_masses
        ends = np.concatenate(([0], np.cumsum(masses.sum(axis=1))))
        for lo in range(0, len(masses), _BLOCK):
            hi = min(lo + _BLOCK, len(masses))
            yield slice(lo, hi), masses[lo:hi], self.snapshot_ages[ends[lo] : ends[hi]]

    def trajectory(self, p: int) -> Trajectory:
        """Path ``p`` on its own."""
        k = int(self.recorded[p])
        lo = int(self.snapshot_masses[:p].sum())
        masses = self.snapshot_masses[p, :k].copy()
        ages = self.snapshot_ages[lo : lo + int(masses.sum())].copy()
        masses.flags.writeable = False
        ages.flags.writeable = False
        return Trajectory(
            self.snapshot_times[:k], masses, ages, int(self.branches[p]), int(self.max_mass[p]),
            int(self.n_events[p]), self.terminated_by[p], self.initial, self.t_end,
            self.events[p] if self.events else (),
        )


_ENDINGS = ("t_end", "extinction", "event_cap")
_T_END, _EXTINCTION, _EVENT_CAP = range(3)


def simulate_paths(
    cfg: SimConfig, rng: np.random.Generator, n_paths: int, *, log_events: bool = False
) -> PathSet:
    """Run ``n_paths`` independent exact paths in lock step from one generator.

    Each pass of the loop makes one proposal on every live path, vectorised
    over them: the branch exponentials, then the arrival exponentials (one
    vector draw for both), then the acceptance uniforms of the branch
    proposals, the dying-index uniforms and the offspring counts (one vector
    draw per regime) of the accepted ones, and last the immigrant groups of
    the arrivals, in ascending path order (one vector draw, or group by group
    for members spread over several ages).  A vector draw of size k consumes
    the stream as k scalar draws and a size-0 draw consumes nothing, so at
    ``n_paths = 1`` the stream is read in the order of a one-path event loop;
    an exponential of scale s is ``s`` times a standard one, the bits of
    ``rng.exponential(s)``.  Paths leave the loop at ``t_end``, at extinction
    or at the event cap; the passes number about the longest path's
    proposals, not the sum over paths.

    The live particles sit in one flat array of birth offsets, path by path
    and ascending within a path; a path's segment is located by the
    cumulative sum of the live masses, so memory is O(live particles).
    """
    alpha = cfg.model.alpha
    offspring = cfg.model.offspring
    _, c1, _ = cfg.model.constants()
    imm = cfg.immigration
    rate_arrival = imm.total_rate
    t_end = cfg.t_end
    snap_times = np.asarray(cfg.snapshot_times, dtype=np.float64)
    n_snap = len(snap_times)

    # the age of a particle at time t is its base + t; newborns get base = -t,
    # which is below every base of their path, so they go first in its segment
    m0 = cfg.initial.total_mass
    base = np.tile(np.asarray(cfg.initial.ages, dtype=np.float64), n_paths)
    mass = np.full(n_paths, m0, dtype=np.int64)
    clock = np.zeros(n_paths)
    snap_pos = np.zeros(n_paths, dtype=np.int64)
    snap_masses = np.zeros((n_paths, n_snap), dtype=np.int64)
    branches = np.zeros(n_paths, dtype=np.int64)
    n_events = np.zeros(n_paths, dtype=np.int64)
    max_mass = mass.copy()
    ending = np.full(n_paths, _T_END)
    logs: list[list[Event]] = [[] for _ in range(n_paths)] if log_events else []
    recorded: list[tuple[np.ndarray, np.ndarray]] = []  # (path * n_snap + snap, their ages)
    group_measures: dict[tuple, AgeMeasure] = {}  # the logged groups: one measure per distinct group

    def record_through(paths, stop, first) -> None:
        # Snapshots up to index stop of each path, its particles starting at base[first].
        lo = snap_pos[paths]
        cnt = stop - lo
        if not cnt.any():
            return
        snap_pos[paths] = stop
        pair_path = paths.repeat(cnt)
        pair_snap = index_ranges(lo, cnt)
        m = mass[pair_path]
        snap_masses[pair_path, pair_snap] = m
        if m.any():
            ages = base[index_ranges(first.repeat(cnt), m)] + snap_times[pair_snap].repeat(m)
            recorded.append((pair_path * n_snap + pair_snap, ages))

    act = np.arange(n_paths)  # live paths, ascending; base holds exactly their particles
    while len(act):
        m = mass[act]
        if rate_arrival == 0.0 and not m.all():
            # an empty population without immigration stays empty
            dead = act[m == 0]
            record_through(dead, n_snap, np.zeros_like(dead))  # no particles to read
            ending[dead] = _EXTINCTION
            act = act[m > 0]
            continue
        # below, arrays of one entry per live path are indexed by its place in act
        first = m.cumsum() - m
        owner = np.arange(len(act)).repeat(m)  # of each live particle
        now = clock[act]
        if rate_arrival > 0.0:
            # the branch proposals of the paths with particles, then one arrival per path
            has = m > 0
            n_has = int(has.sum())
            draws = rng.standard_exponential(n_has + len(act))
            t_next = np.full(len(act), np.inf)
            t_next[has] = now[has] + draws[:n_has] * (1.0 / (c1 * m[has]))
            t_arrival = now + draws[n_has:] * (1.0 / rate_arrival)
            branching = t_next <= t_arrival
            t_next = np.minimum(t_next, t_arrival)
        else:
            t_next = now + rng.standard_exponential(len(act)) * (1.0 / (c1 * m))
            branching = np.ones(len(act), dtype=bool)
        # snapshots strictly before each path's next event: the path is
        # right-continuous, so a snapshot at a jump time sees the post-jump
        # state; a path whose proposal passes t_end records all of them
        record_through(act, snap_times.searchsorted(t_next), first)
        done = t_next > t_end
        keep = ~done[owner]

        # thinning: accept a branch proposal with probability <alpha, aged state> / (c1 mass);
        # the hazard of every live path is summed, and read where a branch is proposed
        ages_now = base + t_next[owner]
        weights = np.asarray(alpha(ages_now), dtype=np.float64)
        hazard = segment_sums(weights, m)
        proposed = np.flatnonzero(branching & ~done)
        d = proposed[rng.random(len(proposed)) * c1 * m[proposed] < hazard[proposed]]
        new_pos, new_base, new_owner = [], [], []
        if len(d):
            dying_path = np.zeros(len(act), dtype=bool)
            dying_path[d] = True
            dying = first[d] + weighted_index(
                weights[dying_path[owner]], rng.random(len(d)), hazard[d], m[d]
            )
            dying_age = ages_now[dying]
            kids = offspring.sample(dying_age, rng)
            keep[dying] = False
            d_paths, d_t = act[d], t_next[d]
            mass[d_paths] += kids - 1
            branches[d_paths] += 1
            n_events[d_paths] += 1
            new_pos.append(first[d].repeat(kids))
            new_base.append((-d_t).repeat(kids))
            new_owner.append(d.repeat(kids))
            if log_events:
                for p, t, a, k in zip(d_paths.tolist(), d_t.tolist(), dying_age.tolist(), kids.tolist()):
                    logs[p].append(Event(t, "branch", dying_age=a, offspring_count=k))

        arriving = np.flatnonzero(~(branching | done))
        if len(arriving):
            sizes, arrived = imm.sample_groups(rng, len(arriving))
            of_new = arriving.repeat(sizes)
            arrived_base = arrived - t_next[of_new]
            # each newcomer goes after the particles of its path with a base at
            # or below its own; complex numbers order lexicographically (real
            # part, then imaginary), so owner + 1j * base orders base as it is held
            held_key = np.empty(len(base), dtype=np.complex128)
            held_key.real, held_key.imag = owner, base
            new_key = np.empty(len(of_new), dtype=np.complex128)
            new_key.real, new_key.imag = of_new, arrived_base
            new_pos.append(held_key.searchsorted(new_key, side="right"))
            new_base.append(arrived_base)
            new_owner.append(of_new)
            a_paths = act[arriving]
            mass[a_paths] += sizes
            n_events[a_paths] += 1
            if log_events:
                ends = sizes.cumsum()
                a_t = t_next[arriving]
                for p, t, lo, hi in zip(a_paths.tolist(), a_t.tolist(), (ends - sizes).tolist(), ends.tolist()):
                    ages = tuple(arrived[lo:hi].tolist())
                    group = group_measures.get(ages)
                    if group is None:
                        group = group_measures[ages] = AgeMeasure(ages)
                    logs[p].append(Event(t, "immigrate", group=group))

        if new_pos:
            # the new particles listed by path have non-decreasing positions in
            # base; each goes after the kept particles before its position
            pos, values = np.concatenate(new_pos), np.concatenate(new_base)
            if len(new_pos) > 1:
                order = np.concatenate(new_owner).argsort(kind="stable")
                pos, values = pos[order], values[order]
            kept_before = np.concatenate(([0], keep.cumsum()))
            base = interleave(base[keep], kept_before[pos] + np.arange(len(pos)), values)[0]
        elif not keep.all():
            base = base[keep]
        act, t_next = act[~done], t_next[~done]
        max_mass[act] = np.maximum(max_mass[act], mass[act])
        clock[act] = t_next
        capped = n_events[act] >= cfg.max_events
        if capped.any():
            ending[act[capped]] = _EVENT_CAP
            m = mass[act]
            stay = np.ones(len(base), dtype=bool)
            stay[index_ranges((m.cumsum() - m)[capped], m[capped])] = False
            base = base[stay]
            act = act[~capped]

    # each recorded snapshot's ages go to its place, path by path then snapshot by snapshot
    flat = snap_masses.ravel()
    offsets = np.cumsum(flat) - flat
    ages = np.empty(int(flat.sum()))
    for keys, block in recorded:
        ages[index_ranges(offsets[keys], flat[keys])] = block
    snap_masses.flags.writeable = False
    ages.flags.writeable = False
    return PathSet(
        cfg.snapshot_times, snap_masses, ages, snap_pos, branches, max_mass, n_events,
        tuple(_ENDINGS[e] for e in ending.tolist()), cfg.initial, t_end,
        tuple(tuple(log) for log in logs),
    )


def simulate(
    cfg: SimConfig, rng: np.random.Generator | None = None, *, log_events: bool = True
) -> Trajectory:
    """Run one exact path of the branching process, with immigration if configured.

    The chunk kernel at one path.  Deterministic: identical (seed,
    replicate_index, config) gives a bit-identical trajectory.  Exceeding
    ``max_events`` truncates the path and flags it; it is never silently
    dropped.  ``log_events=False`` skips the ``Event`` log (Monte-Carlo
    estimators read only the observers); the random draws and every recorded
    number are the same either way.
    """
    if rng is None:
        rng = replicate_rng(cfg.seed, cfg.replicate_index)
    return simulate_paths(cfg, rng, 1, log_events=log_events).trajectory(0)
