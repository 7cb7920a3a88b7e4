"""Exact event-driven simulation of the age-structured population.

Between events every age advances at unit speed, so the population is stored
as *birth offsets* (age minus elapsed time): aging is free.  A path's
particles are kept newest first: every newcomer, newborn or immigrant, joins
the front of its path, and the initial particles stay in ascending age at the
back.  The order is not part of the law (the state is a multiset, and the
thinning pick is uniform); the snapshot ages of a path are sure to be
ascending only when every arrival is at age 0.  Branch events are realized by thinning:
waiting times are proposed at the dominating rate ``c1 * mass`` (c1 = sup of
the death rate), ages advance to the proposal, one particle is picked
uniformly, and the proposal is accepted with probability
``alpha(its age) / c1``; the accepted particle is replaced by its offspring at
age zero.  So particle ``i`` dies with probability
``alpha(a_i) / (c1 * mass)``, as when the path's hazard is thinned and the
dying particle drawn in proportion to alpha.  Because the population size is
constant between events and ``alpha <= c1`` pointwise, this realizes the law
of the driving point process exactly; a fresh exponential is drawn after
every accepted or rejected proposal (memorylessness makes the redraw exact).

Immigration arrivals form an independent Poisson stream of the mechanism's
total rate; the merged event stream is generated by competing exponentials.
With a zero-rate mechanism no arrival randomness is consumed, so the random
stream (hence the path) coincides with the plain branching simulation.

One kernel, :func:`simulate_paths`, advances a chunk of independent paths in
lock step from one generator, one proposal per live path per pass, vectorised
over the paths; :func:`simulate` is that kernel at one path.  It records
observers, not objects: the population size and ages at each snapshot time
(flat arrays), the branch count and running maximum of the population size,
and the event logs of the leading paths its caller reads, if any.  A caller
whose reduction reads no age records the sizes alone (``record_ages``;
``validate._run_chunk`` states when that holds).  A
:class:`Trajectory` is one path of a :class:`PathSet` and rebuilds
``AgeMeasure`` snapshots on access.  Only an accepted event past the cap
``max_events``, at or before ``t_end``, cuts a path, and it does not happen.

Generators are counter-based (Philox) and keyed by a tuple of integers:
``simulate`` reads stream ``(seed, replicate_index)``, and the Monte-Carlo
layer reads one stream ``(seed, stream, chunk)`` per chunk of 512 replicates.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np
import numpy.random  # loaded at import, not inside the first timed draw

from .measures import AgeMeasure, index_ranges, interleave
from .models import BranchingModel, ImmigrationMechanism

__all__ = [
    "SimConfig", "Event", "Trajectory", "PathSet", "replicate_rng", "simulate", "simulate_paths",
]

DEFAULT_EVENT_CAP = 10_000_000
_BLOCK = 64  # paths per block of a chunk reduction


def _refuse_ageless(ages: np.ndarray | None) -> None:
    if ages is None:
        raise ValueError("these paths were simulated without snapshot ages (record_ages=False): "
                         "only their snapshot masses are known")


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
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be > 0 and finite, got {self.t_end!r}")
        for name, least in (("max_events", 1), ("seed", 0), ("replicate_index", 0)):
            if isinstance(v := getattr(self, name), bool) or not isinstance(v, (int, np.integer)) or v < least:
                raise ValueError(f"{name} must be >= {least} and an integer, got {v!r}")
        times = tuple(float(s) for s in self.snapshot_times)
        if not all(0 <= s <= self.t_end for s in times):  # NaN fails every comparison
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
    particles, whose ages are the next entries of the flat ``snapshot_ages``,
    newest first (sure to be ascending only when every arrival is at age 0);
    ``snapshots`` sorts them into ``AgeMeasure`` objects.  A path of a
    :class:`PathSet` simulated without ages has ``snapshot_ages`` None, and
    its ``snapshots`` refuses.  ``branches`` and
    ``max_mass`` count branch events and the running maximum of the
    population size over the whole path.
    ``events`` is the full log when the path was logged and empty otherwise;
    ``n_events`` counts events either way.

    ``terminated_by`` is "t_end" (ran to the horizon), "extinction" (the
    population died and, without immigration, can never recover) or
    "event_cap" (truncated; statistics from such a path are biased and all
    consumers must check the flag).
    """

    snapshot_times: tuple[float, ...]
    snapshot_masses: np.ndarray
    snapshot_ages: np.ndarray | None
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
        _refuse_ageless(self.snapshot_ages)
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
    event cap cut the path; the masses after them are 0).  Their ages are
    consecutive entries of the flat ``snapshot_ages``: path by path, snapshot
    by snapshot, each snapshot's newest first as the kernel keeps them.  A set
    simulated with ``record_ages=False`` (for a reduction that reads no age: see
    ``validate._run_chunk``) has ``snapshot_ages`` None, and ``blocks`` and
    its paths' ``snapshots`` refuse rather than report empty measures.
    ``branches``, ``max_mass`` and ``n_events`` are the per-path counters of
    :class:`Trajectory`, ``events`` the logs of the first ``log_paths`` paths
    (empty if none was logged).
    """

    snapshot_times: tuple[float, ...]
    snapshot_masses: np.ndarray
    snapshot_ages: np.ndarray | None
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

    def block_rows(self) -> list[slice]:
        """Consecutive blocks of at most 64 paths.

        Reducing a chunk block by block bounds the temporaries of a reduction
        to a few arrays of one block's snapshots.
        """
        n = len(self.snapshot_masses)
        return [slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]

    def blocks(self):
        """``(rows, masses, ages)`` for each of ``block_rows``."""
        _refuse_ageless(self.snapshot_ages)
        masses = self.snapshot_masses
        ends = np.concatenate(([0], np.cumsum(masses.sum(axis=1))))
        for rows in self.block_rows():
            yield rows, masses[rows], self.snapshot_ages[ends[rows.start] : ends[rows.stop]]

    def trajectory(self, p: int) -> Trajectory:
        """Path ``p`` on its own."""
        k = int(self.recorded[p])
        masses = self.snapshot_masses[p, :k].copy()
        masses.flags.writeable = False
        ages = None
        if self.snapshot_ages is not None:
            lo = int(self.snapshot_masses[:p].sum())
            ages = self.snapshot_ages[lo : lo + int(masses.sum())].copy()
            ages.flags.writeable = False
        return Trajectory(
            self.snapshot_times[:k], masses, ages, int(self.branches[p]), int(self.max_mass[p]),
            int(self.n_events[p]), self.terminated_by[p], self.initial, self.t_end,
            self.events[p] if p < len(self.events) else (),
        )


_ENDINGS = ("t_end", "extinction", "event_cap")
_T_END, _EXTINCTION, _EVENT_CAP = range(3)


def _thin(rng, alpha, c1: float, base, first, m, t, proposed) -> tuple[np.ndarray, np.ndarray]:
    """The accepted branch proposals and their dying particles: one particle tried per proposal.

    Path ``j`` (a place in ``first``, ``m`` and ``t``) holds the ``m[j]``
    particles of ``base`` from ``first[j]``, of age ``base + t[j]``.  All
    acceptance uniforms ``u`` are drawn, then all index uniforms ``y``; a
    proposal tries particle ``first + min(floor(y m), m - 1)`` and is accepted
    iff ``u c1 < alpha(age)``, so alpha is evaluated once per proposal.
    """
    u = rng.random(len(proposed))
    n = m[proposed]
    tried = first[proposed] + np.minimum((rng.random(len(proposed)) * n).astype(np.int64), n - 1)
    accepted = u * c1 < np.asarray(alpha(base[tried] + t[proposed]), dtype=np.float64)
    return proposed[accepted], tried[accepted]


def simulate_paths(
    cfg: SimConfig, rng: np.random.Generator, n_paths: int, *, log_paths: int = 0, record_ages: bool = True
) -> PathSet:
    """Run ``n_paths`` independent exact paths in lock step from one generator.

    Each pass of the loop makes one proposal on every live path, vectorised
    over them: the branch exponentials of the paths with particles, then one
    arrival exponential per path if the mechanism's rate is positive (one
    vector draw for both), then the acceptance uniforms and the index
    uniforms of the branch proposals (:func:`_thin`), the offspring counts
    (one vector draw per regime) of the accepted ones, and last the immigrant
    groups of the arrivals, in ascending path order (one vector draw, or group
    by group for members spread over several ages).  A vector draw of size k
    consumes the stream as k scalar draws and a size-0 draw consumes nothing,
    so at ``n_paths = 1`` the stream is read in the order of a one-path event
    loop; an exponential of scale s is ``s`` times a standard one, the bits of
    ``rng.exponential(s)``.  Paths leave the loop at ``t_end``, at extinction
    or at the event cap; the passes number about the longest path's
    proposals, not the sum over paths.  An empty path without immigration
    proposes at +inf, so in the same pass it records its remaining snapshots
    at mass 0 and ends by extinction.  A path with ``max_events`` events is
    cut by its next accepted event at or before ``t_end``, drawing nothing
    after its index uniform and keeping the snapshots before it.

    The live particles sit in one flat array of birth offsets, path by path
    and newest first within a path, located by the cumulative sum of the live
    masses, so memory is O(live particles); newborns and immigrants join the
    front of their path in the order drawn, so placing them needs no search.
    The live paths' mass, clock, running maximum and snapshot cursor are kept
    in live order and written out when a path ends.  Each pass records the
    ages of the snapshots its paths pass, keyed ``path * n_snap + snap`` and
    joined 16 passes at a time, and evaluates alpha only at the particle each
    branch proposal tries.  Only the first ``log_paths`` paths keep an
    ``Event`` log; the draws and every recorded number are the same whichever
    paths are logged.  With ``record_ages=False`` no snapshot age is gathered or
    placed, and the path set holds only the masses; the draws and every other
    number are the same.
    """
    alpha = cfg.model.alpha
    offspring = cfg.model.offspring
    _, c1, _ = cfg.model.constants()
    imm = cfg.immigration
    rate_arrival = imm.total_rate
    t_end = cfg.t_end
    snap_times = np.asarray(cfg.snapshot_times, dtype=np.float64)
    n_snap = len(snap_times)

    # the age of a particle at time t is its base + t; a newcomer at time t of
    # age a gets base a - t and goes first in its path's segment
    m0 = cfg.initial.total_mass
    base = np.tile(np.asarray(cfg.initial.ages, dtype=np.float64), n_paths)
    snap_masses = np.zeros((n_paths, n_snap), dtype=np.int64)
    flat = snap_masses.reshape(-1)
    branches = np.zeros(n_paths, dtype=np.int64)
    arrivals = np.zeros(n_paths, dtype=np.int64)
    max_mass = np.empty(n_paths, dtype=np.int64)
    snap_pos = np.empty(n_paths, dtype=np.int64)
    ending = np.full(n_paths, _T_END)
    logs: list[list[Event]] = [[] for _ in range(min(log_paths, n_paths))]
    # snapshot records (path * n_snap + snap, their ages); every 16 fresh ones are joined into one
    recorded: list[tuple[np.ndarray, np.ndarray]] = []
    fresh: list[tuple[np.ndarray, np.ndarray]] = []
    group_measures: dict[tuple, AgeMeasure] = {}  # the logged groups: one measure per distinct group

    # the live paths, ascending, and their mass, clock, running maximum and
    # snapshot cursor in the same order; base holds exactly their particles
    act = np.arange(n_paths)
    m = np.full(n_paths, m0, dtype=np.int64)
    now = np.zeros(n_paths)
    top = m.copy()
    lo = np.zeros(n_paths, dtype=np.int64)
    passes = 0
    while len(act):
        # below, arrays of one entry per live path are indexed by its place in act
        first = m.cumsum() - m
        # the branch proposals of the paths with particles, then one arrival per
        # path only at a positive rate (so a stream without immigration reads no
        # arrival); an empty path without immigration proposes at +inf
        n_has = int(np.count_nonzero(m))
        n_arrivals = len(act) if rate_arrival > 0.0 else 0
        draws = rng.standard_exponential(n_has + n_arrivals)
        if n_has == len(act):
            t_next = now + draws[:n_has] * (1.0 / (c1 * m))
        else:
            has = m > 0
            t_next = np.full(len(act), np.inf)
            t_next[has] = now[has] + draws[:n_has] * (1.0 / (c1 * m[has]))
        t_arrival = now + draws[n_has:] * (1.0 / rate_arrival) if n_arrivals else np.inf
        branching = t_next <= t_arrival
        t_next = np.minimum(t_next, t_arrival)
        # snapshots strictly before each path's next event: the path is
        # right-continuous, so a snapshot at a jump time sees the post-jump
        # state; a path whose proposal passes t_end records all of them
        stop = snap_times.searchsorted(t_next)
        cnt = stop - lo
        if np.count_nonzero(cnt):
            keys = index_ranges(act * n_snap + lo, cnt)
            pm = m.repeat(cnt)
            flat[keys] = pm
            if record_ages and np.count_nonzero(pm):
                fresh.append((keys, base[index_ranges(first.repeat(cnt), pm)]
                               + snap_times[keys % n_snap].repeat(pm)))
                if len(fresh) == 16:
                    recorded.append(tuple(map(np.concatenate, zip(*fresh))))
                    fresh.clear()
            lo = stop
        live = t_next <= t_end  # the paths whose proposal falls by t_end

        proposed = np.flatnonzero(branching & live)
        d, dying = _thin(rng, alpha, c1, base, first, m, t_next, proposed)
        arriving = np.flatnonzero(live > branching)  # live and not branching
        passes += 1
        if passes > cfg.max_events:  # a path has at most one event a pass
            # an accepted event past the cap cuts its path instead of happening
            full = branches[act] + arrivals[act] >= cfg.max_events
            cut = np.concatenate((d[full[d]], arriving[full[arriving]]))
            ending[act[cut]] = _EVENT_CAP
            live[cut] = False
            kept = ~full[d]
            d, dying, arriving = d[kept], dying[kept], arriving[~full[arriving]]
        keep = live.repeat(m)
        new_who, new_base = [], []  # the newcomers' paths (places in act) and bases
        if len(d):
            dying_age = base[dying] + t_next[d]
            kids = offspring.sample(dying_age, rng)
            keep[dying] = False
            m[d] += kids - 1
            d_paths = act[d]
            branches[d_paths] += 1
            born = d.repeat(kids)
            new_who.append(born)
            new_base.append(-t_next[born])
            if logs:
                j = d_paths.searchsorted(len(logs))  # the logged paths lead act
                for p, t, a, k in zip(d_paths[:j].tolist(), t_next[d[:j]].tolist(), dying_age[:j].tolist(),
                                      kids[:j].tolist()):
                    logs[p].append(Event(t, "branch", dying_age=a, offspring_count=k))

        if len(arriving):
            sizes, arrived = imm.sample_groups(rng, len(arriving))
            of_new = arriving.repeat(sizes)
            new_who.append(of_new)
            new_base.append(arrived - t_next[of_new])
            m[arriving] += sizes
            a_paths = act[arriving]
            arrivals[a_paths] += 1
            if logs:
                j = a_paths.searchsorted(len(logs))
                ends = sizes[:j].cumsum()
                a_t = t_next[arriving[:j]]
                for p, t, s, e in zip(a_paths[:j].tolist(), a_t.tolist(), (ends - sizes[:j]).tolist(),
                                      ends.tolist()):
                    ages = tuple(arrived[s:e].tolist())
                    group = group_measures.get(ages)
                    if group is None:
                        group = group_measures[ages] = AgeMeasure(ages)
                    logs[p].append(Event(t, "immigrate", group=group))

        if new_who:
            # the newcomers, listed by path, join the front of their path's
            # segment in the order listed, before its kept particles
            who, values = np.concatenate(new_who), np.concatenate(new_base)
            if len(new_who) > 1:
                order = who.argsort(kind="stable")
                who, values = who[order], values[order]
            kept_before = np.concatenate(([0], keep.cumsum()))
            base = interleave(base[keep], kept_before[first[who]] + np.arange(len(who)), values)[0]
        elif not keep.all():
            base = base[keep]
        np.maximum(top, m, out=top)
        if live.all():
            now = t_next
        else:
            ending[act[t_next == np.inf]] = _EXTINCTION  # empty, and it stays empty
            ended = act[~live]
            max_mass[ended], snap_pos[ended] = top[~live], lo[~live]
            act, m, now, top, lo = act[live], m[live], t_next[live], top[live], lo[live]

    # each recorded snapshot's ages go to their place, path by path then
    # snapshot by snapshot; each record is dropped once placed
    placed = None
    if record_ages:
        recorded += fresh
        offsets = np.cumsum(flat) - flat
        placed = np.empty(int(flat.sum()))
        while recorded:
            keys, block = recorded.pop()
            placed[index_ranges(offsets[keys], flat[keys])] = block
        placed.flags.writeable = False
    snap_masses.flags.writeable = False
    return PathSet(
        cfg.snapshot_times, snap_masses, placed, snap_pos, branches, max_mass, branches + arrivals,
        tuple(_ENDINGS[e] for e in ending.tolist()), cfg.initial, t_end,
        tuple(tuple(log) for log in logs),
    )


def simulate(cfg: SimConfig, rng: np.random.Generator | None = None) -> Trajectory:
    """Run one exact path of the branching process, with immigration if configured.

    The chunk kernel at one path, with its ``Event`` log.  Deterministic:
    identical (seed, replicate_index, config) gives a bit-identical
    trajectory.  An accepted event past ``max_events`` by ``t_end`` truncates
    the path before it happens and flags it; it is never silently dropped.
    """
    if rng is None:
        rng = replicate_rng(cfg.seed, cfg.replicate_index)
    return simulate_paths(cfg, rng, 1, log_paths=1).trajectory(0)
