import hashlib
import inspect
import math
import re
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from agebranch import (
    AgeMeasure,
    BranchingModel,
    Event,
    ImmigrationMechanism,
    GroupSizeLaw,
    OffspringLaw,
    OffspringPmf,
    ScalarField,
    SimConfig,
    replicate_rng,
    simulate,
)
from agebranch.cli import load_config
from agebranch.measures import segment_sums
from agebranch.simulate import PathSet, _thin, simulate_paths
from oracles import (
    ObjectTrajectory, keyed_segment_pick, lockstep_paths, log_counters, mass_delta, mass_path,
    replay_objects, replay_statistics, simulate_objects, single_arrivals, weighted_index,
)

ONE = ScalarField.constant(1.0)
CRITICAL = BranchingModel(ONE, OffspringLaw.table({0: 0.5, 2: 0.5}))
PURE_DEATH = BranchingModel(ONE, OffspringLaw.table({0: 1.0}))


def run(model, initial, t_end, snaps, seed, r=0, imm=ImmigrationMechanism.none(), max_events=10_000_000):
    cfg = SimConfig(model, initial, t_end, snaps, imm, seed, r, max_events)
    return simulate(cfg)


def final_masses(model, initial, t, seed, reps, imm=ImmigrationMechanism.none()):
    """Mass at t of ``reps`` paths, simulated in chunks of 512 from the streams (seed, chunk)."""
    cfg = SimConfig(model, initial, t, (t,), imm, seed)
    return np.concatenate([
        simulate_paths(cfg, replicate_rng(seed, c), min(512, reps - start)).snapshot_masses[:, -1]
        for c, start in enumerate(range(0, reps, 512))
    ])


def test_null_initial_state():
    traj = run(PURE_DEATH, AgeMeasure.empty(), 2.0, (0.5, 1.0, 2.0), seed=1)
    assert traj.events == ()
    assert all(m.total_mass == 0 for _, m in traj.snapshots)
    assert len(traj.snapshots) == 3
    assert traj.terminated_by == "extinction"


def test_bit_identical_determinism():
    cfg = SimConfig(CRITICAL, AgeMeasure.point(0.0), 2.0, (1.0, 2.0), seed=42, replicate_index=5)
    assert simulate(cfg) == simulate(cfg)
    other = SimConfig(CRITICAL, AgeMeasure.point(0.0), 2.0, (1.0, 2.0), seed=42, replicate_index=6)
    assert simulate(cfg) != simulate(other)


def test_mass_bookkeeping_identity():
    # final mass = initial + sum(offspring - 1) + sum(group sizes), exactly
    imm = ImmigrationMechanism.finite_support(
        [(0.5, AgeMeasure.point(0.0)), (0.5, AgeMeasure.from_ages([0.0, 1.0]))]
    )
    for seed in range(8):
        traj = run(CRITICAL, AgeMeasure.point(0.0, 3), 2.0, (2.0,), seed=seed, imm=imm)
        assert traj.terminated_by == "t_end"
        expected = 3 + sum(mass_delta(e) for e in traj.events)
        assert traj.snapshots[-1][1].total_mass == expected


def test_event_times_strictly_increasing_in_range():
    traj = run(CRITICAL, AgeMeasure.point(0.0, 4), 3.0, (3.0,), seed=9)
    times = [e.time for e in traj.events]
    assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))
    assert all(0.0 < t <= 3.0 for t in times)


def test_snapshots_between_events_are_shifts():
    traj = run(CRITICAL, AgeMeasure.point(0.0, 2), 1.0, tuple(np.linspace(0, 1, 21)), seed=3)
    event_times = [e.time for e in traj.events]
    for (s1, m1), (s2, m2) in zip(traj.snapshots, traj.snapshots[1:]):
        if any(s1 < et <= s2 for et in event_times):
            continue
        assert m1.total_mass == m2.total_mass
        assert np.allclose(m2.as_array(), m1.as_array() + (s2 - s1), atol=1e-12)


def test_ages_advance_at_unit_speed():
    traj = run(PURE_DEATH, AgeMeasure.from_ages([1.0, 2.0, 3.0]), 0.5, (0.5,), seed=123)
    survivors = traj.snapshots[-1][1]
    # survivors are original particles aged by exactly 0.5
    assert all(any(abs(a - (b + 0.5)) < 1e-12 for b in (1.0, 2.0, 3.0)) for a in survivors.ages)


def test_pure_death_binomial_oracle():
    n, t, reps = 100, 1.0, 3000
    masses = final_masses(PURE_DEATH, AgeMeasure.point(0.0, n), t, 101, reps)
    p = math.exp(-t)
    se = math.sqrt(n * p * (1 - p) / reps)
    assert abs(masses.mean() - n * p) <= 3 * se
    assert masses.max() <= n


def test_critical_binary_extinction_probability():
    reps = 20_000
    extinct = np.count_nonzero(final_masses(CRITICAL, AgeMeasure.point(0.0), 2.0, 7, reps) == 0)
    se = math.sqrt(0.25 / reps)
    assert abs(extinct / reps - 0.5) <= 3 * se


def test_stationary_queue_oracle():
    # pure death + rate-3 single immigrants is the infinite-server queue:
    # the stationary population count is Poisson(3)
    imm = single_arrivals(3.0)
    reps = 1500
    masses = final_masses(PURE_DEATH, AgeMeasure.empty(), 20.0, 5, reps, imm)
    assert abs(masses.mean() - 3.0) <= 3 * math.sqrt(3.0 / reps)
    var_se = math.sqrt((30.0 - 9.0) / reps)  # Var of the sample variance, Poisson(3)
    assert abs(masses.var(ddof=1) - 3.0) <= 3 * var_se + 0.05


def test_zero_rate_immigration_matches_branching_stream():
    cfg_plain = SimConfig(CRITICAL, AgeMeasure.point(0.0), 2.0, (1.0, 2.0), seed=77)
    cfg_zero = SimConfig(
        CRITICAL, AgeMeasure.point(0.0), 2.0, (1.0, 2.0), ImmigrationMechanism.none(), 77
    )
    assert simulate(cfg_plain) == simulate(cfg_zero)


def test_immigrant_group_ages_inserted_at_arrival():
    imm = ImmigrationMechanism.parametric(
        4.0, GroupSizeLaw.table({2: 1.0}), age_atoms=((5.0, 1.0),)
    )
    traj = run(PURE_DEATH, AgeMeasure.empty(), 1.0, (1.0,), seed=15, imm=imm)
    arrivals = [e for e in traj.events if e.kind == "immigrate"]
    deaths = [e for e in traj.events if e.kind == "branch"]
    assert arrivals, "expected at least one arrival in [0, 1] at rate 4"
    assert all(e.group.ages == (5.0, 5.0) for e in arrivals)
    final = traj.snapshots[-1][1]
    assert final.total_mass == 2 * len(arrivals) - len(deaths)
    # every survivor is an arrival-cohort member aged since its arrival time
    candidates = [5.0 + (1.0 - e.time) for e in arrivals]
    for a in final.ages:
        assert any(abs(a - c) < 1e-12 for c in candidates)


def test_event_cap_flags_trajectory():
    traj = run(CRITICAL, AgeMeasure.point(0.0, 50), 50.0, (50.0,), seed=2, max_events=10)
    assert traj.terminated_by == "event_cap"
    assert len([e for e in traj.events]) == 10
    _, _, _, biased = replay_statistics(traj, ONE)
    assert biased


def test_extinction_fast_forward_records_snapshots():
    traj = run(PURE_DEATH, AgeMeasure.point(0.0), 10.0, (0.1, 5.0, 10.0), seed=8)
    assert traj.terminated_by == "extinction"
    assert len(traj.snapshots) == 3
    assert traj.snapshots[-1][1].total_mass == 0


def test_replay_statistics_masses_and_counts():
    traj = run(CRITICAL, AgeMeasure.point(0.0, 2), 2.0, (0.5, 1.0, 2.0), seed=4)
    times, integrals, counts, biased = replay_statistics(traj, ONE)
    assert not biased
    assert list(times) == [0.5, 1.0, 2.0]
    for (s, m), val in zip(traj.snapshots, integrals):
        assert val == m.total_mass
    assert counts[-1] == log_counters(traj, 2.0)[1] == traj.branches == len(
        [e for e in traj.events if e.kind == "branch"]
    )
    assert all(c1 <= c2 for c1, c2 in zip(counts, counts[1:]))


def test_replay_statistics_synthetic_bookkeeping():
    # one branch event with two offspring raises the mass by one at its time
    initial = AgeMeasure.point(0.3)
    ev = Event(0.5, "branch", dying_age=0.8, offspring_count=2)
    traj = ObjectTrajectory(
        snapshots=((0.4, AgeMeasure.point(0.7)), (0.6, AgeMeasure.from_ages([0.1, 0.1]))),
        events=(ev,),
        terminated_by="t_end",
        initial=initial,
    )
    times, integrals, counts, biased = replay_statistics(traj, ONE)
    assert list(integrals) == [1.0, 2.0]
    assert list(counts) == [0, 1]
    assert log_counters(traj, 1.0) == (2, 1)


def test_running_max_and_mass_path():
    traj = run(CRITICAL, AgeMeasure.point(0.0, 3), 2.0, (2.0,), seed=21)
    times, masses = mass_path(traj)
    running = 3
    best = 3
    for e in traj.events:
        running += mass_delta(e)
        best = max(best, running)
    assert log_counters(traj, 2.0)[0] == traj.max_mass == best
    if len(masses):
        assert masses[-1] == traj.snapshots[-1][1].total_mass


def test_snapshot_time_validation():
    with pytest.raises(ValueError):
        SimConfig(CRITICAL, AgeMeasure.point(0.0), 1.0, (2.0,))
    with pytest.raises(ValueError):
        SimConfig(CRITICAL, AgeMeasure.point(0.0), -1.0, ())


@pytest.mark.parametrize("name, value", [
    ("max_events", math.nan), ("max_events", 2.5), ("max_events", True),
    ("seed", -1), ("seed", 1.5), ("seed", True),
    ("replicate_index", -1), ("replicate_index", 1.5), ("replicate_index", True),
])
def test_sim_config_refuses_caps_and_seeds_that_are_not_counts(name, value):
    # NaN disabled the cap, and the seeds failed later inside numpy's SeedSequence
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
        SimConfig(CRITICAL, AgeMeasure.point(0.0), 1.0, (1.0,), **{name: value})


def test_replicate_rng_streams_are_independent_and_stable():
    a = replicate_rng(1, 2, 3).random(4)
    b = replicate_rng(1, 2, 3).random(4)
    c = replicate_rng(1, 2, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_age_dependent_death_rates_thin_correctly():
    # two-regime hazard: the old die fast; compare survival of an old particle
    # against the closed form exp(-integral of alpha along its age ray)
    alpha = ScalarField.step([1.0], [0.1, 3.0])
    model = BranchingModel(alpha, OffspringLaw.table({0: 1.0}))
    reps = 4000
    alive = final_masses(model, AgeMeasure.point(2.0), 1.0, 33, reps).sum()
    p = math.exp(-3.0)  # age starts at 2 > 1, so hazard is 3 throughout
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(alive / reps - p) <= 3 * se + 1e-9


def test_young_particle_crossing_regime_boundary():
    # age 0.5 spends 0.5 at hazard 0.1 then 0.5 at hazard 3
    alpha = ScalarField.step([1.0], [0.1, 3.0])
    model = BranchingModel(alpha, OffspringLaw.table({0: 1.0}))
    reps = 4000
    alive = final_masses(model, AgeMeasure.point(0.5), 1.0, 34, reps).sum()
    p = math.exp(-(0.1 * 0.5 + 3.0 * 0.5))
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(alive / reps - p) <= 3 * se


# ---------------------------------------------------------------------------
# The observer kernel against the object simulator (tests/oracles.py), which
# stores validated AgeMeasure snapshots and always logs events.
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def assert_same_path(new, old, t_end):
    assert new.terminated_by == old.terminated_by
    assert new.events == old.events
    assert len(new.snapshots) == len(old.snapshots)
    assert [s for s, _ in new.snapshots] == [s for s, _ in old.snapshots]
    old_masses = [m.total_mass for _, m in old.snapshots]
    old_ages = [a for _, m in old.snapshots for a in m.ages]
    assert new.snapshot_masses.tolist() == old_masses
    assert new.snapshot_ages.tobytes() == np.array(old_ages, dtype=np.float64).tobytes()
    # the kept ages above are pinned in the kernel's order; snapshots sorts them into measures
    assert [m for _, m in new.snapshots] == [AgeMeasure(m.ages) for _, m in old.snapshots]
    assert (new.max_mass, new.branches) == log_counters(old, t_end)
    assert new.n_events == len(old.events)


def unlogged_path(sim, rng):
    """The path ``simulate`` runs on ``rng``, from the kernel with no event log."""
    return simulate_paths(sim, rng, 1, log_paths=0).trajectory(0)


def check_against_oracle(sim, seed, replicates, stream=1):
    for r in range(replicates):
        try:
            old = simulate_objects(sim, replicate_rng(seed, stream, r))
        except (ValueError, RuntimeError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                simulate(sim, replicate_rng(seed, stream, r))
            continue
        logged = simulate(sim, replicate_rng(seed, stream, r))
        assert_same_path(logged, old, sim.t_end)
        unlogged = unlogged_path(sim, replicate_rng(seed, stream, r))
        assert unlogged.events == ()
        assert unlogged == replace(logged, events=())


@pytest.mark.parametrize("name", [n for n in SHIPPED if n != "heavy_tail_imm"])
def test_kernel_matches_object_simulator_on_shipped_configs(name):
    sim = load_config(CONFIG_DIR / f"{name}.json").sim_config()
    check_against_oracle(sim, seed=3, replicates=12)


def test_kernel_matches_object_simulator_or_raises_alike_on_heavy_tail():
    # log_squared groups: some replicates draw past the size table and raise
    sim = load_config(CONFIG_DIR / "heavy_tail_imm.json").sim_config()
    check_against_oracle(sim, seed=1, replicates=3)


def edge_cases():
    regimes = BranchingModel(
        ScalarField.step([0.4, 1.0], [0.5, 3.0, 1.5]),
        OffspringLaw(
            (OffspringPmf.geometric(0.6), OffspringPmf.table({0: 0.7, 3: 0.3}), OffspringPmf.poisson(0.9)),
            (0.3, 1.2),
        ),
    )
    finite = ImmigrationMechanism.finite_support(
        [(1.5, AgeMeasure.point(0.0)), (0.5, AgeMeasure.from_ages([0.2, 2.0, 2.0]))]
    )
    parametric = ImmigrationMechanism.parametric(
        2.0, GroupSizeLaw.table({1: 0.5, 4: 0.5}), age_atoms=((0.0, 0.3), (1.1, 0.7))
    )
    snaps = tuple(np.linspace(0.0, 2.0, 17))
    initial = AgeMeasure.from_ages([0.0, 0.35, 1.0, 1.0, 2.5])
    return [
        SimConfig(regimes, initial, 2.0, snaps),  # regime crossing
        SimConfig(regimes, initial, 2.0, snaps, finite),
        SimConfig(regimes, AgeMeasure.empty(), 2.0, snaps, parametric),
        SimConfig(PURE_DEATH, AgeMeasure.point(0.0, 3), 6.0, (0.0, 1.0, 6.0)),  # extinction
        SimConfig(CRITICAL, AgeMeasure.point(0.0, 50), 50.0, (0.0, 0.01, 50.0), max_events=10),
        SimConfig(CRITICAL, initial, 2.0, (0.5, 0.5, 1.0)),  # repeated snapshot time
    ]


def test_kernel_matches_object_simulator_on_edge_paths():
    cases = edge_cases()
    for sim in cases:
        check_against_oracle(sim, seed=5, replicates=15)
    capped = unlogged_path(cases[4], replicate_rng(5, 1, 0))
    assert capped.terminated_by == "event_cap" and capped.n_events == 10
    assert len(capped.snapshots) == 2  # the snapshot at t_end was never reached


def test_a_path_with_exactly_max_events_events_is_complete():
    # only an accepted event past the cap, at or before t_end, cuts a path, and the
    # path keeps the snapshots before that event
    sim = load_config(CONFIG_DIR / "bench_critical.json").sim_config()
    for r in range(40):
        free = simulate_paths(sim, replicate_rng(1, 0, r), 1, log_paths=1).trajectory(0)
        k = free.n_events
        if k == 0:
            continue
        assert simulate(replace(sim, max_events=k), replicate_rng(1, 0, r)) == free
        if k > 1:
            cut = simulate(replace(sim, max_events=k - 1), replicate_rng(1, 0, r))
            n = sum(s < free.events[-1].time for s in sim.snapshot_times)
            assert (cut.terminated_by, cut.n_events, len(cut.snapshots)) == ("event_cap", k - 1, n)
            assert cut.events == free.events[:-1]
            assert cut.snapshot_masses.tolist() == free.snapshot_masses[:n].tolist()
    # the chunk of 512 from stream (1, 0, 0) has 47 paths with exactly 2 events, path 2 among
    # them; at a cap of 2 each capped path has 2 events and misses a snapshot
    free = simulate_paths(sim, replicate_rng(1, 0, 0), 512)
    capped = simulate_paths(replace(sim, max_events=2), replicate_rng(1, 0, 0), 512)
    assert np.count_nonzero(free.n_events == 2) == 47 and free.n_events[2] == 2
    assert (capped.terminated_by[2], capped.recorded[2]) == ("t_end", 50)
    assert (capped.n_events[capped.capped] == 2).all() and (capped.recorded[capped.capped] < 50).all()
    assert (capped.recorded[~capped.capped] == 50).all()


def test_chunk_paths_match_their_replayed_event_logs():
    # many paths in lock step: each path's snapshots and counters are those of
    # the path its own event log describes, and its ending is consistent
    crossing = BranchingModel(ScalarField.step([1.0], [0.1, 3.0]), OffspringLaw.table({0: 0.4, 2: 0.6}))
    cases = edge_cases() + [
        SimConfig(crossing, AgeMeasure.from_ages([0.5, 0.9]), 1.5, (0.5, 1.0, 1.5)),
        SimConfig(CRITICAL, AgeMeasure.point(0.0, 3), 1.5, (0.0, 0.75, 1.5), max_events=5),
    ]
    endings = set()
    for i, sim in enumerate(cases):
        logged = simulate_paths(sim, replicate_rng(5, i), 300, log_paths=300)
        unlogged = simulate_paths(sim, replicate_rng(5, i), 300)
        for p in range(len(logged)):
            traj = logged.trajectory(p)
            replayed = replay_objects(sim, traj.events, traj.terminated_by, len(traj.snapshots))
            assert_same_path(traj, replayed, sim.t_end)
            assert unlogged.trajectory(p) == replace(traj, events=())
            endings.add(traj.terminated_by)
            if traj.terminated_by == "extinction":
                assert sim.initial.total_mass + sum(mass_delta(e) for e in traj.events) == 0
                assert sim.immigration.total_rate == 0.0
            if traj.terminated_by == "event_cap":
                assert traj.n_events == sim.max_events
            else:
                assert len(traj.snapshots) == len(sim.snapshot_times)
    assert endings == {"t_end", "extinction", "event_cap"}


def test_group_size_draw_past_the_cap_raises_at_chunk_level():
    # log_squared groups: some path of the chunk draws past the size table
    sim = load_config(CONFIG_DIR / "heavy_tail_imm.json").sim_config()
    with pytest.raises(RuntimeError, match="group-size draw exceeded the supported range"):
        simulate_paths(sim, replicate_rng(1, 1, 0), 200)


def test_scaled_standard_exponentials_are_exponential_draws():
    # the kernel draws standard_exponential(k) * scale for exponential(scale);
    # numpy computes both as scale times one standard draw, and a numpy that
    # stops doing so changes every path
    scales = 1.0 / (0.7 * np.arange(1, 400))
    vector = replicate_rng(4, 1).standard_exponential(len(scales)) * scales
    assert vector.tobytes() == replicate_rng(4, 1).exponential(scales).tobytes()
    rng = replicate_rng(4, 1)
    assert vector.tolist() == [rng.exponential(s) for s in scales]
    assert (replicate_rng(4, 2).standard_exponential(300) * (1.0 / 3.0)).tobytes() == (
        replicate_rng(4, 2).exponential(1.0 / 3.0, 300).tobytes()
    )


def pathset_digest(paths) -> str:
    digest = hashlib.sha256()
    for a in (paths.snapshot_masses, paths.snapshot_ages, paths.recorded, paths.branches,
              paths.max_mass, paths.n_events):
        digest.update(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
    digest.update(",".join(paths.terminated_by).encode())
    return digest.hexdigest()


# sha256 of a 400-path chunk read from stream (2, 1, 0), recorded (numpy 2.4.6,
# x86-64 Linux) before the chunk kernel drew groups and exponentials by vector;
# age_varying, whose step alpha rejects proposals, re-recorded when a branch
# proposal came to try one particle
_GOLDEN_CHUNKS = {
    "subcritical_imm": "4ae504ad122ad237a275a572911cb9923cc8f0046f9d4aaa5f4ce8e4156d4977",
    "pure_death_imm": "4c544f6dfb02353c61a3fde3a6e32e68c26f9314e9e5e74c8cf648d78295ded6",
    "zeta_groups_imm": "b6223a99fed2f93115a355cfce22cb80748c92ef264ad69e0d25d90ebe599ac8",
    "age_varying": "0192b20d3c11bdc7e8a6c8af7e59a8b82d44a58e6e1e371ac2e17337084619eb",
    # the no-immigration stream, recorded while empty paths still took a pass
    # of their own; 132 of the bench_critical paths end in extinction
    "bench_critical": "a3c2af0f4119ae7eb0a251310dd104205ca37ba1a35a56fb0f563e1278602287",
    "pure_death": "2f21979eb2544d37c7064da8de491a05958be19ac455ddb127cd2b85e543b5e5",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CHUNKS))
def test_chunk_paths_keep_their_recorded_digest(name):
    sim = load_config(CONFIG_DIR / f"{name}.json").sim_config()
    assert pathset_digest(simulate_paths(sim, replicate_rng(2, 1, 0), 400)) == _GOLDEN_CHUNKS[name]


@pytest.mark.parametrize("name", [n for n in SHIPPED if n != "age_varying"])
def test_kernel_keeps_every_bit_of_the_frozen_lockstep_kernel(name):
    # lockstep_paths is the kernel before its live-path state was kept compact and a
    # branch proposal tried one particle; under a constant alpha both rules read the
    # same bits.  No path reaches the default cap; heavy_tail_imm's chunks that draw
    # past the group-size table raise alike
    sim = load_config(CONFIG_DIR / f"{name}.json").sim_config()
    assert sim.model.alpha.inf == sim.model.alpha.sup
    for width in (1, 37, 400, 512):
        for log_paths in (0, 1, 3):
            try:
                want = lockstep_paths(sim, replicate_rng(2, 1, width), width, log_paths=log_paths)
            except RuntimeError as e:
                with pytest.raises(RuntimeError, match=re.escape(str(e))):
                    simulate_paths(sim, replicate_rng(2, 1, width), width, log_paths=log_paths)
                continue
            got = simulate_paths(sim, replicate_rng(2, 1, width), width, log_paths=log_paths)
            for f in fields(PathSet):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(a, np.ndarray):
                    a, b = (a.dtype, a.shape, a.tobytes()), (b.dtype, b.shape, b.tobytes())
                assert a == b, (f.name, width, log_paths)


def test_counters_before_t_end_need_the_event_log():
    sim = SimConfig(CRITICAL, AgeMeasure.point(0.0, 3), 2.0, (2.0,), seed=21)
    old = simulate_objects(sim)
    logged = simulate(sim)
    unlogged = unlogged_path(sim, replicate_rng(sim.seed, sim.replicate_index))
    for t in (0.0, 0.3, 1.0, 1.999, 2.0, 5.0):
        assert log_counters(logged, t) == log_counters(old, t)
    # without the log only the whole-path counters remain
    assert (unlogged.max_mass, unlogged.branches) == log_counters(old, 2.0)
    assert unlogged.events == () and unlogged.n_events == len(old.events)


def test_snapshot_and_event_lengths_build_no_age_measure(monkeypatch):
    imm = single_arrivals(2.0)
    sim = SimConfig(CRITICAL, AgeMeasure.point(0.0, 2), 2.0, tuple(np.linspace(0, 2, 50)), imm, 4)
    built = []
    original = AgeMeasure.__post_init__
    monkeypatch.setattr(AgeMeasure, "__post_init__", lambda self: built.append(1) or original(self))
    for log in (1, 0):
        traj = simulate_paths(sim, replicate_rng(sim.seed, sim.replicate_index), 1, log_paths=log).trajectory(0)
        assert len(traj.snapshots) == 50 and len(traj.events) == (traj.n_events if log else 0)
        segment_sums(ONE(traj.snapshot_ages), traj.snapshot_masses)
        if log:  # the log builds one measure per distinct group, shared by its arrivals
            groups = [e.group for e in traj.events if e.kind == "immigrate"]
            assert len(groups) > 1 and all(g is groups[0] for g in groups)
            assert len(built) == 1
    assert len(built) == 1
    traj.snapshots[-1]
    assert len(built) == 2


@pytest.mark.parametrize("name", ["bench_critical", "pure_death_imm"])
def test_paths_without_ages_refuse_their_snapshots_and_keep_every_other_record(name):
    sim = load_config(CONFIG_DIR / f"{name}.json").sim_config()
    for cap in (sim.max_events, 2):  # a cap of 2 cuts some paths
        capped = replace(sim, max_events=cap)
        full = simulate_paths(capped, replicate_rng(3, 1, 0), 200, log_paths=3)
        bare = simulate_paths(capped, replicate_rng(3, 1, 0), 200, log_paths=3, record_ages=False)
        assert bare.snapshot_ages is None
        for f in fields(PathSet):
            if f.name != "snapshot_ages":
                a, b = getattr(bare, f.name), getattr(full, f.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name
        assert ("event_cap" in bare.terminated_by) == (cap == 2)
        with pytest.raises(ValueError, match="without snapshot ages"):
            next(bare.blocks())
        for p in range(3):
            traj, whole = bare.trajectory(p), full.trajectory(p)
            assert traj.events == whole.events and len(traj.events) == traj.n_events
            assert traj.terminated_by == whole.terminated_by
            assert traj.snapshot_masses.tobytes() == whole.snapshot_masses.tobytes()
            with pytest.raises(ValueError, match="without snapshot ages"):
                traj.snapshots  # never a sequence of empty measures


def test_snapshot_view_indexing():
    traj = run(CRITICAL, AgeMeasure.point(0.0, 2), 1.0, (0.2, 0.6, 1.0), seed=3)
    snaps = traj.snapshots
    assert snaps[-1] == snaps[2] and snaps[0:2] == (snaps[0], snaps[1])
    assert list(snaps) == [snaps[0], snaps[1], snaps[2]]
    with pytest.raises(IndexError):
        snaps[3]
    f = ScalarField.exp_decay(1.0, 0.5, 0.1)
    for (_, m), v in zip(snaps, segment_sums(f(traj.snapshot_ages), traj.snapshot_masses)):
        assert v == m.integrate(f)


def test_weighted_index_matches_cumsum_search():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 8, 9, 33, 300):
        w = rng.random(n) * (rng.random(n) < 0.8)
        w[rng.integers(n)] = 0.5
        hazard = float(w.sum())
        for y in list(rng.random(20)) + [0.0, 1.0 - 2.0**-53]:
            cum = np.cumsum(w)
            expect = min(int(np.searchsorted(cum, y * hazard, side="right")), n - 1)
            assert weighted_index(w, [y], [hazard], [n]).tolist() == [expect]
            expect = min(int(np.searchsorted(cum, y * cum[-1], side="right")), n - 1)
            assert weighted_index(w, [y], None, [n]).tolist() == [expect]
    with pytest.raises(ValueError):
        weighted_index(np.zeros(3), [0.5], None, [3])


def test_segment_sums_and_segment_indices_match_each_segment_alone():
    rng = np.random.default_rng(1)
    for _ in range(50):
        counts = rng.integers(0, 300, size=rng.integers(1, 12))
        counts[rng.random(len(counts)) < 0.2] = 0
        w = rng.random(counts.sum()) * 10.0 ** rng.uniform(-3, 3, counts.sum())
        bounds = np.concatenate(([0], np.cumsum(counts)))
        segments = [w[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert segment_sums(w, counts).tolist() == [np.add.reduce(seg) for seg in segments]
        full = counts > 0
        ys = rng.random(len(counts))
        got = weighted_index(w, ys[full], None, counts[full])
        want = [
            min(int(np.searchsorted(np.cumsum(seg), y * np.cumsum(seg)[-1], side="right")), len(seg) - 1)
            for seg, y in zip(segments, ys) if len(seg)
        ]
        assert got.tolist() == want


def test_segment_pick_matches_weighted_index_on_random_layouts():
    # the frozen kernel's dying index (keyed_segment_pick), read from one
    # cumulative sum over every live path of a pass, against the reference that
    # compacts the dying paths' segments; empty segments lead, sit between and
    # trail the layout.  lockstep_paths pins the kernel's bits only under a
    # constant alpha, so its pick is checked here on weights that are not
    rng = np.random.default_rng(7)
    families = (
        lambda k: rng.random(k) * 10.0 ** rng.uniform(-3, 3, k),
        lambda k: rng.integers(0, 4, k).astype(np.float64),  # zero weights and exact ties
        lambda k: rng.choice([0.5, 1.0, 2.0], k),  # the shipped alpha values
    )
    for trial in range(300):
        counts = rng.integers(0, 40 if trial % 3 else 9, size=rng.integers(3, 30))
        counts[[0, rng.integers(1, len(counts) - 1), -1]] = 0
        w = families[trial % 3](int(counts.sum()))
        owner, first = np.arange(len(counts)).repeat(counts), counts.cumsum() - counts
        sums = np.bincount(owner, weights=w, minlength=len(counts))
        full = np.flatnonzero(sums > 0)
        segs = full[rng.random(len(full)) < 0.7]
        y = rng.random(len(segs))
        if trial % 3 == 1:  # y * sum on a cumulative weight
            y = rng.integers(0, 4, len(segs)) / 4.0
        got = keyed_segment_pick(w, owner, first, counts, sums, segs, y)
        want = first[segs] + weighted_index(w[np.isin(owner, segs)], y, sums[segs], counts[segs])
        assert got.tolist() == want.tolist(), trial
        # y = 1 reaches every segment's sum, past which the index is clamped to its last entry
        last = keyed_segment_pick(w, owner, first, counts, sums, segs, np.ones(len(segs)))
        assert last.tolist() == (first[segs] + counts[segs] - 1).tolist()


def test_one_particle_thinning_has_the_law_of_the_hazard_sum_and_pick():
    # one path of eight particles under a step alpha, tried by many proposals:
    # particle i dies with probability alpha(a_i) / (c1 m), so the dying ages
    # follow alpha(a_i) / <alpha, population> and a proposal is accepted at
    # rate <alpha, population> / (c1 m)
    alpha = ScalarField.step([0.4, 1.0], [0.5, 3.0, 1.5])
    c1 = alpha.sup
    ages = np.array([0.05, 0.2, 0.35, 0.5, 0.7, 0.7, 1.3, 2.5])
    weights = np.asarray(alpha(ages), dtype=np.float64)
    t = np.array([9.0, 0.25])  # the population is path 1, after path 0 (three particles)
    base = np.concatenate(([0.0, 1.0, 2.0], ages - 0.25))
    first, m = np.array([0, 3]), np.array([3, 8])
    n = 200_000
    proposed = np.ones(n, dtype=np.int64)
    d, dying = _thin(replicate_rng(9, 1), alpha, c1, base, first, m, t, proposed)
    assert (d == 1).all() and ((dying >= 3) & (dying < 11)).all()
    # the stream: n acceptance uniforms, then n index uniforms
    rng = replicate_rng(9, 1)
    u, y = rng.random(n), rng.random(n)
    tried = np.floor(y * 8).astype(np.int64)
    assert (dying - 3).tolist() == tried[u * c1 < weights[tried]].tolist()
    # acceptance: hazard 13.5 against c1 m = 24; |z| <= 3 is the suite's gate
    rate = weights.sum() / (c1 * 8)
    z = (len(d) / n - rate) / math.sqrt(rate * (1 - rate) / n)
    assert abs(z) <= 3, z
    # dying ages: chi-square with 7 degrees of freedom, refused below p = 0.001
    observed = np.bincount(dying - 3, minlength=8)
    expected = len(d) * weights / weights.sum()
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 <= 24.32, chi2  # the 0.999 quantile of chi-square(7)


class CountingRng:
    """A generator that counts the standard exponentials drawn from it."""

    def __init__(self, rng):
        self.rng, self.exponentials = rng, 0

    def standard_exponential(self, size):
        self.exponentials += size
        return self.rng.standard_exponential(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_alpha_is_evaluated_once_per_branch_proposal():
    # the kernel evaluates alpha at the particle a branch proposal tries, not at every
    # live particle of every pass.  Without immigration each pass draws one
    # exponential per path with particles; every draw is a proposal but the one
    # past t_end that ends a path with particles
    sim = load_config(CONFIG_DIR / "age_varying.json").sim_config()
    evaluated = []

    def counted(ages):
        evaluated.append(np.size(ages))
        return sim.model.alpha(ages)

    model = SimpleNamespace(alpha=counted, offspring=sim.model.offspring, constants=sim.model.constants)
    rng = CountingRng(replicate_rng(2, 1, 0))
    paths = simulate_paths(replace(sim, model=model), rng, 512)
    assert pathset_digest(paths) == pathset_digest(simulate_paths(sim, replicate_rng(2, 1, 0), 512))
    proposals = rng.exponentials - paths.terminated_by.count("t_end")
    assert sum(evaluated) == proposals > paths.branches.sum()  # some proposals are rejected


def test_constants_computed_once_per_model():
    assert inspect.isfunction(BranchingModel.constants)
    model = BranchingModel(ScalarField.step([1.0], [2.0, 0.5]), OffspringLaw.table({0: 0.4, 2: 0.6}))
    twin = BranchingModel.from_dict({
        "alpha": {"kind": "step", "thresholds": [1.0], "values": [2.0, 0.5]},
        "offspring": {"kind": "pmf", "pmf": {"0": 0.4, "2": 0.6}},
    })
    assert model.constants() is model.constants() is twin.constants()
