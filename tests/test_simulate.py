import hashlib
import inspect
import math
import re
from dataclasses import replace
from pathlib import Path

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
from agebranch.measures import segment_sums, weighted_index
from agebranch.simulate import simulate_paths
from oracles import (
    ObjectTrajectory, log_counters, mass_path, replay_objects, replay_statistics, simulate_objects,
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
        expected = 3 + sum(e.mass_delta for e in traj.events)
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
    imm = ImmigrationMechanism.single_arrivals(3.0)
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
        running += e.mass_delta
        best = max(best, running)
    assert log_counters(traj, 2.0)[0] == traj.max_mass == best
    if len(masses):
        assert masses[-1] == traj.snapshots[-1][1].total_mass


def test_snapshot_time_validation():
    with pytest.raises(ValueError):
        SimConfig(CRITICAL, AgeMeasure.point(0.0), 1.0, (2.0,))
    with pytest.raises(ValueError):
        SimConfig(CRITICAL, AgeMeasure.point(0.0), -1.0, ())


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
    assert [m.ages for _, m in new.snapshots] == [m.ages for _, m in old.snapshots]
    assert (new.max_mass, new.branches) == log_counters(old, t_end)
    assert new.n_events == len(old.events)


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
        unlogged = simulate(sim, replicate_rng(seed, stream, r), log_events=False)
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
    capped = simulate(cases[4], replicate_rng(5, 1, 0), log_events=False)
    assert capped.terminated_by == "event_cap" and capped.n_events == 10
    assert len(capped.snapshots) == 2  # the snapshot at t_end was never reached


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
        logged = simulate_paths(sim, replicate_rng(5, i), 300, log_events=True)
        unlogged = simulate_paths(sim, replicate_rng(5, i), 300)
        for p in range(len(logged)):
            traj = logged.trajectory(p)
            assert_same_path(traj, replay_objects(sim, traj.events, traj.terminated_by), sim.t_end)
            assert unlogged.trajectory(p) == replace(traj, events=())
            endings.add(traj.terminated_by)
            if traj.terminated_by == "extinction":
                assert sim.initial.total_mass + sum(e.mass_delta for e in traj.events) == 0
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
# x86-64 Linux) before the chunk kernel drew groups and exponentials by vector
_GOLDEN_CHUNKS = {
    "subcritical_imm": "4ae504ad122ad237a275a572911cb9923cc8f0046f9d4aaa5f4ce8e4156d4977",
    "pure_death_imm": "4c544f6dfb02353c61a3fde3a6e32e68c26f9314e9e5e74c8cf648d78295ded6",
    "zeta_groups_imm": "b6223a99fed2f93115a355cfce22cb80748c92ef264ad69e0d25d90ebe599ac8",
    "age_varying": "310c53a9b33371f840929fe0c13a66ae29d43c6be0eedcefed7208761bafa4b0",
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_CHUNKS))
def test_chunk_paths_keep_their_recorded_digest(name):
    sim = load_config(CONFIG_DIR / f"{name}.json").sim_config()
    assert pathset_digest(simulate_paths(sim, replicate_rng(2, 1, 0), 400)) == _GOLDEN_CHUNKS[name]


def test_counters_before_t_end_need_the_event_log():
    sim = SimConfig(CRITICAL, AgeMeasure.point(0.0, 3), 2.0, (2.0,), seed=21)
    old = simulate_objects(sim)
    logged = simulate(sim)
    unlogged = simulate(sim, log_events=False)
    for t in (0.0, 0.3, 1.0, 1.999, 2.0, 5.0):
        assert log_counters(logged, t) == log_counters(old, t)
    # without the log only the whole-path counters remain
    assert (unlogged.max_mass, unlogged.branches) == log_counters(old, 2.0)
    assert unlogged.events == () and unlogged.n_events == len(old.events)


def test_snapshot_and_event_lengths_build_no_age_measure(monkeypatch):
    imm = ImmigrationMechanism.single_arrivals(2.0)
    sim = SimConfig(CRITICAL, AgeMeasure.point(0.0, 2), 2.0, tuple(np.linspace(0, 2, 50)), imm, 4)
    built = []
    original = AgeMeasure.__post_init__
    monkeypatch.setattr(AgeMeasure, "__post_init__", lambda self: built.append(1) or original(self))
    for log in (True, False):
        traj = simulate(sim, log_events=log)
        assert len(traj.snapshots) == 50 and len(traj.events) == (traj.n_events if log else 0)
        segment_sums(ONE(traj.snapshot_ages), traj.snapshot_masses)
        if log:  # the log builds one measure per distinct group, shared by its arrivals
            groups = [e.group for e in traj.events if e.kind == "immigrate"]
            assert len(groups) > 1 and all(g is groups[0] for g in groups)
            assert len(built) == 1
    assert len(built) == 1
    traj.snapshots[-1]
    assert len(built) == 2


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


def test_regime_index_matches_searchsorted():
    law = OffspringLaw(
        (OffspringPmf.table({0: 1.0}), OffspringPmf.table({2: 1.0}), OffspringPmf.table({1: 1.0})),
        (0.5, 1.5),
    )
    xs = [0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0, 1.5, 7.0, np.float64(1.5)]
    for x in xs:
        assert law.regime_index(x) == int(np.searchsorted(np.asarray(law.thresholds), x, side="right"))


def test_constants_computed_once_per_model():
    assert inspect.isfunction(BranchingModel.constants)
    model = BranchingModel(ScalarField.step([1.0], [2.0, 0.5]), OffspringLaw.table({0: 0.4, 2: 0.6}))
    twin = BranchingModel.from_dict({
        "alpha": {"kind": "step", "thresholds": [1.0], "values": [2.0, 0.5]},
        "offspring": {"kind": "pmf", "pmf": {"0": 0.4, "2": 0.6}},
    })
    assert model.constants() is model.constants() is twin.constants()
