"""Command-line front end: configuration, orchestration, and CSV/report output.

Every command in ``COMMANDS`` takes the one flag set of ``build_parser``, each
flag written in full.  A run is fully determined by one JSON config file plus the
seed; identical invocations produce byte-identical outputs regardless of the
parallelism degree (each Monte-Carlo command simulates one path set, in fixed
chunks of 512 replicates, each from a counter-based stream indexed by (seed,
stream, chunk), and reductions are performed in replicate order; the event
log of ``simulate`` is replicate 0 of its set).  Nothing is written outside
the chosen output directory, and no output carries timestamps.

Tables are written a column at a time (``write_csv``), 512 rows per chunk:
each double as its shortest round-trip repr, each integer in decimal, each
flag as ``true`` / ``false``, and text quoted only where CSV needs it.  The
solver commands' coarse (t, x) table always ends at the horizon.
"""

from __future__ import annotations

import argparse
import csv
import json
import locale  # argparse's messages load it through gettext; load it at import
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .measures import AgeMeasure, ScalarField, json_number, json_numbers
from .models import BranchingModel, ImmigrationMechanism
from .simulate import SimConfig
from .solvers import (
    SolverGrid,
    ergodicity_check,
    exponential_tail_identity,
    solve_exponent,
    solve_mean,
    stationary_laplace,
)
from .validate import (
    ComparisonReport,
    ergodic_convergence,
    monte_carlo_checks,
    snapshot_profile,
    solver_bound_checks,
)

SCHEMA_VERSION = 1
CHECK_COLUMNS = ["name", "mc", "se", "analytic", "tol", "z", "verdict"]


class ConfigError(ValueError):
    """Invalid run configuration, with a field-level message."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed, validated run configuration."""

    model: BranchingModel
    initial: AgeMeasure
    t_end: float
    grid_dt: float
    quadrature: str
    replicates: int
    seed: int
    f: ScalarField
    immigration: ImmigrationMechanism = field(default_factory=ImmigrationMechanism.none)
    snapshots: int = 50

    def sim_config(self) -> SimConfig:
        times = tuple(np.linspace(0.0, self.t_end, self.snapshots))
        return SimConfig(
            self.model,
            self.initial,
            self.t_end,
            times,
            self.immigration,
            self.seed,
        )

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Parse and validate a config dict; every refusal names its field."""
        if not isinstance(d, dict):
            raise ConfigError("config: must be a JSON object")

        def req(key: str):
            if key not in d:
                raise ConfigError(f"{key}: missing required field")
            return d[key]

        version = d.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
        model = _parsed("model", BranchingModel.from_dict, req("model"))
        imm = _parsed("immigration", ImmigrationMechanism.from_dict, d.get("immigration"))
        initial = _parsed("initial", lambda v: AgeMeasure.from_ages(json_numbers(v)), req("initial"))
        t_end = _parsed("t_end", json_number, req("t_end"))
        if not t_end > 0:
            raise ConfigError("t_end: must be > 0")
        grid = d.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError("grid: must be a JSON object")
        dt = _parsed("grid.dt", json_number, grid.get("dt", 1e-3))
        if not 0 < dt <= t_end:
            raise ConfigError("grid.dt: must satisfy 0 < dt <= t_end")
        quadrature = grid.get("quadrature", "trapezoid")
        if quadrature not in ("rectangle", "trapezoid"):
            raise ConfigError("grid.quadrature: must be 'rectangle' or 'trapezoid'")
        replicates = _count("replicates", d.get("replicates", 10_000))
        if replicates < 2:
            raise ConfigError("replicates: must be >= 2")
        seed = _count("seed", d.get("seed", 0))
        if seed < 0:
            raise ConfigError("seed: must be >= 0")
        f = _parsed("f", ScalarField.from_dict, d.get("f", {"kind": "constant", "value": 1.0}))
        snapshots = _count("snapshots", d.get("snapshots", 50))
        if snapshots < 2:
            raise ConfigError("snapshots: must be >= 2")
        return cls(model, initial, t_end, dt, quadrature, replicates, seed, f, imm, snapshots)


def _parsed(name: str, parse, value):
    """``parse(value)``, any malformation of ``value`` refused under ``name``."""
    try:
        return parse(value)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"{name}: {e}") from e


def _count(name: str, value) -> int:
    """A JSON integer; an integral float such as 100.0 is one, 2.5 is refused."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{name}: must be an integer")
    return int(value)


def _read_json(path: str | Path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key written twice in it is refused, not overwritten."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"{key}: key written twice in one JSON object")
        out[key] = value
    return out


def load_config(path: str | Path) -> RunConfig:
    return RunConfig.from_dict(_read_json(path))


def _fmt(x) -> str:
    if isinstance(x, float):  # numpy's float64 too; the shortest round-trip repr of the double
        return float.__repr__(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


_CSV_CHUNK_ROWS = 512  # rows formatted at a time: the text of one chunk is all a table holds


def _cells(part):
    """``_fmt`` of each entry of a column slice; a float64 array from one ``tolist()``."""
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return map(float.__repr__, part.tolist())
    return map(_fmt, part)


def write_csv(path: Path, header: list[str], columns) -> None:
    """A header line, then one row per entry of the equal-length ``columns``.

    Columns are NumPy arrays or sequences, formatted ``_CSV_CHUNK_ROWS`` rows
    at a time and written with csv's minimal quoting.
    """
    columns = list(columns)
    n = len(columns[0]) if columns else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, _CSV_CHUNK_ROWS):
            writer.writerows(zip(*(_cells(c[start : start + _CSV_CHUNK_ROWS]) for c in columns)))


def write_summary(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _report_lines(rows: list[list]) -> list[str]:
    """``name: mc=... verdict=...`` for each ``ComparisonReport.row()``, labelled by ``CHECK_COLUMNS``."""
    return [f"{name}: " + " ".join(f"{c}={_fmt(v)}" for c, v in zip(CHECK_COLUMNS[1:], rest))
            for name, *rest in rows]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_simulate(cfg: RunConfig, out: Path, n_jobs: int) -> bool:
    """The snapshot profile of the path set on stream 1, and the event log of its replicate 0."""
    sim = cfg.sim_config()
    profile, traj = snapshot_profile(sim, cfg.f, cfg.replicates, stream=1, n_jobs=n_jobs)
    write_csv(
        out / "events.csv",
        ["time", "kind", "dying_age", "offspring_count", "group_size"],
        zip(*(
            (
                e.time,
                e.kind,
                e.dying_age if e.kind == "branch" else "",
                e.offspring_count if e.kind == "branch" else "",
                e.group.total_mass if e.group is not None else "",
            )
            for e in traj.events
        )),
    )
    mass_rows = [
        [t, m.value, m.std_error, fe.value, fe.std_error] for t, m, fe in profile
    ]
    write_csv(out / "snapshot_stats.csv", ["time", "mean_mass", "se_mass", "mean_f", "se_f"], zip(*mass_rows))
    write_summary(
        out / "summary.txt",
        [
            f"replicate_0_events={len(traj.events)}",
            f"replicate_0_terminated_by={traj.terminated_by}",
            f"replicates={cfg.replicates}",
        ]
        + [
            f"t={_fmt(r[0])} mean_mass={_fmt(r[1])} se_mass={_fmt(r[2])} "
            f"mean_f={_fmt(r[3])} se_f={_fmt(r[4])}"
            for r in mass_rows
        ]
        + [f"excluded_paths={profile[0][1].excluded}"],
    )
    return True


def _cmd_solve(cfg: RunConfig, out: Path, solve, value_name: str) -> bool:
    """solve-u / solve-pi: the boundary trace and a coarse (t, x) table, from one boundary solve."""
    grid = SolverGrid(cfg.grid_dt, cfg.t_end, cfg.quadrature)
    times = grid.times()
    n = len(times) - 1
    # coarse (t, x, value) table: about 40 nodes per axis to keep files small, ending at the horizon
    nodes = np.arange(0, n + 1, max(1, (n + 1) // 40))
    if nodes[-1] != n:
        nodes = np.append(nodes, n)
    coarse = times[nodes]
    sol = solve(cfg.model, cfg.f, grid)
    boundary, rays = sol.boundary, sol.rays(coarse)
    write_csv(out / "boundary.csv", ["t", value_name], [times, boundary])
    write_csv(
        out / "lattice.csv",
        ["t", "x", value_name],
        [np.tile(coarse, len(nodes)), np.repeat(coarse, len(nodes)), rays[:, nodes].ravel()],
    )
    write_summary(
        out / "summary.txt",
        [f"t_end={_fmt(cfg.t_end)}", f"dt={_fmt(cfg.grid_dt)}", f"quadrature={cfg.quadrature}",
         f"boundary_at_t_end={_fmt(boundary[-1])}"],
    )
    return True


def validation_suite(cfg: RunConfig, n_jobs: int = 1) -> list[ComparisonReport]:
    """The full comparison suite for one configuration.

    Two-sided identity checks with negative controls and one-sided pathwise
    bounds, all read from one path set on stream 10, then the deterministic
    solver lattice inequalities.  Controls are named ``control:...`` and are
    expected to fail; the suite's own power is asserted by their failure.
    The analytic values and the lattice inequalities share one memo of
    solutions, so each boundary (exponent and mean, at dt and 2 dt) is solved
    once per run; only a rectangle config, whose identity checks solve with
    the trapezoid rule, solves again.  A dt that does not divide t, or an odd
    step count, is refused before any path is simulated.
    """
    n, t, dt = cfg.replicates, cfg.t_end, cfg.grid_dt
    solutions: dict = {}  # this run's solutions, by (solve function, grid): each solved once
    reports = monte_carlo_checks(cfg.sim_config(), cfg.f, t, n, dt, 10, n_jobs, solutions)
    grid = SolverGrid(dt, t, cfg.quadrature)
    return reports + solver_bound_checks(cfg.model, cfg.f, grid, solutions)


def _suite_outcome(reports: list[ComparisonReport]) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for r in reports:
        is_control = r.name.startswith("control:")
        expected = not r.verdict if is_control else r.verdict
        if not expected:
            ok = False
        status = "as-expected" if expected else "UNEXPECTED"
        lines.append(
            ("control " if is_control else "check ")
            + f"{r.name}: {'pass' if r.verdict else 'fail'} ({status})"
        )
    return ok, lines


def _cmd_validate(cfg: RunConfig, out: Path, n_jobs: int) -> bool:
    reports = validation_suite(cfg, n_jobs)
    rows = [r.row() for r in reports]
    write_csv(out / "checks.csv", CHECK_COLUMNS, zip(*rows))
    ok, lines = _suite_outcome(reports)
    checks = [r for r in reports if not r.name.startswith("control:")]
    excluded = max(r.mc.excluded for r in reports)  # each carries its one path set's count
    write_summary(
        out / "summary.txt",
        _report_lines(rows)
        + lines
        + [f"checks={len(checks)}", f"controls={len(reports) - len(checks)}",
           f"suite={'pass' if ok else 'fail'}", f"excluded_paths={excluded}"],
    )
    return ok


def _cmd_ergodic(cfg: RunConfig, out: Path, n_jobs: int) -> bool:
    if cfg.immigration.total_rate == 0.0:
        raise ConfigError("immigration: the ergodic command needs an immigration mechanism")
    report = ergodicity_check(cfg.model, cfg.immigration)
    lines = [
        f"status={report.status}",
        f"c0={_fmt(report.c0)}",
        f"criterion={report.criterion_status}",
        f"criterion_value={'' if report.criterion_value is None else _fmt(report.criterion_value)}",
        f"detail={report.detail}",
    ]
    reps: list[ComparisonReport] = []
    ok = True
    if report.status == "ergodic":
        horizons = [cfg.t_end / 4.0, cfg.t_end / 2.0, cfg.t_end]
        # one set on stream 52 keeps the T row's bits from one set per horizon on 50 to 52
        stat_value, reps, gaps = ergodic_convergence(
            cfg.sim_config(), cfg.f, horizons, cfg.replicates, dt=cfg.grid_dt,
            stream=52, n_jobs=n_jobs,
        )
        ok = all(r.verdict for r in reps) and all(
            gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1)
        )
        lines += [f"stationary={_fmt(stat_value)}"]
        lines += [f"gap_T={_fmt(T)}: {_fmt(g)}" for T, g in zip(horizons, gaps)]
        # every report reads the one path set and carries its excluded paths
        lines += [f"gaps_decreasing={'true' if ok else 'false'}",
                  f"excluded_paths={max(r.mc.excluded for r in reps)}"]
    write_csv(out / "ergodic.csv", CHECK_COLUMNS, zip(*(r.row() for r in reps)))
    write_summary(out / "summary.txt", lines)
    return ok


def _cmd_stationary(cfg: RunConfig, out: Path) -> bool:
    if cfg.immigration.total_rate == 0.0:
        raise ConfigError("immigration: the stationary command needs an immigration mechanism")
    thetas = [0.25, 0.5, 1.0, 2.0]
    rows = []
    for theta in thetas:
        rep = stationary_laplace(cfg.model, cfg.immigration, ScalarField.constant(theta))
        rows.append(
            [f"constant:{theta:g}", rep.value, rep.exponent_integral, rep.horizon, rep.dt,
             rep.tail_bound, rep.quadrature_error]
        )
    write_csv(
        out / "stationary.csv",
        ["f", "value", "exponent_integral", "horizon", "dt", "tail_bound", "quadrature_error"],
        zip(*rows),
    )
    write_summary(out / "summary.txt", [f"f={r[0]} value={_fmt(r[1])}" for r in rows])
    return True


def _cmd_identity_check(out: Path) -> bool:
    rows = []
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        for c in (0.5, 1.0, 2.0):
            for n in (1, 2, 5):
                lhs, rhs = exponential_tail_identity(a, c, n)
                diff = abs(lhs - rhs)
                worst = max(worst, diff)
                rows.append([a, c, n, lhs, rhs, diff])
    write_csv(out / "identity.csv", ["a", "c", "group_mass", "lhs", "rhs", "abs_diff"], zip(*rows))
    ok = worst <= 1e-8
    write_summary(
        out / "summary.txt",
        [f"cases={len(rows)}", f"max_abs_diff={_fmt(worst)}", f"verdict={'pass' if ok else 'fail'}"],
    )
    return ok


# name: (reads --config, run(cfg, out, args) -> all checks passed), for the parser's choices and main
COMMANDS = {
    "simulate": (True, lambda cfg, out, a: _cmd_simulate(cfg, out, a.parallelism)),
    "solve-u": (True, lambda cfg, out, a: _cmd_solve(cfg, out, solve_exponent, "exponent")),
    "solve-pi": (True, lambda cfg, out, a: _cmd_solve(cfg, out, solve_mean, "mean")),
    "validate": (True, lambda cfg, out, a: _cmd_validate(cfg, out, a.parallelism)),
    "ergodic": (True, lambda cfg, out, a: _cmd_ergodic(cfg, out, a.parallelism)),
    "stationary": (True, lambda cfg, out, a: _cmd_stationary(cfg, out)),
    "identity-check": (False, lambda cfg, out, a: _cmd_identity_check(out)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agebranch",
        description="Exact simulation and solvers for age-structured branching processes",
        allow_abbrev=False,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON run configuration (every command but identity-check)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--replicates", type=int, help="override replicate count")
    parser.add_argument("--t-end", type=float, help="override the horizon")
    parser.add_argument("--dt", type=float, help="override the solver step")
    parser.add_argument("--out", default="out", help="output directory (all files go here)")
    parser.add_argument("--parallelism", type=int, default=1, help="replicate worker processes")
    parser.add_argument("--ci", action="store_true", help="nonzero exit on any failed check")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reads_config, run = COMMANDS[args.command]
    if reads_config != (args.config is not None):
        parser.error(f"{args.command} {'needs' if reads_config else 'takes no'} --config")
    if args.parallelism < 1:
        parser.error(f"--parallelism must be >= 1, got {args.parallelism}")
    try:
        cfg = None
        if reads_config:
            # flags edit the config as written, which must be valid on its own
            raw = _read_json(args.config)
            RunConfig.from_dict(raw)
            for key, value in (("seed", args.seed), ("replicates", args.replicates), ("t_end", args.t_end)):
                if value is not None:
                    raw[key] = value
            if args.dt is not None:
                raw["grid"] = {**raw.get("grid", {}), "dt": args.dt}
            cfg = RunConfig.from_dict(raw)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return 0 if run(cfg, out, args) or not args.ci else 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as e:  # a file as --out, a huge array too
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
