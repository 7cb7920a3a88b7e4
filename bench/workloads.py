"""The four workloads, their inputs, and the checks on their outputs.

Each workload is a fixed list of operations (CLI commands or public API
calls) run with ``--parallelism 1``; one pass runs them all in a fresh
interpreter.  A check reads the files a pass wrote and returns the problems it
found; an empty list means the outputs are correct.  Every check has a
negative control: ``perturb`` damages a copy of correct outputs the way a
wrong program would, and the check must then report a problem.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from facts import ROOT

REFERENCE = Path(__file__).resolve().parent / "reference.json"
Z_LIMIT = 3.0

VALIDATE_REPLICATES = 2000
SIMULATE_REPLICATES = 400
FAN_DT = 0.0005  # n = 2000 steps on the unit horizon of age_varying
ZETA_THETAS = (0.25, 0.5, 1.0)
ZETA_TOLERANCE = 2e-3


@dataclass(frozen=True)
class Workload:
    name: str
    replicates: int | None  # requested replicates per pass, for replicates_per_s
    setup_config: str
    kernel: str  # calibration kernel matching the bottleneck: "interpreter" or "array"
    ops: Callable[[int, Path], list[dict]]  # (seed, output dir) -> the operations of one pass
    check: Callable[[list[Path], dict], tuple[list[str], dict]]
    perturb: Callable[[list[Path], dict], None]
    context: Callable[[], dict] = dict  # reference values the check needs, built untimed


def _cli(out: Path, command: str, config: str, *flags) -> dict:
    argv = [command, "--config", config, *map(str, flags), "--parallelism", "1", "--out", str(out)]
    return {"kind": "cli", "out": str(out), "argv": argv}


def _validate_ops(seed: int, out: Path) -> list[dict]:
    return [_cli(out / "validate", "validate", "configs/bench_critical.json",
                 "--replicates", VALIDATE_REPLICATES, "--seed", seed)]


def _simulate_ops(seed: int, out: Path) -> list[dict]:
    return [_cli(out / "simulate", "simulate", "configs/subcritical_imm.json",
                 "--replicates", SIMULATE_REPLICATES, "--seed", seed)]


def _fan_ops(seed: int, out: Path) -> list[dict]:
    return [
        _cli(out / "solve-u", "solve-u", "configs/age_varying.json", "--dt", FAN_DT),
        _cli(out / "solve-pi", "solve-pi", "configs/age_varying.json", "--dt", FAN_DT),
        _cli(out / "stationary", "stationary", "configs/pure_death_imm.json"),
    ]


def _zeta_ops(seed: int, out: Path) -> list[dict]:
    return [{"kind": "stationary", "out": str(out / "stationary-zeta"),
             "thetas": list(ZETA_THETAS), "tolerance": ZETA_TOLERANCE}]


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _summary(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _kv(lines: list[str]) -> dict[str, str]:
    return dict(line.split("=", 1) for line in lines if "=" in line and ":" not in line)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


# ---------------------------------------------------------------------------
# Checks: each returns (problems, facts about the output)
# ---------------------------------------------------------------------------

_REPORT = re.compile(
    r"^(?P<name>[^ ]+): mc=(?P<mc>\S+) se=(?P<se>\S+) analytic=(?P<analytic>\S+) "
    r"tol=(?P<tol>\S+) z=(?P<z>\S+) verdict=(?P<verdict>pass|fail)$"
)
_STATUS = re.compile(r"^(?P<kind>check|control) (?P<name>[^ ]+): (?P<verdict>pass|fail) "
                     r"\((?P<status>as-expected|UNEXPECTED)\)$")
_VALIDATE_NAMES = (
    "laplace", "control:laplace", "mean", "control:mean", "martingale:exp",
    "control:martingale:exp", "bound:sup_mass", "bound:branch_events", "bound:mean_mass",
    "solver:exponent_nonneg", "solver:survival_lower_bound", "solver:exponent_below_mean",
    "solver:mean_norm_bound",
)


def _critical_binary_laplace(t: float, theta: float = 1.0) -> float:
    # Critical binary splitting at rate 1: 1/(1 - F) = 1/(1 - s) + t/2, s = exp(-theta).
    one_minus_s = -math.expm1(-theta)
    return 1.0 - one_minus_s / (1.0 + one_minus_s * t / 2.0)


def check_validate(outs: list[Path], context: dict) -> tuple[list[str], dict]:
    out = outs[0]
    problems: list[str] = []
    lines = _summary(out / "summary.txt")
    reports = [m.groupdict() for m in map(_REPORT.match, lines) if m]
    statuses = [m.groupdict() for m in map(_STATUS.match, lines) if m]
    names = tuple(r["name"] for r in reports)
    if names != _VALIDATE_NAMES:
        return [f"validate: report names {names} differ from the suite"], {}
    if tuple(s["name"] for s in statuses) != names:
        problems.append("validate: verdict lines do not match the report lines")
    kv = _kv(lines)
    n_controls = sum(1 for n in names if n.startswith("control:"))
    if kv.get("checks") != str(len(names) - n_controls) or kv.get("controls") != str(n_controls):
        problems.append("validate: check and control counts are wrong")
    csv_rows = _rows(out / "checks.csv")
    if csv_rows[0] != ["name", "mc", "se", "analytic", "tol", "z", "verdict"]:
        problems.append("validate: checks.csv header changed")
    unexpected = 0
    for r, s, row in zip(reports, statuses, csv_rows[1:]):
        name = r["name"]
        if row != [name, r["mc"], r["se"], r["analytic"], r["tol"], r["z"], r["verdict"]]:
            problems.append(f"validate: checks.csv row for {name} differs from summary.txt")
        if s["verdict"] != r["verdict"]:
            problems.append(f"validate: {name} verdict lines disagree")
        control = name.startswith("control:")
        expected = (r["verdict"] == "fail") if control else (r["verdict"] == "pass")
        if s["status"] != ("as-expected" if expected else "UNEXPECTED") or (s["kind"] == "control") != control:
            problems.append(f"validate: {name} status is inconsistent with its verdict")
        unexpected += s["status"] == "UNEXPECTED"
        mc, se, analytic, tol, z = (float(r[k]) for k in ("mc", "se", "analytic", "tol", "z"))
        sigma, diff = math.hypot(se, tol), mc - analytic
        z_expected = diff / sigma if sigma else (math.copysign(math.inf, diff) if diff else 0.0)
        if not (z == z_expected or _close(z, z_expected, 1e-9)):
            problems.append(f"validate: {name} z={z} does not follow from its numbers")
        sided_ok = {"bound": z <= Z_LIMIT, "solver": z >= -Z_LIMIT}.get(name.split(":")[0], abs(z) <= Z_LIMIT)
        if not control and (r["verdict"] == "pass") != sided_ok:
            problems.append(f"validate: {name} verdict does not follow from z")
    if kv.get("suite") != ("pass" if unexpected == 0 else "fail"):
        problems.append("validate: suite line is inconsistent with the verdicts")
    analytic = {r["name"]: (float(r["analytic"]), float(r["tol"])) for r in reports}
    closed = {
        "laplace": _critical_binary_laplace(1.0),
        "mean": 1.0,
        "bound:sup_mass": math.e,
        "bound:branch_events": math.e - 1.0,
        "bound:mean_mass": 1.0,
    }
    for name, value in closed.items():
        got, tol = analytic[name]
        if abs(got - value) > 10.0 * tol + 1e-9:
            problems.append(f"validate: {name} analytic={got} differs from the closed form {value}")
    return problems, {"checks_unexpected": unexpected}


def check_simulate(outs: list[Path], context: dict) -> tuple[list[str], dict]:
    out = outs[0]
    problems: list[str] = []
    kv = _kv(_summary(out / "summary.txt"))
    events = _rows(out / "events.csv")
    if events[0] != ["time", "kind", "dying_age", "offspring_count", "group_size"]:
        problems.append("simulate: events.csv header changed")
    times = [float(row[0]) for row in events[1:]]
    if kv.get("replicate_0_events") != str(len(times)):
        problems.append("simulate: replicate_0_events does not match events.csv")
    if times != sorted(times) or (times and not (0.0 < times[0] and times[-1] <= 50.0)):
        problems.append("simulate: event times are not ordered within (0, 50]")
    if any(row[1] not in ("branch", "immigrate") for row in events[1:]):
        problems.append("simulate: unknown event kind")
    if kv.get("replicate_0_terminated_by") not in ("t_end", "extinction"):
        problems.append(f"simulate: replicate 0 ended by {kv.get('replicate_0_terminated_by')}")
    if kv.get("replicates") != str(SIMULATE_REPLICATES):
        problems.append("simulate: replicate count changed")
    stats = _rows(out / "snapshot_stats.csv")[1:]
    if len(stats) != 50 or float(stats[-1][0]) != 50.0:
        problems.append("simulate: snapshot_stats.csv does not end at t_end")
        return problems, {}
    mean_mass, se = float(stats[-1][1]), float(stats[-1][2])
    ref, ref_tol = context["mean_mass_t_end"]
    z = (mean_mass - ref) / math.hypot(se, ref_tol)
    if not abs(z) <= Z_LIMIT:
        problems.append(f"simulate: t_end mean mass {mean_mass} vs moment solver {ref}: z={z:.2f}")
    return problems, {"mean_mass_z": z}


def _check_solve(out: Path, ref: dict, name: str) -> list[str]:
    problems = []
    boundary = _rows(out / "boundary.csv")[1:]
    n = round(1.0 / FAN_DT)
    if len(boundary) != n + 1:
        return [f"{name}: boundary.csv has {len(boundary)} rows, expected {n + 1}"]
    lattice = _rows(out / "lattice.csv")[1:]
    values = [float(row[2]) for row in lattice]
    if len(values) != len(ref["lattice"]):
        return [f"{name}: lattice.csv has {len(values)} rows, expected {len(ref['lattice'])}"]
    worst = max(abs(v - r) for v, r in zip(values, ref["lattice"]))
    if not worst <= ref["tol"]:
        problems.append(f"{name}: lattice differs from the reference by {worst:.3g} > {ref['tol']:.3g}")
    kv = _kv(_summary(out / "summary.txt"))
    end = float(kv.get("boundary_at_t_end", "nan"))
    if float(boundary[-1][1]) != end:
        problems.append(f"{name}: summary boundary_at_t_end is not the last boundary value")
    if not abs(end - ref["boundary_at_t_end"]) <= ref["tol"]:
        problems.append(f"{name}: boundary_at_t_end={end} vs reference {ref['boundary_at_t_end']}")
    return problems


def _check_stationary_rows(rows: list[dict], ref_rows: list[dict], tolerance: float, name: str) -> list[str]:
    problems = []
    if [r["f"] for r in rows] != [r["f"] for r in ref_rows]:
        return [f"{name}: solved fields {[r['f'] for r in rows]} differ from the reference"]
    for row, ref in zip(rows, ref_rows):
        bound = row["tail_bound"] + row["quadrature_error"]
        if not bound <= tolerance:
            problems.append(f"{name}: {row['f']} error bound {bound:.3g} exceeds {tolerance:g}")
        if not _close(row["value"], math.exp(-row["exponent_integral"])):
            problems.append(f"{name}: {row['f']} value is not exp(-exponent_integral)")
        if not abs(row["value"] - ref["value"]) <= bound + ref["error_bound"]:
            problems.append(f"{name}: {row['f']} value {row['value']} vs reference {ref['value']}")
    return problems


def check_solve_fans(outs: list[Path], context: dict) -> tuple[list[str], dict]:
    ref = context["reference"]
    problems = _check_solve(outs[0], ref["solve-u"], "solve-u")
    problems += _check_solve(outs[1], ref["solve-pi"], "solve-pi")
    rows = [
        {"f": r[0], "value": float(r[1]), "exponent_integral": float(r[2]),
         "tail_bound": float(r[5]), "quadrature_error": float(r[6])}
        for r in _rows(outs[2] / "stationary.csv")[1:]
    ]
    problems += _check_stationary_rows(rows, ref["stationary"]["rows"], ref["stationary"]["tolerance"],
                                       "stationary")
    return problems, {}


def check_stationary_zeta(outs: list[Path], context: dict) -> tuple[list[str], dict]:
    ref = context["reference"]["stationary-zeta"]
    data = json.loads((outs[0] / "stationary.json").read_text())
    rows = [dict(r, f=f"constant:{r['theta']:g}") for r in data["reports"]]
    if data["tolerance"] != ref["tolerance"]:
        return [f"stationary-zeta: tolerance {data['tolerance']} differs from the reference"], {}
    return _check_stationary_rows(rows, ref["rows"], ref["tolerance"], "stationary-zeta"), {}


def _mean_mass_reference() -> tuple[float, float]:
    """Mean population size at t_end of subcritical_imm from the moment solver.

    Richardson-certified: solved at the config's dt and at twice it.
    """
    from agebranch.cli import load_config
    from agebranch.measures import ScalarField
    from agebranch.solvers import SolverGrid, mean_with_immigration

    cfg = load_config(ROOT / "configs/subcritical_imm.json")
    one = ScalarField.constant(1.0)
    fine, coarse = (
        mean_with_immigration(cfg.model, cfg.immigration, one, cfg.initial,
                              SolverGrid(dt, cfg.t_end, cfg.quadrature))
        for dt in (cfg.grid_dt, 2.0 * cfg.grid_dt)
    )
    return fine, abs(fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# Negative controls: damage a copy of correct outputs; the check must object.
# ---------------------------------------------------------------------------


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise ValueError(f"control cannot find {old!r} in {path.name}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _perturb_validate(outs: list[Path], context: dict) -> None:
    # a laplace analytic value off by 1e-3, consistently in both files
    row = _rows(outs[0] / "checks.csv")[1]
    bad = repr(float(row[3]) + 1e-3)
    _edit(outs[0] / "checks.csv", f",{row[3]},", f",{bad},")
    _edit(outs[0] / "summary.txt", f"analytic={row[3]} ", f"analytic={bad} ")


def _perturb_simulate(outs: list[Path], context: dict) -> None:
    # the t_end mean mass moved by ten standard errors
    path = outs[0] / "snapshot_stats.csv"
    rows = _rows(path)
    rows[-1][1] = repr(float(rows[-1][1]) + 10.0 * max(float(rows[-1][2]), 1e-3))
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def _perturb_fans(outs: list[Path], context: dict) -> None:
    # one interior lattice value moved by ten certified tolerances
    path = outs[0] / "lattice.csv"
    rows = _rows(path)
    mid = len(rows) // 2
    rows[mid][2] = repr(float(rows[mid][2]) + 10.0 * context["reference"]["solve-u"]["tol"])
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def _perturb_zeta(outs: list[Path], context: dict) -> None:
    # a stationary value moved far beyond its certified error, consistently
    path = outs[0] / "stationary.json"
    data = json.loads(path.read_text())
    report = data["reports"][-1]
    report["exponent_integral"] += 0.5
    report["value"] = math.exp(-report["exponent_integral"])
    path.write_text(json.dumps(data))


def _reference_context() -> dict:
    return {"reference": load_reference()}


# Why each workload was chosen is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("validate-critical",
                 VALIDATE_REPLICATES, "configs/bench_critical.json", "interpreter",
                 _validate_ops, check_validate, _perturb_validate),
        Workload("simulate-long",
                 SIMULATE_REPLICATES, "configs/subcritical_imm.json", "interpreter",
                 _simulate_ops, check_simulate, _perturb_simulate,
                 lambda: {"mean_mass_t_end": _mean_mass_reference()}),
        Workload("solve-fans",
                 None, "configs/age_varying.json", "interpreter",
                 _fan_ops, check_solve_fans, _perturb_fans, _reference_context),
        Workload("stationary-zeta",
                 None, "configs/zeta_groups_imm.json", "array",
                 _zeta_ops, check_stationary_zeta, _perturb_zeta, _reference_context),
    )
}
