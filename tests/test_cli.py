import hashlib
import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from agebranch import (
    AgeMeasure,
    BranchingModel,
    ImmigrationMechanism,
    OffspringLaw,
    ScalarField,
)
from agebranch.cli import RunConfig, load_config, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def small_config(tmp_path: Path, base: str = "bench_critical.json", **overrides) -> Path:
    raw = json.loads((CONFIG_DIR / base).read_text())
    raw.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return p


def test_config_from_dict():
    for name in sorted(CONFIG_DIR.glob("*.json")):
        assert isinstance(load_config(name), RunConfig), name
    model = {"alpha": {"kind": "constant", "value": 1}, "offspring": {"kind": "geometric", "q": 0.4}}
    built = BranchingModel(ScalarField.constant(1.0), OffspringLaw.geometric(0.4))
    raw = {
        "schema_version": 1,
        "model": model,
        "immigration": {"kind": "finite", "groups": [{"rate": 2.0, "ages": [1.0, 0.0]}]},
        "initial": [0.5, 0],
        "t_end": 2,
        "f": {"kind": "rational", "scale": 2.0},
        "grid": {"dt": 0.01, "quadrature": "rectangle"},
        "replicates": 100.0,
        "seed": 3,
        "snapshots": 5,
    }
    assert RunConfig.from_dict(raw) == RunConfig(
        built, AgeMeasure.from_ages([0.0, 0.5]), 2.0, 0.01, "rectangle", 100, 3,
        ScalarField.rational(2.0),
        ImmigrationMechanism.finite_support([(2.0, AgeMeasure.from_ages([0.0, 1.0]))]), 5,
    )
    defaults = RunConfig.from_dict({"model": model, "initial": [], "t_end": 1.0})
    assert defaults == RunConfig(
        built, AgeMeasure.empty(), 1.0, 1e-3, "trapezoid", 10_000, 0, ScalarField.constant(1.0)
    )


_BENCH_CRITICAL = json.loads((CONFIG_DIR / "bench_critical.json").read_text())


@pytest.mark.parametrize("raw, flags, field", [
    ({**_BENCH_CRITICAL, "grid": [1]}, [], "grid"),
    ({**_BENCH_CRITICAL, "f": [1]}, [], "f"),
    ({**_BENCH_CRITICAL, "immigration": [1]}, [], "immigration"),
    ({**_BENCH_CRITICAL, "model": {**_BENCH_CRITICAL["model"], "alpha": [1]}}, [], "model"),
    *[({**_BENCH_CRITICAL, key: bad}, [], key)
      for key in ("replicates", "seed", "snapshots", "t_end") for bad in (None, [1])],
    ({**_BENCH_CRITICAL, "seed": 2.5}, [], "seed"),
    ({**_BENCH_CRITICAL, "replicates": 200.5}, [], "replicates"),
    ({**_BENCH_CRITICAL, "seed": True}, [], "seed"),
    ({**_BENCH_CRITICAL, "seed": -1}, [], "seed"),
    (_BENCH_CRITICAL, ["--seed", "-1"], "seed"),
    ([1], [], "config"),
    ({**_BENCH_CRITICAL, "t_end": math.inf}, [], "t_end"),
    (_BENCH_CRITICAL, ["--t-end", "inf"], "t_end"),
    (_BENCH_CRITICAL, ["--dt", "inf"], "grid.dt"),
], ids=lambda v: json.dumps(v)[:60] if not isinstance(v, str) else v)
def test_malformed_config_is_refused(tmp_path, capsys, raw, flags, field):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))  # math.inf is written as Infinity, which json reads back
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


_IMM = {"kind": "finite", "groups": [{"rate": 1.0, "ages": [0.0]}]}
_ZETA_IMM = {"kind": "parametric", "total_rate": 1.0, "sizes": {"kind": "zeta", "exponent": 3.0},
             "ages": [{"age": 0.0, "prob": 1.0}]}


def _with(raw: dict, path: str, value) -> dict:
    """A deep copy of ``raw`` with the entry at the dotted ``path`` replaced."""
    out = json.loads(json.dumps(raw))
    *parents, last = path.split(".")
    node = out
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    node[int(last) if isinstance(node, list) else last] = value
    return out


@pytest.mark.parametrize("path, value, field", [
    ("initial", "12", "initial"),  # a string is not a list of ages
    ("initial", [0.0, "1"], "initial"),
    ("initial", [True], "initial"),
    ("model.alpha.value", "2", "model"),
    ("model.offspring", {"kind": "poisson", "mean": True}, "model"),
    ("model.offspring", {"kind": "geometric", "q": "0.5"}, "model"),
    ("model.offspring.pmf.0", "0.5", "model"),
    ("model.alpha", {"kind": "step", "thresholds": "1", "values": [1.0, 2.0]}, "model"),
    ("f", {"kind": "expdecay", "amplitude": 1.0, "rate": True}, "f"),
    ("immigration", {**_IMM, "groups": [{"rate": "1", "ages": [0.0]}]}, "immigration"),
    ("immigration", {**_IMM, "groups": [{"rate": 1.0, "ages": "0"}]}, "immigration"),
    ("immigration", {**_ZETA_IMM, "sizes": {"kind": "zeta", "exponent": "3"}}, "immigration"),
    ("immigration", {**_ZETA_IMM, "total_rate": True}, "immigration"),
    ("immigration", {**_ZETA_IMM, "ages": [{"age": False, "prob": 1.0}]}, "immigration"),
])
def test_descriptor_numbers_must_be_json_numbers(tmp_path, capsys, path, value, field):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_with(_BENCH_CRITICAL, path, value)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


def test_null_immigration_is_the_zero_rate_mechanism(tmp_path, capsys):
    configs = []
    for name, imm in (("null", None), ("zero", {"kind": "finite", "groups": []})):
        (tmp_path / name).mkdir()
        configs.append(small_config(tmp_path / name, "pure_death.json", immigration=imm, replicates=50))
    for command in ("simulate", "solve-u", "solve-pi", "validate"):
        outs = []
        for i, cfg in enumerate(configs):
            out = tmp_path / f"{command}-{i}"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1]
    for command in ("ergodic", "stationary"):
        errs = []
        for cfg in configs:
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            f"config error: immigration: the {command} command needs an immigration mechanism\n"
        )


def test_missing_config_is_a_clean_error(tmp_path, capsys):
    out = tmp_path / "should_not_exist"
    code = main(["validate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "config" in capsys.readouterr().err


def test_invalid_config_field_diagnostics(tmp_path, capsys):
    p = small_config(tmp_path, model={"alpha": {"kind": "constant", "value": 1.0},
                                      "offspring": {"kind": "pmf", "pmf": {"0": 0.7, "2": 0.7}}})
    code = main(["validate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "model" in err


def test_solve_u_boundary_matches_closed_form(tmp_path):
    p = small_config(tmp_path, base="pure_death.json")
    out = tmp_path / "out"
    assert main(["solve-u", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "boundary.csv").read_text().strip().split("\n")
    assert lines[0] == "t,exponent"
    t, b = lines[-1].split(",")
    expected = -math.log(1 - (1 - math.exp(-1.0)) * math.exp(-1.0))
    assert float(t) == 1.0
    assert float(b) == pytest.approx(expected, abs=1e-7)
    assert (out / "lattice.csv").exists()


def test_solve_pi_boundary(tmp_path):
    p = small_config(tmp_path, base="pure_death.json")
    out = tmp_path / "out"
    assert main(["solve-pi", "--config", str(p), "--out", str(out)]) == 0
    t, v = (out / "boundary.csv").read_text().strip().split("\n")[-1].split(",")
    assert float(v) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_simulate_outputs(tmp_path):
    p = small_config(tmp_path, replicates=200, snapshots=5)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
    events = (out / "events.csv").read_text().split("\n")
    assert events[0] == "time,kind,dying_age,offspring_count,group_size"
    stats = (out / "snapshot_stats.csv").read_text().strip().split("\n")
    assert len(stats) == 6  # header + 5 snapshot rows
    first = stats[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0 and float(first[2]) == 0.0


def test_validate_outputs_and_row_schema(tmp_path):
    p = small_config(tmp_path, replicates=400)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "checks.csv").read_text().strip().split("\n")
    assert lines[0] == "name,mc,se,analytic,tol,z,verdict"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 13
    names = [r[0] for r in rows]
    assert "laplace" in names and "control:laplace" in names
    assert sum(1 for n in names if n.startswith("control:")) == 3
    for r in rows:
        assert r[6] in ("pass", "fail")
        float(r[1]), float(r[2]), float(r[3]), float(r[4])  # parseable numbers
    summary = (out / "summary.txt").read_text()
    assert "checks=10" in summary and "controls=3" in summary


def test_validate_byte_identical_across_runs_and_parallelism(tmp_path):
    p = small_config(tmp_path, replicates=600)
    outs = []
    for tag, par in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / tag
        assert main(
            ["validate", "--config", str(p), "--out", str(out), "--parallelism", par]
        ) == 0
        outs.append((out / "checks.csv").read_bytes() + (out / "summary.txt").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_simulate_byte_identical_across_parallelism(tmp_path):
    # three chunks of replicates, the last one short
    p = small_config(tmp_path, replicates=1100)
    outs = []
    for tag, par in (("a", "1"), ("b", "2")):
        out = tmp_path / tag
        assert main(["simulate", "--config", str(p), "--out", str(out), "--parallelism", par]) == 0
        outs.append([(out / name).read_bytes() for name in ("snapshot_stats.csv", "summary.txt", "events.csv")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("base", ["pure_death_imm.json", "subcritical_imm.json"])
def test_validate_growth_bounds_count_arrivals(tmp_path, base):
    p = small_config(tmp_path, base=base, replicates=200)
    out = tmp_path / "out"
    assert main(["validate", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    for name in ("sup_mass", "branch_events", "mean_mass"):
        assert f"check bound:{name}: pass (as-expected)" in lines


def test_seed_override_changes_results(tmp_path):
    p = small_config(tmp_path, replicates=400)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["validate", "--config", str(p), "--out", str(out1), "--seed", "1"])
    main(["validate", "--config", str(p), "--out", str(out2), "--seed", "2"])
    assert (out1 / "checks.csv").read_bytes() != (out2 / "checks.csv").read_bytes()


def test_identity_check_command(tmp_path):
    out = tmp_path / "out"
    assert main(["identity-check", "--out", str(out), "--ci"]) == 0
    lines = (out / "identity.csv").read_text().strip().split("\n")
    assert lines[0] == "a,c,group_mass,lhs,rhs,abs_diff"
    assert len(lines) == 28  # header + 27 grid cases
    assert "verdict=pass" in (out / "summary.txt").read_text()


def test_ergodic_command_not_ergodic_writes_header_only(tmp_path):
    p = small_config(tmp_path, base="heavy_tail_imm.json")
    out = tmp_path / "out"
    assert main(["ergodic", "--config", str(p), "--out", str(out)]) == 0
    assert (out / "ergodic.csv").read_text() == "name,mc,se,analytic,tol,z,verdict\n"
    assert "status=not_ergodic" in (out / "summary.txt").read_text()


def test_ergodic_command_queue(tmp_path):
    p = small_config(tmp_path, base="pure_death_imm.json", replicates=500)
    out = tmp_path / "out"
    assert main(["ergodic", "--config", str(p), "--out", str(out), "--ci"]) == 0
    text = (out / "summary.txt").read_text()
    assert "status=ergodic" in text
    assert "gaps_decreasing=true" in text


def test_stationary_command(tmp_path):
    p = small_config(tmp_path, base="pure_death_imm.json")
    out = tmp_path / "out"
    assert main(["stationary", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "stationary.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    row = dict(zip(lines[0].split(","), lines[3].split(",")))  # theta = 1.0
    assert float(row["value"]) == pytest.approx(math.exp(-3 * (1 - math.exp(-1))), abs=1e-6)
    assert float(row["tail_bound"]) + float(row["quadrature_error"]) <= 1e-6


def test_overrides_revalidated(tmp_path, capsys):
    p = small_config(tmp_path)
    code = main(["validate", "--config", str(p), "--out", str(tmp_path / "o"), "--dt", "5.0"])
    assert code == 2  # dt > t_end rejected after override
    assert "grid.dt" in capsys.readouterr().err


def test_override_flags_match_an_edited_config(tmp_path, capsys):
    raw = json.loads((CONFIG_DIR / "subcritical_imm.json").read_text())
    written, edited = tmp_path / "written.json", tmp_path / "edited.json"
    written.write_text(json.dumps(raw))
    edited.write_text(json.dumps(
        {**raw, "seed": 5, "replicates": 100, "t_end": 0.5, "grid": {**raw["grid"], "dt": 0.01}}
    ))
    flags = ["--seed", "5", "--replicates", "100", "--t-end", "0.5", "--dt", "0.01"]
    for command in ("simulate", "validate", "solve-u"):
        outs = []
        for tag, argv in (("flags", ["--config", str(written), *flags]), ("file", ["--config", str(edited)])):
            out = tmp_path / f"{command}-{tag}"
            assert main([command, *argv, "--out", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1] and outs[0]

    # a file invalid as written is refused even when a flag overrides the bad field
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**raw, "replicates": 1}))
    out = tmp_path / "refused"
    assert main(["simulate", "--config", str(invalid), "--replicates", "100", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: replicates: must be >= 2\n"
    assert not out.exists()


def test_validate_suite_passes_with_ci_on_bench_critical(tmp_path):
    # the martingale control used to lack power below ~22k replicates
    out = tmp_path / "out"
    argv = ["validate", "--config", str(CONFIG_DIR / "bench_critical.json"), "--replicates", "2000",
            "--seed", "1", "--out", str(out), "--ci"]
    assert main(argv) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert "suite=pass" in lines and lines[-1] == "excluded_paths=0"
    assert "control control:martingale:exp: fail (as-expected)" in lines


def test_excluded_paths_reported(tmp_path, monkeypatch):
    from agebranch import cli
    from agebranch.validate import ComparisonReport, McEstimate, control_report

    # the checks read one path set and each carries its 3 excluded paths; the
    # set's count is reported once
    check = ComparisonReport("laplace", McEstimate(0.5, 0.01, 97, 0, excluded=3), 0.5, 0.0)
    bound = ComparisonReport("bound:x", McEstimate(1.0, 0.1, 97, 0, excluded=3), 2.0, 0.0, sided="upper")
    solver = ComparisonReport("solver:x", McEstimate(0.1, 0.0, 0, 0), 0.0, 1e-9, sided="lower")
    monkeypatch.setattr(
        cli, "validation_suite", lambda cfg, n_jobs: [check, control_report(check), bound, solver]
    )
    p = small_config(tmp_path, replicates=100)
    assert main(["validate", "--config", str(p), "--out", str(tmp_path / "v")]) == 0
    lines = (tmp_path / "v" / "summary.txt").read_text().splitlines()
    assert lines[-1] == "excluded_paths=3"

    est = McEstimate(1.0, 0.1, 96, 0, excluded=4)
    monkeypatch.setattr(cli, "snapshot_profile", lambda sim, f, n, stream, n_jobs: [(0.0, est, est)])
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "summary.txt").read_text().splitlines()[-1] == "excluded_paths=4"


def capped_paths(sim, stream: int, n: int) -> int:
    """Paths the event cap cuts in the set of ``n`` replicates of ``sim`` on ``stream``."""
    from agebranch.simulate import replicate_rng, simulate_paths

    return sum(
        int(simulate_paths(sim, replicate_rng(sim.seed, stream, c), min(512, n - 512 * c)).capped.sum())
        for c in range(-(-n // 512))
    )


def test_validate_and_ergodic_report_their_set_excluded_paths_once(tmp_path, monkeypatch):
    # an event cap of 4 cuts some paths: each command reports its one set's count
    from dataclasses import replace

    sim_config = RunConfig.sim_config
    monkeypatch.setattr(RunConfig, "sim_config", lambda self: replace(sim_config(self), max_events=4))
    cfg = small_config(tmp_path, replicates=600)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
    capped = capped_paths(load_config(cfg).sim_config(), 10, 600)
    assert 0 < capped < 600
    lines = (tmp_path / "v" / "summary.txt").read_text().splitlines()
    assert lines[-1] == f"excluded_paths={capped}"
    assert "mean: mc=" in "\n".join(lines)

    cfg = small_config(tmp_path, "subcritical_imm.json", replicates=600, t_end=4.0)
    assert main(["ergodic", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 0
    sim = load_config(cfg).sim_config()
    capped = capped_paths(replace(sim, snapshot_times=(4.0,)), 52, 600)
    assert 0 < capped < 600
    lines = (tmp_path / "e" / "summary.txt").read_text().splitlines()
    assert lines[-1] == f"excluded_paths={capped}"


def test_one_simulate_paths_call_per_chunk(tmp_path, monkeypatch):
    # validate and ergodic each simulate one path set: 3 chunks at 1100 replicates
    from agebranch import validate

    calls = []
    simulate_paths = validate.simulate_paths
    monkeypatch.setattr(
        validate, "simulate_paths", lambda *a, **k: calls.append(a[2]) or simulate_paths(*a, **k)
    )
    for command, config in (("validate", "bench_critical.json"), ("ergodic", "pure_death_imm.json")):
        calls.clear()
        argv = [command, "--config", str(CONFIG_DIR / config), "--replicates", "1100",
                "--t-end", "1.0", "--out", str(tmp_path / command)]
        assert main(argv) == 0
        assert calls == [512, 512, 76], command


def test_ergodic_byte_identical_across_runs_and_parallelism(tmp_path):
    outs = []
    for tag, par in (("a", "1"), ("b", "2"), ("c", "1")):
        out = tmp_path / tag
        argv = ["ergodic", "--config", str(CONFIG_DIR / "pure_death_imm.json"), "--replicates", "1100",
                "--t-end", "4.0", "--parallelism", par, "--out", str(out)]
        assert main(argv) == 0
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1] == outs[2] and "ergodic.csv" in outs[0]


_TRACED_RUNS = """
import sys, tempfile
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
Tracer().install()  # raises if a name the tracer patches is gone
from agebranch.cli import main
configs = sys.argv[3]
with tempfile.TemporaryDirectory() as out:
    for command, config in (("validate", "bench_critical"), ("ergodic", "pure_death_imm")):
        code = main([command, "--config", f"{configs}/{config}.json", "--replicates", "20",
                     "--out", f"{out}/{command}"])
        assert code == 0, (command, code)
print("ok")
"""


def test_benchmark_tracer_installs_and_traces_validate_and_ergodic():
    # bench/run.py --trace 1 patches names of the package; one that is gone would break it
    bench = Path(__file__).resolve().parent.parent / "bench"
    res = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, str(bench), str(SRC_DIR), str(CONFIG_DIR)],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0 and res.stdout.split() == ["ok"], res.stderr


_TRACED_VALIDATE = """
import json, sys, tempfile
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
tracer = Tracer()
tracer.install()
from agebranch.cli import main
with tempfile.TemporaryDirectory() as out:
    assert main(["validate", "--config", sys.argv[3], "--replicates", "20", "--out", out]) == 0
print(json.dumps([span[0] for span in tracer.spans]))
"""


def test_traced_validate_sees_each_boundary_solve():
    # the run's solution memo calls the solvers by the names the tracer patches
    bench = Path(__file__).resolve().parent.parent / "bench"
    res = subprocess.run(
        [sys.executable, "-c", _TRACED_VALIDATE, str(bench), str(SRC_DIR),
         str(CONFIG_DIR / "bench_critical.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    names = json.loads(res.stdout.strip().splitlines()[-1])
    assert names.count("validate.solver_bound_checks") == 1
    assert names.count("solvers.solve_exponent") == names.count("solvers.solve_mean") == 2


def test_tracer_names_resolve_in_the_package():
    # bench/tracer.py patches every name of its tables with a bare getattr, so a
    # name deleted from the package breaks every traced benchmark pass
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # the tables only: install() is not called
    for table in (tracer._SPANS, tracer._TIMED, tracer._COUNTED):
        for module_name, names in table.items():
            for qual in names:
                target = importlib.import_module(f"agebranch.{module_name}")
                for part in qual.split("."):
                    target = getattr(target, part)
                assert callable(target), f"{module_name}.{qual}"


# Run one command in a fresh interpreter after the set-up a user pays (import,
# config parse) and report the modules present at set-up and loaded by the run.
_IMPORT_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import agebranch.cli as cli
argv = json.loads(sys.argv[2])
if "--config" in argv:
    cli.load_config(argv[argv.index("--config") + 1])
setup = set(sys.modules)
with tempfile.TemporaryDirectory() as out:
    code = cli.main(argv + ["--out", out])
print(json.dumps({"code": code, "setup": sorted(setup), "new": sorted(set(sys.modules) - setup)}))
"""


def _modules_of_run(argv: list[str]) -> dict:
    res = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC_DIR), json.dumps(argv)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    res = subprocess.run(
        [sys.executable, "-c", "import json, sys; sys.path.insert(0, sys.argv[1]); import agebranch, "
         "agebranch.cli; print(json.dumps(sorted(sys.modules)))", str(SRC_DIR)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    assert not [m for m in json.loads(res.stdout) if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", str(CONFIG_DIR / "subcritical_imm.json"), "--replicates", "50"],
    ["validate", "--config", str(CONFIG_DIR / "bench_critical.json"), "--replicates", "200"],
    ["solve-u", "--config", str(CONFIG_DIR / "pure_death_imm.json")],
    ["stationary", "--config", str(CONFIG_DIR / "pure_death_imm.json")],
], ids=lambda argv: argv[0])
def test_commands_import_nothing_after_setup(argv):
    # set-up pays for every module a run needs; nothing loads inside the timed work
    run = _modules_of_run(argv)
    assert run["code"] == 0
    assert not [m for m in run["setup"] if m.split(".")[0] == "scipy"]
    assert run["new"] == []


def test_identity_check_alone_imports_scipy_integrate():
    run = _modules_of_run(["identity-check"])
    assert run["code"] == 0
    assert "scipy.integrate" in run["new"]


# sha256 prefixes of every output file, recorded when the solver commands formatted
# numpy scalars cell by cell and validate solved each boundary twice; validate's
# again when its martingale control became control_report of the check
OUTPUT_DIGESTS = {
    "simulate": {"events.csv": "32ba8dbfb9f9775e", "snapshot_stats.csv": "de5cbb939052481e",
                 "summary.txt": "0089920c76edae34"},
    "solve-u": {"boundary.csv": "2aaaa339a9bdef01", "lattice.csv": "0e1874cfa3c535cd",
                "summary.txt": "bf6d694e54b9e8f5"},
    "solve-pi": {"boundary.csv": "fdadae6a361fe4ef", "lattice.csv": "0f0f1ff35eb69315",
                 "summary.txt": "f8d0c8a967eef3d0"},
    "validate": {"checks.csv": "504a16a838a0d079", "summary.txt": "856dc876e07046f5"},
    "ergodic": {"ergodic.csv": "84203a94c03b9606", "summary.txt": "168f9eeb5c488491"},
    "stationary": {"stationary.csv": "a3c55c79ef6f1de3", "summary.txt": "5def3dde942243e8"},
    "identity-check": {"identity.csv": "3208666b237776e2", "summary.txt": "0eedf5edff33317f"},
}


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--config", "subcritical_imm", "--replicates", "50", "--t-end", "5"]),
    ("solve-u", ["--config", "age_varying"]),
    ("solve-pi", ["--config", "age_varying"]),
    ("validate", ["--config", "pure_death_imm", "--replicates", "100", "--t-end", "2"]),
    ("ergodic", ["--config", "pure_death_imm", "--replicates", "100", "--t-end", "4"]),
    ("stationary", ["--config", "pure_death_imm"]),
    ("identity-check", []),
], ids=lambda v: v if isinstance(v, str) else "")
def test_every_command_writes_its_recorded_bytes(tmp_path, command, flags):
    flags = [str(CONFIG_DIR / f"{v}.json") if k == "--config" else v
             for k, v in zip([None, *flags], flags)]
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in sorted(out.iterdir())}
    assert digests == OUTPUT_DIGESTS[command]
