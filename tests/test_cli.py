import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from agebranch import (
    AgeMeasure,
    BranchingModel,
    ImmigrationMechanism,
    OffspringLaw,
    ScalarField,
    simulate,
)
from agebranch.cli import RunConfig, load_config, main, write_csv
from oracles import write_csv_rows

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


@pytest.mark.parametrize("sizes, reason", [
    ({"kind": "pmf", "pmf": {"1": 1.5, "2": -0.5}}, "size probabilities must be >= 0"),
    ({"kind": "declared", "pmf": {"-1": 0.5, "1": 0.5}}, "group sizes must be integers >= 1"),
])
@pytest.mark.parametrize("command", ["simulate", "stationary"])
def test_signed_or_nonpositive_size_tables_are_refused(tmp_path, capsys, sizes, reason, command):
    cfg = small_config(tmp_path, "subcritical_imm.json", immigration={**_ZETA_IMM, "sizes": sizes})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: immigration: {reason}")
    assert not out.exists()


_BENCH_TEXT = (CONFIG_DIR / "bench_critical.json").read_text()
_SIZES_TEXT = json.dumps({**json.loads((CONFIG_DIR / "subcritical_imm.json").read_text()),
                          "immigration": {**_ZETA_IMM, "sizes": {"kind": "pmf", "pmf": "SIZES"}}})


@pytest.mark.parametrize("text, command, reason", [
    *[(_BENCH_TEXT.replace('"2": 0.5', f'"{key}": 0.5'), "simulate",
       f"model: pmf key {key!r} is not an integer in canonical form") for key in ("1_0", " 2", "+2", "02")],
    (_BENCH_TEXT.replace('"2": 0.5', '"2": 0.5, "02": 0.5'), "simulate", "model: pmf key '02'"),
    (_SIZES_TEXT.replace('"SIZES"', '{"1": 0.5, "01": 0.5, "3": 0.5}'), "simulate", "immigration: pmf key '01'"),
    (_BENCH_TEXT.replace('"seed": 7', '"seed": 1, "seed": 2'), "simulate", "seed: key written twice"),
    (_BENCH_TEXT.replace('"2": 0.5', '"2": 0.25, "2": 0.25'), "simulate", "2: key written twice"),
    (_BENCH_TEXT.replace('"2": 0.5', '"100000000000000000000": 0.5'), "simulate",
     "model: offspring counts must be integers >= 0 and < 2**63, got 100000000000000000000"),
    (_SIZES_TEXT.replace('"SIZES"', '{"1": 0.5, "100000000000000000000": 0.5}'), "simulate",
     "immigration: group sizes must be integers >= 1 and < 2**63, got 100000000000000000000"),
    (_BENCH_TEXT.replace('"2": 0.5', '"%s": 0.5' % ("7" * 5000)), "simulate",
     "model: pmf key '77777777777777777777'... has 5000 characters, too long for a count below 2**63\n"),
    (_SIZES_TEXT.replace('"SIZES"', '{"1": 0.5, "%s": 0.5}' % ("7" * 5000)), "simulate",
     "immigration: pmf key '77777777777777777777'... has 5000 characters, too long for a count below 2**63\n"),
    ((CONFIG_DIR / "pure_death_imm.json").read_text().replace(
        '"f": {"kind": "constant", "value": 1.0}', '"f": {"kind": "expdecay", "amplitude": 1e308, "rate": 1.0, "floor": 1e308}'),
     "ergodic", "f: expdecay's supremum, amplitude 1e+308 plus floor 1e+308, is not finite"),
], ids=["key-underscore", "key-space", "key-plus", "key-zero-padded", "key-twice-as-int", "size-key-twice-as-int",
        "key-twice", "pmf-key-twice", "count-past-int64", "size-past-int64", "count-key-past-int-digits",
        "size-key-past-int-digits", "field-sup-overflows"])
def test_ambiguous_or_overflowing_config_values_are_refused(tmp_path, capsys, text, command, reason):
    assert text.count("SIZES") == 0 and text != _BENCH_TEXT
    p = tmp_path / "cfg.json"
    p.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {reason}")
    assert not out.exists()


def test_empty_population_without_immigration_prints_its_mean_as_a_double(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(tmp_path, initial=[])
    assert main(["validate", "--config", str(cfg), "--replicates", "20", "--out", str(out)]) == 0
    assert "mean,0.0,0.0,0.0,0.0,0.0,pass\n" in (out / "checks.csv").read_text()
    assert "mean: mc=0.0 se=0.0 analytic=0.0 tol=0.0 " in (out / "summary.txt").read_text()


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


_CONFIG_COMMANDS = ["simulate", "solve-u", "solve-pi", "validate", "ergodic", "stationary"]


@pytest.mark.parametrize("argv, message", [
    (["validate", "--config", str(CONFIG_DIR / "bench_critical.json"), "--rep", "5"],
     "unrecognized arguments: --rep 5"),
    (["validate", "--config", str(CONFIG_DIR / "bench_critical.json"), "--replicates=20", "--s", "3"],
     "unrecognized arguments: --s 3"),
    *[([command], f"{command} needs --config") for command in _CONFIG_COMMANDS],
    (["identity-check", "--config", "x"], "identity-check takes no --config"),
    (["bogus", "--config", str(CONFIG_DIR / "bench_critical.json")], "argument command: invalid choice: 'bogus'"),
    ([], "the following arguments are required: command"),
    *[(["identity-check", "--parallelism", n], f"--parallelism must be >= 1, got {n}") for n in ("0", "-3")],
], ids=["abbreviated-replicates", "abbreviated-seed", *[f"{c}-without-config" for c in _CONFIG_COMMANDS],
        "identity-check-with-config", "unknown-command", "no-command", "parallelism-0", "parallelism-negative"])
def test_argument_errors_exit_2_before_any_output(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"agebranch: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["identity-check"], ["solve-u", "--config", str(CONFIG_DIR / "pure_death.json")]])
@pytest.mark.parametrize("under", [False, True], ids=["file", "below-a-file"])
def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, argv, under):
    # FileExistsError or NotADirectoryError: an I/O error, not a failed check (exit 1 under --ci)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    assert main([*argv, "--out", str(out), "--ci"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert afile.read_text() == "kept\n"


@pytest.mark.parametrize("command", [*_CONFIG_COMMANDS, "identity-check"])
def test_every_command_takes_every_flag(tmp_path, command):
    # the benchmark passes --parallelism 1 to the solver commands, and the digest
    # tool --replicates 200 --seed 3 to all six config commands
    config = [] if command == "identity-check" else ["--config", str(CONFIG_DIR / "pure_death_imm.json")]
    flags = ["--seed", "3", "--replicates", "200", "--t-end", "2", "--dt", "0.01", "--ci"]
    assert main([command, *config, *flags, "--parallelism", "1", "--out", str(tmp_path)]) == 0
    assert any(tmp_path.iterdir())


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


def test_solve_u_refuses_a_tangent_of_one_or_more_at_age_zero(tmp_path, capsys):
    # C_0 g'(1) = (0.25 / 1.25) * 5.5 = 1.1: the boundary step could close on a spurious root
    model = {"alpha": {"kind": "constant", "value": 1.0}, "offspring": {"kind": "poisson", "mean": 5.5}}
    p = small_config(tmp_path, base="pure_death.json", model=model, t_end=10.0, grid={"dt": 0.5})
    out = tmp_path / "out"
    assert main(["solve-u", "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "C_0 g'(1) = 1.1 >= 1 at age 0" in err and err.endswith("use a smaller dt")


def test_solve_pi_boundary(tmp_path):
    p = small_config(tmp_path, base="pure_death.json")
    out = tmp_path / "out"
    assert main(["solve-pi", "--config", str(p), "--out", str(out)]) == 0
    t, v = (out / "boundary.csv").read_text().strip().split("\n")[-1].split(",")
    assert float(v) == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_coarse_table_ends_at_the_horizon(tmp_path):
    # dt 0.0004: n = 2500 steps, not a multiple of the stride 62, so the
    # horizon is added as the last node of both axes
    from agebranch.solvers import SolverGrid, solve_exponent

    out = tmp_path / "out"
    config = CONFIG_DIR / "age_varying.json"
    assert main(["solve-u", "--config", str(config), "--dt", "0.0004", "--out", str(out)]) == 0
    boundary = [line.split(",") for line in (out / "boundary.csv").read_text().splitlines()[1:]]
    lattice = [line.split(",") for line in (out / "lattice.csv").read_text().splitlines()[1:]]
    nodes = [0.0004 * k for k in [*range(0, 2500, 62), 2500]]
    assert [float(row[0]) for row in lattice[:len(nodes)]] == pytest.approx(nodes, abs=1e-12)
    assert len(lattice) == len(nodes) ** 2
    assert lattice[-1][:2] == ["1.0", "1.0"] and boundary[-1][0] == "1.0"
    assert lattice[len(nodes) - 1][1:] == ["0.0", boundary[-1][1]]  # x = 0 reads the boundary
    cfg = load_config(config)
    sol = solve_exponent(cfg.model, cfg.f, SolverGrid(0.0004, cfg.t_end, cfg.quadrature))
    assert float(lattice[-1][2]) == sol.rays([1.0])[0, -1]


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


def _unshifted_controls(monkeypatch):
    from dataclasses import replace

    from agebranch import validate

    # each control is its check, unshifted: it passes, which a control must not
    monkeypatch.setattr(validate, "control_report", lambda r: replace(r, name=f"control:{r.name}"))


def _identity_sides_apart(monkeypatch):
    from agebranch import cli

    monkeypatch.setattr(cli, "exponential_tail_identity", lambda a, c, n: (1.0, 1.0 + 1e-6))


def _rising_gaps(monkeypatch):
    from agebranch import cli
    from agebranch.validate import ComparisonReport, McEstimate

    check = ComparisonReport("ergodic:T=1", McEstimate(0.5, 0.01, 100, 0), 0.5, 0.0)
    monkeypatch.setattr(cli, "ergodic_convergence", lambda *a, **k: (0.5, [check] * 3, [0.1, 0.2, 0.3]))


@pytest.mark.parametrize("argv, fault, expected", [
    (["validate", "--config", "bench_critical.json", "--replicates", "2000", "--seed", "1"], _unshifted_controls,
     ["control control:laplace: pass (UNEXPECTED)", "suite=fail"]),
    (["identity-check"], _identity_sides_apart, ["verdict=fail"]),
    (["ergodic", "--config", "pure_death_imm.json"], _rising_gaps, ["gaps_decreasing=false"]),
], ids=["validate", "identity-check", "ergodic"])
def test_ci_maps_a_failed_check_to_exit_1(tmp_path, monkeypatch, argv, fault, expected):
    fault(monkeypatch)
    argv = [str(CONFIG_DIR / a) if a.endswith(".json") else a for a in argv]
    outs = []
    for flags in (["--ci"], []):
        out = tmp_path / ("ci" if flags else "plain")
        assert main([*argv, "--out", str(out), *flags]) == (1 if flags else 0)
        outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert outs[0] == outs[1]  # --ci moves the exit code only
    lines = outs[0]["summary.txt"].decode().splitlines()
    assert all(line in lines for line in expected)


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
    first = simulate(load_config(p).sim_config())
    monkeypatch.setattr(cli, "snapshot_profile", lambda sim, f, n, stream, n_jobs: ([(0.0, est, est)], first))
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
    # ergodic's quarter horizon must be an even number of steps: 2.0 / 4 is 250 of 0.002
    for command, config, t_end in (("validate", "bench_critical.json", "1.0"),
                                   ("ergodic", "pure_death_imm.json", "2.0")):
        calls.clear()
        argv = [command, "--config", str(CONFIG_DIR / config), "--replicates", "1100",
                "--t-end", t_end, "--out", str(tmp_path / command)]
        assert main(argv) == 0
        assert calls == [512, 512, 76], command


def test_simulate_reads_every_output_from_one_path_set(tmp_path, monkeypatch):
    # one simulate_paths call per chunk, and the event log is path 0 of chunk 0
    # of the profile's own set on stream 1, not a path simulated for it alone
    import csv

    from agebranch import validate
    from agebranch.cli import _fmt
    from agebranch.simulate import replicate_rng

    simulate_module = importlib.import_module("agebranch.simulate")  # the package's name is the function
    calls = []
    simulate_paths = simulate_module.simulate_paths
    counted = lambda *a, **k: calls.append(a[2]) or simulate_paths(*a, **k)  # noqa: E731
    monkeypatch.setattr(simulate_module, "simulate_paths", counted)
    monkeypatch.setattr(validate, "simulate_paths", counted)
    p = small_config(tmp_path, base="subcritical_imm.json", t_end=5.0)
    sim = load_config(p).sim_config()
    for n, chunks in ((50, [50]), (1100, [512, 512, 76])):
        calls.clear()
        out = tmp_path / str(n)
        assert main(["simulate", "--config", str(p), "--replicates", str(n), "--out", str(out)]) == 0
        assert calls == chunks
        path0 = simulate_paths(sim, replicate_rng(sim.seed, 1, 0), min(512, n), log_paths=1).trajectory(0)
        with open(out / "events.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(path0.events) > 1
        assert rows == [
            [_fmt(e.time), e.kind, *((_fmt(e.dying_age), str(e.offspring_count), "") if e.kind == "branch"
                                    else ("", "", str(e.group.total_mass)))]
            for e in path0.events
        ]
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[:2] == [f"replicate_0_events={len(path0.events)}",
                               f"replicate_0_terminated_by={path0.terminated_by}"]


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


def _digest_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "command_digests.py"
    spec = importlib.util.spec_from_file_location("command_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)  # main() is not called
    return digests


def test_command_digests_moved_lists_each_moved_digest():
    # the manifest comparison alone, with no command run
    digests = _digest_tool()

    def run(exit_code=0, **files):
        return {"exit": exit_code, "stdout": "a", "stderr": "b", "files": files}

    old = {"pure_death solve-u": run(**{"boundary.csv": "c", "lattice.csv": "d"}), "pure_death simulate": run()}
    assert digests.moved(old, json.loads(json.dumps(old))) == []
    new = {**old, "pure_death solve-u": run(**{"boundary.csv": "c", "lattice.csv": "e"})}
    assert digests.moved(new, old) == ["pure_death solve-u lattice.csv"]
    new = {**old, "pure_death simulate": run(2)}
    assert digests.moved(new, old) == ["pure_death simulate exit"]
    new = {"pure_death solve-u": old["pure_death solve-u"], "pure_death solve-pi": run()}
    assert digests.moved(new, old) == ["pure_death simulate: removed", "pure_death solve-pi: added"]


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


@pytest.mark.parametrize("command, config", [
    ("solve-u", "bench_critical"), ("validate", "bench_critical"), ("ergodic", "pure_death_imm"),
])
def test_horizon_of_no_finite_step_count_is_refused(tmp_path, command, config):
    # t_end / dt overflows: a clean refusal before any solve or path, not a
    # traceback (solve-u, validate) or a simulation to t = 1e308 (ergodic)
    res = subprocess.run(
        [sys.executable, "-m", "agebranch.cli", command, "--config", str(CONFIG_DIR / f"{config}.json"),
         "--t-end", "1e308", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert res.returncode == 2 and "Traceback" not in res.stderr
    assert re.fullmatch(r"error: horizon \S+ is not a (whole|finite) number of steps of dt \S+\n", res.stderr)


def test_an_allocation_past_any_address_space_exits_2(tmp_path):
    # 10**15 snapshot times need 8 PB: numpy's MemoryError is reported as an
    # error, not a traceback with exit 1
    p = small_config(tmp_path, snapshots=10**15)
    res = subprocess.run(
        [sys.executable, "-m", "agebranch.cli", "simulate", "--config", str(p), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    assert res.returncode == 2 and "Traceback" not in res.stderr
    assert res.stderr.startswith("error: Unable to allocate ")


def _modules_after_import() -> list[str]:
    res = subprocess.run(
        [sys.executable, "-c", "import json, sys; sys.path.insert(0, sys.argv[1]); import agebranch, "
         "agebranch.cli; print(json.dumps(sorted(sys.modules)))", str(SRC_DIR)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(res.stdout)


def test_import_loads_no_scipy():
    assert not [m for m in _modules_after_import() if m.split(".")[0] == "scipy"]


def test_import_loads_no_multiprocessing():
    # only a run with --parallelism above 1 starts a pool and imports it
    assert not [m for m in _modules_after_import() if m.split(".")[0] == "multiprocessing"]


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


@pytest.mark.parametrize("key", [
    "subcritical_imm simulate", "zeta_groups_imm simulate", "age_varying simulate", "age_varying solve-u",
    "age_varying solve-pi", "pure_death_imm validate", "pure_death_imm ergodic", "pure_death_imm stationary",
    "identity-check",
])
def test_command_writes_the_bytes_of_the_committed_manifest(key):
    # one entry per command, run as tools/command_digests.py runs it: a change that
    # moves a byte re-records tools/command_digests.json, or this fails
    digests = _digest_tool()
    recorded = json.loads((digests.ROOT / "tools" / "command_digests.json").read_text())[key]
    entry = digests.digest([key])[key]
    assert entry == recorded, digests.moved({key: entry}, {key: recorded})


def _writer_table(n: int) -> list:
    """Columns of ``n`` rows, cycling through the values the writer formats each way."""
    floats = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 1.0, -2.5]
    scalars = [3, np.int64(-7), True, np.bool_(False), np.float64(1e16), 0.1 + 0.2, np.float64(-0.0),
               np.uint8(255), math.nan]
    texts = ["", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "plain", "-inf"]
    cycle = lambda values: [values[i % len(values)] for i in range(n)]
    words = [f"w{i}" if i < 512 else texts[i % len(texts)] for i in range(n)]  # quoted from chunk 2 on
    return [
        np.array(cycle(floats)),
        np.arange(n, dtype=np.int64) - n // 2,
        np.arange(n, dtype=np.uint32),
        np.array(cycle([True, False, False])),
        np.array(cycle(floats), dtype=np.float32),
        cycle(scalars),
        tuple(words),
        np.array(words),
    ]


@pytest.mark.parametrize("n", [0, 1, 511, 512, 1024, 1300])
def test_column_writer_writes_the_row_writers_bytes(tmp_path, n):
    # the first chunk is plain text, later ones hold quoted cells; 1024 rows end
    # on a chunk boundary (no empty last chunk is written), 1300 span three chunks
    columns = _writer_table(n)
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "new.csv", header, columns)
    write_csv_rows(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("rows", [
    [], [[""], ["x"], [""]], [["x"], [1]], [["a,b", 1.5], ['"', np.float64(2.0)]], [["", ""], ["", 0]],
    [['say "hi"', 1.0]], [["two\nlines", 1.0]], [["cr\rlf", 2]],
])
def test_row_tables_written_as_columns_keep_their_bytes(tmp_path, rows):
    # the commands' small tables pass zip(*rows): no rows at all is the header alone
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
    write_csv(tmp_path / "new.csv", header, zip(*rows))
    write_csv_rows(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_column_writer_holds_one_chunk_of_text(tmp_path):
    # the longest boundary trace a grid allows: its text (about 11 MB) is never held whole
    from agebranch.solvers import _MAX_STEPS

    times = np.arange(_MAX_STEPS) * 0.0004
    values = np.sqrt(times)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "long.csv", ["t", "value"], [times, values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak
    assert (tmp_path / "long.csv").read_text().count("\n") == _MAX_STEPS + 1

