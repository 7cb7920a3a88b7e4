import json
import math
from pathlib import Path

import pytest

from agebranch.cli import RunConfig, load_config, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def small_config(tmp_path: Path, base: str = "bench_critical.json", **overrides) -> Path:
    raw = json.loads((CONFIG_DIR / base).read_text())
    raw.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    return p


def test_config_round_trip():
    for name in CONFIG_DIR.glob("*.json"):
        cfg = load_config(name)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


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

    check = ComparisonReport("laplace", McEstimate(0.5, 0.01, 97, 0, excluded=3), 0.5, 0.0)
    bound = ComparisonReport("bound:x", McEstimate(1.0, 0.1, 98, 0, excluded=2), 2.0, 0.0, sided="upper")
    monkeypatch.setattr(cli, "validation_suite", lambda cfg, n_jobs: [check, control_report(check), bound])
    p = small_config(tmp_path, replicates=100)
    assert main(["validate", "--config", str(p), "--out", str(tmp_path / "v")]) == 0
    lines = (tmp_path / "v" / "summary.txt").read_text().splitlines()
    assert lines[-1] == "excluded_paths=5"  # the control reuses its check's paths

    est = McEstimate(1.0, 0.1, 96, 0, excluded=4)
    monkeypatch.setattr(cli, "snapshot_profile", lambda sim, f, n, stream, n_jobs: [(0.0, est, est)])
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "s")]) == 0
    assert (tmp_path / "s" / "summary.txt").read_text().splitlines()[-1] == "excluded_paths=4"
