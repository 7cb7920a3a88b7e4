"""Coverage sweep: every documented command on every shipped config, once.

Separate from the timed workloads.  Each command runs in its own interpreter
at a small replicate count under a fixed time budget and is recorded as
``finished``, ``refused: <message>`` or ``over_budget``.  The result is
compared with the outcomes known at the commit that introduced the benchmark,
so a fixed defect or a new one shows up as a difference.

    python3 bench/sweep.py            # prints one line per command
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from facts import CONFIGS, OUT, ROOT, child_env, missing_program

COMMANDS = ("simulate", "solve-u", "solve-pi", "validate", "ergodic", "stationary")
REPLICATES = 200
BUDGET_S = 45.0

# Outcomes other than "finished" at the commit that introduced the benchmark.
# A refusal matches when the message starts with the recorded prefix.
_LATTICE_CAP = "refused: error: lattice storage capped at 4096 steps"
KNOWN = {
    **{f"{config} {command}": f"refused: config error: immigration: the {command} command needs "
                              "an immigration mechanism"
       for config in ("age_varying", "bench_critical", "pure_death")
       for command in ("ergodic", "stationary")},
    "heavy_tail_imm simulate": "refused: error: group-size draw exceeded the supported range",
    "heavy_tail_imm validate": "over_budget",
    "heavy_tail_imm stationary": "refused: error: stationary law not certified: not_ergodic",
    "pure_death_imm validate": _LATTICE_CAP,
    "subcritical_imm validate": _LATTICE_CAP,
    "zeta_groups_imm validate": _LATTICE_CAP,
    "zeta_groups_imm ergodic": "over_budget",
    "zeta_groups_imm stationary": "over_budget",
}


def _outcome(argv: list[str], out_dir) -> tuple[str, float]:
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "agebranch.cli", *argv, "--out", str(out_dir)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=BUDGET_S,
        )
    except subprocess.TimeoutExpired:
        return "over_budget", time.monotonic() - t0
    elapsed = time.monotonic() - t0
    if proc.returncode == 0:
        return "finished", elapsed
    lines = proc.stderr.strip().splitlines()
    return f"refused: {lines[-1] if lines else f'exit code {proc.returncode}'}", elapsed


def run_sweep(echo=print) -> list[dict]:
    work = OUT / "sweep"
    rows = []
    jobs = [("identity-check", ["identity-check"])]
    for config in sorted(CONFIGS.glob("*.json")):
        for command in COMMANDS:
            jobs.append((f"{config.stem} {command}", [
                command, "--config", str(config.relative_to(ROOT)),
                "--replicates", str(REPLICATES), "--parallelism", "1",
            ]))
    for name, argv in jobs:
        shutil.rmtree(work, ignore_errors=True)
        outcome, elapsed = _outcome(argv, work)
        expected = KNOWN.get(name, "finished")
        matches = outcome == expected or (
            expected.startswith("refused: ") and outcome.startswith(expected)
        )
        rows.append({"name": name, "outcome": outcome, "seconds": round(elapsed, 2),
                     "expected": expected, "matches_baseline": matches})
        echo(f"sweep {name}: {outcome} ({elapsed:.1f} s)"
             + ("" if matches else f" [baseline: {expected}]"))
    shutil.rmtree(work, ignore_errors=True)
    return rows


if __name__ == "__main__":
    problem = missing_program()
    if problem:
        print(problem, file=sys.stderr)
        sys.exit(2)
    result = {"budget_s": BUDGET_S, "replicates": REPLICATES, "commands": run_sweep()}
    OUT.mkdir(exist_ok=True)
    (OUT / "sweep.json").write_text(json.dumps(result, indent=1))
    sys.exit(0)
