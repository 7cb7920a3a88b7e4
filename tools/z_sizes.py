"""Size of every z gate: how each check's z is spread over seeds.

Runs ``validate`` and ``ergodic`` on each config in ``configs/`` at seeds 0 to
19, once at ``--replicates 200`` and once at the config's own count, in this
process with ``--parallelism 1``, importing the package from this checkout's
``src/``.  For each (config, command, check, replicate count) it writes the
number of runs, the fail rate, the share of positive z and the mean and
standard deviation of the signed z.  A check that fails more often than its
|z| <= 3 gate allows, or whose z keeps one sign, has a bias, not bad luck;
a control (``control:...``) should fail on every run.  A command that writes
no rows (a refusal, or an ``ergodic`` run on a model that is not ergodic) gets
one row named after its exit code.  It takes about 8 minutes on 2 vCPU:

    python3 tools/z_sizes.py z_sizes.csv
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from agebranch.cli import main as cli_main  # noqa: E402

COMMANDS = {"validate": "checks.csv", "ergodic": "ergodic.csv"}
SEEDS = range(20)
COLUMNS = ["config", "command", "check", "replicates", "runs", "fail_rate", "z_pos", "z_mean", "z_sd"]


def _run(config: Path, command: str, replicates: int, seed: int, out: Path) -> list[tuple[str, float, bool]]:
    """``(check, z, failed)`` for each row the command writes; one ``exit N`` row if it writes none."""
    err = io.StringIO()
    argv = [command, "--config", str(config), "--replicates", str(replicates), "--seed", str(seed),
            "--out", str(out)]
    with contextlib.redirect_stderr(err):
        code = cli_main(argv)
    path = out / COMMANDS[command]
    rows = list(csv.DictReader(path.open())) if code == 0 and path.exists() else []
    if not rows:
        return [(f"exit {code}: {err.getvalue().strip()}", math.nan, code != 0)]
    return [(r["name"], float(r["z"]), r["verdict"] == "fail") for r in rows]


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    table: dict[tuple, list[tuple[float, bool]]] = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.json")):
            own = int(json.loads(config.read_text())["replicates"])
            for command in COMMANDS:
                for replicates in sorted({200, own}):
                    for seed in SEEDS:
                        out = Path(tmp) / f"{config.stem}-{command}-{replicates}-{seed}"
                        for check, z, failed in _run(config, command, replicates, seed, out):
                            table[config.stem, command, check, replicates].append((z, failed))
                    print(f"{config.stem} {command} {replicates}: {len(SEEDS)} seeds", flush=True)
    with open(sys.argv[1], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        for key, runs in table.items():
            zs = np.array([z for z, _ in runs if not math.isnan(z)])
            fails = sum(failed for _, failed in runs) / len(runs)
            stats = [np.mean(zs > 0), np.mean(zs), np.std(zs, ddof=1)] if len(zs) > 1 else ["", "", ""]
            writer.writerow([*key, len(runs), fails, *stats])
    return 0


if __name__ == "__main__":
    sys.exit(main())
