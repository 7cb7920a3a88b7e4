"""Record the reference values that the deterministic workloads are checked against.

    python3 bench/reference.py      # rewrites bench/reference.json

Run it only at a commit whose solvers are trusted; the committed file was
recorded at the commit that introduced the benchmark.  Each value carries a
certified tolerance:

* fan lattices (``solve-u``, ``solve-pi`` at dt = FAN_DT): the largest
  Richardson estimate ``|v(dt) - v(2 dt)| / 3`` over the table's nodes;
* stationary values: the solver's own error bound (tail plus quadrature).
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

from facts import OUT, ROOT, SRC, src_digest
from workloads import FAN_DT, REFERENCE, ZETA_THETAS, ZETA_TOLERANCE

sys.path.insert(0, str(SRC))

from agebranch.cli import load_config, main as cli_main  # noqa: E402
from agebranch.measures import ScalarField  # noqa: E402
from agebranch.solvers import stationary_laplace  # noqa: E402


def _read(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _solve(command: str, dt: float) -> tuple[list[float], float]:
    out = OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    if cli_main([command, "--config", str(ROOT / "configs/age_varying.json"), "--dt", repr(dt), "--out", str(out)]):
        raise RuntimeError(f"{command} failed")
    return [float(r[2]) for r in _read(out / "lattice.csv")], float(_read(out / "boundary.csv")[-1][1])


def _fan(command: str) -> dict:
    (fine, fine_end), (coarse, coarse_end) = _solve(command, FAN_DT), _solve(command, 2 * FAN_DT)
    tol = max(abs(a - b) for a, b in zip(fine + [fine_end], coarse + [coarse_end])) / 3.0
    return {"dt": FAN_DT, "tol": tol, "boundary_at_t_end": fine_end, "lattice": fine}


def _stationary_rows(config: str, thetas, tolerance: float) -> list[dict]:
    cfg = load_config(ROOT / config)
    rows = []
    for theta in thetas:
        rep = stationary_laplace(cfg.model, cfg.immigration, ScalarField.constant(theta), tolerance)
        rows.append({"f": f"constant:{theta:g}", "value": rep.value, "error_bound": rep.total_error_bound})
    return rows


def main() -> None:
    reference = {
        "src_sha256": src_digest(),
        "solve-u": _fan("solve-u"),
        "solve-pi": _fan("solve-pi"),
        # the CLI stationary command solves these fields at the default tolerance
        "stationary": {"tolerance": 1e-6,
                       "rows": _stationary_rows("configs/pure_death_imm.json", (0.25, 0.5, 1.0, 2.0), 1e-6)},
        "stationary-zeta": {"tolerance": ZETA_TOLERANCE,
                            "rows": _stationary_rows("configs/zeta_groups_imm.json", ZETA_THETAS, ZETA_TOLERANCE)},
    }
    shutil.rmtree(OUT / "reference", ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
