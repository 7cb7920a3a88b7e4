"""One pass of a workload in a fresh interpreter: set up, run, report.

    python3 bench/child.py SPEC.json

The spec names the commands of one pass, the output directory, whether to
trace, and where to write the result.  Set-up ends once ``agebranch`` is
imported and the first command's config is parsed; the harness measures it
from the moment it started this process.  Each command runs through the
public entry points (``agebranch.cli.main`` or ``stationary_laplace``) and is
timed on its own; a command fails if it raises or exits nonzero.  The
calibration kernels are timed just before and after the commands.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> dict[str, float]:
    """Seconds taken by two fixed kernels: interpreter-bound and array-bound.

    The machine's speed drifts under shared load, and not by the same factor
    for both kinds of work; timing these kernels next to the operations lets
    the harness express their time at a reference speed.  Their buffers stay
    small, so they do not raise the pass's peak memory.
    """
    import numpy as np

    rng = np.random.Generator(np.random.Philox(7))
    recent = [0.0] * 32
    total = 0.0
    start = time.perf_counter()
    for _ in range(10_000):  # per-event style: scalar draws and tiny arrays
        t = rng.exponential(1.0)
        total += float(np.cumsum(np.asarray(recent) + t)[-1])
        recent[1:] = recent[:-1]
        recent[0] = t
    middle = time.perf_counter()
    ks = np.arange(1, 8_001, dtype=np.float64)
    for _ in range(300):  # series style: elementwise powers over arrays
        total += float(np.sum(ks**-3.0 * 0.7 ** (ks / 1000.0)))
    end = time.perf_counter()
    return {"interpreter": middle - start, "array": end - middle}


def _stationary(cfg, thetas, tolerance, out: Path) -> int:
    from agebranch.measures import ScalarField
    from agebranch.solvers import stationary_laplace

    reports = []
    for theta in thetas:
        rep = stationary_laplace(cfg.model, cfg.immigration, ScalarField.constant(theta), tolerance)
        reports.append({
            "theta": theta, "value": rep.value, "exponent_integral": rep.exponent_integral,
            "horizon": rep.horizon, "dt": rep.dt, "tail_bound": rep.tail_bound,
            "quadrature_error": rep.quadrature_error,
        })
    out.mkdir(parents=True, exist_ok=True)
    (out / "stationary.json").write_text(json.dumps({"tolerance": tolerance, "reports": reports}))
    return 0


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    t0 = time.monotonic()
    import agebranch.cli as cli

    t1 = time.monotonic()
    cfg = cli.load_config(spec["setup_config"])
    t2 = time.monotonic()
    result = {"setup_end": t2, "import_s": t1 - t0, "config_s": t2 - t1, "ops": []}

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = calibrate()
    for op in spec["ops"]:
        err = io.StringIO()
        start = time.monotonic()
        try:
            with contextlib.redirect_stderr(err):
                if op["kind"] == "cli":
                    code = cli.main(op["argv"])
                else:
                    code = _stationary(cfg, op["thetas"], op["tolerance"], Path(op["out"]))
        except Exception:  # a crash is recorded as a failed operation
            code = None
            err.write(traceback.format_exc())
        seconds = time.monotonic() - start
        message = err.getvalue().strip().splitlines()
        result["ops"].append({"code": code, "seconds": seconds, "message": message[-1] if message else ""})
    result["peak_rss_mb"] = _peak_rss_mb()
    after = calibrate()
    result["calibration_s"] = {k: (before[k] + after[k]) / 2 for k in before}
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
