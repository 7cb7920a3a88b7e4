"""The benchmark's own gate, run from the suite: every workload's outputs pass its checks.

Each run is one untraced pass plus the harness's determinism and
perturbed-output controls, so a change that breaks what ``bench/workloads.py``
checks (report names, bound closed forms, entry-point signatures) fails here.
``--trace 0``: with tracing on, a budget shorter than one pass measures no
traced pass and exits 1.  The harness writes only the git-ignored ``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_passes_its_checks(workload):
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
