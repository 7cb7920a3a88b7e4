"""The agebranch benchmark: four workloads, timed from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, then the coverage sweep

A run repeats *passes* of one workload until ``--seconds`` is used up.  Each
pass is a fresh interpreter (``bench/child.py``) that imports the package from
``src/``, parses the config (the set-up, timed from process start) and runs
the workload's operations with ``--parallelism 1``.  End-to-end metrics are
medians over untraced passes; the gated time, ``wall_ref_s``, is each pass's
wall time at the reference machine speed (see ``CALIBRATION_REF_S``).  With
``--trace 1`` every other pass is traced (see ``tracer.py``); the per-layer
metrics are medians over the traced passes, and the tracing overhead is the
difference of the two medians.

After the timed passes every output is checked (``workloads.py``), outputs
must be byte-identical across passes and across runs of the same code and
seed, and the checks' own negative controls must fail.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Result sets and spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from facts import OUT, ROOT, SRC, child_env, machine_and_code, missing_program, src_digest
from workloads import WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150.0
MIN_PASSES = 3  # untraced passes in a run without tracing
# Times of the calibration kernels (child.calibrate) on the reference machine, a
# 2 vCPU Intel Xeon VM with Python 3.11 and numpy 2.4.  That machine runs up to
# half slower for tens of seconds at a time under shared load, interpreter-bound
# code more than array-bound code, so the gated time is each pass's wall time
# rescaled by the kernel that matches the workload's bottleneck, timed just
# before and after the operations in the pass's own process (timed in this
# process instead, the kernels tracked the passes' speed worse).
CALIBRATION_REF_S = {"interpreter": 0.07, "array": 0.03}
PREDICTED_BUSIEST = {
    "validate-critical": "simulate",
    "simulate-long": "simulate",
    "solve-fans": "solvers",
    "stationary-zeta": "models",
}


def _at_reference_speed(p: dict, kernel: str) -> float:
    return p["wall_s"] * CALIBRATION_REF_S[kernel] / p["calibration_s"][kernel]


def _median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _run_pass(workload, seed: int, where: Path, traced: bool) -> dict:
    where.mkdir(parents=True)
    ops = workload.ops(seed, where)
    spec = {
        "src": str(SRC), "setup_config": workload.setup_config, "trace": traced,
        "ops": ops, "result": str(where / "result.json"),
    }
    (where / "spec.json").write_text(json.dumps(spec))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(where / "spec.json")],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
    record = {"traced": traced, "outs": [Path(op["out"]) for op in ops],
              "elapsed_s": time.monotonic() - spawned}
    result_path = where / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        tail = stderr.strip().splitlines()[-1:] if stderr else []
        message = tail[0] if tail else f"pass exited with code {proc.returncode}"
        record["ops"] = [{"code": None, "message": message} for _ in ops]
        return record
    result = json.loads(result_path.read_text())
    record.update(
        ops=result["ops"],
        setup_s=result["setup_end"] - spawned,
        import_s=result["import_s"],
        config_s=result["config_s"],
        wall_s=sum(op["seconds"] for op in result["ops"]),
        calibration_s=result["calibration_s"],
        peak_rss_mb=result["peak_rss_mb"],
        trace=result.get("trace"),
    )
    return record


def _warm_up() -> None:
    # Compile the package's bytecode once so that no pass pays for it.
    subprocess.run([sys.executable, "-c", "import agebranch.cli"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
                   check=False)


def _timed_passes(workload, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(_run_pass(workload, seed, work / f"pass{len(passes)}", traced))
        untraced = sum(1 for p in passes if not p["traced"])
        enough = untraced >= (1 if trace else MIN_PASSES) and (not trace or untraced < len(passes))
        elapsed = time.monotonic() - start
        next_pass = _median([p["elapsed_s"] for p in passes])
        if (enough and elapsed + next_pass > seconds) or elapsed > 3 * seconds:
            return passes


# ---------------------------------------------------------------------------
# Output checks, determinism and controls
# ---------------------------------------------------------------------------


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _store_digests(key: str, digests: list[str]) -> list[str] | None:
    """Digests recorded earlier for the same code, workload and seed (recorded now if none)."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    if key in store:
        return store[key]
    store[key] = digests
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1))
    os.replace(tmp, store_path)
    return None


def _check_passes(workload, seed: int, passes: list[dict], context: dict) -> tuple[int, int, list[str], dict]:
    """Count attempted and failed operations; return the problems and output facts."""
    key = hashlib.sha256(
        "|".join([workload.name, str(seed), src_digest(),
                  hashlib.sha256(Path(__file__).with_name("workloads.py").read_bytes()).hexdigest()]).encode()
    ).hexdigest()
    reference_digests = None
    attempted = failed = 0
    problems: list[str] = []
    facts: dict = {}
    for k, p in enumerate(passes):
        labels = [out.name for out in p["outs"]]
        ran = all(op["code"] == 0 for op in p["ops"])
        pass_problems = [f"{label}: exit {op['code']}: {op['message']}"
                         for label, op in zip(labels, p["ops"]) if op["code"] != 0]
        if ran:
            try:
                found, facts_k = workload.check(p["outs"], context)
            except (OSError, ValueError, KeyError, IndexError) as e:
                found, facts_k = [f"{label}: unreadable output: {e!r}" for label in labels], {}
            pass_problems += found
            facts = facts or facts_k
            digests = [_digest(out) for out in p["outs"]]
            if reference_digests is None:
                reference_digests = _store_digests(key, digests) or digests
            pass_problems += [f"{label}: output differs from an earlier run of the same code and seed"
                              for label, a, b in zip(labels, digests, reference_digests) if a != b]
        attempted += len(labels)
        failed += sum(1 for label in labels if any(s.startswith(label + ":") for s in pass_problems))
        problems += [f"pass {k}: {s}" for s in pass_problems]
    return attempted, failed, problems, facts


def _span_control() -> bool:
    """A span tree with known children must give the expected self times."""
    spans = [
        ["root", 0.0, 10.0, None, 0.0],   # children cover [1, 6]: self 5
        ["a", 1.0, 4.0, 0, 0.5],          # child covers [2, 3], counted leaf 0.5: self 1.5
        ["b", 2.0, 3.0, 1, 0.0],          # self 1
        ["c", 3.5, 6.0, 0, 0.0],          # self 2.5
    ]
    return tracer.self_times(spans) == {"root": 5.0, "a": 1.5, "b": 1.0, "c": 2.5}


def _controls(workload, passes: list[dict], context: dict, work: Path) -> dict[str, bool]:
    """Whether each control came out as it must: damaged outputs are rejected."""
    outcome = {"control:span-self-time": _span_control()}
    first = passes[0]
    if all(op["code"] == 0 for op in first["ops"]):
        copies = []
        for out in first["outs"]:
            copies.append(work / "control" / out.name)
            shutil.copytree(out, copies[-1])
        workload.perturb(copies, context)
        found, _ = workload.check(copies, context)
        outcome[f"control:{workload.name}:perturbed-output"] = bool(found)
        outcome["control:determinism"] = any(
            _digest(a) != _digest(b) for a, b in zip(first["outs"], copies))
    return outcome


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, echo) -> dict:
    workload = WORKLOADS[name]
    work = OUT / f"run-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _warm_up()
        passes = _timed_passes(workload, seed, seconds, trace, work)
        context = workload.context()
        attempted, failed, problems, out_facts = _check_passes(workload, seed, passes, context)
        controls = _controls(workload, passes, context, work)
        spans = next((p["trace"] for p in reversed(passes) if p.get("trace")), None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p["traced"] and "wall_s" in p]
    traced = [p for p in passes if p["traced"] and p.get("trace")]
    timed = [p for p in passes if "setup_s" in p]
    wall = _median([p["wall_s"] for p in plain])
    end_to_end = {
        "wall_ref_s": (_median([_at_reference_speed(p, workload.kernel) for p in plain]), "s"),
        "wall_s": (wall, "s"),
        "setup_s": (_median([p["setup_s"] for p in timed]), "s"),
        "peak_rss_mb": (_median([p["peak_rss_mb"] for p in plain]), "MB"),
    }
    extra = {
        "replicates_per_s": (workload.replicates / wall if workload.replicates and wall else None, "1/s"),
        "fail_frac": (failed / attempted, "1"),
        "checks_unexpected": (out_facts.get("checks_unexpected"), "count"),
    }
    per_layer: dict = {}
    busiest = None
    if trace and traced and plain:
        samples = [tracer.layer_metrics(p["trace"]) for p in traced]
        per_layer = {key: _median([m[key] for m in samples]) for key in samples[0]}
        traced_wall = _median([_at_reference_speed(p, workload.kernel) for p in traced])
        per_layer.update({
            "cli.import_s": _median([p["import_s"] for p in timed]),
            "cli.config_s": _median([p["config_s"] for p in timed]),
            "validate.checks_unexpected": out_facts.get("checks_unexpected", 0),
            "trace.wall_ref_s": traced_wall,
            "trace.overhead_s": traced_wall - end_to_end["wall_ref_s"][0],
        })
        busiest = tracer.busiest_layer(traced[-1]["trace"])

    correct = failed == 0 and all(controls.values())
    for s in problems:
        echo(f"problem {s}")
    for control, as_expected in controls.items():
        echo(f"{control}: {'as-expected' if as_expected else 'UNEXPECTED'}")
    shown = {k: v for k, v in {**end_to_end, **extra}.items() if v[0] is not None}
    echo(f"{name}: passes={len(plain)} untraced + {len(traced)} traced, seed={seed}, "
         + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in shown.items()))
    if busiest:
        echo(f"{name}: busiest layer by self time = {busiest} (predicted {PREDICTED_BUSIEST[name]}); "
             f"tracing overhead {per_layer['trace.overhead_s']:.4g} s")
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "controls": controls,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **extra}.items()},
        "per_layer": per_layer,
        "busiest_layer": busiest,
        "output_facts": out_facts,
        "samples": [{k: p.get(k) for k in ("traced", "setup_s", "wall_s", "calibration_s", "peak_rss_mb")}
                    for p in passes],
    }
    if spans is not None:
        (OUT / f"spans_{name}_seed{seed}.json").write_text(json.dumps(spans))
    return result


def _print_table(results: list[dict], echo) -> None:
    """Every end-to-end metric of every workload, one row each; '-' where it does not apply."""
    columns = list(results[0]["end_to_end"])
    echo("workload".ljust(18) + "".join(c.rjust(19) for c in columns) + "  correct")
    for r in results:
        cells = []
        for c in columns:
            value, unit = r["end_to_end"][c]["value"], r["end_to_end"][c]["unit"]
            cells.append((f"{value:.4g} {unit}" if value is not None else "-").rjust(19))
        echo(r["workload"].ljust(18) + "".join(cells) + f"  {r['correct']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    problem = missing_program()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    facts = machine_and_code()
    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    echo = lambda line: print(line, flush=True)  # noqa: E731

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace), echo) for n in names]
    result_set = {"facts": facts, "workloads": results}
    if args.workload == "all":
        from sweep import run_sweep

        result_set["coverage"] = run_sweep(echo)
        _print_table(results, echo)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(result_set, indent=1, default=str))

    # the metrics printed are exactly those BENCHMARK.json declares, in its order
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for r in results:
        prefix = f"{r['workload']}." if len(results) > 1 else ""
        values = r["per_layer"] if args.trace else {k: v["value"] for k, v in r["end_to_end"].items()}
        missing = [m["name"] for m in declared if values.get(m["name"]) is None]
        if missing:
            print(f"{r['workload']}: no successful pass measured {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics.update({prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
