"""Outside-in tracing of the agebranch layers, and the per-layer metrics.

A traced pass wraps public functions of each module (the layers ``cli``,
``validate``, ``simulate``, ``models``, ``measures``, ``solvers``) from the
benchmark's own process; nothing in the package changes.  Coarse calls are
recorded as spans ``[name, start, end, parent, leaf_s]`` kept in memory and
written out when the pass ends.  Hot calls are only counted and timed; their
time is charged to the innermost open span (``leaf_s``) so that it is not
counted twice.  A layer's self time is its spans' durations minus the part of
each span its child spans cover, minus the counted calls inside it, plus the
counted calls that belong to it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("cli", "validate", "simulate", "models", "measures", "solvers")
_MODULES = ("cli", "validate", "simulate", "solvers", "models", "measures")
_TERMINAL = ("t_end", "extinction")

# Functions recorded as spans, by module; "Class.method" patches the class.
_SPANS = {
    "cli": ("main", "load_config", "write_csv", "write_summary"),
    "validate": (
        "compare_laplace", "compare_mean", "control_report", "estimate_laplace",
        "estimate_mean", "estimate_extinction", "laplace_analytic", "bound_suite",
        "solver_bound_checks", "martingale_residual", "ergodic_convergence",
        "snapshot_profile",
    ),
    "simulate": ("simulate", "replicate_rng"),
    "models": ("GroupSizeLaw.laplace_sum",),
    "solvers": (
        "solve_exponent", "solve_mean", "ExponentSolution.along_ray", "MeanSolution.along_ray",
        "ExponentSolution.at", "MeanSolution.at", "immigration_exponent_integral",
        "mean_with_immigration", "stationary_laplace", "ergodicity_check",
        "survival_lower_bound", "exponential_tail_identity",
    ),
}
# Hot leaf calls: counted and timed, never spanned.
_TIMED = {
    "models": ("OffspringLaw.sample", "BranchingModel.constants"),
    "measures": ("AgeMeasure.integrate",),
}
# Hot calls that are only counted.
_COUNTED = {
    "models": ("ImmigrationMechanism.psi_from_exponents",),
    "measures": ("AgeMeasure.__post_init__",),
}


class Tracer:
    """Span and counter store for one traced pass; install() patches the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.tallies: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)  # open spans by layer and by name
        self._rng_paths: dict[int, tuple] = {}
        self._path_keys: set = set()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn, after=None):
        layer = name.split(".", 1)[0]
        spans, stack, opened, clock = self.spans, self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, 0.0]
            spans.append(record)
            stack.append(len(spans) - 1)
            opened[layer] += 1
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                opened[layer] -= 1
                opened[name] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def timed(self, name: str, fn):
        counter, spans, stack, clock = self.counters[name], self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                counter[0] += 1
                counter[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def counted(self, name: str, fn):
        counter = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- tallies read from call arguments and results -------------------------

    def _after_rng(self, args, kwargs, rng) -> None:
        self._rng_paths[id(rng)] = tuple(args)

    def _after_simulate(self, args, kwargs, traj) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        rng = args[1] if len(args) > 1 else kwargs.get("rng")
        t = self.tallies
        t["simulate.events"] += len(traj.events)
        t["simulate.snapshots_built"] += len(traj.snapshots)
        t["simulate.excluded"] += traj.terminated_by not in _TERMINAL
        path = self._rng_paths.pop(id(rng), None) if rng is not None else (cfg.seed, cfg.replicate_index)
        if self._open["validate"]:
            t["validate.paths_simulated"] += 1
            self._path_keys.add((path, cfg.t_end, cfg.snapshot_times))
            t["validate.unique_paths"] = len(self._path_keys)

    def _after_fan(self, args, kwargs, result) -> None:
        n = result.grid.n_steps
        self.tallies["solvers.fan_marches"] += 1
        self.tallies["solvers.fan_cells"] += n * (n + 1) // 2

    def _after_ray(self, args, kwargs, result) -> None:
        offset = args[1] if len(args) > 1 else kwargs["offset"]
        self.tallies["solvers.along_ray_calls"] += 1
        if offset != 0.0:  # a zero offset reads the boundary and marches nothing
            n = len(result) - 1
            self.tallies["solvers.fan_marches"] += 1
            self.tallies["solvers.fan_cells"] += n * (n + 1) // 2

    def _after_integral(self, args, kwargs, result) -> None:
        if self._open["solvers.stationary_laplace"]:
            self.tallies["solvers.stationary_integrals"] += 1

    def install(self) -> None:
        """Patch every traced function of the package, wherever it is bound."""
        modules = {m: importlib.import_module(f"agebranch.{m}") for m in _MODULES}
        everywhere = [importlib.import_module("agebranch"), *modules.values()]
        after = {
            "simulate.simulate": self._after_simulate,
            "simulate.replicate_rng": self._after_rng,
            "solvers.solve_exponent": self._after_fan,
            "solvers.solve_mean": self._after_fan,
            "solvers.ExponentSolution.along_ray": self._after_ray,
            "solvers.MeanSolution.along_ray": self._after_ray,
            "solvers.immigration_exponent_integral": self._after_integral,
        }

        def patch(table, make):
            for module_name, names in table.items():
                module = modules[module_name]
                for qual in names:
                    name = f"{module_name}.{qual}"
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        cls = getattr(module, cls_name)
                        setattr(cls, attr, make(name, getattr(cls, attr)))
                        continue
                    original = getattr(module, qual)
                    wrapped = make(name, original)
                    for mod in everywhere:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

        patch(_SPANS, lambda name, fn: self.span(name, fn, after.get(name)))
        patch(_TIMED, self.timed)
        patch(_COUNTED, self.counted)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "tallies": dict(self.tallies)}


# ---------------------------------------------------------------------------
# Analysis, run in the harness process from what a pass dumped.
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of intervals covers."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name: duration minus covered child time minus leaf time."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, leaf_s) in enumerate(spans):
        out[name] += (end - start) - _covered(start, end, children.get(i, [])) - leaf_s
    return dict(out)


def layer_self_times(dump: dict) -> dict[str, float]:
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_times(dump["spans"]).items():
        layers[name.split(".", 1)[0]] += seconds
    for name, (_, seconds) in dump["counters"].items():
        layers[name.split(".", 1)[0]] += seconds
    return layers


def _inclusive(spans: list[list], *names: str) -> float:
    """Total duration of spans with these names that are not nested in one another."""
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent is not None and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent is None:
            total += end - start
    return total


def _calls(spans: list[list], *names: str) -> int:
    return sum(1 for s in spans if s[0] in names)


def layer_metrics(dump: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (setup and check figures excluded)."""
    spans, tallies = dump["spans"], dump["tallies"]
    counters = defaultdict(lambda: (0, 0.0), dump["counters"])
    selfs = layer_self_times(dump)
    sim_calls = _calls(spans, "simulate.simulate")
    sim_s = _inclusive(spans, "simulate.simulate")
    events = tallies.get("simulate.events", 0)
    fans = ("solvers.solve_exponent", "solvers.solve_mean",
            "solvers.ExponentSolution.along_ray", "solvers.MeanSolution.along_ray")
    fan_s = _inclusive(spans, *fans)
    fan_cells = tallies.get("solvers.fan_cells", 0)
    stationary_calls = _calls(spans, "solvers.stationary_laplace")
    paths = tallies.get("validate.paths_simulated", 0)
    m = {f"{layer}.self_s": selfs[layer] for layer in LAYERS if layer != "measures"}
    m.update({
        "cli.write_s": _inclusive(spans, "cli.write_csv", "cli.write_summary"),
        "validate.martingale_s": _inclusive(spans, "validate.martingale_residual"),
        "validate.paths_simulated": paths,
        "validate.unique_path_frac": tallies.get("validate.unique_paths", 0) / paths if paths else 0.0,
        "simulate.calls": sim_calls,
        "simulate.us_per_path": 1e6 * sim_s / sim_calls if sim_calls else 0.0,
        "simulate.rng_s": _inclusive(spans, "simulate.replicate_rng"),
        "simulate.snapshots_built": tallies.get("simulate.snapshots_built", 0),
        "simulate.events": events,
        "simulate.us_per_event": 1e6 * sim_s / events if events else 0.0,
        "simulate.excluded": tallies.get("simulate.excluded", 0),
        "measures.age_measures_built": counters["measures.AgeMeasure.__post_init__"][0],
        "measures.integrate_calls": counters["measures.AgeMeasure.integrate"][0],
        "measures.integrate_s": counters["measures.AgeMeasure.integrate"][1],
        "models.offspring_draws": counters["models.OffspringLaw.sample"][0],
        "models.offspring_s": counters["models.OffspringLaw.sample"][1],
        "models.constants_calls": counters["models.BranchingModel.constants"][0],
        "models.constants_s": counters["models.BranchingModel.constants"][1],
        "models.psi_calls": counters["models.ImmigrationMechanism.psi_from_exponents"][0],
        "models.laplace_sum_calls": _calls(spans, "models.GroupSizeLaw.laplace_sum"),
        "models.laplace_sum_s": _inclusive(spans, "models.GroupSizeLaw.laplace_sum"),
        "solvers.fan_marches": tallies.get("solvers.fan_marches", 0),
        "solvers.fan_cells": fan_cells,
        "solvers.fan_s": fan_s,
        "solvers.fan_ns_per_cell": 1e9 * fan_s / fan_cells if fan_cells else 0.0,
        "solvers.along_ray_calls": tallies.get("solvers.along_ray_calls", 0),
        "solvers.at_calls": _calls(spans, "solvers.ExponentSolution.at", "solvers.MeanSolution.at"),
        "solvers.at_s": _inclusive(spans, "solvers.ExponentSolution.at", "solvers.MeanSolution.at"),
        "solvers.exponent_integral_s": _inclusive(spans, "solvers.immigration_exponent_integral"),
        "solvers.stationary_refinements": (
            (tallies.get("solvers.stationary_integrals", 0) - stationary_calls) / stationary_calls
            if stationary_calls else 0.0
        ),
    })
    return m


def busiest_layer(dump: dict) -> str:
    selfs = layer_self_times(dump)
    return max(selfs, key=selfs.get)
