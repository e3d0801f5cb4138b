"""Self-test of the benchmark at smoke size (about half a minute).

    python3 perfbench/selftest.py

Checks that
  1. every metric named in BENCHMARK.json is emitted, with its unit, by an
     untraced and a traced smoke run of each workload;
  2. every wrapper fires where it is expected to and stays silent where
     its layer does not run, and the traced step count equals the one the
     workload generator predicts (which node_steps_per_s relies on);
  3. the tracer removes every wrapper again, in process and in a worker;
  4. the generator refuses a config that breaks the explicit-Euler bound.
Exits 0 when all hold, 1 otherwise, listing each failure.
"""

from __future__ import annotations

import configparser
import json
import sys

import run
import tracer
import workloads

NONZERO, ZERO = "nonzero", "zero"
# per workload: per-layer metric -> expectation
EXPECT = {
    "certify-integral": {
        "history.xi.calls": NONZERO,
        "history.evaluate_eta.calls": NONZERO,
        "lyapunov.rate_decomposition.calls": NONZERO,
        "lyapunov.u_sdd_total.calls": NONZERO,
        "solver.segment_at.calls": NONZERO,
        "model.incidence_values.calls": NONZERO,
        "grid.laplacian_neumann.calls": NONZERO,
        "lyapunov.valid_fraction": NONZERO,
    },
    "certify-constant": {
        "history.xi.calls": ZERO,
        "history.xi_per_eta": ZERO,
        "history.evaluate_eta.calls": NONZERO,
        "lyapunov.rate_decomposition.calls": NONZERO,
        "lyapunov.u_sdd_total.calls": NONZERO,
        "solver.segment_at.calls": NONZERO,
        "model.incidence_values.calls": NONZERO,
        "model.check_all.s": NONZERO,
    },
    "simulate-wide": {
        "history.xi.calls": ZERO,
        "lyapunov.monitor.s": ZERO,
        "lyapunov.rate_decomposition.calls": ZERO,
        "lyapunov.u_sdd_total.calls": ZERO,
        "lyapunov.u_sdd_total.self_s": ZERO,
        "solver.segment_at.calls": ZERO,
        "model.check_all.s": ZERO,
        "solver.step.calls": NONZERO,
        "grid.laplacian_neumann.calls": NONZERO,
        "cli.self_s": NONZERO,
    },
}


def _check_metrics(spec: list[dict], metrics: dict, where: str) -> list[str]:
    problems = []
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{where}: metric {m['name']} has unit {got.get('unit')!r}, expected {m['unit']!r}")
    return problems


def _check_in_process() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    import sddlab.cli  # noqa: F401  (loads every layer module)

    t = tracer.Tracer()
    t.install()
    installed = tracer.leftover_wrappers()
    t.uninstall()
    problems = []
    if "sddlab.lyapunov.evaluate_eta" not in installed or "sddlab.solver.evaluate_eta" not in installed:
        problems.append(f"evaluate_eta not wrapped at each caller's binding: {installed}")
    if "sddlab.solver.Trajectory.segment_at" not in installed:
        problems.append("Trajectory.segment_at not wrapped")
    if "sddlab.grid.mean_value" in installed:
        problems.append("xi counter leaked onto sddlab.grid.mean_value")
    left = tracer.leftover_wrappers()
    if left:
        problems.append(f"wrappers left after uninstall: {left}")
    return problems


def _check_euler_guard() -> list[str]:
    cp = configparser.ConfigParser()
    cp.read_dict({"params": {"d3": "0.002"}, "grid": {"nx": "1001"}, "time": {"dt": "0.01"}})
    try:
        workloads.check_euler_bound(cp, "unstable")
    except workloads.WorkloadError:
        return []
    return ["explicit-Euler guard accepted dt=0.01 with dx=1e-3, d3=0.002"]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = _check_in_process() + _check_euler_guard()
    for name in workloads.WORKLOADS:
        plain = run.measure(name, 0, 0.0, trace=False, smoke=True)
        traced = run.measure(name, 0, 0.0, trace=True, smoke=True)
        for rec, kind in ((plain, "end_to_end"), (traced, "per_layer")):
            res = rec["result"]
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={rec['trace']}: failed runs: {rec['errors']}")
            problems += _check_metrics(spec[kind], res["metrics"], f"{name} trace={rec['trace']}")
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        for metric, want in EXPECT[name].items():
            value = layers.get(metric)
            if value is None or (value == 0) != (want == ZERO):
                problems.append(f"{name}: {metric} = {value}, expected {want}")
        wl = workloads.generate(name, 0, run.ROOT, smoke=True)
        if layers.get("solver.step.calls") != wl.solver_runs * wl.steps_per_run:
            problems.append(
                f"{name}: solver.step.calls = {layers.get('solver.step.calls')}, "
                f"generator predicts {wl.solver_runs * wl.steps_per_run}"
            )
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
