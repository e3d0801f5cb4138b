"""sddlab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/sddlab``).  Each
measured invocation of ``sddlab.cli.main`` runs in its own fresh worker
process, one at a time, with BLAS/OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics: medians over the set-up
probes and workload repetitions that fit in ``--seconds``.  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones plus the tracing overhead.  Every repetition's
output is checked (see check.py).

Times are reported in reference seconds: each worker's wall seconds times
that worker's speed, ``CAL_REF_S`` over the mean wall time of worker.py's
``reference_loop``, which the worker runs after set-up and again after the
CLI call.  This takes out most of a shared machine's drift in speed, which
changes within seconds.  The raw wall-clock medians are printed beside them
and kept in ``.perfbench_work/<workload>/record.json``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import check  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5  # set-up-only worker processes per untraced run
MIN_REPS = 3  # untraced repetitions even when they overrun --seconds
WORKER_TIMEOUT_S = 120.0
CAL_REF_S = 0.5  # reference_loop's wall time on an unloaded 2-vCPU Xeon (Sapphire Rapids) KVM guest


def run_worker(mode: str, wl: workloads.Workload, rep_dir: Path, config: Path, reference: bool) -> dict:
    """Run one worker process; its result dict, with 'error' set on failure.

    `reference=False` skips the comparison with the recorded reference files.
    """
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cli_args = ["--seed", str(wl.seed % 2**64), wl.command, "--config", str(config), "--out", str(rep_dir / "out")]
    cmd = [sys.executable, str(HERE / "worker.py"), str(result_path), str(ROOT), mode, *cli_args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s", "wall_s": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}", "wall_s": wall}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["wall_s"] = wall
    if mode != "setup":
        if result["exit_code"] != 0:
            result["error"] = f"sddlab exit {result['exit_code']}"
        else:
            problems = check.check(wl, rep_dir / "out", reference)
            if problems:
                result["error"] = "; ".join(problems)
        if result.get("leftover_wrappers"):
            result["error"] = f"wrappers left installed: {result['leftover_wrappers']}"
    return result


def environment(versions: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "threads": {k: v for k, v in PINNED_ENV.items() if k.endswith("THREADS")},
        "processes": 1,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def prepare_work_dir(wl: workloads.Workload) -> tuple[Path, Path]:
    """Empty the workload's work directory and write its config; (directory, config path)."""
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.ini"
    config.write_text(wl.config_text, encoding="utf-8")
    return work, config


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run workload `name` and return the result record (see module docstring)."""
    wl = workloads.generate(name, seed, ROOT, smoke=smoke)
    unit = units()
    work, config = prepare_work_dir(wl)

    def worker(mode: str, tag: str) -> dict:
        return run_worker(mode, wl, work / tag, config, reference=not smoke)

    # fills the bytecode and page caches, which every later process finds warm
    warm = worker("setup", "warmup")
    if "error" in warm:
        raise RuntimeError(f"set-up failed: {warm['error']}")

    probes: list[dict] = []
    reps: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    if not trace:
        probes = [worker("setup", f"setup{i}") for i in range(1 if smoke else SETUP_PROBES)]
    min_reps = 1 if smoke or trace else MIN_REPS
    while True:
        reps.append(worker("run", f"rep{len(reps)}"))
        if trace:
            traced.append(worker("trace", f"trace{len(traced)}"))
        elapsed = time.perf_counter() - start
        cycle = elapsed / len(reps) if trace else statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= min_reps and elapsed + cycle > seconds:
            break

    attempted = reps + traced
    # timings of completed repetitions count even when their output failed the check
    timed = [r for r in reps if "run_s" in r]
    setups = [r for r in probes + timed if "setup_s" in r]

    def speed(r: dict) -> float:
        """CAL_REF_S over the mean reference-loop time of the worker that produced `r`."""
        return CAL_REF_S / statistics.fmean(r["cal_s"])

    def summarise(scaled: bool) -> dict[str, float]:
        """Medians over the run; with `scaled`, each worker's seconds times that worker's speed."""
        med = statistics.median

        def k(r: dict) -> float:
            return speed(r) if scaled else 1.0

        out: dict[str, float] = {}
        if trace:
            traced_timed = [r for r in traced if "layers" in r]
            for key in traced_timed[0]["layers"] if traced_timed else ():
                out[key] = med(r["layers"][key] * (k(r) if unit[key] == "s" else 1.0) for r in traced_timed)
            if traced_timed and timed:
                out["trace.overhead_s"] = med(r["run_s"] * k(r) for r in traced_timed) - med(r["run_s"] * k(r) for r in timed)
        elif timed:
            out["setup_s"] = med(r["setup_s"] * k(r) for r in setups)
            out["run_s"] = med(r["run_s"] * k(r) for r in timed)
            out["node_steps_per_s"] = med(wl.node_steps / (r["run_s"] * k(r)) for r in timed)
            out["peak_rss_mb"] = med(r["peak_rss_mb"] for r in timed)
        return out

    metrics = summarise(scaled=True)
    wall = summarise(scaled=False)
    speeds = [speed(r) for r in probes + attempted if r.get("cal_s")]
    run_speed = statistics.median(speeds) if speeds else 1.0
    errors = [r["error"] for r in probes + attempted if "error" in r]
    versions = next((r["versions"] for r in attempted if "versions" in r), warm["versions"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(versions),
        "work": {"nx": wl.nx, "solver_runs": wl.solver_runs, "steps_per_run": wl.steps_per_run},
        "errors": errors,
        "speed": run_speed,
        "wall_clock_medians": wall,
        "samples": {
            kind: [{k: r.get(k) for k in ("setup_s", "run_s", "cal_s")} for r in rows]
            for kind, rows in (("setup", probes), ("run", reps), ("trace", traced))
        },
        "result": {
            "correct": not errors and bool(metrics),
            "attempted": len(attempted),
            "failed": len([r for r in attempted if "error" in r]),
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
        },
    }
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "sddlab" / "cli.py").is_file():
        print(f"perfbench: no sddlab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (workloads.WorkloadError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = record["result"]
    for err in record["errors"]:
        print(f"failed: {err}")
    for name, m in result["metrics"].items():
        raw = record["wall_clock_medians"][name]
        extra = f" (wall clock {raw:.6g})" if m["unit"] in ("s", "1/s") else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"{args.workload} speed = {record['speed']:.6g} (median over workers of reference loop {CAL_REF_S} s / its time)")
    print(f"{args.workload} failed_frac = {result['failed'] / result['attempted']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
