"""Print every benchmark metric of every workload, with its unit.

    python3 perfbench/report.py

Runs ``run.py`` once untraced and once traced per workload, in that order,
each as its own process, at ``check.DEFAULT_SEED`` (so outputs are compared
with the recorded references) for BENCHMARK.json's ``run_seconds``.  Prints
one line per metric and workload, then ``failed_frac`` (failed repetitions
/ attempted) per workload.  Exits 1 if any run fails or reports incorrect
output.  For another seed or length, call ``run.py`` directly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    ok = True
    for wl in spec["workloads"]:
        name = wl["name"]
        attempted = failed = 0
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(check.DEFAULT_SEED)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: run.py exit {proc.returncode}\n{proc.stderr.strip()}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if trace == 0:
                print(f"# {name}: {lines[-2]}")
            attempted += result["attempted"]
            failed += result["failed"]
            ok = ok and result["correct"]
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                value = "MISSING" if got is None else f"{got['value']:.6g} {got['unit']}"
                print(f"{name:17s} {m['name']:36s} {value}")
        print(f"{name:17s} {'failed_frac':36s} {failed / attempted if attempted else float('nan'):.6g} ({failed}/{attempted})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
