#!/usr/bin/env python3
"""Time sddlab's start-up, module by module, in fresh processes.

Each repetition starts a new interpreter with ``PYTHONDONTWRITEBYTECODE=1``
(as a fresh checkout runs, with no bytecode of sddlab on disk), imports
``sddlab.cli`` and loads ``configs/saturated_integral_delay.ini``, as the
benchmark's set-up does.  Every sddlab module is compiled from its source
in that process.  Per module this prints the min-of-N milliseconds of

  compile   turning its source into code;
  body      running its module body, less the time its import statements
            take (so numpy, the stdlib and sibling modules are not counted).

The ``total`` row is the least per-process sum.  Then come the least total
time of the ``@dataclass`` decorations the bodies run (each builds its
methods by ``exec``), the least time of ``load_config``, and whether the
whole set-up imported ``difflib``, which only the error paths' "did you
mean" hints use.  A body's time includes any cyclic garbage collection that
falls in it (about 1 ms each here); where one falls moves with every
allocation before it, so compare totals first.  Times vary with the
machine and its load; compare tables made in one session.

Usage: python scripts/import_timing.py [--repeat 9]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "saturated_integral_delay.ini"


def child() -> None:
    """In a fresh process: import sddlab.cli and load ``CONFIG`` under the
    loader and ``dataclasses`` hooks, and print the timings as JSON."""
    import builtins
    import dataclasses
    import importlib.machinery
    from time import perf_counter

    modules: dict[str, list[float]] = {}  # name -> [compile_s, body_s]
    imports: list[list] = []  # per sddlab body being run: [seconds its import statements took, one running]
    decorations = [0.0]
    real_import, real_exec = builtins.__import__, importlib.machinery.SourceFileLoader.exec_module
    real_process = dataclasses._process_class

    def timed_import(*args, **kwargs):
        if not imports or imports[-1][1]:  # the imports an import runs are its own
            return real_import(*args, **kwargs)
        frame = imports[-1]
        frame[1] = True
        t0 = perf_counter()
        try:
            return real_import(*args, **kwargs)
        finally:
            frame[0] += perf_counter() - t0
            frame[1] = False

    def exec_module(loader, module):
        name = module.__name__
        if name != "sddlab" and not name.startswith("sddlab."):
            return real_exec(loader, module)
        source = loader.get_data(loader.path)
        t0 = perf_counter()
        code = loader.source_to_code(source, loader.path)
        t1 = perf_counter()
        imports.append([0.0, False])
        try:
            exec(code, module.__dict__)
        finally:
            modules[name] = [t1 - t0, perf_counter() - t1 - imports.pop()[0]]

    def process_class(*args, **kwargs):
        t0 = perf_counter()
        try:
            return real_process(*args, **kwargs)
        finally:
            decorations[0] += perf_counter() - t0

    builtins.__import__ = timed_import
    importlib.machinery.SourceFileLoader.exec_module = exec_module
    dataclasses._process_class = process_class
    import sddlab.cli  # noqa: F401
    from sddlab.config import load_config

    t0 = perf_counter()
    load_config(CONFIG)
    load_s = perf_counter() - t0
    difflib = "difflib" in sys.modules
    print(json.dumps({"modules": modules, "decorations": decorations[0], "load_config": load_s, "difflib": difflib}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=9, help="fresh processes to take the minimum over")
    args = ap.parse_args()

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "scripts"), str(ROOT / "src")])
    command = [sys.executable, "-c", "import import_timing; import_timing.child()"]
    runs = []
    for _ in range(args.repeat):
        proc = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(proc.stdout))

    ms = 1e3
    names = list(runs[0]["modules"])
    print(f"min-of-{args.repeat} milliseconds per fresh process, PYTHONDONTWRITEBYTECODE=1")
    print(f"{'module':<20} {'compile':>8} {'body':>8}")
    for name in names:
        compile_s, body_s = (min(run["modules"][name][i] for run in runs) for i in (0, 1))
        print(f"{name:<20} {compile_s * ms:8.2f} {body_s * ms:8.2f}")
    totals = [[sum(t[i] for t in run["modules"].values()) for i in (0, 1)] for run in runs]
    print(f"{'total':<20} {min(t[0] for t in totals) * ms:8.2f} {min(t[1] for t in totals) * ms:8.2f}")
    print(f"@dataclass decorations {min(run['decorations'] for run in runs) * ms:.2f}")
    print(f"load_config {min(run['load_config'] for run in runs) * ms:.2f}")
    print(f"difflib imported {'yes' if any(run['difflib'] for run in runs) else 'no'}")


if __name__ == "__main__":
    main()
