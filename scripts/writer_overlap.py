#!/usr/bin/env python3
"""How much of ``simulate``'s trajectory writer runs beside the solver, not on its CPU.

Each run calls ``simulate`` in this process on CONFIG, into a temporary
directory, and prints one row:

  wall_s     the solver process's wall time for the call;
  cpu_s      its CPU time, user plus system (``RUSAGE_SELF``);
  gap_s      wall_s - cpu_s: time the solver was runnable or blocked
             but not running;
  writer_s   the writer process's CPU time (the ``RUSAGE_CHILDREN``
             delta, read after ``simulate`` reaped it);
  invol      the solver's involuntary context switches.

Where the writer shares the solver's CPU, gap_s grows by about writer_s.
Where it runs on another CPU, gap_s stays near zero.  Times vary with the
machine and its load; compare rows made in one session.

Usage: python scripts/writer_overlap.py --config CONFIG [--repeat 6]
"""

import argparse
import contextlib
import io
import resource
import tempfile
import time

from sddlab.cli import main as cli_main


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True, help="the config to simulate")
    ap.add_argument("--repeat", type=int, default=6, help="runs, one row each")
    args = ap.parse_args()

    print(f"{'run':>3} {'wall_s':>8} {'cpu_s':>8} {'gap_s':>8} {'writer_s':>8} {'invol':>6}")
    for k in range(args.repeat):
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            self0, children0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
            t0 = time.perf_counter()
            code = cli_main(["simulate", "--config", args.config, "--out", out])
            wall = time.perf_counter() - t0
            self1, children1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        if code:
            raise SystemExit(f"simulate exited with status {code}")
        cpu = _cpu(self1) - _cpu(self0)
        writer = _cpu(children1) - _cpu(children0)
        print(f"{k:>3} {wall:8.3f} {cpu:8.3f} {wall - cpu:8.3f} {writer:8.3f} {self1.ru_nivcsw - self0.ru_nivcsw:>6}")


if __name__ == "__main__":
    main()
