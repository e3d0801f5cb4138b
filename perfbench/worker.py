"""One measured sddlab invocation in a fresh process.

    python3 perfbench/worker.py RESULT.json ROOT MODE [ARGS...]

Times set-up (import ``sddlab.cli`` and ``load_config`` on the config
named by ``--config`` in ARGS), then ``sddlab.cli.main(ARGS)``, and writes
the timings, the exit code, peak RSS and the library versions to
RESULT.json.  MODE is ``setup`` (stop after set-up), ``run`` or ``trace``
(the CLI call runs under the layer tracer).  The CLI's own stdout goes to
``cli_stdout.txt`` next to RESULT.json.

The process also times ``reference_loop`` after set-up and, in the run
modes, again after the CLI call, and reports both as ``cal_s``; run.py
turns their mean into this worker's speed factor.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

CAL_ITERATIONS = 80000


def reference_loop() -> float:
    """Wall time of a fixed Python loop of ufuncs on 101-element arrays.

    It has the shape of sddlab's hot loops, so on a shared machine it tracks
    most of their drift in speed; it never touches sddlab code, so no
    change to sddlab can move it.
    """
    import numpy as np

    b = np.linspace(0.0, 1.0, 101)
    c = np.ones(101)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(CAL_ITERATIONS):
        a = b * 0.5 + c
        acc += float(np.sum(a[1:-1]))
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    result_path, root, mode, cli_args = Path(argv[0]), Path(argv[1]), argv[2], argv[3:]
    sys.path.insert(0, str(root / "src"))
    import sddlab.cli
    from sddlab.config import load_config

    load_config(cli_args[cli_args.index("--config") + 1])
    result = {"setup_s": time.perf_counter() - T_START}
    cal = [reference_loop()]

    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        stdout_path = result_path.parent / "cli_stdout.txt"
        try:
            with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                result["exit_code"] = sddlab.cli.main(cli_args)
                result["run_s"] = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.metrics(), *tracer.samples)
            result["leftover_wrappers"] = tracing.leftover_wrappers()
        cal.append(reference_loop())

    import numpy
    import scipy

    result["cal_s"] = cal
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
