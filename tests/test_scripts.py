import math
import re
import subprocess
import sys
from pathlib import Path


def run_script(args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_convergence_study_runs():
    proc = run_script(["scripts/convergence_study.py", "--dts", "0.05", "0.025", "0.0125", "--t-end", "2"])
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.strip().splitlines()
    assert title == "explicit Euler, constant lag 0.4:"
    assert header.split() == ["dt", "|u(dt)", "-", "u(dt/2)|", "ratio"]
    assert [row.split()[0] for row in rows] == ["0.05000", "0.02500"]
    assert 1.6 <= float(rows[-1].split()[-1]) <= 2.6  # first order


def test_convergence_matrix_runs():
    # the paper's setting in dt (three ratios and compat_residual per case) and the order in dx
    proc = run_script(["scripts/convergence_matrix.py"])
    assert proc.returncode == 0, proc.stderr
    matrix, dx = proc.stdout.strip().split("\n\n")
    title, header, *rows = matrix.splitlines()
    assert title == "explicit Euler at nx = 3, t_end = 5, dt = 0.04 0.02 0.01 0.005 0.0025:"
    assert header.split() == ["case", "ratios", "compat_residual"]
    cases = [re.split(r"\s{2,}", row.strip())[0] for row in rows]
    assert cases == [
        "constant lag 0.4", "constant lag 0.41", "constant lag, linear_ramp", "constant lag, jump", "integral lag",
        "wrapped lag", "wrapped lag, linear_ramp", "wrapped lag, jump",
    ]
    numbers = [[float(x) for x in row.split()[-4:]] for row in rows]
    assert all(math.isfinite(x) for row in numbers for x in row)
    title, header, *rows = dx.splitlines()
    assert title == "explicit Euler with diffusion, gaussian_bump, dt = 0.01, t_end = 2:"
    assert [row.split()[0] for row in rows] == ["11", "21", "41"]
    assert all(math.isfinite(float(x)) for row in rows for x in row.split()[1:] if x != "-")


def test_eta_rate_sweep_runs():
    proc = run_script(["scripts/eta_rate_sweep.py", "--eps-fractions", "0.05", "--t-end", "4"])
    assert proc.returncode == 0, proc.stderr
    assert "stable_evidence" in proc.stdout


def test_step_timing_prints_one_row_per_shape():
    proc = run_script(["scripts/step_timing.py", "--repeat", "1", "--number", "2", "--streams", "1", "--steps", "2"])
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.strip().splitlines()
    assert title == "min-of-N microseconds per call; store_rows in rows"
    assert header.split() == [
        "shape", "rhs", "laplacian", "incidence", "delayed_state", "stream_step", "csv_line", "store_rows",
    ]
    assert [row.split()[0] for row in rows] == ["(2,3,101)", "(6,3,41)", "(3,1001)"]
    assert all(len(row.split()) == 8 for row in rows)
    assert all(0.0 < float(t) < math.inf for row in rows for t in row.split()[1:-1])
    assert all(row.split()[-1].isdigit() and int(row.split()[-1]) > 0 for row in rows)


def test_monitor_timing_prints_one_row_per_shape():
    proc = run_script(["scripts/monitor_timing.py", "--repeat", "1", "--number", "1", "--blocks", "1"])
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.strip().splitlines()
    assert title == "min-of-N microseconds per block; minor page faults over the first 1 blocks"
    assert header.split() == ["shape", "u_sdd_total", "rate_decomposition", "monitor", "faults"]
    assert [row.split()[0] for row in rows] == ["(2,101)", "(6,41)"]
    assert all(len(row.split()) == 5 for row in rows)
    assert all(0.0 < float(t) < math.inf for row in rows for t in row.split()[1:])


def test_import_timing_prints_one_row_per_module():
    proc = run_script(["scripts/import_timing.py", "--repeat", "1"])
    assert proc.returncode == 0, proc.stderr
    title, header, *rows, decorations, load, difflib = proc.stdout.strip().splitlines()
    assert title == "min-of-1 milliseconds per fresh process, PYTHONDONTWRITEBYTECODE=1"
    assert header.split() == ["module", "compile", "body"]
    modules = ["sddlab", "sddlab.cli", "sddlab.config", "sddlab.equilibria", "sddlab.grid", "sddlab.history",
               "sddlab.lyapunov", "sddlab.model", "sddlab.solver"]
    assert sorted(row.split()[0] for row in rows[:-1]) == modules and rows[-1].split()[0] == "total"
    assert all(len(row.split()) == 3 for row in rows)
    assert all(0.0 <= float(t) < math.inf for row in rows for t in row.split()[1:])
    assert decorations.startswith("@dataclass decorations ") and 0.0 <= float(decorations.split()[-1]) < math.inf
    assert load.startswith("load_config ") and 0.0 <= float(load.split()[-1]) < math.inf
    assert difflib == "difflib imported no"


def test_readme_library_example_runs(capsys):
    # the README's Library code block as written; its comment claims the printed rate is <= 0
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    exec(re.search(r"## Library\n.*?```python\n(.*?)```", readme, re.S).group(1), {})
    (printed,) = capsys.readouterr().out.split()
    assert float(printed) <= 0.0
