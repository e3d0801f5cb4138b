"""Fresh CLI output against golden files of the shipped configs.

``tests/golden/<config>/`` holds ``equilibria.csv``, ``trajectory.csv``
and ``certify.csv`` for every ``configs/*.ini``; the two saturated
``certify.csv`` cover the Lyapunov tail under a constant and an integral
delay.  The trajectory goldens keep every 100th sample row plus the last one; the
fresh output is thinned the same way before comparing.  Numbers must agree
to rel 1e-9 / abs 1e-12, text columns (``kind``, ``verdict``) exactly.  A
change that moves an output beyond this tolerance re-records the goldens
and says why.

The two saturated configs also keep ``monitor.csv``: every field of every
``LyapunovSample`` of the monitor along the config's first eps, in both
directions.  ``certify.csv`` only reports verdicts, which a wrong ``U``
can leave unchanged; this series pins the functional itself.  Numbers are
compared with the same tolerance, ``direction`` and ``valid`` exactly.
Re-record with ``PYTHONPATH=src python -m tests.test_golden``.

``check_hypotheses.txt`` is the stdout of ``check-hypotheses`` for every
shipped config, compared exactly: the verdicts, notes and witnesses of the
sampled hypothesis checks (the bilinear config's hf3 witness among them).
Re-record one with ``PYTHONPATH=src python -m sddlab.cli check-hypotheses
--config configs/<config>.ini > tests/golden/<config>/check_hypotheses.txt``.
"""

import math
import sys
from pathlib import Path

import pytest

from sddlab import InitialData, equilibrium_norm, find_equilibria, monitor, run
from sddlab.cli import main
from sddlab.config import load_config

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
REL_TOL = 1e-9
ABS_TOL = 1e-12
TEXT_COLUMNS = {"kind", "verdict", "direction", "valid"}
TRAJECTORY_STRIDE = 100

CONFIG_NAMES = ("bilinear_reference", "drug_schedule", "saturated_constant_delay", "saturated_integral_delay")
COMMANDS = (("equilibria", "equilibria.csv"), ("simulate", "trajectory.csv"), ("certify", "certify.csv"))
CASES = [(config, command, csv_name) for config in CONFIG_NAMES for command, csv_name in COMMANDS]


def thin(rows: list[str]) -> list[str]:
    kept = rows[::TRAJECTORY_STRIDE]
    if (len(rows) - 1) % TRAJECTORY_STRIDE:
        kept.append(rows[-1])
    return kept


@pytest.mark.parametrize("config, command, csv_name", CASES)
def test_cli_output_matches_golden(tmp_path, config, command, csv_name):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out)]) == 0
    header, *rows = (out / csv_name).read_text().splitlines()
    golden_header, *golden_rows = (GOLDEN / config / csv_name).read_text().splitlines()
    if csv_name == "trajectory.csv":
        rows = thin(rows)
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    columns = header.split(",")
    for i, (row, golden_row) in enumerate(zip(rows, golden_rows)):
        for name, got, want in zip(columns, row.split(","), golden_row.split(","), strict=True):
            where = f"row {i} column {name}: {got} vs golden {want}"
            if name in TEXT_COLUMNS:
                assert got == want, where
            else:
                assert got == want or math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=ABS_TOL), where


@pytest.mark.parametrize("config", CONFIG_NAMES)
def test_check_hypotheses_output_matches_golden(capsys, config):
    assert main(["check-hypotheses", "--config", str(CONFIGS / f"{config}.ini")]) == 0
    assert capsys.readouterr().out == (GOLDEN / config / "check_hypotheses.txt").read_text()


# the bump that certify draws from seed 0, written out so the series does not
# depend on the generator
BUMP_WEIGHTS = (0.18881711923692265, -0.19839032737660414, 0.9617636786063786)
BUMP_CENTER = 0.25826381776426455
MONITOR_CONFIGS = ("saturated_constant_delay", "saturated_integral_delay")
MONITOR_HEADER = [
    "direction", "t", "U", "dU_dt_fd", "S_int", "D_int", "Ddiff", "Ddiff_1", "Ddiff_2", "Ddiff_3",
    "C1_int", "c1_abs_dev", "c1_scale", "residual", "eta", "eta_rate", "valid",
]


def monitor_rows(config: str) -> list[list[str]]:
    """The monitor series of the config's first eps, constant then bump direction."""
    cfg = load_config(CONFIGS / f"{config}.ini")
    (eq,) = [e for e in find_equilibria(cfg.params, cfg.incidence) if e.kind == "interior"]
    eps = cfg.output.eps_fractions[0] * equilibrium_norm(eq)
    rows = []
    for direction, weights, center in (("constant", (1.0, 1.0, 1.0), None), ("gaussian_bump", BUMP_WEIGHTS, BUMP_CENTER)):
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=eps,
            direction=direction,
            weights=weights,
            bump_center=center,
            bump_width=0.1 * cfg.grid.length,
            equilibrium=eq,
        )
        traj = run(initial, cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid)
        samples = monitor(
            traj, eq, cfg.params, cfg.incidence, cfg.grid, stride=cfg.output.monitor_stride, warmup=cfg.output.warmup
        )
        for s in samples:
            numbers = (s.t, s.U, s.dU_dt_fd, s.S_int, s.D_int, s.Ddiff, *s.Ddiff_terms, s.C1_int, s.c1_abs_dev,
                       s.c1_scale, s.residual, s.eta, s.eta_rate)
            rows.append([direction, *(repr(float(x)) for x in numbers), str(s.valid)])
    return rows


@pytest.mark.parametrize("config", MONITOR_CONFIGS)
def test_monitor_series_matches_golden(config):
    golden_header, *golden_rows = (GOLDEN / config / "monitor.csv").read_text().splitlines()
    assert golden_header.split(",") == MONITOR_HEADER
    rows = monitor_rows(config)
    assert len(rows) == len(golden_rows)
    for i, (row, golden_row) in enumerate(zip(rows, golden_rows)):
        for name, got, want in zip(MONITOR_HEADER, row, golden_row.split(","), strict=True):
            where = f"row {i} column {name}: {got} vs golden {want}"
            if name in TEXT_COLUMNS:
                assert got == want, where
            else:
                assert got == want or math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=ABS_TOL), where


if __name__ == "__main__":
    for config in MONITOR_CONFIGS:
        lines = [",".join(MONITOR_HEADER)] + [",".join(row) for row in monitor_rows(config)]
        (GOLDEN / config / "monitor.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {GOLDEN / config / 'monitor.csv'}: {len(lines) - 1} rows", file=sys.stderr)
