"""Fresh CLI output against golden files of the shipped configs.

``tests/golden/<config>/`` holds ``equilibria.csv``, ``trajectory.csv``
and ``certify.csv`` for every ``configs/*.ini``; the two saturated
``certify.csv`` cover the Lyapunov tail under a constant and an integral
delay.  The trajectory goldens keep every 100th sample row plus the last one; the
fresh output is thinned the same way before comparing.  Numbers must agree
to rel 1e-9 / abs 1e-12, text columns (``kind``, ``verdict``) exactly.  A
change that moves an output beyond this tolerance re-records the goldens
and says why.
"""

import math
from pathlib import Path

import pytest

from sddlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
REL_TOL = 1e-9
ABS_TOL = 1e-12
TEXT_COLUMNS = {"kind", "verdict"}
TRAJECTORY_STRIDE = 100

COMMANDS = (("equilibria", "equilibria.csv"), ("simulate", "trajectory.csv"), ("certify", "certify.csv"))
CASES = [
    (config, command, csv_name)
    for config in ("bilinear_reference", "drug_schedule", "saturated_constant_delay", "saturated_integral_delay")
    for command, csv_name in COMMANDS
]


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
