"""Output-correctness checks for one workload invocation.

Reference files under ``perfbench/reference/<workload>/`` were recorded
with ``record_reference.py`` for ``DEFAULT_SEED``.  At that seed every
reference value must match within ``REL_TOL`` relative (``ABS_TOL``
absolute near zero), and the ``verdict`` column must match exactly.  At
any other seed only the seed-independent checks apply: file structure,
row counts, finite values, the box and abort record of ``simulate``, and
the columns listed in ``SEED_FREE_COLUMNS``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Workload

DEFAULT_SEED = 0
REL_TOL = 1e-9
ABS_TOL = 1e-12
TRAJECTORY_STRIDE = 100  # reference keeps every 100th trajectory row plus the last
VERDICTS = ("stable_evidence", "inconclusive", "instability_evidence")
CERTIFY_HEADER = ["equilibrium", "eps", "decrease_fraction", "max_eta_rate", "S_over_D", "verdict"]
# columns whose values the perturbation seed cannot change
SEED_FREE_COLUMNS = {
    "certify-integral": ("equilibrium", "eps"),
    "certify-constant": ("equilibrium", "eps", "max_eta_rate", "S_over_D"),
    "simulate-wide": ("t",),
}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def subsample(rows: list[list[str]]) -> list[list[str]]:
    """The trajectory rows kept in the reference file."""
    keep = list(range(0, len(rows), TRAJECTORY_STRIDE))
    if rows and keep[-1] != len(rows) - 1:
        keep.append(len(rows) - 1)
    return [rows[i] for i in keep]


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare(header, rows, ref_header, ref_rows, columns) -> list[str]:
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    idx = [header.index(c) for c in columns]
    problems = []
    for r, (row, ref) in enumerate(zip(rows, ref_rows)):
        for i in idx:
            exact = header[i] == "verdict"
            if (row[i] != ref[i]) if exact else not _close(row[i], ref[i]):
                problems.append(f"row {r} {header[i]}: {row[i]} vs reference {ref[i]}")
    return problems[:5]


def _finite(header, rows, skip=("verdict",)) -> list[str]:
    for r, row in enumerate(rows):
        for name, value in zip(header, row):
            if name not in skip and not math.isfinite(float(value)):
                return [f"row {r} {name}: nonfinite {value}"]
    return []


def check_certify(wl: Workload, out: Path, reference: bool) -> list[str]:
    header, rows = read_csv(out / "certify.csv")
    if header != CERTIFY_HEADER:
        return [f"certify.csv header {header}"]
    problems = _finite(header, rows)
    if len(rows) != wl.output_rows:
        problems.append(f"certify.csv has {len(rows)} rows, expected {wl.output_rows}")
    for row in rows:
        if row[5] not in VERDICTS:
            problems.append(f"unknown verdict {row[5]!r}")
        if not 0.0 <= float(row[2]) <= 1.0:
            problems.append(f"decrease_fraction {row[2]} outside [0, 1]")
    if reference and not problems:
        ref_header, ref_rows = read_csv(REFERENCE_DIR / wl.name / "certify.csv")
        columns = header if wl.seed == DEFAULT_SEED else SEED_FREE_COLUMNS[wl.name]
        problems += _compare(header, rows, ref_header, ref_rows, columns)
    return problems


def check_simulate(wl: Workload, out: Path, reference: bool) -> list[str]:
    summary = json.loads((out / "summary.jsonl").read_text(encoding="utf-8").splitlines()[0])
    problems = []
    if summary.get("aborted") is not False:
        problems.append(f"aborted={summary.get('aborted')}")
    for key in ("lower_violations", "upper_violations"):
        if summary.get(key) != 0:
            problems.append(f"{key}={summary.get(key)}")
    if summary.get("samples") != wl.output_rows:
        problems.append(f"samples={summary.get('samples')}, expected {wl.output_rows}")
    header, rows = read_csv(out / "trajectory.csv")
    if len(rows) != wl.output_rows:
        problems.append(f"trajectory.csv has {len(rows)} rows, expected {wl.output_rows}")
    problems += _finite(header, rows, skip=())
    if any(row[-1] != "0" for row in rows):
        problems.append("box_violation flag set")
    if reference and not problems:
        ref_header, ref_rows = read_csv(REFERENCE_DIR / wl.name / "trajectory.csv")
        columns = header if wl.seed == DEFAULT_SEED else SEED_FREE_COLUMNS[wl.name]
        problems += _compare(header, subsample(rows), ref_header, ref_rows, columns)
        if wl.seed == DEFAULT_SEED:
            ref_norm = json.loads((REFERENCE_DIR / wl.name / "final_sup_norm.json").read_text(encoding="utf-8"))
            for key, value in ref_norm.items():
                if not math.isclose(summary["final_sup_norm"][key], value, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                    problems.append(f"final_sup_norm {key}: {summary['final_sup_norm'][key]} vs reference {value}")
    return problems


def check(wl: Workload, out: Path, reference: bool = True) -> list[str]:
    """Problems found in the outputs under `out`; empty when they are correct.

    `reference=False` (smoke size) skips the comparison with recorded files.
    """
    try:
        if wl.command == "certify":
            return check_certify(wl, out, reference)
        return check_simulate(wl, out, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
