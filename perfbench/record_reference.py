"""Record the reference outputs that check.py compares against.

    python3 perfbench/record_reference.py

Runs every workload once at ``check.DEFAULT_SEED`` with the sddlab
sources of the current checkout and rewrites ``perfbench/reference/``.
Only do this at a commit whose outputs are trusted; a change that moves
the outputs beyond check.py's tolerance must say why it re-recorded them.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys

import check
import run
import workloads


def main() -> int:
    for name in workloads.WORKLOADS:
        wl = workloads.generate(name, check.DEFAULT_SEED, run.ROOT)
        work, config = run.prepare_work_dir(wl)
        result = run.run_worker("run", wl, work / "record", config, reference=False)
        if "error" in result:
            print(f"{name}: {result['error']}", file=sys.stderr)
            return 1
        out = work / "record" / "out"
        ref = check.REFERENCE_DIR / name
        shutil.rmtree(ref, ignore_errors=True)
        ref.mkdir(parents=True)
        if wl.command == "certify":
            shutil.copy(out / "certify.csv", ref / "certify.csv")
        else:
            header, rows = check.read_csv(out / "trajectory.csv")
            with open(ref / "trajectory.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(check.subsample(rows))
            summary = json.loads((out / "summary.jsonl").read_text(encoding="utf-8").splitlines()[0])
            (ref / "final_sup_norm.json").write_text(json.dumps(summary["final_sup_norm"], indent=1) + "\n")
        print(f"{name}: reference written to {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
