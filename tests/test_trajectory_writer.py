"""``simulate``'s trajectory.csv through the writer process and in-process.

``simulate`` hands its rows, as raw float64 blocks, to
``_trajectory_writer.py`` run as a filter process; where ``os.posix_spawn``
is missing it calls the same ``write_rows`` in-process.  Both must write the
same bytes, flush every row before an abort, turn a failed writer into a
runtime error, and leave no process behind.
"""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sddlab.cli as cli
from sddlab import run
from sddlab._trajectory_writer import write_rows
from sddlab.cli import _resolve_initial, main
from sddlab.config import load_config

from .test_cli import ABORT_CONFIG, CONFIGS, read_csv, write_cfg

WRITER = Path(cli.__file__).with_name("_trajectory_writer.py")


@pytest.fixture(autouse=True)
def no_process_left():
    """After each test, this process has no child: none running, none unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def simulate(config: Path, out: Path, in_process: bool = False) -> tuple[int, bytes, list[dict]]:
    """Run ``simulate``, formatting in-process if asked: its exit code,
    trajectory.csv's bytes and summary.jsonl's records less ``wall_time_s``."""
    with pytest.MonkeyPatch.context() as patch:
        if in_process:
            patch.delattr(os, "posix_spawn")
        code = main(["simulate", "--config", str(config), "--out", str(out)])
    records = [json.loads(line) for line in (out / "summary.jsonl").read_text().splitlines()]
    for record in records:
        record.pop("wall_time_s", None)
    return code, (out / "trajectory.csv").read_bytes(), records


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.ini")))
def test_the_writer_process_and_in_process_write_the_same_bytes(tmp_path, name):
    spawned = simulate(CONFIGS / name, tmp_path / "spawned")
    in_process = simulate(CONFIGS / name, tmp_path / "in_process", in_process=True)
    assert spawned[0] == 0
    assert spawned == in_process


def test_an_abort_inside_a_block_flushes_every_row_before_it(tmp_path):
    cfg = write_cfg(tmp_path, ABORT_CONFIG)
    code, text, records = simulate(cfg, tmp_path / "spawned")
    assert code == 2 and records[0]["aborted"] is True and records[-1]["event"] == "abort"
    loaded = load_config(cfg)
    traj = run(_resolve_initial(loaded), loaded.params, loaded.incidence, loaded.delay, loaded.solver, loaded.grid)
    _, rows = read_csv(tmp_path / "spawned" / "trajectory.csv")
    header_width = len(text.splitlines()[0].split(b","))
    assert 1 < len(traj) == len(rows) < 65536 // (8 * header_width)  # fewer rows than one block
    assert [float(row[0]) for row in rows] == traj.times.tolist()
    assert simulate(cfg, tmp_path / "in_process", in_process=True) == (code, text, records)


def test_zero_duration_writes_one_row_either_way(tmp_path):
    cfg = write_cfg(tmp_path, "[time]\nt_end = 0\n")
    spawned = simulate(cfg, tmp_path / "spawned")
    assert spawned[0] == 0 and len(spawned[1].splitlines()) == 2
    assert simulate(cfg, tmp_path / "in_process", in_process=True) == spawned


def test_a_row_wider_than_the_pipe_buffer(tmp_path):
    """3000 probes make a row of 9004 values, 72,032 bytes: a block of one row
    that the writer reads in more than one pipe read."""
    cfg = write_cfg(tmp_path, "[grid]\nnx = 3000\n[time]\nt_end = 0.05\n[output]\nprobe_nodes = 3000\n")
    spawned = simulate(cfg, tmp_path / "spawned")
    header, rows = read_csv(tmp_path / "spawned" / "trajectory.csv")
    assert spawned[0] == 0 and 8 * len(header) > 65536 and len(rows) == 6
    assert simulate(cfg, tmp_path / "in_process", in_process=True) == spawned


def drain_and_fail(tmp_path: Path) -> str:
    script = tmp_path / "drain_and_fail"
    script.write_text("#!/bin/sh\ncat > /dev/null\nexit 3\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("writer", ["exits_at_once", "fails_at_the_end"])
def test_a_failed_writer_is_a_runtime_error(tmp_path, monkeypatch, capsys, writer):
    """A writer that exits before reading (a broken pipe, or its status) and one
    that reads every row and then exits 3 (its status) both end ``simulate``
    with exit code 2."""
    executable = shutil.which("false") if writer == "exits_at_once" else drain_and_fail(tmp_path)
    monkeypatch.setattr(sys, "executable", executable)
    code = main(["simulate", "--config", str(CONFIGS / "bilinear_reference.ini"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "runtime error:" in capsys.readouterr().err


def test_an_exception_in_the_stream_reaps_the_writer(tmp_path, monkeypatch, capsys):
    class FailingStream(cli.RunStream):
        def __iter__(self):
            for k, sample in enumerate(super().__iter__()):
                if k == 450:  # after the first block of 431 rows
                    raise RuntimeError("injected failure")
                yield sample

    monkeypatch.setattr(cli, "RunStream", FailingStream)
    code = main(["simulate", "--config", str(CONFIGS / "bilinear_reference.ini"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "runtime error: injected failure" in capsys.readouterr().err


def test_the_writer_script_runs_on_the_standard_library_alone():
    """The writer, run by path with no site packages, writes what ``write_rows`` writes in-process."""
    rows = np.array([
        [0.0, -0.0, 1e-300, 1.0],
        [0.1, 1.7976931348623157e308, 5e-324, 0.0],
        [2.5, -1e-300, 123456.789, 1.0],
    ])
    proc = subprocess.run([sys.executable, "-S", "-I", str(WRITER), "4"], input=rows.tobytes(),
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "0,-0,1e-300,1" and lines[1].endswith(",0")

    expected = io.StringIO()
    write_rows(expected, rows)
    assert proc.stdout.decode() == expected.getvalue()
