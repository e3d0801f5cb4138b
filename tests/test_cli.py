import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sddlab
from sddlab import run
from sddlab._trajectory_writer import _line_template
from sddlab.cli import _fmt, _resolve_initial, main
from sddlab.config import DEFAULTS_DOC, load_config

BILINEAR = Path("configs/bilinear_reference.ini").resolve()
SCHEDULE = Path("configs/drug_schedule.ini").resolve()
CONFIGS = Path("configs").resolve()


# blows up at t = 3.5, after 8 samples
ABORT_CONFIG = (
    "[params]\nburst_n = 1e12\nh_max = 0.5\n"
    "[incidence]\nkind = bilinear\nk = 10\n"
    "[delay]\neta_const = 0.1\n[grid]\nnx = 3\n"
    "[time]\ndt = 0.5\nt_end = 40\n"
    "[initial]\npreset = uniform\nt0 = 50\ntstar0 = 10\nv0 = 10\n"
)
# integral delay, diffusion and a burst_n jump off the step grid (one shortened step)
JUMP_CONFIG = (
    "[params]\nd1 = 0.001\nd2 = 0.001\nd3 = 0.002\n"
    "[incidence]\nkind = saturated\nk = 0.1\nk2 = 0.1\n"
    "[delay]\nkind = integral\nxi_component = V\nxi_scale = 0.0232\n"
    "[grid]\nnx = 7\n[time]\ndt = 0.01\nt_end = 3\n"
    "[initial]\npreset = gaussian_bump\n"
    "[schedule]\njump1 = 1.005 burst_n 5\n"
)


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestEquilibriaCommand:
    def test_bilinear_reference_rows(self, tmp_path):
        out = tmp_path / "out"
        assert main(["equilibria", "--config", str(BILINEAR), "--out", str(out)]) == 0
        header, rows = read_csv(out / "equilibria.csv")
        assert header == ["kind", "T_hat", "T_star_hat", "V_hat", "residual"]
        assert len(rows) == 2
        assert rows[0][0] == "trivial"
        assert [float(x) for x in rows[0][1:4]] == pytest.approx([100.0, 0.0, 0.0])
        assert rows[1][0] == "interior"
        assert [float(x) for x in rows[1][1:4]] == pytest.approx([5.0, 19.0, 19.0], abs=1e-7)
        assert float(rows[1][4]) <= 1e-8

    def test_zero_incidence_trivial_only(self, tmp_path):
        cfg = write_cfg(tmp_path, "[incidence]\nkind = bilinear\nk = 0\n")
        out = tmp_path / "out"
        assert main(["equilibria", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "equilibria.csv")
        assert len(rows) == 1
        assert rows[0][0] == "trivial"

    def test_unwritable_out_dir_no_partial_files(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "sub"
        code = main(["equilibria", "--config", str(BILINEAR), "--out", str(out)])
        assert code == 1
        assert not out.exists()


class TestSimulateCommand:
    def test_equilibrium_initial_data_constant_probes(self, tmp_path):
        text = (
            "[incidence]\nkind = saturated\nk = 0.1\nk2 = 0.1\n"
            "[time]\ndt = 0.01\nt_end = 2\n[grid]\nnx = 11\n"
            "[initial]\npreset = equilibrium_perturbation\nepsilon_rel = 0\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "t" and header[-1] == "box_violation"
        cols = np.array([[float(x) for x in row] for row in rows])
        for j in range(1, len(header) - 3):
            assert np.max(np.abs(cols[:, j] - cols[0, j])) <= 1e-8
        assert np.all(cols[:, -1] == 0.0)

    def test_zero_duration_header_only(self, tmp_path):
        # t_end = 0 is an ordinary run of one sample: the initial row at t = 0
        cfg = write_cfg(tmp_path, "[time]\nt_end = 0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "t"
        assert len(rows) == 1 and rows[0][0] == "0"
        assert rows[0][-2:] == ["0", "0"]  # eta_rate, box_violation
        summary = json.loads((out / "summary.jsonl").read_text())
        assert summary["samples"] == 1
        # the same keys as any other run
        longer = write_cfg(tmp_path, "[time]\nt_end = 0.02\n", name="longer.ini")
        assert main(["simulate", "--config", str(longer), "--out", str(tmp_path / "longer")]) == 0
        assert set(summary) == set(json.loads((tmp_path / "longer" / "summary.jsonl").read_text()))

    def test_schedule_kink_visible(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(SCHEDULE), "--out", str(out)]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        cols = np.array([[float(x) for x in row] for row in rows])
        t = cols[:, 0]
        eta = cols[:, header.index("eta")]
        assert np.all(eta == eta[0])  # constant delay: eta column continuous
        k = int(np.argmin(np.abs(t - 10.0)))
        v_col = header.index("V_n5")
        ts_col = header.index("Tstar_n5")
        dt = t[k + 1] - t[k]
        d_minus = (cols[k, v_col] - cols[k - 1, v_col]) / dt
        d_plus = (cols[k + 1, v_col] - cols[k, v_col]) / dt
        expected = 0.5 * cols[k, ts_col] * (5.0 - 10.0)
        assert (d_plus - d_minus) == pytest.approx(expected, rel=0.10)

    def test_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", str(BILINEAR), "--out", str(out)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_line_template_writes_what_fmt_writes(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1, -2.5, np.float64(0.4)]
        for flag in (False, True):
            joined = ",".join([_fmt(x) for x in values] + ["1" if flag else "0"]) + "\n"
            assert _line_template(len(values)) % (*values, flag) == joined

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(BILINEAR), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        token = rows[-1][1]
        assert f"{float(token):.17g}" == token

    def test_summary_jsonl(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(BILINEAR), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "summary.jsonl").read_text().splitlines()]
        assert records[0]["event"] == "run_summary"
        assert records[0]["aborted"] is False
        assert records[0]["samples"] == 501
        assert "final_sup_norm" in records[0]

    def test_abort_flushes_partial_and_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, ABORT_CONFIG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) >= 1
        records = [json.loads(line) for line in (out / "summary.jsonl").read_text().splitlines()]
        assert records[0]["aborted"] is True
        assert records[-1]["event"] == "abort"


def _fmt_all(values) -> list[str]:
    return [f"{float(x):.17g}" for x in values]


class TestSimulateStream:
    """``simulate`` drains the solver's stream straight into the CSV; every
    column must equal what ``run`` keeps, bit for bit."""

    @pytest.mark.parametrize(
        "name",
        ["bilinear_reference", "drug_schedule", "saturated_constant_delay", "saturated_integral_delay", "jump", "abort"],
    )
    def test_csv_and_summary_equal_run(self, tmp_path, name):
        texts = {"jump": JUMP_CONFIG, "abort": ABORT_CONFIG}
        path = write_cfg(tmp_path, texts[name]) if name in texts else CONFIGS / f"{name}.ini"
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        cfg = load_config(path)
        traj = run(_resolve_initial(cfg), cfg.params, cfg.incidence, cfg.delay, cfg.solver, cfg.grid, cfg.schedule)
        assert code == (2 if name == "abort" else 0)
        assert traj.aborted == (name == "abort")

        _, rows = read_csv(out / "trajectory.csv")
        cols = [list(c) for c in zip(*rows)]
        summary = json.loads((out / "summary.jsonl").read_text().splitlines()[0])
        probes = summary["probe_nodes"]
        assert cols[0] == _fmt_all(traj.times)
        for j, node in enumerate(probes):
            for c in range(3):
                assert cols[1 + 3 * j + c] == _fmt_all(traj.fields[:, c, node])
        assert cols[-3] == _fmt_all(traj.eta)
        eta_rate = np.diff(traj.eta) / np.diff(traj.times)
        assert cols[-2] == ["0"] + _fmt_all(eta_rate)
        upper = traj.upper_violations if traj.upper_violations is not None else 0
        assert cols[-1] == ["1" if v else "0" for v in traj.lower_violations + upper > 0]

        assert summary["samples"] == len(traj)
        assert summary["lower_violations"] == int(np.sum(traj.lower_violations))
        assert summary["aborted"] == traj.aborted
        assert summary["eta_min"] == float(np.min(traj.eta))
        assert summary["eta_max"] == float(np.max(traj.eta))
        assert summary["max_abs_eta_rate"] == float(np.max(np.abs(eta_rate), initial=0.0))
        lows = np.min(traj.fields, axis=(0, 2))
        assert summary["min_component"] == {"T": lows[0], "T_star": lows[1], "V": lows[2]}
        T, T_star, V = traj.fields[-1]
        assert summary["final_sup_norm"] == {
            "T": float(np.max(np.abs(T))),
            "T_star": float(np.max(np.abs(T_star))),
            "V": float(np.max(np.abs(V))),
        }
        if name == "saturated_integral_delay":
            assert summary["max_abs_eta_rate"] > 0.0


class TestCheckHypothesesCommand:
    def test_saturated_all_hold(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, "[incidence]\nkind = saturated\nk = 0.1\nk2 = 0.1\n")
        assert main(["check-hypotheses", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert "hf1: holds" in text
        assert "hf3: holds" in text
        assert "hf4: holds" in text

    def test_bilinear_hf3_fails_with_witness(self, capsys):
        assert main(["check-hypotheses", "--config", str(BILINEAR)]) == 0
        text = capsys.readouterr().out
        assert "hf3: fails" in text
        assert "witness" in text


class TestCertifyCommand:
    def test_bilinear_warns_outside_hypotheses(self, capsys, tmp_path):
        text = (
            "[incidence]\nkind = bilinear\nk = 0.1\n"
            "[grid]\nnx = 5\n[time]\ndt = 0.02\nt_end = 4\n"
            "[output]\neps_fractions = 0.05\ndirections = constant\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "outside theorem hypotheses" in printed
        header, rows = read_csv(out / "certify.csv")
        assert header == ["equilibrium", "eps", "decrease_fraction", "max_eta_rate", "S_over_D", "verdict"]
        assert len(rows) == 1

    def test_no_interior_equilibrium_header_only(self, capsys, tmp_path):
        cfg = write_cfg(tmp_path, "[incidence]\nkind = bilinear\nk = 0\n")
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "certify.csv")
        assert rows == []
        assert "no certifiable interior equilibrium" in capsys.readouterr().out

    def test_constant_delay_stable_evidence(self, capsys, tmp_path):
        text = (
            "[incidence]\nkind = saturated\nk = 0.1\nk2 = 0.1\n"
            "[grid]\nnx = 11\n[time]\ndt = 0.01\nt_end = 8\n"
            "[output]\neps_fractions = 0.05\ndirections = constant\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "certify.csv")
        assert rows[0][-1] == "stable_evidence"
        assert float(rows[0][2]) == 1.0

    def test_solver_abort_writes_csv_and_exits_2(self, capsys, tmp_path):
        # explicit Euler is unstable on the T* decay once delta*dt = 3 > 2
        text = (
            "[params]\ndelta = 300\n[grid]\nnx = 11\n[time]\nt_end = 20\n"
            "[output]\neps_fractions = 0.05\ndirections = constant\n"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
        _, rows = read_csv(out / "certify.csv")
        assert rows == [["0", "1.1003389811842421", "0", "0", "0", "inconclusive"]]
        printed = capsys.readouterr().out
        assert "solver abort: equilibrium 0 eps=1.10034 direction constant at t=10.14" in printed


    def test_a_schedule_is_named_as_ignored_and_changes_nothing(self, caplog, tmp_path):
        # certify runs at the initial parameters: one warning names the jumps, the verdicts stay
        text = "[grid]\nnx = 5\n[time]\ndt = 0.02\nt_end = 4\n[output]\neps_fractions = 0.05\ndirections = constant\n"
        written, warned = [], []
        for name, schedule in (("plain", ""), ("jumps", "[schedule]\njump1 = 2 burst_n 5\njump2 = 3.5 c 4\n")):
            caplog.clear()
            cfg = write_cfg(tmp_path, text + schedule, f"{name}.ini")
            assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            written.append((tmp_path / name / "certify.csv").read_bytes())
            warned.append([(r.levelname, r.getMessage()) for r in caplog.records if "schedule" in r.getMessage()])
        assert written[0] == written[1]
        assert warned == [
            [],
            [("WARNING", "certify ignores [schedule] (burst_n -> 5 at t=2, c -> 4 at t=3.5): "
                         "it certifies at the initial parameters")],
        ]


class TestUsageAndErrors:
    def test_missing_config_file(self, tmp_path):
        assert main(["equilibria", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[params]\nlambda = -1\n")
        assert main(["equilibria", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "positive" in capsys.readouterr().err

    def test_nan_eps_fraction_is_a_config_error(self, tmp_path, capsys):
        # it passed the positivity test and died mid-run with a NaN lag (exit 2)
        cfg = write_cfg(tmp_path, "[grid]\nnx = 11\n[time]\nt_end = 1\n[output]\neps_fractions = nan\n")
        assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "line 6: [output] eps_fractions: entry nan must be positive and finite" in capsys.readouterr().err

    def test_help_prints_the_config_defaults(self, capsys):
        assert main(["--help"]) == 0
        assert DEFAULTS_DOC in capsys.readouterr().out

    def test_usage_error_exit_code(self):
        assert main(["frobnicate"]) == 1
        assert main(["simulate"]) == 1  # missing --config

    def test_seed_override_validated(self, tmp_path):
        assert main(["--seed", "-3", "equilibria", "--config", str(BILINEAR), "--out", str(tmp_path / "o")]) == 1

    def test_eq_index_out_of_range(self, tmp_path):
        text = "[initial]\npreset = equilibrium_perturbation\neq_index = 5\n[time]\nt_end = 1\n[grid]\nnx = 5\n"
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


IMPORTS_DURING_MAIN = """
import contextlib, io, json, sys
import sddlab.cli
loaded = {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for command in ("simulate", "certify"):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = sddlab.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[2]])
    loaded[command] = [code, sorted(set(sys.modules) - before)]
print(json.dumps(loaded))
"""


def test_the_cli_loads_no_scipy_and_main_imports_nothing_heavy(tmp_path):
    """``import sddlab.cli`` pulls in no scipy module, and ``main`` itself
    imports no module but the ``locale`` that argparse's gettext loads, so
    no lazy import moves into the timed run.  A fresh process, because this
    one's ``sys.modules`` holds whatever other tests imported."""
    cfg = write_cfg(tmp_path, JUMP_CONFIG)
    src = str(Path(sddlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORTS_DURING_MAIN, str(cfg), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded.pop("scipy") == []
    for command, (code, modules) in loaded.items():
        assert code == 0, command
        assert set(modules) <= {"locale", "_locale"}, command


HINTS_ON_ERROR_PATHS = """
import json, sys
from pathlib import Path
import sddlab.cli
from sddlab.config import ConfigError, load_config
from sddlab.model import IncidenceFn
for path in sorted(Path(sys.argv[1]).glob("*.ini")):
    load_config(path)
good_path = "difflib" in sys.modules
hints = {}
try:
    load_config(sys.argv[2])
except ConfigError as exc:
    hints["config"] = exc.errors
try:
    IncidenceFn("saturatd", k=0.1, k2=0.1)
except ValueError as exc:
    hints["incidence"] = str(exc)
print(json.dumps({"good_path": good_path, "hints": hints}))
"""


def test_difflib_is_imported_only_for_a_did_you_mean_hint(tmp_path):
    """``import sddlab.cli`` and loading every shipped config leave
    ``difflib`` unimported; a misspelled config key or incidence kind still
    gets its nearest-name hint.  A fresh process, as in the test above."""
    cfg = write_cfg(tmp_path, "[params]\nlamda = 5\n[incidence]\nkind = saturatd\n")
    src = str(Path(sddlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", HINTS_ON_ERROR_PATHS, str(CONFIGS), str(cfg)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["good_path"] is False
    assert result["hints"] == {
        "config": [
            "line 2: unknown key 'lamda' in [params]; did you mean 'lambda'?",
            "line 4: [incidence] kind: must be one of bilinear, saturated, beddington_deangelis, crowley_martin; "
            "did you mean 'saturated'?",
        ],
        "incidence": "kind: unknown incidence kind 'saturatd' (did you mean 'saturated'?)",
    }
