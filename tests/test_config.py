import json
import random
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sddlab.cli import main
from sddlab.config import _SCHEMA, DEFAULTS_DOC, ConfigError, load_config

CASES = Path(__file__).parent / "golden" / "config_cases.json"


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.params.lam == 10.0
        assert cfg.params.omega == 0.0
        assert cfg.incidence.kind == "saturated"
        assert cfg.delay.kind == "constant"
        assert cfg.delay.eta_const == 0.5  # h_max / 2
        assert cfg.grid.nx == 101
        assert cfg.solver.dt == 0.01
        assert cfg.initial.preset == "uniform"
        assert cfg.schedule == ()
        assert cfg.output.dir == "out"
        assert cfg.output.eps_fractions == (0.1, 0.05, 0.025)

    def test_partial_section_keeps_other_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[params]\nlambda = 20\n"))
        assert cfg.params.lam == 20.0
        assert cfg.params.d == 0.1

    def test_reference_configs_load(self):
        for name in (
            "configs/bilinear_reference.ini",
            "configs/saturated_constant_delay.ini",
            "configs/saturated_integral_delay.ini",
            "configs/saturated_wrapped_delay.ini",
            "configs/drug_schedule.ini",
        ):
            cfg = load_config(name)
            assert cfg.params.lam == 10.0


class TestErrors:
    def test_negative_lambda_names_invariant_and_line(self, tmp_path):
        path = write(tmp_path, "[params]\nlambda = -1\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        (msg,) = info.value.errors
        assert "line 2" in msg
        assert "lambda" in msg
        assert "positive" in msg

    def test_unknown_key_suggests_nearest(self, tmp_path):
        path = write(tmp_path, "[params]\nlamda = 3\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        (msg,) = info.value.errors
        assert "lamda" in msg and "'lambda'" in msg and "line 2" in msg

    def test_unknown_section_suggests_nearest(self, tmp_path):
        path = write(tmp_path, "[incidnce]\nkind = saturated\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert any("incidence" in m for m in info.value.errors)

    def test_all_errors_reported_not_first_only(self, tmp_path):
        path = write(
            tmp_path,
            "[params]\nlambda = -1\nd = zero\n\n[grid]\nnx = 2\n",
        )
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert len(info.value.errors) >= 3

    def test_each_dataclass_reports_its_first_invariant(self, tmp_path):
        # every parse problem is reported, but a dataclass stops at its first
        # failed check: two bad [params] and two bad [initial] values give two
        path = write(tmp_path, "[params]\nlambda = -1\nd = -1\n[initial]\nt0 = nan\nbump_width = 0\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.errors == [
            "line 2: [params] lambda: must be positive, got -1.0",
            "line 5: [initial] t0: must be finite, got nan",
        ]

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "[params]\nlambda = 1\nlambda = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_key_before_section_rejected(self, tmp_path):
        path = write(tmp_path, "lambda = 1\n")
        with pytest.raises(ConfigError, match="before any section"):
            load_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = write(tmp_path, "[params]\nlambda 10\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config(path)

    @pytest.mark.parametrize("key", ["dt", "t_end", "invariance_tol"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_time_value_rejected_with_its_line(self, tmp_path, key, value):
        # an infinite t_end ran simulate until killed; a NaN invariance_tol read every box count as 0
        path = write(tmp_path, f"[params]\nd1 = 0.001\n\n[time]\n{key} = {value}\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        (msg,) = info.value.errors
        assert msg.startswith(f"line 5: [time] {key}:")
        assert "finite" in msg and value in msg

    @pytest.mark.parametrize(
        "text, want",
        [
            ("[grid]\nnx = 2\n", "line 2: [grid] nx: need at least 3 nodes, got 2"),
            ("[params]\nlambda = -1\n", "line 2: [params] lambda: must be positive, got -1.0"),
            ("[time]\nt_end = 5\n[schedule]\njump1 = 9 burst_n 5\n", "line 4: [schedule] jump1: jump time 9.0 outside (0, 5.0)"),
            ("[schedule]\njump1 = 1 c -1\n", "line 2: [schedule] jump1: c: must be positive, got -1.0"),
            (
                "[schedule]\njump1 = 1 foo 1\n",
                "line 2: [schedule] jump1: unknown parameter 'foo'; "
                "allowed: ['burst_n', 'c', 'd', 'd1', 'd2', 'd3', 'delta', 'lambda', 'omega']",
            ),
            # N order, not file order: jump2 is the jump that goes back in time
            (
                "[schedule]\njump2 = 2 c 4\njump1 = 3 c 3\n",
                "line 2: [schedule] jump2: jump times must be strictly increasing (got 2.0 after 3.0)",
            ),
        ],
    )
    def test_invariant_message_names_its_key_once(self, tmp_path, text, want):
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, text))
        assert info.value.errors == [want]

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("eps_fractions", "nan", "entry nan must be positive and finite"),
            ("eps_fractions", "0.05 inf", "entry inf must be positive and finite"),
            ("eps_fractions", "0.05 -0.1", "entry -0.1 must be positive and finite"),
            ("warmup", "nan", "must be nonnegative and finite, got nan"),
            ("warmup", "inf", "must be nonnegative and finite, got inf"),
            ("warmup", "-1", "must be nonnegative and finite, got -1.0"),
            ("tol_decrease", "nan", "must be finite, got nan"),
            ("tol_decrease", "-inf", "must be finite, got -inf"),
            ("hyp_box_t", "nan", "must be positive and finite, got nan"),
            ("hyp_box_t", "0", "must be positive and finite, got 0.0"),
            ("hyp_box_v", "-1", "must be positive and finite, got -1.0"),
            ("hyp_box_v", "inf", "must be positive and finite, got inf"),
        ],
    )
    def test_bad_output_float_rejected_with_its_line(self, tmp_path, key, value, problem):
        # a NaN eps died mid-run, an infinite one wrote an eps=inf row, and a NaN warmup or
        # tol_decrease made every verdict inconclusive
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, f"[grid]\nnx = 11\n\n[output]\n{key} = {value}\n"))
        assert info.value.errors == [f"line 5: [output] {key}: {problem}"]

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("t0 = nan", "t0: must be finite, got nan"),
            ("v0 = -inf", "v0: must be finite, got -inf"),
            ("bump_amp_tstar = inf", "bump_amp_tstar: must be finite, got inf"),
            ("bump_center = inf", "bump_center: must be finite, got inf"),
            ("bump_width = 0", "bump_width: must be positive and finite, got 0.0"),
            ("bump_width = nan", "bump_width: must be positive and finite, got nan"),
            ("epsilon_rel = nan", "epsilon_rel: must be finite, got nan"),
            ("epsilon_rel = inf", "epsilon_rel: must be finite, got inf"),
        ],
    )
    def test_nonfinite_initial_value_rejected_with_its_line(self, tmp_path, line, problem):
        # each of these loaded, and simulate then aborted at t = 0
        text = f"[grid]\nnx = 11\n\n[initial]\npreset = equilibrium_perturbation\n{line}\n"
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, text))
        assert info.value.errors == [f"line 6: [initial] {problem}"]

    def test_output_floats_accept_auto_and_edge_values(self, tmp_path):
        text = "[output]\nwarmup = 0\ntol_decrease = -1e-8\nhyp_box_t = auto\nhyp_box_v = 1e-3\n"
        out = load_config(write(tmp_path, text)).output
        assert (out.warmup, out.tol_decrease, out.hyp_box_t, out.hyp_box_v) == (0.0, -1e-8, None, 1e-3)

    def test_bad_enum_value(self, tmp_path):
        path = write(tmp_path, "[incidence]\nkind = saturatd\n")
        with pytest.raises(ConfigError, match="saturated"):
            load_config(path)


def test_defaults_doc_matches_schema():
    # a key=value runs up to the next key=value or parenthesis; the --help text and the
    # loader must agree on every default it states
    sections = re.split(r"^\[(\w+)\]", DEFAULTS_DOC, flags=re.M)[1:]
    stated = 0
    for name, text in zip(sections[::2], sections[1::2]):
        for key, value in re.findall(r"(\w+)=(.*?)\s*(?=[()]|\b\w+=|\Z)", text, flags=re.S):
            assert key in _SCHEMA[name], f"[{name}] {key}"
            default, parse = _SCHEMA[name][key]
            assert parse(value) == default, f"[{name}] {key}={value}"
            stated += 1
    assert stated == 53  # every key


def test_defaults_doc_names_every_schema_key():
    # --help prints DEFAULTS_DOC as its epilog: a key the loader accepts must be there, in its section
    sections = dict(zip(*[iter(re.split(r"^\[(\w+)\]", DEFAULTS_DOC, flags=re.M)[1:])] * 2))
    missing = [f"[{name}] {key}" for name, keys in _SCHEMA.items() for key in keys
               if not re.search(rf"\b{key}=", sections.get(name, ""))]
    assert not missing


@pytest.mark.parametrize(
    "grid, error",
    [
        ("x_max = inf", "line 2: [grid] x_max: must be finite, got inf"),
        ("x_min = -inf", "line 2: [grid] x_min: must be finite, got -inf"),
        ("x_min = -1e308\nx_max = 1e308", "line 3: [grid] x_max: the span x_max - x_min must be finite, got inf"),
    ],
)
def test_an_infinite_domain_is_a_config_error(tmp_path, capsys, grid, error):
    path = write(tmp_path, f"[grid]\n{grid}\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "out").exists()


class TestSchedule:
    def test_jump_parsing(self, tmp_path):
        path = write(
            tmp_path,
            "[time]\nt_end = 20\n[schedule]\njump1 = 5 burst_n 5\njump2 = 10 c 4\n",
        )
        cfg = load_config(path)
        assert len(cfg.schedule) == 2
        assert cfg.schedule[0].name == "burst_n"
        assert cfg.schedule[1].t == 10.0

    def test_bad_jump_key(self, tmp_path):
        path = write(tmp_path, "[schedule]\nfirst = 5 burst_n 5\n")
        with pytest.raises(ConfigError, match="jump1"):
            load_config(path)

    def test_bad_jump_arity(self, tmp_path):
        path = write(tmp_path, "[schedule]\njump1 = 5 burst_n\n")
        with pytest.raises(ConfigError, match="<t> <param> <value>"):
            load_config(path)

    def test_jump_after_t_end_rejected(self, tmp_path):
        path = write(tmp_path, "[time]\nt_end = 5\n[schedule]\njump1 = 9 burst_n 5\n")
        with pytest.raises(ConfigError, match="outside"):
            load_config(path)


class TestDelayMaterialization:
    def test_integral_kind(self, tmp_path):
        cfg = load_config(write(tmp_path, "[delay]\nkind = integral\nxi_scale = 0.02\n"))
        assert cfg.delay.kind == "integral"
        assert cfg.delay.xi is not None

    def test_wrapped_kind_with_recency_weight(self, tmp_path):
        text = "[delay]\nkind = wrapped\nkappa = recency\nrho = smooth\nxi_scale = 0.02\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.delay.kind == "wrapped"
        assert cfg.delay.kappa is not None
        assert cfg.delay.rho is not None

    def test_eta_const_auto_is_half_window(self, tmp_path):
        cfg = load_config(write(tmp_path, "[params]\nh_max = 2\n[delay]\neta_const = auto\n"))
        assert cfg.delay.eta_const == 1.0


class TestEulerBound:
    # saturated_constant_delay.ini has d = (0.001, 0.001, 0.002) and dt = 0.01
    def test_fine_grid_rejected_with_bound(self, tmp_path):
        text = Path("configs/saturated_constant_delay.ini").read_text()
        text = text.replace("nx = 101", "nx = 1001").replace("direction = constant", "direction = gaussian_bump")
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, text))
        (msg,) = info.value.errors
        assert "[time] dt" in msg
        assert "0.01 exceeds" in msg
        assert "dx^2/(2 max d_i) = 0.00025" in msg

    def test_only_scheduled_d3_jump_breaks_bound(self, tmp_path):
        base = "[params]\nd1 = 0.001\nd2 = 0.001\nd3 = 0.001\n[time]\nt_end = 20\n"
        assert load_config(write(tmp_path, base)).params.diff == (0.001, 0.001, 0.001)
        with pytest.raises(ConfigError, match=r"dx\^2/\(2 max d_i\) = 0\.0025 .*max d_i = 0\.02"):
            load_config(write(tmp_path, base + "[schedule]\njump1 = 5 d3 0.02\n"))

    def test_a_span_whose_dx_squared_overflows_loads(self, tmp_path, capsys):
        # dx = 1e298 squares to inf: the bound is inf, not an OverflowError
        path = write(tmp_path, "[params]\nd1 = 0.1\n[grid]\nx_max = 1e300\n")
        assert load_config(path).grid.dx == pytest.approx(1e298)
        assert main(["check-hypotheses", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_stepper_key_is_gone(self, tmp_path):
        # explicit Euler is the only stepper, so [time] has no stepper key
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, "[params]\nd3 = 0.001\n[time]\nstepper = euler\n"))
        (msg,) = info.value.errors
        assert msg.startswith("line 4: unknown key 'stepper' in [time]")


# A seeded corpus of random configs. Each case holds the loader's error list, or every loaded
# value when the config is valid; a refactor of the loader must replay it exactly.
# Re-record with: PYTHONPATH=src python -m tests.test_config

# every section and key, with values a config may give it; the loader's own tables are not
# used, so the corpus checks them
_PLAUSIBLE = {
    "params": {
        "lambda": ("10", "8", "12.5"),
        "d": ("0.1", "0.2"),
        "delta": ("0.5", "0.4"),
        "burst_n": ("10", "5", "20"),
        "c": ("5", "3"),
        "omega": ("0", "0.1"),
        "h_max": ("1", "2", "0.5"),
        "d1": ("0", "0.001"),
        "d2": ("0", "0.001", "0.002"),
        "d3": ("0", "0.002"),
    },
    "incidence": {
        "kind": ("saturated", "bilinear", "beddington_deangelis", "crowley_martin", "saturatd"),
        "k": ("0.1", "0.05"),
        "k1": ("0", "0.2"),
        "k2": ("0.1", "0.3", "0"),
        "mu": ("auto", "none", "0.5"),
    },
    "delay": {
        "kind": ("constant", "integral", "wrapped", "integrl"),
        "eta_const": ("auto", "0.25", "0.5", "3"),
        "xi_component": ("V", "T", "T_star", "v"),
        "xi_scale": ("0.01", "0.02"),
        "kappa": ("uniform", "recency"),
        "rho": ("smooth", "clamp"),
    },
    "grid": {
        "x_min": ("0", "-1"),
        "x_max": ("1", "2"),
        "nx": ("101", "41", "11", "2"),
    },
    "time": {
        "dt": ("0.01", "0.005", "0.1"),
        "t_end": ("50", "20", "5", "0"),
        "clip_negative": ("true", "false", "yes", "off", "maybe"),
        "invariance_tol": ("1e-9", "0", "1e-6"),
    },
    "initial": {
        "preset": ("uniform", "gaussian_bump", "equilibrium_perturbation", "bump"),
        "t0": ("50", "40"),
        "tstar0": ("10", "5"),
        "v0": ("10", "1"),
        "bump_amp_t": ("5", "1"),
        "bump_amp_tstar": ("1", "0.5"),
        "bump_amp_v": ("1", "2"),
        "bump_center": ("auto", "0.5"),
        "bump_width": ("auto", "0.1"),
        "epsilon_rel": ("0.05", "0", "-0.1"),
        "direction": ("constant", "gaussian_bump"),
        "eq_index": ("0", "1", "-1"),
        "profile": ("constant_in_time", "linear_ramp"),
        "ramp_depth": ("0.1", "0", "0.5", "1"),
    },
    "schedule": {},
    "output": {
        "dir": ("out", "results", ""),
        "probe_nodes": ("5", "1", "0"),
        "monitor_stride": ("10", "1", "0"),
        "warmup": ("auto", "0", "2", "-1"),
        "tol_decrease": ("1e-8", "-1e-8"),
        "eps_fractions": ("0.1 0.05 0.025", "0.05", "0.1 -0.1"),
        "directions": ("constant gaussian_bump", "constant", "gaussian_bump constant", "bump"),
        "seed": ("0", "42", "-1", "18446744073709551616"),
        "hyp_box_t": ("auto", "10", "0"),
        "hyp_box_v": ("auto", "5"),
        "hyp_density": ("50", "2", "1"),
    },
}
_WILD = ("nan", "inf", "-inf", "auto", "none", "", "abc", "-1", "0", "1.5", "true", "3 4")
_JUMP_T = ("1", "2.5", "4", "4", "9", "0", "-1", "60", "x", "nan")
_JUMP_PARAM = ("burst_n", "c", "lambda", "d", "delta", "omega", "d1", "d2", "d3", "h_max", "foo")
_JUMP_VALUE = ("5", "4", "0.001", "0.5", "2", "-1", "0", "nan", "0.05", "y")


def _misspell(rng: random.Random, word: str) -> str:
    i = rng.randrange(len(word))
    return word[:i] + word[i + 1 :] if len(word) > 2 else word + "x"


def _random_jumps(rng: random.Random, noise: float) -> list[str]:
    lines, n = [], 0
    for _ in range(rng.randrange(5)):
        n += rng.choice((1, 1, 1, 1, 2, 0)) if noise else 1  # 0 repeats a key
        key = f"jump{n}" if rng.random() >= 0.05 * noise else rng.choice(("first", "jump", "jumpa"))
        tokens = [rng.choice(_JUMP_T), rng.choice(_JUMP_PARAM), rng.choice(_JUMP_VALUE)]
        if rng.random() < 0.4:
            tokens = [str(2 * n), rng.choice(_JUMP_PARAM[:9]), rng.choice(_JUMP_VALUE[:3])]
        if rng.random() < 0.05 * noise:
            tokens.pop(rng.randrange(3))
        lines.append(f"{key} = {' '.join(tokens)}")
    if rng.random() < 0.3:
        rng.shuffle(lines)  # file order need not be N order
    return lines


def random_config(rng: random.Random) -> str:
    """One config over every section and key, with bad values, names and lines mixed in."""
    noise = rng.choice((0.0, 1.0, 1.0))  # a third of the cases make no deliberate mistake
    lines = ["lambda = 1"] if rng.random() < 0.02 * noise else []
    sections = [name for name in _PLAUSIBLE if rng.random() < 0.5]
    rng.shuffle(sections)
    if sections and rng.random() < 0.04 * noise:
        sections.append(rng.choice(sections))
    for name in sections:
        header = f"[{name}]"
        if rng.random() < 0.07 * noise:
            header = rng.choice((f"[{_misspell(rng, name)}]", f"[{name}", f"[ {name.upper()} ]"))
        lines.append(header)
        if name == "schedule":
            lines += _random_jumps(rng, noise)
        for key, choices in _PLAUSIBLE[name].items():
            if rng.random() > 0.3:
                continue
            roll = rng.random()
            value = choices[0] if roll < 0.4 else rng.choice(choices)
            if roll > 1.0 - 0.04 * noise:
                value = rng.choice(_WILD)
            line = f"{key} = {value}" if rng.random() < 0.8 else f"{key}={value}"
            if rng.random() < 0.06 * noise:
                mistake = rng.randrange(4)
                if mistake == 0:
                    line = line.replace(key, _misspell(rng, key), 1)
                elif mistake == 1:
                    lines.append(f"{key} = {rng.choice(choices)}")
                elif mistake == 2:
                    line = line.replace(key, key.upper(), 1)
                else:
                    line = line.replace("=", "", 1)
            lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("# comment", "; comment", "")))
    return "\n".join(lines) + "\n"


def _plain(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _loaded_values(cfg) -> dict:
    """Every loaded value, floats by repr; the delay's callables evaluated on fixed inputs."""
    out = {
        name: {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
        for name, obj in (
            ("params", cfg.params),
            ("incidence", cfg.incidence),
            ("grid", cfg.grid),
            ("solver", cfg.solver),
            ("initial", cfg.initial),
        )
    }
    out["output"] = {name: _plain(value) for name, value in cfg.output._asdict().items()}  # a NamedTuple
    out["eq_index"], out["epsilon_rel"] = cfg.eq_index, _plain(cfg.epsilon_rel)
    out["schedule"] = [[_plain(j.t), j.name, _plain(j.value)] for j in cfg.schedule]
    delay = cfg.delay
    inputs = {
        "xi": np.linspace(-1.0, 3.0, 6 * cfg.grid.nx).reshape(2, 3, cfg.grid.nx),
        "kappa": np.array([-1.0, -0.5, 0.0]),
        "rho": np.array([-0.5, 0.0, 0.1, 0.5, 0.95, 1.0, 2.0, np.nan]),
    }
    out["delay"] = {"kind": delay.kind, "h_max": _plain(delay.h_max), "eta_const": _plain(delay.eta_const)}
    with np.errstate(all="ignore"):
        for name, arg in inputs.items():
            fn = getattr(delay, name)
            out["delay"][name] = None if fn is None else [repr(float(v)) for v in fn(arg)]
    return out


def _outcome(path) -> dict:
    try:
        return {"values": _loaded_values(load_config(path))}
    except ConfigError as exc:
        return {"errors": exc.errors}


def record_cases(n: int = 400, seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.ini"
        for _ in range(n):
            text = random_config(rng)
            path.write_text(text, encoding="utf-8")
            cases.append({"config": text, "outcome": _outcome(path)})
    return cases


def test_config_corpus_replays(tmp_path):
    cases = json.loads(CASES.read_text(encoding="utf-8"))
    path = tmp_path / "case.ini"
    wrong = []
    for i, case in enumerate(cases):
        path.write_text(case["config"], encoding="utf-8")
        if _outcome(path) != case["outcome"]:
            wrong.append(i)
    assert not wrong, f"{len(wrong)} of {len(cases)} cases differ, first:\n{cases[wrong[0]]['config']}"


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(case) for case in record_cases())  # one case per line
    CASES.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
