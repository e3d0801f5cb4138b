from pathlib import Path

import pytest

from sddlab.config import ConfigError, load_config


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
            ("[time]\nt_end = 5\n[schedule]\njump1 = 9 burst_n 5\n", "[schedule] schedule: jump time 9.0 outside (0, 5.0)"),
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

    def test_output_floats_accept_auto_and_edge_values(self, tmp_path):
        text = "[output]\nwarmup = 0\ntol_decrease = -1e-8\nhyp_box_t = auto\nhyp_box_v = 1e-3\n"
        out = load_config(write(tmp_path, text)).output
        assert (out.warmup, out.tol_decrease, out.hyp_box_t, out.hyp_box_v) == (0.0, -1e-8, None, 1e-3)

    def test_bad_enum_value(self, tmp_path):
        path = write(tmp_path, "[incidence]\nkind = saturatd\n")
        with pytest.raises(ConfigError, match="saturated"):
            load_config(path)


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

    def test_stepper_key_is_gone(self, tmp_path):
        # explicit Euler is the only stepper, so [time] has no stepper key
        with pytest.raises(ConfigError) as info:
            load_config(write(tmp_path, "[params]\nd3 = 0.001\n[time]\nstepper = euler\n"))
        (msg,) = info.value.errors
        assert msg.startswith("line 4: unknown key 'stepper' in [time]")
