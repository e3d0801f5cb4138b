import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddlab import (
    FieldState,
    Grid1D,
    HistorySegment,
    IncidenceFn,
    ModelParams,
    ParamJump,
    SolverConfig,
    build_initial_segment,
    compatibility_residual,
    constant_delay,
    equilibrium_norm,
    equilibrium_state,
    evaluate_eta,
    integral_delay,
    omega_lip_bounds,
    rhs,
    run,
    state_mean_reducer,
    step,
    uniform_state,
)
from sddlab.model import KINDS, incidence_values
from sddlab.solver import InitialData, RunStream, _extremes, _upper_limits, _violations, apply_jump, validate_schedule

from .oracles import fixed_lag_euler, rhs_ref, saturated_closed_form


@pytest.fixture(scope="module")
def grid3():
    return Grid1D(0.0, 1.0, 3)


def max_state_dev(a: FieldState, b: FieldState) -> float:
    return max(
        float(np.max(np.abs(a.T - b.T))),
        float(np.max(np.abs(a.T_star - b.T_star))),
        float(np.max(np.abs(a.V - b.V))),
    )


def as_row(state: FieldState) -> np.ndarray:
    return np.array(tuple(state))


class TestRhs:
    def test_zero_at_interior_equilibrium(self, ref_params, saturated, grid3, sat_equilibrium):
        state = as_row(equilibrium_state(grid3, sat_equilibrium))
        out = rhs(state, state, ref_params, saturated, grid3)
        assert float(np.max(np.abs(out))) <= 1e-10

    def test_zero_at_trivial_equilibrium(self, ref_params, saturated, grid3):
        state = as_row(uniform_state(grid3, (100.0, 0.0, 0.0)))
        out = rhs(state, state, ref_params, saturated, grid3)
        assert float(np.max(np.abs(out))) <= 1e-12

    def test_matches_hand_ode_without_diffusion(self, ref_params, saturated, grid3):
        state = as_row(uniform_state(grid3, (40.0, 12.0, 7.0)))
        delayed = as_row(uniform_state(grid3, (35.0, 11.0, 6.0)))
        dT, dTs, dV = rhs(state, delayed, ref_params, saturated, grid3)
        f_now = incidence_values(saturated, 40.0, 7.0)
        f_del = incidence_values(saturated, 35.0, 6.0)
        assert dT[1] == pytest.approx(10.0 - 0.1 * 40.0 - f_now, rel=1e-14)
        assert dTs[1] == pytest.approx(f_del - 0.5 * 12.0, rel=1e-14)
        assert dV[1] == pytest.approx(10.0 * 0.5 * 12.0 - 5.0 * 7.0, rel=1e-14)

    def test_members_match_each_row_alone(self, grid3):
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.2, h_max=1.0, diff=(0.01, 0.02, 0.0))
        f = IncidenceFn("beddington_deangelis", k=0.1, k1=0.05, k2=0.1)
        rng = np.random.default_rng(3)
        state, delayed = rng.uniform(0.0, 50.0, (2, 4, 3, grid3.nx))
        state[1, 1:] = ((-0.0,), (0.0,))  # dV = 10 * 0.5 * (-0.0) - 5 * 0.0 = -0.0
        state[2, 2] = np.inf  # dV = -inf
        with np.errstate(invalid="ignore"):
            out = rhs(state, delayed, params, f, grid3)
            for m in range(4):
                assert out[m].tobytes() == rhs(state[m], delayed[m], params, f, grid3).tobytes()
        # d3 == 0: the V row gets no diffusion term at all, not + 0 * lap
        assert np.all(np.signbit(out[1, 2])) and np.all(out[1, 2] == 0.0)
        assert np.all(out[2, 2] == -np.inf)


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


def draw_rows(draw, shape, entries):
    return np.array(draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)


@st.composite
def rhs_inputs(draw):
    """rhs arguments: rows with and without a member axis, some entries -0.0,
    +-inf or NaN, and each d_i zero or not (all, some or none diffusing)."""
    nx = draw(st.integers(3, 7))
    shape = (*draw(st.sampled_from([(), (1,), (3,)])), 3, nx)
    state, delayed = (draw_rows(draw, shape, st.floats(-100.0, 100.0) | SPECIAL) for _ in range(2))
    diff = tuple(draw(st.sampled_from([0.0, 1e-3, 0.25])) for _ in range(3))
    params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.3, h_max=1.0, diff=diff)
    f = IncidenceFn(draw(st.sampled_from(KINDS)), k=0.1, k1=0.05, k2=0.1)
    return state, delayed, params, f, Grid1D(0.0, 1.0, nx)


class TestRhsOracle:
    @settings(max_examples=200)
    @given(case=rhs_inputs())
    def test_bitwise_equal_to_the_oracle(self, case):
        # a NaN's sign is not compared: NaN + NaN keeps either operand's, and
        # numpy's masked add even picks differently within one call
        with np.errstate(all="ignore"):
            got, want = rhs(*case), rhs_ref(*case)
        assert np.array_equal(got, want, equal_nan=True)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))

    def test_run_rows_match_a_loop_over_the_oracle(self):
        # d2 == 0 next to diffusing T and V; T_star starts at -0.0 wherever the
        # narrow bump underflows to 0 (-0.0 + -1e-3 * 0.0)
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=0.5, diff=(2e-3, 0.0, 4e-3))
        f, grid, dt = IncidenceFn("saturated", k=0.1, k2=0.1), Grid1D(0.0, 1.0, 21), 0.01
        initial = InitialData(preset="gaussian_bump", values=(50.0, -0.0, 10.0), bump_amp=(5.0, -1e-3, 1.0), bump_width=0.01)
        traj = run(initial, params, f, constant_delay(0.5, 0.2), SolverConfig(dt=dt, t_end=300 * dt), grid)
        assert len(traj) == 301 and not traj.aborted
        assert np.signbit(traj.fields[0, 1]).any() and (traj.fields[0, 1] == 0.0).any()
        rows = [traj.fields[0]]  # the initial segment is this row at every time up to 0
        for k in range(300):
            rows.append(rows[k] + dt * rhs_ref(rows[k], rows[max(k - 20, 0)], params, f, grid))
        assert traj.fields.tobytes() == np.array(rows).tobytes()


@st.composite
def box_rows(draw):
    """(row, limits, tol): a (*members, 3, nx) row whose entries lie exactly at
    -tol or at their component's limit, one float past either, or inside the
    box, and up to two per member are NaN, +-inf or -0.0; without bounds,
    limits is None."""
    tol = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    limits = _upper_limits(draw(st.sampled_from([None, (100.0, 200.0, 300.0)])), tol)
    shape = (*draw(st.sampled_from([(), (1,), (4,)])), 3, draw(st.integers(3, 6)))
    top = np.full((3, 1), 1e3) if limits is None else limits
    row = np.empty(shape)
    for c in range(3):
        edges = [-tol, np.nextafter(-tol, -1.0), top[c, 0], np.nextafter(top[c, 0], np.inf), 0.0, 1.0]
        row[..., c, :] = draw_rows(draw, shape[:-2] + shape[-1:], st.sampled_from(edges) | st.floats(-1.0, 400.0))
    for m in np.ndindex(shape[:-2]):
        for _ in range(draw(st.integers(0, 2))):
            row[m + (draw(st.integers(0, 2)), draw(st.integers(0, shape[-1] - 1)))] = draw(SPECIAL)
    return row, limits, tol


class TestBoxPass:
    @settings(max_examples=100)
    @given(case=box_rows(), data=st.data())
    def test_flags_and_counts_match_the_direct_forms(self, case, data):
        row, limits, tol = case

        def direct(r):
            upper = 0 * np.count_nonzero(r, axis=(-2, -1)) if limits is None else np.count_nonzero(r > limits, axis=(-2, -1))
            return np.count_nonzero(r < -tol, axis=(-2, -1)).tolist(), upper.tolist()

        assert _violations(row, _extremes(row), limits, tol) == direct(row)
        # one step from a segment that holds the row at every time: a member
        # keeps it when frozen or when its new row is not finite
        members = row.shape[:-2]
        frozen = np.array(data.draw(st.lists(st.booleans(), min_size=members[0], max_size=members[0]))) if members else None
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=0.5, diff=(1e-3, 0.0, 2e-3))
        f, grid = IncidenceFn("saturated", k=0.1, k2=0.1), Grid1D(0.0, 1.0, row.shape[-1])
        seg = HistorySegment.from_profile(0.5, 0.1, 0.0, lambda t: row)
        with np.errstate(all="ignore"):
            new = row + 0.1 * rhs_ref(row, row, params, f, grid)
        cfg = SolverConfig(dt=0.1, t_end=1.0, invariance_tol=tol)
        _, _, finite, extremes = step(seg, params, f, constant_delay(0.5, 0.2), cfg, grid, frozen=frozen)
        assert np.array_equal(finite, np.isfinite(new).all(axis=(-2, -1)))
        keep = ~finite if frozen is None else ~finite | frozen
        if keep.all():
            assert seg.t_now == 0.0  # nothing committed
            return
        committed = np.where(keep[..., None, None], row, new)
        assert seg.t_now == pytest.approx(0.1) and seg.fields[-1].tobytes() == committed.tobytes()
        assert np.array_equal(extremes, np.array((committed.min(axis=-1), committed.max(axis=-1))), equal_nan=True)
        assert _violations(seg.fields[-1], extremes, limits, tol) == direct(committed)


class TestStep:
    def test_equilibrium_is_fixed_point(self, ref_params, saturated, grid3, sat_equilibrium):
        df = constant_delay(1.0, 0.4)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        eq_state = equilibrium_state(grid3, sat_equilibrium)
        seg = build_initial_segment(
            InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=sat_equilibrium),
            grid3,
            1.0,
            0.01,
        )
        for _ in range(20):
            eta, clipped, finite, _ = step(seg, ref_params, saturated, df, cfg, grid3)
            assert finite and clipped == 0 and eta == 0.4
            assert max_state_dev(seg.state(-1), eq_state) <= 1e-10

    def test_negative_clipping_counts(self, grid3):
        # strong bilinear incidence drives T negative within one Euler step
        params = ModelParams(lam=1.0, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=0.5)
        f = IncidenceFn("bilinear", k=1.0)
        df = constant_delay(0.5, 0.1)
        initial = InitialData(preset="uniform", values=(0.01, 0.1, 500.0))
        seg = build_initial_segment(initial, grid3, 0.5, 0.1)
        cfg_clip = SolverConfig(dt=0.1, t_end=1.0, clip_negative=True)
        _, clipped, _, _ = step(seg, params, f, df, cfg_clip, grid3)
        assert clipped > 0
        assert np.all(seg.state(-1).T >= 0.0)

    def test_delayed_row_is_read_after_the_store_slides(self, ref_params, saturated, grid3):
        # the store is full with rows -0.3..0.35 (one step shortened), so the
        # next step's row slides the five live rows over the old slots; the
        # lag 0.25 lands on the stored row at t = 0.1
        def state(t):
            return uniform_state(grid3, (10.0 + 10.0 * t, 2.0 + 10.0 * t, 5.0 + 10.0 * t))

        seg = HistorySegment.from_profile(0.3, 0.1, 0.0, state)
        for t in (0.1, 0.15, 0.25, 0.35):
            seg.push(t, state(t))
        assert (seg._rows.n, len(seg._rows.times), seg._lo) == (8, 8, 3)
        now, lagged = seg.fields[-1].copy(), as_row(state(0.1))
        k = rhs(now, lagged, ref_params, saturated, grid3)
        eta, _, _, _ = step(seg, ref_params, saturated, constant_delay(0.3, 0.25), SolverConfig(dt=0.1, t_end=1.0), grid3)
        assert seg._rows.n == 6 and eta == 0.25  # slid: 5 live rows + the new one
        assert np.array_equal(seg.fields[-1], now + 0.1 * k)

    def test_without_clipping_violations_surface(self, grid3):
        params = ModelParams(lam=1.0, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=0.5)
        f = IncidenceFn("bilinear", k=1.0)
        df = constant_delay(0.5, 0.1)
        initial = InitialData(preset="uniform", values=(0.01, 0.1, 500.0))
        traj = run(initial, params, f, df, SolverConfig(dt=0.1, t_end=0.3), Grid1D(0, 1, 3))
        assert traj.clip_events == 0
        assert int(np.sum(traj.lower_violations)) > 0


class TestRun:
    def test_constant_delay_matches_reference_integrator(self, ref_params, saturated, grid3, sat_equilibrium):
        lag, dt, t_end = 0.4, 0.02, 5.0
        eps = 0.05 * equilibrium_norm(sat_equilibrium)
        initial = InitialData(preset="equilibrium_perturbation", epsilon=eps, equilibrium=sat_equilibrium)
        traj = run(initial, ref_params, saturated, constant_delay(1.0, lag), SolverConfig(dt=dt, t_end=t_end), grid3)

        fsat = saturated_closed_form(0.1, 0.1)
        w = np.ones(3) / math.sqrt(3.0)
        u0 = np.array([sat_equilibrium.T_hat, sat_equilibrium.T_star_hat, sat_equilibrium.V_hat]) + eps * w

        def rhs3(u, ud):
            return [
                10.0 - 0.1 * u[0] - fsat(u[0], u[2]),
                fsat(ud[0], ud[2]) - 0.5 * u[1],
                10.0 * 0.5 * u[1] - 5.0 * u[2],
            ]

        ref = fixed_lag_euler(rhs3, lambda t: u0, lag, dt / 10.0, t_end)
        err = 0.0
        for k in range(len(traj)):
            s = traj.state(k)
            r = ref[10 * k]
            err = max(err, abs(s.T[0] - r[0]), abs(s.T_star[0] - r[1]), abs(s.V[0] - r[2]))
        assert err <= 20.0 * dt

    def test_box_containment_short(self, ref_params, saturated):
        params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0, diff=(1e-3, 1e-3, 2e-3))
        grid = Grid1D(0.0, 1.0, 41)
        initial = InitialData(preset="gaussian_bump", values=(50.0, 10.0, 10.0), bump_amp=(20.0, 30.0, 40.0))
        traj = run(initial, params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.01, t_end=5.0), grid)
        assert traj.bounds == pytest.approx((100.0, 200.0, 200.0))
        assert not np.any(traj.lower_violations) and not np.any(traj.upper_violations)

    def test_bilinear_run_has_no_upper_bounds(self, ref_params, bilinear, grid3):
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        traj = run(initial, ref_params, bilinear, constant_delay(1.0, 0.4), SolverConfig(dt=0.05, t_end=1.0), grid3)
        assert traj.bounds is None
        assert traj.upper_violations is None

    def test_jump_alignment_shortens_one_step(self, ref_params, saturated, grid3):
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        schedule = [ParamJump(0.105, "burst_n", 5.0)]
        traj = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.01, t_end=0.2), grid3, schedule)
        gaps = np.diff(traj.times)[:-1]  # the final step may shorten to land on t_end
        assert np.any(np.abs(traj.times - 0.105) < 1e-12)
        short = gaps[gaps < 0.01 - 1e-12]
        assert len(short) == 1
        assert short[0] == pytest.approx(0.005, abs=1e-12)

    def test_jump_changes_v_slope(self, ref_params, saturated, grid3, sat_equilibrium):
        dt = 0.01
        initial = InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=sat_equilibrium)
        traj = run(
            initial,
            ref_params,
            saturated,
            constant_delay(1.0, 0.4),
            SolverConfig(dt=dt, t_end=12.0),
            grid3,
            [ParamJump(10.0, "burst_n", 5.0)],
        )
        k = int(np.argmin(np.abs(traj.times - 10.0)))
        V = traj.fields[:, 2, 0]
        Ts = traj.fields[:, 1, 0]
        gap = abs(V[k + 1] - V[k])
        d_minus = (V[k] - V[k - 1]) / dt
        d_plus = (V[k + 1] - V[k]) / dt
        expected_kink = 0.5 * Ts[k] * (5.0 - 10.0)
        assert gap <= 10.0 * dt * abs(expected_kink)  # continuous in value
        assert (d_plus - d_minus) == pytest.approx(expected_kink, rel=0.10)

    @pytest.mark.parametrize("schedule", [(), (ParamJump(1.505, "burst_n", 5.0),)])
    def test_recorded_eta_equals_segment_eta_bitwise(self, ref_params, saturated, grid3, sat_equilibrium, schedule):
        # the Lyapunov monitor reads traj.eta instead of re-evaluating the delay
        # on traj.segment_at(k), so the two must agree exactly, also across the
        # shortened step that lands a jump on its time
        df = integral_delay(1.0, state_mean_reducer(grid3, "V", 0.4 / sat_equilibrium.V_hat))
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=0.1 * equilibrium_norm(sat_equilibrium),
            equilibrium=sat_equilibrium,
        )
        traj = run(initial, ref_params, saturated, df, SolverConfig(dt=0.01, t_end=3.0), grid3, schedule)
        first = int(np.searchsorted(traj.times, traj.times[0] + 1.0))
        assert len(traj) - first > 150
        assert len(set(traj.eta[first:].tolist())) > 100  # the lag really moves
        for k in range(first, len(traj)):
            assert traj.eta[k] == evaluate_eta(df, traj.segment_at(k))

    def test_determinism_bitwise(self, ref_params, saturated, grid3, sat_equilibrium):
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=0.05 * equilibrium_norm(sat_equilibrium),
            equilibrium=sat_equilibrium,
        )
        cfg = SolverConfig(dt=0.01, t_end=2.0)
        a = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), cfg, grid3)
        b = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), cfg, grid3)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.fields, b.fields)

    def test_self_convergence_richardson(self, ref_params, saturated, grid3, sat_equilibrium):
        # explicit Euler on the interpolated history is first order
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=0.05 * equilibrium_norm(sat_equilibrium),
            equilibrium=sat_equilibrium,
        )

        def final(dt):
            tr = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=dt, t_end=5.0), grid3)
            return tr.fields[-1, :, 0]

        u1, u2, u4 = (final(dtv) for dtv in (0.05, 0.025, 0.0125))
        ratio = float(np.max(np.abs(u1 - u2))) / float(np.max(np.abs(u2 - u4)))
        assert 1.6 <= ratio <= 2.6

    def test_abort_on_blowup(self, grid3):
        params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=1e12, c=5, omega=0.0, h_max=0.5)
        f = IncidenceFn("bilinear", k=10.0)
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        traj = run(initial, params, f, constant_delay(0.5, 0.1), SolverConfig(dt=0.5, t_end=50.0), grid3)
        assert traj.aborted
        assert traj.abort_time is not None
        assert len(traj) >= 1
        assert np.all(np.isfinite(traj.fields))

    def test_degenerate_zero_duration(self, ref_params, saturated, grid3):
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        traj = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.01, t_end=0.0), grid3)
        assert len(traj) == 1
        assert not traj.aborted

    def test_eta_recorded_constant(self, ref_params, saturated, grid3):
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        traj = run(initial, ref_params, saturated, constant_delay(1.0, 0.37), SolverConfig(dt=0.01, t_end=1.0), grid3)
        assert np.all(traj.eta == 0.37)
        assert np.all(np.diff(traj.eta) / np.diff(traj.times) == 0.0)


class TestInitialData:
    def test_uniform_profile(self, grid3):
        seg = build_initial_segment(InitialData(preset="uniform", values=(1.0, 2.0, 3.0)), grid3, 1.0, 0.1)
        assert seg.t_now == 0.0
        assert seg.covers()
        assert np.all(seg.state(-1).V == 3.0)
        assert np.all(seg.state(0).V == 3.0)

    def test_gaussian_bump_shape(self):
        grid = Grid1D(0.0, 1.0, 101)
        initial = InitialData(
            preset="gaussian_bump", values=(10.0, 0.0, 0.0), bump_amp=(5.0, 0.0, 0.0), bump_center=0.5, bump_width=0.1
        )
        seg = build_initial_segment(initial, grid, 1.0, 0.1)
        assert seg.state(-1).T[50] == pytest.approx(15.0, abs=1e-9)
        assert seg.state(-1).T[0] == pytest.approx(10.0, abs=1e-6)

    def test_linear_ramp_is_lipschitz(self, grid3, sat_equilibrium):
        eps = 2.0
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=eps,
            equilibrium=sat_equilibrium,
            profile="linear_ramp",
        )
        seg = build_initial_segment(initial, grid3, 1.0, 0.1)
        quotients = [
            max_state_dev(seg.state(i + 1), seg.state(i)) / (seg.times[i + 1] - seg.times[i])
            for i in range(len(seg) - 1)
        ]
        assert max(quotients) <= eps / 1.0 * 1.01  # ramp slope = |u0 - eq| / h
        assert max_state_dev(seg.state(0), equilibrium_state(grid3, sat_equilibrium)) <= 1e-12

    def test_perturbation_requires_equilibrium_at_build_time(self, grid3):
        bare = InitialData(preset="equilibrium_perturbation", epsilon=0.1)
        with pytest.raises(ValueError, match="equilibrium"):
            build_initial_segment(bare, grid3, 1.0, 0.1)


class TestScheduleValidation:
    def test_names_and_windows(self, ref_params):
        with pytest.raises(ValueError, match="unknown parameter"):
            validate_schedule([ParamJump(1.0, "nope", 1.0)], 10.0, ref_params)
        with pytest.raises(ValueError, match="outside"):
            validate_schedule([ParamJump(11.0, "burst_n", 5.0)], 10.0, ref_params)
        with pytest.raises(ValueError, match="increasing"):
            validate_schedule(
                [ParamJump(2.0, "burst_n", 5.0), ParamJump(1.0, "c", 2.0)], 10.0, ref_params
            )
        with pytest.raises(ValueError, match="lam"):
            validate_schedule([ParamJump(1.0, "lambda", -5.0)], 10.0, ref_params)

    def test_apply_jump_diffusion(self, ref_params):
        out = apply_jump(ref_params, ParamJump(1.0, "d2", 0.25))
        assert out.diff == (0.0, 0.25, 0.0)


class TestDiagnostics:
    def test_omega_lip_bounds_formula(self, ref_params):
        assert omega_lip_bounds(ref_params, 1.0) == pytest.approx((100.0, 200.0, 200.0))
        assert omega_lip_bounds(ref_params, None) is None

    def test_compatibility_residual_zero_at_equilibrium(self, ref_params, saturated, grid3, sat_equilibrium):
        initial = InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=sat_equilibrium)
        seg = build_initial_segment(initial, grid3, 1.0, 0.01)
        res = compatibility_residual(seg, ref_params, saturated, constant_delay(1.0, 0.4), grid3)
        assert res <= 1e-9

    def test_compatibility_residual_reports_ramp_mismatch(self, ref_params, saturated, grid3, sat_equilibrium):
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=3.0,
            equilibrium=sat_equilibrium,
            profile="linear_ramp",
        )
        seg = build_initial_segment(initial, grid3, 1.0, 0.01)
        res = compatibility_residual(seg, ref_params, saturated, constant_delay(1.0, 0.4), grid3)
        assert np.isfinite(res)
        assert res > 0.1

    def test_segment_at_requires_trailing_history(self, ref_params, saturated, grid3):
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        traj = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.1, t_end=3.0), grid3)
        k_late = int(np.searchsorted(traj.times, 2.0))
        seg = traj.segment_at(k_late)
        assert seg.covers()
        with pytest.raises(ValueError):
            traj.segment_at(1)

    def test_segment_at_counts_negative_k_from_the_last(self, ref_params, saturated, grid3):
        initial = InitialData(preset="uniform", values=(50.0, 10.0, 10.0))
        traj = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.1, t_end=3.0), grid3)
        assert len(traj) == 31
        last, seg = traj.segment_at(len(traj) - 1), traj.segment_at(-1)
        assert np.array_equal(seg.times, last.times)
        assert np.array_equal(seg.fields, last.fields)
        assert traj.segment_at(-11).t_now == traj.times[20]
        for k in (len(traj), -len(traj) - 1):
            with pytest.raises(IndexError, match=f"sample {k} "):
                traj.segment_at(k)

    @pytest.fixture(scope="class")
    def jump_run(self, ref_params, saturated, grid3, sat_equilibrium):
        df = integral_delay(1.0, state_mean_reducer(grid3, "V", 0.4 / sat_equilibrium.V_hat))
        initial = InitialData(preset="equilibrium_perturbation", epsilon=1.0, equilibrium=sat_equilibrium)
        cfg = SolverConfig(dt=0.01, t_end=2.0)
        return run(initial, ref_params, saturated, df, cfg, grid3, [ParamJump(1.505, "c", 4.0)])

    @given(frac=st.floats(0.0, 1.0))
    def test_segment_at_is_a_view_of_the_trajectory(self, jump_run, frac):
        first = int(np.searchsorted(jump_run.times, jump_run.times[0] + 1.0))
        k = first + int(frac * (len(jump_run) - 1 - first))
        seg = jump_run.segment_at(k)
        assert np.shares_memory(seg.fields, jump_run.fields)
        assert seg.times[-1] == jump_run.times[k]
        assert np.array_equal(seg.state(-1).V, jump_run.fields[k, 2])


class TestRunStream:
    def test_store_stays_within_two_windows_and_matches_run(self, ref_params, saturated):
        # h/dt = 20 steps, t_end/dt = 1200 steps: more than 50 windows, with
        # an integral delay (cached xi values) and one shortened step
        h, dt = 0.2, 0.01
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=h)
        grid = Grid1D(0.0, 1.0, 5)
        df = integral_delay(h, state_mean_reducer(grid, "V", 0.03))
        cfg = SolverConfig(dt=dt, t_end=12.0)
        initial = InitialData(preset="gaussian_bump", values=(50.0, 10.0, 10.0))
        schedule = [ParamJump(3.005, "burst_n", 5.0)]
        stream = RunStream(initial, params, saturated, df, cfg, grid, schedule)
        window = len(stream.history)  # rows of the initial segment: h/dt + 1
        assert window == 21
        capacity, rows, etas = [], [], []
        for sample in stream:
            capacity.append(len(stream.history._rows.times))
            rows.append(sample.row.copy())
            etas.append(sample.eta)
        assert len(rows) >= 50 * window
        assert max(capacity) <= 2 * window + 2
        traj = run(initial, params, saturated, df, cfg, grid, schedule)
        assert np.array_equal(np.array(rows), traj.fields)
        assert np.array_equal(np.array(etas), traj.eta)
        assert len(np.unique(traj.eta)) > 1
