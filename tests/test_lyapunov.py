import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from sddlab import (
    Equilibrium,
    Grid1D,
    IncidenceFn,
    ModelParams,
    ParamJump,
    SolverConfig,
    certify_local_stability,
    constant_delay,
    delayed_state,
    distance_to_equilibrium,
    equilibrium_norm,
    integral_delay,
    monitor,
    rate_decomposition,
    run,
    state_mean_reducer,
    trivial_equilibrium,
    u_sdd_total,
)
from sddlab import lyapunov
from sddlab.grid import integrate
from sddlab.lyapunov import _delay_tails, _v, u_sdd_fields
from sddlab.model import incidence_values
from sddlab.solver import InitialData, RunStream, Trajectory

from .helpers import eq_row, segment_from_profile
from .oracles import delay_tails_per_window, saturated_closed_form, snapshot_window_trapezoid
from .test_history import pushed_histories


@pytest.fixture(scope="module")
def grid5():
    return Grid1D(0.0, 1.0, 5)


def eq_segment(grid, eq, h_max=1.0, dt=0.1, now=None):
    """Equilibrium history over [-h_max, 0]; its newest row is ``now`` when given."""
    base = eq_row(grid, eq)
    return segment_from_profile(h_max, dt, 0.0, lambda t: now if now is not None and t == 0.0 else base)


def newest(seg, eta):
    """The segment's rows as a trajectory with delay eta at every sample, and its newest sample."""
    return Trajectory(seg, np.full(len(seg), eta)), [len(seg) - 1]


class TestVolterra:
    def test_zero_at_one(self):
        assert _v(1.0) == 0.0

    def test_hand_value_at_e(self):
        assert _v(math.e) == pytest.approx(math.e - 2.0, rel=1e-15)

    def test_quadratic_bounds_hand_point(self):
        # mu = 0.5, s = 1.3
        v = _v(1.3)
        assert (1.3 - 1.0) ** 2 / (2.0 * 1.5) <= v <= (1.3 - 1.0) ** 2 / (2.0 * 0.5)
        assert v == pytest.approx(0.0376357, abs=1e-6)

    @given(s=st.floats(1e-6, 1e6))
    def test_nonnegative_zero_only_at_one(self, s):
        v = _v(s)
        assert v >= 0.0
        if abs(s - 1.0) > 1e-6:
            assert v > 0.0

    @given(mu=st.floats(0.01, 0.99), frac=st.floats(-0.999, 0.999))
    def test_quadratic_bounds_property(self, mu, frac):
        s = 1.0 + frac * mu
        v = _v(s)
        lo = (s - 1.0) ** 2 / (2.0 * (1.0 + mu))
        hi = (s - 1.0) ** 2 / (2.0 * (1.0 - mu))
        assert lo <= v + 1e-12
        assert v <= hi + 1e-12


class TestUsdd:
    def test_zero_at_equilibrium(self, ref_params, saturated, grid5, sat_equilibrium):
        seg = eq_segment(grid5, sat_equilibrium)
        total, ok = u_sdd_total(*newest(seg, 0.4), sat_equilibrium, ref_params, saturated, grid5)
        assert ok[0]
        assert abs(total[0]) <= 1e-10
        assert u_sdd_fields(*newest(seg, 0.4), sat_equilibrium, ref_params, saturated, grid5)[0][0, 2] == 0.0

    def test_doubled_v_gives_third_term_only(self, ref_params, saturated, grid5, sat_equilibrium):
        # eta = 0: the tail would also see the doubled V of the newest row
        base = eq_row(grid5, sat_equilibrium)
        seg = eq_segment(grid5, sat_equilibrium, now=base * [[1.0], [1.0], [2.0]])
        got = u_sdd_fields(*newest(seg, 0.0), sat_equilibrium, ref_params, saturated, grid5)[0][0, 1]
        expected = (sat_equilibrium.V_hat / ref_params.burst_n) * _v(2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_lag_drops_history_term(self, ref_params, saturated, grid5, sat_equilibrium):
        # make the history deviate so the tail integral would not vanish
        dev = eq_row(grid5, sat_equilibrium)
        seg = segment_from_profile(1.0, 0.1, 0.0, lambda t: (dev[0], dev[1], dev[2] * (1.0 + 0.2 * (t + 1.0))))
        (with_lag,), ok = u_sdd_total(*newest(seg, 0.4), sat_equilibrium, ref_params, saturated, grid5)
        (no_lag,), ok_no_lag = u_sdd_total(*newest(seg, 0.0), sat_equilibrium, ref_params, saturated, grid5)
        assert ok.all() and ok_no_lag.all()
        assert with_lag > no_lag  # the eta > 0 tail adds a positive term

    @given(hist=pushed_histories(), frac=st.floats(0.01, 1.0))
    def test_delay_tail_matches_snapshot_oracle(self, ref_params, saturated, sat_equilibrium, hist, frac):
        # the last piece, delta T*_hat int_{t-eta}^t v(f(T,V)/f_hat), over a history that moves
        grid, seg, times, snaps, _ = hist
        eq, eta, scale = sat_equilibrium, frac * seg.h_max, ref_params.delta * sat_equilibrium.T_star_hat
        (with_tail,) = u_sdd_fields(*newest(seg, eta), eq, ref_params, saturated, grid)[0]
        (without,) = u_sdd_fields(*newest(seg, 0.0), eq, ref_params, saturated, grid)[0]
        fsat = saturated_closed_form(0.1, 0.1)
        f_hat = fsat(eq.T_hat, eq.V_hat)

        def v_of_ratio(theta, snap):
            ratio = fsat(snap[0], snap[2]) / f_hat
            return ratio - 1.0 - np.log(ratio)

        want = snapshot_window_trapezoid(times, snaps, eta, seg.dt, v_of_ratio)
        got = (with_tail - without) / scale
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * float(np.max(np.abs(without))) / scale)

    @pytest.mark.parametrize(
        "f",
        [
            IncidenceFn("bilinear", k=0.3),
            IncidenceFn("saturated", k=0.3, k2=0.7),
            IncidenceFn("beddington_deangelis", k=0.3, k1=0.2, k2=0.7),
            IncidenceFn("crowley_martin", k=0.3, k1=0.2, k2=0.7),
        ],
    )
    def test_first_piece_matches_quadrature(self, f):
        # with T*, V at the equilibrium and eta = 0 only the first piece is left:
        # T - T_hat - int_{T_hat}^{T} f_hat / f(theta, V_hat) dtheta, T below and above T_hat
        t_hat, v_hat = 4.0, 6.0
        eq = Equilibrium(t_hat, 3.0, v_hat, "interior", 0.0)
        params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0)
        T = np.array([0.05, 1.0, 3.9, t_hat, 4.1, 9.0, 60.0])
        grid = Grid1D(0.0, 1.0, T.size)
        f_hat = float(incidence_values(f, t_hat, v_hat))

        def first_piece(T_values):
            seg = eq_segment(grid, eq, now=(T_values, np.full(T.size, 3.0), np.full(T.size, v_hat)))
            fields, ok = u_sdd_fields(*newest(seg, 0.0), eq, params, f, grid)
            return fields[0], ok[0]

        got, ok = first_piece(T)
        assert ok
        for Ti, Ui in zip(T, got):
            G, _ = quad(lambda th: f_hat / float(incidence_values(f, th, v_hat)), t_hat, Ti, epsabs=0.0, epsrel=1e-13)
            assert Ui == pytest.approx(Ti - t_hat - G, rel=1e-9, abs=1e-12)
        assert got[3] == 0.0
        for bad in (0.0, -2.0):
            fields, ok = first_piece(np.where(T == 9.0, bad, T))
            assert not ok and np.isnan(fields).all()

    def test_invalid_on_nonpositive_state(self, ref_params, saturated, grid5, sat_equilibrium):
        base = eq_row(grid5, sat_equilibrium)
        seg = eq_segment(grid5, sat_equilibrium, now=base * [[1.0], [0.0], [1.0]])
        fields, ok = u_sdd_fields(*newest(seg, 0.4), sat_equilibrium, ref_params, saturated, grid5)
        assert not ok[0] and np.isnan(fields).all()

    def test_nonnegative_along_perturbed_run(self, ref_params, saturated, grid5, sat_equilibrium):
        df = constant_delay(1.0, 0.4)
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=0.1 * equilibrium_norm(sat_equilibrium),
            equilibrium=sat_equilibrium,
        )
        traj = run(initial, ref_params, saturated, df, SolverConfig(dt=0.05, t_end=4.0), grid5)
        assert np.all(traj.eta == 0.4)
        totals, ok = u_sdd_total(traj, range(25, len(traj), 10), sat_equilibrium, ref_params, saturated, grid5)
        assert ok.all()
        assert np.all(totals >= 0.0)
        assert totals[0] > 0.0


class TestSevenLogIdentity:
    def test_identity_on_random_positive_states(self, ref_params, saturated, grid5, sat_equilibrium):
        # the monitor's algebraic and seven-v forms of the cross term agree on
        # random positive rows, each sample's row against its delayed row
        eq = sat_equilibrium
        initial = InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=eq)
        traj = run(initial, ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.05, t_end=4.0), grid5)
        rng = np.random.default_rng(7)
        hat = np.array([eq.T_hat, eq.T_star_hat, eq.V_hat])[:, None]
        traj.fields[:] = hat * rng.uniform(0.5, 1.6, traj.fields.shape)
        samples = rate_decomposition(traj, range(25, 75), eq, ref_params, saturated, grid5)
        assert len(samples) == 50 and all(s.valid for s in samples)
        for s in samples:
            assert s.c1_abs_dev <= 1e-9 * s.c1_scale + 1e-14


@pytest.fixture(scope="module")
def perturbed_traj(ref_params, saturated, sat_equilibrium):
    grid = Grid1D(0.0, 1.0, 21)
    params = ModelParams(
        lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0, diff=(1e-3, 1e-3, 2e-3)
    )
    df = constant_delay(1.0, 0.4)
    initial = InitialData(
        preset="equilibrium_perturbation",
        epsilon=0.05 * equilibrium_norm(sat_equilibrium),
        equilibrium=sat_equilibrium,
        direction="gaussian_bump",
        weights=(0.6, -0.2, 0.77),
        bump_center=0.4,
        bump_width=0.15,
    )
    traj = run(initial, params, saturated, df, SolverConfig(dt=0.01, t_end=8.0), grid)
    return params, df, grid, traj


class TestRateDecomposition:

    def test_equilibrium_trajectory_all_zero(self, ref_params, saturated, grid5, sat_equilibrium):
        df = constant_delay(1.0, 0.4)
        initial = InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=sat_equilibrium)
        traj = run(initial, ref_params, saturated, df, SolverConfig(dt=0.05, t_end=4.0), grid5)
        (sample,) = rate_decomposition(traj, [len(traj) // 2], sat_equilibrium, ref_params, saturated, grid5)
        assert sample.valid
        assert abs(sample.U) <= 1e-10
        assert abs(sample.dU_dt_fd) <= 1e-10
        assert sample.S_int == 0.0
        assert abs(sample.D_int) <= 1e-10
        assert sample.Ddiff == 0.0

    def test_constant_delay_s_term_identically_zero(self, perturbed_traj, sat_equilibrium, saturated):
        params, df, grid, traj = perturbed_traj
        samples = monitor(traj, sat_equilibrium, params, saturated, grid, stride=20)
        assert len(samples) > 5
        assert all(s.valid for s in samples)
        assert all(s.S_int == 0.0 for s in samples)

    def test_diffusion_terms_nonpositive(self, perturbed_traj, sat_equilibrium, saturated):
        params, df, grid, traj = perturbed_traj
        for s in monitor(traj, sat_equilibrium, params, saturated, grid, stride=20):
            assert all(term <= 1e-8 for term in s.Ddiff_terms)
            assert s.Ddiff <= 1e-8

    def test_identity_along_trajectory(self, perturbed_traj, sat_equilibrium, saturated):
        params, df, grid, traj = perturbed_traj
        for s in monitor(traj, sat_equilibrium, params, saturated, grid, stride=20):
            assert s.c1_abs_dev <= 1e-9 * s.c1_scale + 1e-14

    def test_decomposition_residual_small(self, perturbed_traj, sat_equilibrium, saturated):
        params, df, grid, traj = perturbed_traj
        samples = monitor(traj, sat_equilibrium, params, saturated, grid, stride=20)
        for s in samples:
            assert s.residual <= 1e-3 * max(1.0, abs(s.dU_dt_fd))

    def test_no_diffusion_means_zero_ddiff(self, ref_params, saturated, grid5, sat_equilibrium):
        df = constant_delay(1.0, 0.4)
        initial = InitialData(
            preset="equilibrium_perturbation",
            epsilon=0.5,
            equilibrium=sat_equilibrium,
            direction="gaussian_bump",
        )
        traj = run(initial, ref_params, saturated, df, SolverConfig(dt=0.05, t_end=4.0), grid5)
        (sample,) = rate_decomposition(traj, [len(traj) - 10], sat_equilibrium, ref_params, saturated, grid5)
        assert sample.valid
        assert sample.Ddiff == 0.0
        assert sample.Ddiff_terms.tolist() == [0.0, 0.0, 0.0]

    def test_needs_neighbors(self, perturbed_traj, sat_equilibrium, saturated):
        params, df, grid, traj = perturbed_traj
        with pytest.raises(ValueError):
            rate_decomposition(traj, [0], sat_equilibrium, params, saturated, grid)
        with pytest.raises(ValueError):
            rate_decomposition(traj, [5, len(traj) - 1], sat_equilibrium, params, saturated, grid)

    def test_needs_trailing_history_behind_the_earliest_sample(self, perturbed_traj, sat_equilibrium, saturated):
        # rows 0.01 apart from t = 0 and h_max = 1: sample 100 is the first with a full window behind it
        params, df, grid, traj = perturbed_traj
        assert traj.times[100] == pytest.approx(1.0) and traj.times[0] == 0.0
        with pytest.raises(ValueError, match=re.escape("rate_decomposition: sample 99 (t=0.99")):
            rate_decomposition(traj, [100, 300], sat_equilibrium, params, saturated, grid)
        (sample,) = rate_decomposition(traj, [101], sat_equilibrium, params, saturated, grid)
        assert sample.valid


def monitored_ks(traj, samples):
    return [int(np.searchsorted(traj.times, s.t)) for s in samples]


def in_blocks(traj, ks, size, *args):
    return [s for b in range(0, len(ks), size) for s in rate_decomposition(traj, ks[b : b + size], *args)]


BUMP = dict(direction="gaussian_bump", weights=(0.6, -0.2, 0.77), bump_center=0.4, bump_width=0.15)
DIFFUSION = (1e-3, 1e-3, 2e-3)


class TestBlocks:
    """A block of samples decomposes to the same bits as each sample alone."""

    @pytest.fixture(
        scope="class", params=["constant_diffusion", "integral", "jump_in_windows", "stride_1"]
    )
    def block_case(self, request, sat_equilibrium, saturated):
        grid = Grid1D(0.0, 1.0, 11)
        params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0, diff=DIFFUSION)
        initial = InitialData(
            preset="equilibrium_perturbation", epsilon=0.05 * equilibrium_norm(sat_equilibrium),
            equilibrium=sat_equilibrium, **BUMP,
        )
        integral = integral_delay(1.0, state_mean_reducer(grid, "V", 0.4 / sat_equilibrium.V_hat))
        df, schedule, stride = constant_delay(1.0, 0.4), (), 3
        if request.param == "integral":
            df = integral
        elif request.param == "jump_in_windows":
            # the jump at t = 2.505 shortens one step, which lies inside the windows after it
            df, schedule, stride = integral, [ParamJump(2.505, "c", 4.0)], 2
        elif request.param == "stride_1":
            df, stride = integral, 1
        traj = run(initial, params, saturated, df, SolverConfig(dt=0.01, t_end=4.0), grid, schedule)
        return request.param, traj, params, grid, stride

    def test_blocks_are_bitwise_equal(self, block_case, sat_equilibrium, saturated):
        name, traj, params, grid, stride = block_case
        args = (sat_equilibrium, params, saturated, grid)
        samples = monitor(traj, *args, stride=stride)
        ks = monitored_ks(traj, samples)
        if name == "jump_in_windows":
            # the step that ends on the jump; the last step is shortened too, to end on t_end
            t_short = traj.times[np.flatnonzero(np.diff(traj.times) < 0.99 * traj.dt)[0] + 1]
            assert t_short == pytest.approx(2.505)
            assert sum(traj.times[k] - traj.eta[k] < t_short < traj.times[k] for k in ks) > 5
        whole = rate_decomposition(traj, ks, *args)
        assert len(whole) == len(ks) > 20 and all(s.valid for s in whole)
        assert [s.t for s in whole] == traj.times[ks].tolist()
        want = [repr(s) for s in whole]  # repr round-trips every float, -0.0 included
        assert [repr(s) for s in samples] == want
        for size in (1, 7):
            assert [repr(s) for s in in_blocks(traj, ks, size, *args)] == want

    @pytest.mark.parametrize("component", [1, 2])
    def test_floor_at_one_row_invalidates_exactly_the_samples_that_touch_it(
        self, component, sat_equilibrium, saturated
    ):
        # constant lag 0.4 on rows dt = 0.01 apart: the windows of sample m are rows m-40..m
        grid = Grid1D(0.0, 1.0, 5)
        params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0, diff=DIFFUSION)
        initial = InitialData(
            preset="equilibrium_perturbation", epsilon=0.05 * equilibrium_norm(sat_equilibrium),
            equilibrium=sat_equilibrium, **BUMP,
        )
        traj = run(initial, params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.01, t_end=3.0), grid)
        args = (sat_equilibrium, params, saturated, grid)
        ks = monitored_ks(traj, monitor(traj, *args, stride=1))
        clean = [repr(s) for s in rate_decomposition(traj, ks, *args)]
        r = int(np.searchsorted(traj.times, 2.5))
        traj.fields[r, component, 2] = 0.0
        hit = rate_decomposition(traj, ks, *args)

        def touches(k):
            if component == 1:  # T* enters only through the newest rows
                return r in (k - 1, k, k + 1)
            # V also enters the delayed state (row k - 40) and every U window
            return any(t_m - 0.4 - 1e-9 <= traj.times[r] <= t_m for t_m in traj.times[k - 1 : k + 2])

        expected = [touches(k) for k in ks]
        assert sum(expected) == (3 if component == 1 else 43)
        assert [not s.valid for s in hit] == expected
        for s, c, bad in zip(hit, clean, expected):
            if bad:
                assert math.isnan(s.U) and math.isnan(s.residual)
            else:
                assert repr(s) == c


@pytest.fixture(scope="module")
def plan_stream(sat_equilibrium, saturated):
    """Three members of one RunStream with an integral lag and a jump at t =
    2.505 that shortens a step inside later windows, read through a view of
    all members, of members 0 and 2 (as after member 1 aborts) and of member 1."""
    grid = Grid1D(0.0, 1.0, 11)
    params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0, diff=DIFFUSION)
    norm = equilibrium_norm(sat_equilibrium)
    members = [
        InitialData(preset="equilibrium_perturbation", epsilon=eps * norm, equilibrium=sat_equilibrium, **BUMP)
        for eps in (0.1, 0.05, 0.025)
    ]
    df = integral_delay(1.0, state_mean_reducer(grid, "V", 0.4 / sat_equilibrium.V_hat))
    stream = RunStream(members, params, saturated, df, SolverConfig(dt=0.01, t_end=4.0), grid, [ParamJump(2.505, "c", 4.0)])
    origin = stream.history.view(len(stream.history) - 1, len(stream.history))  # pins the store's rows
    etas = np.array([sample.eta for sample in stream])
    n = len(etas)
    trajs = [Trajectory(origin.view(0, n, m), etas[:, m]) for m in (slice(None), [0, 2], 1)]
    return params, grid, trajs


def assert_rates_read_delayed_state(samples, traj, ks, eq, f, grid):
    """S_int and C1_int, the rate terms that read f(T, V) at each sample k
    and at its t - eta, have the bits of the seven-v form per sample, on k's
    row and on delayed_state's read of k's segment."""
    f_hat, Ts_hat, V_hat = float(incidence_values(f, eq.T_hat, eq.V_hat)), eq.T_star_hat, eq.V_hat
    want = []
    for k in ks:
        seg = traj.segment_at(k)
        rows = (seg.fields[-1], delayed_state(seg, traj.eta[k]))
        f_now, f_del = (incidence_values(f, row[..., 0, :], row[..., 2, :]) for row in rows)
        T, Ts, V = (rows[0][..., c, :] for c in range(3))
        fT = incidence_values(f, T, V_hat)
        args = (f_now / fT, f_del / f_hat, f_hat / fT, f_now / f_hat, f_del * Ts_hat / (f_hat * Ts))
        v = [_v(arg) for arg in args + (Ts * V_hat / (Ts_hat * V), V / V_hat)]
        rate = (traj.eta[k + 1] - traj.eta[k - 1]) / (traj.times[k + 1] - traj.times[k - 1])
        want.append((rate * integrate(grid, v[1]), integrate(grid, v[0] + v[1] - v[2] - v[3] - v[4] - v[5] - v[6])))
    S_int, C1_int = (np.array(terms).T.ravel().tolist() for terms in zip(*want))  # member after member
    got = [(repr(s.S_int.item()), repr(s.C1_int.item())) for s in samples]
    assert got == [tuple(map(repr, p)) for p in zip(S_int, C1_int)]


class TestPlan:
    """One plan, reused from block to block, gives each block the bits of a fresh one."""

    def test_one_plan_serves_every_block_as_a_fresh_plan(self, plan_stream, sat_equilibrium, saturated):
        params, grid, (whole, live, solo) = plan_stream
        args = (sat_equilibrium, params, saturated, grid)
        ks = list(range(101, len(whole) - 1, 3))
        t_short = 2.505  # the jump's shortened step ends here, inside the windows of the samples after it
        assert np.any(np.isclose(whole.times, t_short)) and whole.times[ks[51]] - 0.4 < t_short < whole.times[ks[51]]
        blocks = [
            (whole, ks[:16]),  # the first block
            (whole, ks[16:32]),  # full blocks, the second over the jump
            (whole, ks[50:66]),
            (whole, ks[-5:]),  # a short last block
            (live, ks[50:66]),  # the live members after one aborted
            (solo, ks[50:66]),  # no member axis
            (solo, list(range(250, 266))),  # stride 1: the neighbours of one k are the others' samples
        ]
        plan = lyapunov._MonitorPlan()
        for traj, block in blocks:
            want = rate_decomposition(traj, block, *args)
            assert len(want) == len(block) * math.prod(traj.history.members) and all(s.valid for s in want)
            got = rate_decomposition(traj, block, *args, plan)
            assert [repr(s) for s in got] == [repr(s) for s in want]
            assert_rates_read_delayed_state(got, traj, block, sat_equilibrium, saturated, grid)

    def test_a_second_call_leaves_the_first_calls_results(self, plan_stream, sat_equilibrium, saturated):
        params, grid, (whole, _, _) = plan_stream
        args = (sat_equilibrium, params, saturated, grid)
        ks = list(range(250, 298, 3))
        plan = lyapunov._MonitorPlan()
        first = [*u_sdd_fields(whole, ks, *args, plan), *u_sdd_total(whole, ks, *args, plan)]
        kept = [a.copy() for a in first]
        samples = [repr(s) for s in rate_decomposition(whole, ks, *args, plan)]
        for a in first:
            assert not np.shares_memory(a, plan.rows) and not np.shares_memory(a, plan.windows)
        u_sdd_fields(whole, ks[:5], *args, plan)
        u_sdd_total(whole, ks[3:9], *args, plan)
        second = rate_decomposition(whole, ks[1:], *args, plan)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in kept]
        assert [repr(s) for s in rate_decomposition(whole, ks, *args)] == samples != [repr(s) for s in second]


@st.composite
def windows_over(draw, history, ks):
    """A trajectory over the history's rows and 1-6 of its samples ks (one
    may repeat), each with a lag that starts its window between rows, on a
    stored row, below the 1e-9*dt slack (a one-row window without a
    trapezoid term), or nowhere (0); no lag passes h_max or the first row."""
    times = history.times.tolist()
    eta = np.zeros(len(times))
    drawn = draw(st.lists(st.sampled_from(ks), min_size=1, max_size=6))
    for k in sorted(set(drawn)):
        kind = draw(st.sampled_from(["between", "row", "slack", "zero"]))
        if kind == "between":
            eta[k] = draw(st.floats(0.0, 1.0)) * min(history.h_max, times[k] - times[0])
        elif kind == "row":
            eta[k] = times[k] - draw(st.sampled_from([t for t in times[: k + 1] if times[k] - t <= history.h_max]))
        else:
            eta[k] = 0.5e-9 * history.dt if kind == "slack" else 0.0
    return Trajectory(history, eta), drawn


def assert_tails_match_oracle(traj, ks, eq, params, f, grid):
    """The window sums, and the functional built on them, have the bits of
    the per-window oracle."""
    f_hat = float(incidence_values(f, eq.T_hat, eq.V_hat))
    ks = np.asarray(ks)
    with np.errstate(divide="ignore", invalid="ignore"):
        tails, ok = _delay_tails(traj, ks, f, f_hat, grid.nx)
        want_tails, want_ok = delay_tails_per_window(traj, ks, f, f_hat, grid.nx)
    assert tails.tobytes() == want_tails.tobytes() and ok.tolist() == want_ok.tolist()
    fields, ok = u_sdd_fields(traj, ks, eq, params, f, grid)
    with mock.patch.object(lyapunov, "_delay_tails", delay_tails_per_window):
        want_fields, want_ok = u_sdd_fields(traj, ks, eq, params, f, grid)
    assert fields.tobytes() == want_fields.tobytes() and ok.tolist() == want_ok.tolist()
    return ok


@pytest.fixture(scope="module")
def member_trajectories(sat_equilibrium, saturated):
    """Three members of one RunStream with an integral delay and a jump that
    shortens a step, each equal to its solo run: each member's rows are a
    strided view of the stream's store."""
    grid = Grid1D(0.0, 1.0, 5)
    params = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.0, h_max=1.0, diff=DIFFUSION)
    norm = equilibrium_norm(sat_equilibrium)
    members = [
        InitialData(preset="equilibrium_perturbation", epsilon=eps * norm, equilibrium=sat_equilibrium, **BUMP)
        for eps in (0.2, 0.1, 0.05)
    ]
    df = integral_delay(1.0, state_mean_reducer(grid, "V", 0.4 / sat_equilibrium.V_hat))
    args = (params, saturated, df, SolverConfig(dt=0.05, t_end=3.0), grid, [ParamJump(2.02, "c", 4.0)])
    stream = RunStream(members, *args)
    origin = stream.history.view(len(stream.history) - 1, len(stream.history))  # pins the store's rows
    etas = np.array([sample.eta for sample in stream])
    trajs = [Trajectory(origin.view(0, len(etas), m), etas[:, m]) for m in range(len(members))]
    for initial, traj in zip(members, trajs):
        solo = run(initial, *args)
        assert traj.fields.strides != solo.fields.strides
        assert traj.times.tobytes() == solo.times.tobytes() and traj.fields.tobytes() == solo.fields.tobytes()
        assert traj.eta.tobytes() == solo.eta.tobytes()
    return params, grid, trajs


class TestWindowSums:
    """The one-pass window sums of the last piece equal the per-window
    ``np.add.reduce`` oracle bit for bit."""

    @given(data=st.data(), floor=st.booleans())
    def test_moving_histories(self, ref_params, saturated, sat_equilibrium, data, floor):
        grid, seg, *_ = data.draw(pushed_histories())
        traj, ks = data.draw(windows_over(seg, range(len(seg))))
        if floor:  # T = 0 at one node of one row: every window over that row hits the floor
            seg.fields[data.draw(st.integers(0, len(seg) - 1)), 0, data.draw(st.integers(0, grid.nx - 1))] = 0.0
        assert_tails_match_oracle(traj, ks, sat_equilibrium, ref_params, saturated, grid)

    @given(data=st.data())
    def test_member_trajectories(self, member_trajectories, sat_equilibrium, saturated, data):
        params, grid, trajs = member_trajectories
        traj = data.draw(st.sampled_from(trajs))
        ks = range(21, len(traj))  # rows 0.05 apart: a segment needs 1.0 of history behind it
        drawn, ks = data.draw(windows_over(traj.history, ks))
        if data.draw(st.booleans()):  # else the lags the run recorded
            traj = drawn
        assert assert_tails_match_oracle(traj, ks, sat_equilibrium, params, saturated, grid).all()

    def test_floors_and_one_row_window(self, ref_params, saturated, sat_equilibrium):
        # rows 0..10 at t = -1.0, -0.9, ..., 0; V = 0 at a node of row 3, T < 0 at a node of row 8
        grid = Grid1D(0.0, 1.0, 4)
        seg = eq_segment(grid, sat_equilibrium)
        seg.fields[3, 2, 1] = 0.0
        seg.fields[8, 0, 2] = -100.0
        cases = [
            (11, 0.15, False),  # starts between rows 8 and 9: only the interpolated start is below the floor
            (11, 0.05, True),
            (8, 0.15, True),
            (8, 0.35, True),  # starts between rows 3 and 4: the start's V is half of row 4's
            (8, 0.45, False),  # starts between rows 2 and 3
            (11, 0.5e-11, True),  # a lag below the slack: one row, no trapezoid term
            (5, 0.2, False),  # starts on row 2
            (3, 0.2, True),  # starts on row 0
        ]
        ok = [
            assert_tails_match_oracle(*newest(seg.view(0, hi), eta), sat_equilibrium, ref_params, saturated, grid)[0]
            for hi, eta, _ in cases
        ]
        assert ok == [valid for *_, valid in cases]


class TestCertify:
    def test_constant_delay_small_eps_stable(self, ref_params, saturated, sat_equilibrium):
        grid = Grid1D(0.0, 1.0, 11)
        df = constant_delay(1.0, 0.4)
        cfg = SolverConfig(dt=0.01, t_end=8.0)
        verdicts = certify_local_stability(
            sat_equilibrium,
            [0.05 * equilibrium_norm(sat_equilibrium)],
            ref_params,
            saturated,
            df,
            cfg,
            grid,
            seed=3,
        )
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.verdict == "stable_evidence"
        assert v.decrease_fraction == 1.0
        assert v.s_over_d == 0.0
        assert v.max_eta_rate == 0.0
        assert v.terminal_distance < v.initial_distance

    def test_eta_rate_shrinks_with_eps(self, ref_params, saturated, sat_equilibrium):
        grid = Grid1D(0.0, 1.0, 11)
        a = 0.4 / sat_equilibrium.V_hat
        df = integral_delay(1.0, state_mean_reducer(grid, "V", a))
        cfg = SolverConfig(dt=0.01, t_end=5.0)
        norm = equilibrium_norm(sat_equilibrium)
        verdicts = certify_local_stability(
            sat_equilibrium,
            [0.1 * norm, 0.05 * norm, 0.025 * norm],
            ref_params,
            saturated,
            df,
            cfg,
            grid,
            seed=3,
        )
        rates = [v.max_eta_rate for v in verdicts]
        assert rates[0] >= rates[1] >= rates[2]
        assert verdicts[-1].s_over_d < 1.0

    def test_huge_perturbation_degrades_gracefully(self, ref_params, saturated, sat_equilibrium):
        # seed 2 draws a bump direction with strongly negative T*/V weights,
        # so a 20*norm displacement leaves the positive cone: the monitor must
        # invalidate samples (or the run abort) without ever crashing
        grid = Grid1D(0.0, 1.0, 5)
        df = constant_delay(1.0, 0.4)
        cfg = SolverConfig(dt=0.01, t_end=4.0)
        verdicts = certify_local_stability(
            sat_equilibrium,
            [20.0 * equilibrium_norm(sat_equilibrium)],
            ref_params,
            saturated,
            df,
            cfg,
            grid,
            directions=("gaussian_bump",),
            seed=2,
        )
        assert verdicts[0].verdict in ("inconclusive", "instability_evidence")

    def test_trivial_equilibrium_rejected(self, ref_params, saturated):
        grid = Grid1D(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            certify_local_stability(
                trivial_equilibrium(ref_params, saturated),
                [0.1],
                ref_params,
                saturated,
                constant_delay(1.0, 0.4),
                SolverConfig(dt=0.01, t_end=1.0),
                grid,
            )

    def test_distance_metric(self, sat_equilibrium):
        grid = Grid1D(0.0, 1.0, 5)
        state = eq_row(grid, sat_equilibrium)
        assert distance_to_equilibrium(state, sat_equilibrium, grid) == 0.0
        shifted = state + [[3.0], [0.0], [0.0]]
        assert distance_to_equilibrium(shifted, sat_equilibrium, grid) == pytest.approx(3.0, rel=1e-12)
