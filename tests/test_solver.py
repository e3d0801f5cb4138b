import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddlab import (
    Equilibrium,
    Grid1D,
    IncidenceFn,
    ModelParams,
    ParamJump,
    SolverConfig,
    build_initial_segment,
    compatibility_residual,
    constant_delay,
    delayed_state,
    equilibrium_norm,
    evaluate_eta,
    integral_delay,
    omega_lip_bounds,
    rhs,
    run,
    state_mean_reducer,
    step,
    wrapped_delay,
)
from sddlab.model import KINDS, incidence_mu, incidence_values
from sddlab.solver import (
    InitialData, RunStream, _StepPlan, _violations, apply_jump, validate_schedule,
)

from .helpers import eq_row, push_state, segment_from_profile, uniform_row
from .oracles import _extremes_ref, fixed_lag_euler, initial_segment_ref, rhs_ref, saturated_closed_form, stream_box_ref


@pytest.fixture(scope="module")
def grid3():
    return Grid1D(0.0, 1.0, 3)


def max_state_dev(a: np.ndarray, b: np.ndarray) -> float:
    """Largest nodewise difference of two (3, nx) rows."""
    return float(np.max(np.abs(a - b)))


class TestRhs:
    def test_zero_at_interior_equilibrium(self, ref_params, saturated, grid3, sat_equilibrium):
        state = eq_row(grid3, sat_equilibrium)
        out = rhs(state, state, ref_params, saturated, grid3)
        assert float(np.max(np.abs(out))) <= 1e-10

    def test_zero_at_trivial_equilibrium(self, ref_params, saturated, grid3):
        state = uniform_row(grid3, (100.0, 0.0, 0.0))
        out = rhs(state, state, ref_params, saturated, grid3)
        assert float(np.max(np.abs(out))) <= 1e-12

    def test_matches_hand_ode_without_diffusion(self, ref_params, saturated, grid3):
        state = uniform_row(grid3, (40.0, 12.0, 7.0))
        delayed = uniform_row(grid3, (35.0, 11.0, 6.0))
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


# jumps as a schedule makes them: each d_i to and from 0, omega (e^{-omega h}),
# burst_n (N delta), lambda, and d, delta and c (the loss column; delta also
# N delta), so that every derived constant moves
PLAN_JUMPS = st.one_of(
    st.tuples(st.sampled_from(["d1", "d2", "d3"]), st.sampled_from([0.0, 1e-3, 0.25])),
    st.tuples(st.just("omega"), st.sampled_from([0.0, 0.3, 1.2])),
    st.tuples(st.just("burst_n"), st.sampled_from([6.0, 10.0])),
    st.tuples(st.just("lambda"), st.sampled_from([5.0, 10.0])),
    st.tuples(st.just("d"), st.sampled_from([0.05, 0.1])),
    st.tuples(st.just("delta"), st.sampled_from([0.3, 0.5])),
    st.tuples(st.just("c"), st.sampled_from([2.0, 5.0])),
)


@st.composite
def plan_calls(draw):
    """One step plan's calls: rows of one shape (solo or 1-4 members, nx
    from 3) and one incidence kind, with the params changed between calls
    the way jumps change them."""
    nx = draw(st.integers(3, 7))
    shape = (*draw(st.sampled_from([(), (1,), (2,), (4,)])), 3, nx)
    diff = tuple(draw(st.sampled_from([0.0, 1e-3, 0.25])) for _ in range(3))
    params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.3, h_max=1.0, diff=diff)
    calls = []
    for _ in range(draw(st.integers(2, 5))):
        rows = [draw_rows(draw, shape, st.floats(-100.0, 100.0) | SPECIAL) for _ in range(2)]
        calls.append((*rows, params))
        params = apply_jump(params, ParamJump(1.0, *draw(PLAN_JUMPS)))
    f = IncidenceFn(draw(st.sampled_from(KINDS)), k=0.1, k1=0.05, k2=0.1)
    return shape, f, Grid1D(0.0, 1.0, nx), calls


def assert_oracle_bits(got, want):
    # a NaN's sign is not compared: NaN + NaN keeps either operand's, and
    # numpy's masked add even picks differently within one call
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


class TestRhsOracle:
    @settings(max_examples=200)
    @given(case=rhs_inputs())
    def test_bitwise_equal_to_the_oracle(self, case):
        with np.errstate(all="ignore"):
            got, want = rhs(*case), rhs_ref(*case)
        assert_oracle_bits(got, want)

    @settings(max_examples=200)
    @given(case=plan_calls())
    def test_a_reused_plan_gives_the_oracle_bits_on_every_call(self, case):
        shape, f, grid, calls = case
        plan = _StepPlan(shape, f, grid)
        for state, delayed, params in calls:
            with np.errstate(all="ignore"):
                got, want = rhs(state, delayed, params, f, grid, plan=plan), rhs_ref(state, delayed, params, f, grid)
            assert got is plan.out
            assert_oracle_bits(got, want)

    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 5)])
    @pytest.mark.parametrize("loss", [("d", 0.05), ("delta", 0.3), ("c", 2.0)])
    def test_a_plan_rebuilds_its_columns_when_the_params_switch_and_back(self, shape, loss):
        # B moves one loss rate and one diffusing d_i; A, B, then A again, each call with the oracle's bits
        a = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.3, h_max=1.0, diff=(1e-3, 0.0, 0.25))
        b = apply_jump(apply_jump(a, ParamJump(1.0, *loss)), ParamJump(1.0, "d1", 0.25))
        f, grid = IncidenceFn("beddington_deangelis", k=0.1, k1=0.05, k2=0.1), Grid1D(0.0, 1.0, shape[-1])
        plan, rng = _StepPlan(shape, f, grid), np.random.default_rng(0)
        for params in (a, b, a):
            state, delayed = rng.uniform(1.0, 100.0, (2, *shape))
            assert_oracle_bits(rhs(state, delayed, params, f, grid, plan=plan), rhs_ref(state, delayed, params, f, grid))

    @pytest.mark.parametrize("shape", [(3, 5), (1, 3, 5), (4, 3, 5)])
    def test_f_inputs_and_columns_are_contiguous_blocks_of_their_own(self, shape, ref_params, saturated):
        grid, rng = Grid1D(0.0, 1.0, shape[-1]), np.random.default_rng(1)
        plan = _StepPlan(shape, saturated, grid)
        state, delayed = rng.uniform(1.0, 100.0, (2, *shape))
        params = apply_jump(ref_params, ParamJump(1.0, "d3", 0.25))
        rhs(state, delayed, params, saturated, grid, plan=plan)
        blocks = (plan.T, plan.V, plan.fv, plan.den, plan.loss, plan.diff_column)
        assert all(block.flags.c_contiguous for block in blocks)
        assert not any(np.shares_memory(block, rows) for block in blocks for rows in (state, delayed))
        # [current | delayed] T and V, and the params' columns over the row
        assert np.array_equal(plan.T, np.stack((state[..., 0, :], delayed[..., 0, :])))
        assert np.array_equal(plan.V, np.stack((state[..., 2, :], delayed[..., 2, :])))
        assert np.array_equal(plan.loss, np.broadcast_to(params.loss, shape))
        assert np.array_equal(plan.diff_column, np.broadcast_to(params.diff_column, shape))

    def test_run_rows_match_a_loop_over_the_oracle(self):
        # dt = 1/64 puts every step, jump and the lag 1/4 exactly on the step
        # grid; the jumps give a new e^{-omega h}, a new N delta, and new
        # diffusing rows (d2 from 0 to 0 and back).  Member 0's initial T_star
        # holds -0.0 wherever the narrow bump underflows to 0 (-0.0 + -1e-3 *
        # 0.0), and member 1 starts at T < 0, which clipping sets to 0.
        dt, lag, n = 1.0 / 64.0, 16, 192
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=0.5, diff=(2e-3, 0.0, 4e-3))
        grid = Grid1D(0.0, 1.0, 21)
        schedule = [ParamJump(0.5, "omega", 0.3), ParamJump(1.0, "burst_n", 6.0)]
        schedule += [ParamJump(1.5, "d2", 3e-3), ParamJump(2.0, "d2", 0.0), ParamJump(2.5, "d2", 2e-3)]
        members = [
            InitialData(preset="gaussian_bump", values=(50.0, -0.0, 10.0), bump_amp=(5.0, -1e-3, 1.0), bump_width=0.01),
            InitialData(preset="uniform", values=(-5.0, 10.0, 10.0)),
        ]
        cfg = SolverConfig(dt=dt, t_end=n * dt, clip_negative=True)
        for kind in KINDS:
            f = IncidenceFn(kind, k=0.1, k1=0.05, k2=0.1)
            stream = RunStream(members, params, f, constant_delay(0.5, lag * dt), cfg, grid, schedule)
            got = np.array([s.row.copy() for s in stream])
            assert len(got) == n + 1 and not any(stream.aborted) and stream.clip_events[1] > 0, kind
            assert np.signbit(got[0, 0, 1]).any() and (got[0, 0, 1] == 0.0).any()
            rows, p = [got[0]], params  # the initial segment is this row at every time up to 0
            for k in range(n):
                p = next((apply_jump(p, j) for j in schedule if j.t == k * dt), p)
                new = rows[k] + dt * rhs_ref(rows[k], rows[max(k - lag, 0)], p, f, grid)
                rows.append(np.maximum(new, 0.0))
            want = np.array(rows)
            # NaN signs aside, as in the test above
            assert np.array_equal(got, want, equal_nan=True), kind
            number = ~np.isnan(want)
            assert np.array_equal(np.signbit(got[number]), np.signbit(want[number])), kind

    def test_constant_lag_off_the_step_grid_matches_an_interpolating_loop(self, ref_params, saturated):
        # the lag 0.234 falls between rows (23.4 steps of 0.01), and the jump at
        # 0.505 shortens one step, so the delayed row is interpolated throughout
        dt, lag, t_jump, t_end = 0.01, 0.234, 0.505, 1.0
        grid = Grid1D(0.0, 1.0, 11)
        members = [
            InitialData(preset="gaussian_bump", values=(50.0, 10.0, 10.0), profile="linear_ramp"),
            InitialData(preset="uniform", values=(40.0, 12.0, 7.0), profile="linear_ramp"),
        ]
        jump = ParamJump(t_jump, "burst_n", 6.0)
        stream = RunStream(members, ref_params, saturated, constant_delay(1.0, lag), SolverConfig(dt=dt, t_end=t_end), grid, [jump])
        got = [(s.t, s.row.copy()) for s in stream]
        # the oracle loop: its own store, the stream's rule for step times, delayed_state's read
        seg = build_initial_segment(members, grid, 1.0, dt)
        want, p, slack = [], ref_params, 1e-6 * dt
        while seg.t_now < t_end - slack:
            t = seg.t_now
            if t >= t_jump - slack:
                p = apply_jump(ref_params, jump)
            dt_k = min(dt, t_end - t, t_jump - t) if t < t_jump - slack else min(dt, t_end - t)
            u = seg.fields[-1].copy()
            want.append((t, u))
            push_state(seg, t + dt_k, u + dt_k * rhs_ref(u, delayed_state(seg, lag), p, saturated, grid))
        want.append((seg.t_now, seg.fields[-1].copy()))
        times = [t for t, _ in want]
        # shortened: the step to the jump, and the last, to t_end
        assert sum(b - a < 0.99 * dt for a, b in zip(times, times[1:])) == 2
        assert [t for t, _ in got] == times
        assert np.array([r for _, r in got]).tobytes() == np.array([r for _, r in want]).tobytes()


@st.composite
def box_rows(draw):
    """(row, bounds, tol): a (*members, 3, nx) row whose entries lie exactly at
    -tol or at their component's limit (bound + tol), one float past either,
    or inside the box, and up to two per member are NaN, +-inf or -0.0;
    bounds is None or the three upper bounds."""
    tol = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    bounds = draw(st.sampled_from([None, (100.0, 200.0, 300.0)]))
    shape = (*draw(st.sampled_from([(), (1,), (4,)])), 3, draw(st.integers(3, 6)))
    top = np.full(3, 1e3) if bounds is None else np.array(bounds) + tol
    row = np.empty(shape)
    for c in range(3):
        edges = [-tol, np.nextafter(-tol, -1.0), top[c], np.nextafter(top[c], np.inf), 0.0, 1.0]
        row[..., c, :] = draw_rows(draw, shape[:-2] + shape[-1:], st.sampled_from(edges) | st.floats(-1.0, 400.0))
    for m in np.ndindex(shape[:-2]):
        for _ in range(draw(st.integers(0, 2))):
            row[m + (draw(st.integers(0, 2)), draw(st.integers(0, shape[-1] - 1)))] = draw(SPECIAL)
    return row, bounds, tol


@st.composite
def band_streams(draw):
    """RunStream arguments and the row every initial time holds: (initial,
    params, f, df, cfg, grid, schedule, row).  Every rate is about 1e-100
    of its state, so an entry exactly at -tol or at a limit (bound + tol,
    before or after the jump), one float past either, or -0.0 stays there
    step after step; NaN and +-inf entries freeze their member at once, and
    the jumps move the bounds, or blow members up (and may undo that, so
    that a frozen member's next row would be finite again).  Saturated
    incidence has bounds, bilinear none (then the edges sit at the largest
    float, whose next float is inf)."""
    tiny = 1e-100
    members = draw(st.sampled_from([(), (1,), (4,)]))
    nx = draw(st.integers(3, 5))
    scale = draw(st.sampled_from([1.0, 3.0]))
    params = ModelParams(lam=scale * tiny, d=tiny, delta=tiny, burst_n=draw(st.sampled_from([2.0, 10.0])), c=tiny,
                         omega=0.0, h_max=0.2, diff=(tiny, 0.0, draw(st.sampled_from([0.0, tiny]))))
    f = IncidenceFn(draw(st.sampled_from(["saturated", "bilinear"])), k=tiny, k2=1.0)
    tol = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    cfg = SolverConfig(dt=0.1, t_end=0.5, clip_negative=draw(st.booleans()), invariance_tol=tol)
    jumps = draw(st.sampled_from([[], [("lambda", 2.0 * scale * tiny)], [("lambda", 0.5 * scale * tiny)],
                                  [("burst_n", 1e250)], [("c", 1e308)], [("c", 1e308), ("c", tiny)]]))
    schedule = [ParamJump(t, *jump) for t, jump in zip((draw(st.sampled_from([0.2, 0.25])), 0.35), jumps)]
    mu = incidence_mu(f)
    each = accumulate(schedule, apply_jump, initial=params)  # the parameters before and after each jump
    tops = [np.full(3, np.finfo(float).max)] if mu is None else [np.add(omega_lip_bounds(p, mu), tol) for p in each]
    shape = (*members, 3, nx)
    row = np.empty(shape)
    for c in range(3):
        edges = [-tol, math.nextafter(-tol, -1.0), -0.0, 0.0, 0.5, -1.0]  # V = -1: saturated f divides by 0
        edges += [x for top in tops for x in (top[c], math.nextafter(top[c], math.inf))]
        palette = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3))  # a few edges per case
        row[..., c, :] = draw_rows(draw, members + (nx,), st.sampled_from(palette) | st.floats(-1.0, 1.0))
    specials = draw(st.integers(0, 2))
    for m in np.ndindex(members):
        if draw(st.booleans()):  # uninfected: T* = V = 0 stays so, whatever c is
            row[m][1:] = 0.0
        for _ in range(draw(st.integers(0, specials))):
            row[m + (draw(st.integers(0, 2)), draw(st.integers(0, nx - 1)))] = draw(SPECIAL)
    initial = InitialData() if not members else [InitialData()] * members[0]
    df = constant_delay(0.2, draw(st.sampled_from([0.0, 0.1, 0.15])))
    return initial, params, f, df, cfg, Grid1D(0.0, 1.0, nx), schedule, row


def assert_stream_matches_the_old_loop(initial, params, f, df, cfg, grid, schedule, row):
    """Drain a stream whose initial rows are all ``row``, and the old loop
    (``stream_box_ref``) from the same rows: every sample, count, abort and
    frozen row must agree bit for bit.  Returns the stream's abort flags."""
    stream, old = (RunStream(initial, params, f, df, cfg, grid, schedule) for _ in range(2))
    stream.history.fields[...] = row
    old.history.fields[...] = row
    with np.errstate(all="ignore"):
        want, clips, aborted, abort_time = stream_box_ref(old, params, f, df, cfg, grid)
    got, held = [], None
    for s in stream:
        # a sample's extremes are its row's, held in the buffer the last
        # sample's were not: the step that finds the next sample's extremes
        # leaves them as they are until the next sample is asked for
        assert s.extremes.tobytes() == _extremes_ref(s.row).tobytes()
        assert held is None or not np.shares_memory(s.extremes, held)
        held = s.extremes
        got.append((s.t, s.row.copy(), np.array(s.eta), s.lower, s.upper, s.extremes.copy()))
    assert len(got) == len(want)
    for (t, r, eta, lower, upper, extremes), (t_, r_, eta_, lower_, upper_, extremes_) in zip(got, want):
        assert (t, lower, upper) == (t_, lower_, upper_)
        assert (r.tobytes(), eta.tobytes(), extremes.tobytes()) == (r_.tobytes(), eta_.tobytes(), extremes_.tobytes())
    assert (stream.clip_events, stream.aborted, stream.abort_time) == (clips, aborted, abort_time)
    return stream.aborted


class TestBandStream:
    # the stream decides each step by one band test; the old loop counts
    # every committed row's sides and checks it for nonfinite members
    @settings(max_examples=150, deadline=None)
    @given(case=band_streams())
    def test_streams_match_the_loop_before_the_band_test(self, case):
        assert_stream_matches_the_old_loop(*case)

    # two cases that the property finds only now and then, fixed here: two
    # members, rates about 1e-100 of the state as above
    TINY = 1e-100

    def drain_two(self, f, schedule, row):
        params = ModelParams(lam=self.TINY, d=self.TINY, delta=self.TINY, burst_n=10.0, c=self.TINY, omega=0.0,
                             h_max=0.2, diff=(self.TINY, 0.0, 0.0))
        cfg, grid = SolverConfig(dt=0.1, t_end=0.5), Grid1D(0.0, 1.0, 3)
        return assert_stream_matches_the_old_loop([InitialData()] * 2, params, f, constant_delay(0.2, 0.1), cfg, grid,
                                                  schedule, row)

    def test_an_overflow_to_inf_aborts_without_bounds(self):
        # T* at the largest float (with T = 0, so no f): V grows, and the burst
        # jump makes it +inf, which only the band's finite top catches
        row = np.full((2, 3, 3), 0.5)
        row[1, :2, 0] = 0.0, np.finfo(float).max
        schedule = [ParamJump(0.2, "burst_n", 1e250)]
        assert self.drain_two(IncidenceFn("bilinear", k=self.TINY), schedule, row) == [False, True]

    def test_a_frozen_member_keeps_its_row_once_its_next_would_be_inside(self):
        # member 1 (V = 3) blows up while c = 1e308 and is frozen; after c is
        # back, its next row and member 0's (uninfected) are inside the band
        row = np.zeros((2, 3, 3))
        row[0, 0], row[1, 1], row[1, 2] = 0.5, 0.5, 3.0
        schedule = [ParamJump(0.2, "c", 1e308), ParamJump(0.35, "c", self.TINY)]
        assert self.drain_two(IncidenceFn("saturated", k=self.TINY, k2=1.0), schedule, row) == [False, True]


def direct_counts(r, bounds, tol):
    """Entries of a (*members, 3, nx) row below -tol and above bounds + tol, counted one by one."""
    none = 0 * np.count_nonzero(r, axis=(-2, -1))
    upper = np.count_nonzero(r > np.array(bounds)[:, None] + tol, axis=(-2, -1)) if bounds is not None else none
    return np.count_nonzero(r < -tol, axis=(-2, -1)).tolist(), upper.tolist()


def assert_guard_is_direct(plan, r, bounds, tol):
    """The plan's one-comparison guard against the direct count: it passes
    exactly the rows with every entry finite and none outside the band, and
    its extremes are the row's.  Returns whether it passed."""
    extremes, passed = plan.guard(r)
    assert extremes.tobytes() == _extremes_ref(r).tobytes()
    zero = np.zeros(r.shape[:-2], dtype=int).tolist()
    assert passed == (np.isfinite(r).all() and direct_counts(r, bounds, tol) == (zero, zero))
    return passed


class TestBoxPass:
    @settings(max_examples=100)
    @given(case=box_rows(), again=box_rows(), data=st.data())
    def test_flags_and_counts_match_the_direct_forms(self, case, again, data):
        row, bounds, tol = case
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=0.5, diff=(1e-3, 0.0, 2e-3))
        f, grid = IncidenceFn("saturated", k=0.1, k2=0.1), Grid1D(0.0, 1.0, row.shape[-1])
        plan = _StepPlan(row.shape, f, grid)
        assert not plan.guard(row)[1]  # no band yet: the guard passes nothing
        plan.set_band(bounds, tol)
        bounded = bounds is not None
        assert _violations(row, _extremes_ref(row), plan.band, bounded) == direct_counts(row, bounds, tol)
        assert_guard_is_direct(plan, row, bounds, tol)
        # a jump's new band is tested by the next guard of both buffers
        _, jump_bounds, jump_tol = again
        plan.set_band(jump_bounds, jump_tol)
        for _ in range(2):
            assert_guard_is_direct(plan, row, jump_bounds, jump_tol)
        plan.set_band(bounds, tol)
        # one step from a segment that holds the row at every time: a member
        # keeps it when frozen or when its new row is not finite; with the
        # plan's band and no member frozen, a row inside it is committed at once
        members = row.shape[:-2]
        frozen = np.array(data.draw(st.lists(st.booleans(), min_size=members[0], max_size=members[0]))) if members else None
        seg, banded = (segment_from_profile(0.5, 0.1, 0.0, lambda t: row) for _ in range(2))
        with np.errstate(all="ignore"):
            new = row + 0.1 * rhs_ref(row, row, params, f, grid)
        cfg = SolverConfig(dt=0.1, t_end=1.0, invariance_tol=tol)
        _, _, finite, extremes = step(seg, params, f, constant_delay(0.5, 0.2), cfg, grid, frozen=frozen)
        _, _, fast, fast_extremes = step(banded, params, f, constant_delay(0.5, 0.2), cfg, grid, frozen=frozen, plan=plan)
        assert np.array_equal(finite, np.isfinite(new).all(axis=(-2, -1)))
        checker = _StepPlan(row.shape, f, grid)
        checker.set_band(bounds, tol)
        inside = assert_guard_is_direct(checker, new, bounds, tol)
        assert fast is True if frozen is None and inside else np.array_equal(fast, finite)
        assert banded.t_now == seg.t_now and banded.fields[-1].tobytes() == seg.fields[-1].tobytes()
        assert fast_extremes.tobytes() == extremes.tobytes()
        keep = ~finite if frozen is None else ~finite | frozen
        if keep.all():
            assert seg.t_now == 0.0  # nothing committed
            return
        committed = np.where(keep[..., None, None], row, new)
        assert seg.t_now == pytest.approx(0.1) and seg.fields[-1].tobytes() == committed.tobytes()
        assert np.array_equal(extremes, np.array((committed.min(axis=-1), committed.max(axis=-1))), equal_nan=True)
        assert _violations(seg.fields[-1], extremes, plan.band, bounded) == direct_counts(committed, bounds, tol)


class TestStep:
    def test_equilibrium_is_fixed_point(self, ref_params, saturated, grid3, sat_equilibrium):
        df = constant_delay(1.0, 0.4)
        cfg = SolverConfig(dt=0.01, t_end=1.0)
        eq_state = eq_row(grid3, sat_equilibrium)
        seg = build_initial_segment(
            InitialData(preset="equilibrium_perturbation", epsilon=0.0, equilibrium=sat_equilibrium),
            grid3,
            1.0,
            0.01,
        )
        for _ in range(20):
            eta, clipped, finite, _ = step(seg, ref_params, saturated, df, cfg, grid3)
            assert finite and clipped == 0 and eta == 0.4
            assert max_state_dev(seg.fields[-1], eq_state) <= 1e-10

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
        assert np.all(seg.fields[-1, 0] >= 0.0)

    def test_delayed_row_is_read_after_the_store_slides(self, ref_params, saturated, grid3):
        # the store is full with rows -0.3..0.35 (one step shortened), so the
        # next step's row slides the five live rows over the old slots; the
        # lag 0.25 lands on the stored row at t = 0.1
        def state(t):
            return uniform_row(grid3, (10.0 + 10.0 * t, 2.0 + 10.0 * t, 5.0 + 10.0 * t))

        seg = segment_from_profile(0.3, 0.1, 0.0, state)
        for t in (0.1, 0.15, 0.25, 0.35):
            push_state(seg, t, state(t))
        assert (seg._rows.n, len(seg._rows.times), seg._lo) == (8, 8, 3)
        now, lagged = seg.fields[-1].copy(), state(0.1)
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
            T, T_star, V = traj.fields[k]
            r = ref[10 * k]
            err = max(err, abs(T[0] - r[0]), abs(T_star[0] - r[1]), abs(V[0] - r[2]))
        assert err <= 20.0 * dt

    @pytest.mark.parametrize(
        "lag, profile, jump",
        [
            (0.4, "constant_in_time", None),
            (0.41, "constant_in_time", None),  # off the dt grid
            (0.4, "linear_ramp", None),  # Lipschitz, not C1, history
            (0.4, "constant_in_time", ParamJump(1.013, "burst_n", 5.0)),  # a jump off the dt grid
            ("integral", "constant_in_time", None),
            ("integral", "linear_ramp", None),
            ("integral", "constant_in_time", ParamJump(1.013, "burst_n", 5.0)),
        ],
    )
    def test_first_order_under_dt_halving(self, ref_params, saturated, grid3, sat_equilibrium, lag, profile, jump):
        # the paper's setting: Lipschitz-in-time data, and drug jumps; the
        # integral lag's xi_scale puts its eta near 0.42 at the equilibrium
        if lag == "integral":
            df = integral_delay(1.0, state_mean_reducer(grid3, "V", 0.0232))
        else:
            df = constant_delay(1.0, lag)
        eps = 0.05 * equilibrium_norm(sat_equilibrium)
        initial = InitialData("equilibrium_perturbation", epsilon=eps, equilibrium=sat_equilibrium, profile=profile)
        schedule = [jump] if jump else []
        finals = [
            run(initial, ref_params, saturated, df, SolverConfig(dt=dt, t_end=2.0), grid3, schedule).fields[-1]
            for dt in (0.04, 0.02, 0.01, 0.005)
        ]
        diffs = [max_state_dev(a, b) for a, b in zip(finals, finals[1:])]
        ratios = [diffs[0] / diffs[1], diffs[1] / diffs[2]]
        assert all(1.6 <= r <= 2.6 for r in ratios), ratios  # Richardson ratios of a first-order scheme

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


LEVEL = st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3)


@st.composite
def initial_data(draw, equilibrium):
    """One ``InitialData`` of any preset and profile; the equilibrium preset
    always has one, the others have one when drawn."""
    preset = draw(st.sampled_from(["uniform", "gaussian_bump", "equilibrium_perturbation"]))
    if preset != "equilibrium_perturbation" and draw(st.booleans()):
        equilibrium = None
    triple = st.tuples(LEVEL, LEVEL, LEVEL)
    return InitialData(
        preset=preset,
        values=draw(triple),
        bump_amp=draw(triple),
        bump_center=draw(st.none() | st.floats(-1.0, 2.0)),
        bump_width=draw(st.none() | st.floats(1e-3, 2.0)),
        epsilon=draw(st.floats(-10.0, 10.0)),
        direction=draw(st.sampled_from(["constant", "gaussian_bump"])),
        weights=draw(st.none() | st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda w: max(map(abs, w)) > 1e-3)),
        equilibrium=equilibrium,
        profile=draw(st.sampled_from(["constant_in_time", "linear_ramp"])),
        ramp_depth=draw(st.floats(0.0, 0.99)),
    )


@st.composite
def initial_cases(draw):
    """(initial, grid, h_max, dt): one ``InitialData`` or a list of 1 to 6,
    with a dt that divides h_max or, mostly, does not; at (0.9, 0.3) the
    rounded m * dt falls one ulp short of h_max, so the m rule adds a row."""
    level = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 1e3)
    eq = Equilibrium(draw(level), draw(level), draw(level), "interior", 0.0)
    if draw(st.booleans()):
        initial = draw(initial_data(eq))
    else:
        initial = draw(st.lists(initial_data(eq), min_size=1, max_size=6))
    x_min = draw(st.floats(-1.0, 1.0))
    grid = Grid1D(x_min, x_min + draw(st.floats(0.1, 3.0)), draw(st.integers(3, 12)))
    steps = st.sampled_from([(1.0, 0.01), (1.0, 0.03), (0.5, 0.1), (1.0, 0.3), (0.9, 0.3)])
    h_max, dt = draw(steps | st.tuples(st.floats(0.05, 2.0), st.floats(0.01, 0.5)))
    return initial, grid, h_max, dt


class TestInitialData:
    def test_uniform_profile(self, grid3):
        seg = build_initial_segment(InitialData(preset="uniform", values=(1.0, 2.0, 3.0)), grid3, 1.0, 0.1)
        assert seg.t_now == 0.0
        assert seg.covers()
        assert np.all(seg.fields[-1, 2] == 3.0)
        assert np.all(seg.fields[0, 2] == 3.0)

    def test_gaussian_bump_shape(self):
        grid = Grid1D(0.0, 1.0, 101)
        initial = InitialData(
            preset="gaussian_bump", values=(10.0, 0.0, 0.0), bump_amp=(5.0, 0.0, 0.0), bump_center=0.5, bump_width=0.1
        )
        seg = build_initial_segment(initial, grid, 1.0, 0.1)
        assert seg.fields[-1, 0, 50] == pytest.approx(15.0, abs=1e-9)
        assert seg.fields[-1, 0, 0] == pytest.approx(10.0, abs=1e-6)

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
            max_state_dev(seg.fields[i + 1], seg.fields[i]) / (seg.times[i + 1] - seg.times[i])
            for i in range(len(seg) - 1)
        ]
        assert max(quotients) <= eps / 1.0 * 1.01  # ramp slope = |u0 - eq| / h
        assert max_state_dev(seg.fields[0], eq_row(grid3, sat_equilibrium)) <= 1e-12

    def test_perturbation_requires_equilibrium_at_build_time(self, grid3):
        bare = InitialData(preset="equilibrium_perturbation", epsilon=0.1)
        with pytest.raises(ValueError, match="equilibrium"):
            build_initial_segment(bare, grid3, 1.0, 0.1)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"values": (math.nan, 10.0, 10.0)}, "values[0]: must be finite, got nan"),
            ({"values": (50.0, 10.0, math.inf)}, "values[2]: must be finite, got inf"),
            ({"bump_amp": (5.0, -math.inf, 1.0)}, "bump_amp[1]: must be finite, got -inf"),
            ({"bump_center": math.inf}, "bump_center: must be finite, got inf"),
            ({"bump_width": 0.0}, "bump_width: must be positive and finite, got 0.0"),
            ({"bump_width": -0.1}, "bump_width: must be positive and finite, got -0.1"),
            ({"bump_width": math.nan}, "bump_width: must be positive and finite, got nan"),
            ({"epsilon": math.nan}, "epsilon: must be finite, got nan"),
            ({"weights": (1.0, math.nan, 0.0)}, "weights[1]: must be finite, got nan"),
            ({"weights": (0.0, 0.0, 0.0)}, "weights: must not all be zero, got (0.0, 0.0, 0.0)"),
        ],
    )
    def test_nonfinite_data_rejected(self, kwargs, message):
        # weights (0, 0, 0) built an all-NaN segment; the others aborted the run at t = 0
        with pytest.raises(ValueError) as info:
            InitialData(preset="equilibrium_perturbation", **kwargs)
        assert str(info.value) == message

    @settings(max_examples=200)
    @given(case=initial_cases())
    def test_segment_matches_the_per_time_oracle_bit_for_bit(self, case):
        initial, grid, h_max, dt = case
        seg = build_initial_segment(initial, grid, h_max, dt)
        times, fields = initial_segment_ref(initial, grid, h_max, dt)
        assert seg.times.tobytes() == times.tobytes()
        assert seg.fields.shape == fields.shape and seg.fields.tobytes() == fields.tobytes()


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
        assert np.array_equal(seg.fields[-1, 2], jump_run.fields[k, 2])


class TestRunStream:
    def test_no_members_is_an_error(self, ref_params, saturated):
        with pytest.raises(ValueError, match="RunStream: no members"):
            RunStream([], ref_params, saturated, constant_delay(1.0, 0.4), SolverConfig(dt=0.01, t_end=1.0), Grid1D(0, 1, 5))

    @pytest.mark.parametrize("members", [None, 3])
    def test_a_constant_lag_is_built_once_per_stream(self, monkeypatch, ref_params, saturated, members):
        # counted through sddlab.solver's binding, the one the benchmark's tracer wraps
        calls = []

        def counting(df, seg):
            calls.append(seg.t_now)
            return evaluate_eta(df, seg)

        monkeypatch.setattr("sddlab.solver.evaluate_eta", counting)
        initial = InitialData() if members is None else [InitialData()] * members
        cfg, grid = SolverConfig(dt=0.01, t_end=0.5), Grid1D(0.0, 1.0, 5)
        etas = [s.eta for s in RunStream(initial, ref_params, saturated, constant_delay(1.0, 0.4), cfg, grid)]
        assert len(etas) == 51 and len(calls) <= 2  # the compatibility residual's and the stream's
        for eta in etas:
            if members is None:
                assert type(eta) is float and eta == 0.4
                continue
            assert eta.shape == (members,) and (eta == 0.4).all()
            with pytest.raises(ValueError, match="read-only"):
                eta[0] = 0.5

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

    @pytest.mark.parametrize("profile", ["constant_in_time", "linear_ramp"])
    @pytest.mark.parametrize("eta, window", [(0.0, 2), (0.1, 11), (0.105, 12), (0.2, 21)])
    @pytest.mark.parametrize("members", [None, 3])
    def test_a_constant_lag_keeps_rows_back_to_eta_and_matches_a_full_window(self, saturated, members, eta, window, profile):
        # the store starts with the newest rows of the [-h, 0] segment that reach -eta
        # (at least two) and stays within twice those; every sample has the bits of the
        # same stream drained from the whole [-h, 0] segment, across one shortened step
        h, dt = 0.2, 0.01
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=h)
        grid = Grid1D(0.0, 1.0, 5)
        df, cfg = constant_delay(h, eta), SolverConfig(dt=dt, t_end=2.0)
        each = [InitialData(preset="gaussian_bump", values=(50.0 + m, 10.0, 10.0 - m), profile=profile)
                for m in range(members or 1)]
        initial = each if members else each[0]
        schedule = [ParamJump(0.505, "burst_n", 5.0)]
        stream, ref = (RunStream(initial, params, saturated, df, cfg, grid, schedule) for _ in range(2))
        full = ref.history = build_initial_segment(initial, grid, h, dt)
        seg = stream.history
        assert (len(seg), len(full), seg.h_max, seg.reach) == (window, 21, h, eta)
        assert seg.times.tobytes() == full.times[-window:].tobytes()
        assert seg.fields.tobytes() == full.fields[-window:].tobytes()
        want, *_ = stream_box_ref(ref, params, saturated, df, cfg, grid)
        got, capacity = [], []
        for s in stream:
            capacity.append(len(seg._rows.times))
            got.append((s.t, s.row.tobytes(), np.array(s.eta).tobytes(), s.lower, s.upper))
        assert got == [(t, row.tobytes(), e.tobytes(), lower, upper) for t, row, e, lower, upper, _ in want]
        assert len(got) == 202 and max(capacity) <= 2 * window + 2

    @pytest.mark.parametrize("kind", ["integral", "wrapped"])
    def test_a_state_dependent_lag_keeps_h_max_of_rows(self, saturated, kind):
        h, dt = 0.2, 0.01
        grid = Grid1D(0.0, 1.0, 5)
        params = ModelParams(lam=10.0, d=0.1, delta=0.5, burst_n=10.0, c=5.0, omega=0.0, h_max=h)
        df = (integral_delay if kind == "integral" else wrapped_delay)(h, state_mean_reducer(grid, "V", 0.03))
        seg = RunStream(InitialData(), params, saturated, df, SolverConfig(dt=dt, t_end=1.0), grid).history
        assert (len(seg), seg.reach) == (21, h)  # h/dt + 1
