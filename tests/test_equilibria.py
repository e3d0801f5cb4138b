import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sddlab import (
    IncidenceFn,
    ModelParams,
    assemble_equilibrium,
    equilibrium_norm,
    find_equilibria,
    find_interior_roots,
    h_f,
    s_max,
    trivial_equilibrium,
)

from .oracles import dense_scan_roots


def bilinear_root(params, k):
    """Closed form for the bilinear interior root."""
    return params.lam * math.exp(-params.omega * params.h_max) / params.delta - (
        params.c * params.d / (k * params.burst_n * params.delta)
    )


class TestHf:
    @pytest.mark.parametrize(
        "f",
        [
            IncidenceFn("bilinear", k=0.1),
            IncidenceFn("saturated", k=0.1, k2=0.1),
            IncidenceFn("crowley_martin", k=1.0, k1=1.0, k2=1.0),
        ],
    )
    def test_trivial_root_at_zero(self, ref_params, f):
        assert h_f(ref_params, f, 0.0) == 0.0

    def test_bilinear_closed_form_root(self, ref_params, bilinear):
        assert bilinear_root(ref_params, 0.1) == pytest.approx(19.0)
        assert abs(h_f(ref_params, bilinear, 19.0)) <= 1e-12

    def test_bracket_end_value(self, ref_params, bilinear):
        # s = 20 is the bracket end: T argument hits 0, so h_f = -delta*s
        assert s_max(ref_params) == pytest.approx(20.0)
        assert h_f(ref_params, bilinear, 20.0) == pytest.approx(-10.0)

    def test_outside_bracket_rejected(self, ref_params, bilinear):
        with pytest.raises(ValueError):
            h_f(ref_params, bilinear, 20.5)
        with pytest.raises(ValueError):
            h_f(ref_params, bilinear, -0.1)

    def test_positive_omega_shrinks_bracket(self, bilinear):
        p = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.1, h_max=1.0)
        assert s_max(p) == pytest.approx(20.0 * math.exp(-0.1))
        # the T argument stays nonnegative across the whole bracket
        assert np.isfinite(h_f(p, bilinear, s_max(p)))


class TestRootFinder:
    def test_bilinear_reference_root(self, ref_params, bilinear):
        roots = find_interior_roots(ref_params, bilinear)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(19.0, abs=1e-8)

    def test_weak_incidence_no_root(self, ref_params):
        roots = find_interior_roots(ref_params, IncidenceFn("bilinear", k=1e-4))
        assert roots == []

    def test_positive_omega_root_matches_closed_form(self):
        p = ModelParams(lam=10, d=0.1, delta=0.5, burst_n=10, c=5, omega=0.1, h_max=1.0)
        f = IncidenceFn("bilinear", k=0.1)
        roots = find_interior_roots(p, f)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(bilinear_root(p, 0.1), abs=1e-8)

    def test_saturated_matches_dense_scan_oracle(self, ref_params):
        f = IncidenceFn("saturated", k=0.1, k2=0.01)
        roots = find_interior_roots(ref_params, f)
        hi = s_max(ref_params)
        oracle = dense_scan_roots(lambda s: h_f(ref_params, f, s), 1e-9 * hi, hi, n=1_000_000)
        assert len(roots) == len(oracle) == 1
        assert roots[0] == pytest.approx(oracle[0], abs=1e-9)


class TestAssembly:
    def test_bilinear_reference_triple(self, ref_params, bilinear):
        eq = assemble_equilibrium(ref_params, bilinear, 19.0)
        assert (eq.T_hat, eq.T_star_hat, eq.V_hat) == pytest.approx((5.0, 19.0, 19.0))
        assert eq.residual <= 1e-10
        assert eq.kind == "interior"
        assert not eq.degenerate

    def test_trivial_always_exists_exactly(self, ref_params, bilinear):
        eq = trivial_equilibrium(ref_params, bilinear)
        assert (eq.T_hat, eq.T_star_hat, eq.V_hat) == (100.0, 0.0, 0.0)
        assert eq.residual == 0.0

    def test_bad_root_rejected_with_diagnostic(self, ref_params, bilinear):
        with pytest.raises(ValueError, match="residual"):
            assemble_equilibrium(ref_params, bilinear, 10.0)

    def test_bracket_end_flagged_degenerate(self, ref_params, bilinear):
        # h_f cannot vanish at the bracket end for an incidence with
        # f(0, .) = 0; with lam = 1e-9 the bracket end leaves a stationary
        # residual of about 1e-9, under the gate of 1e-8
        params = replace(ref_params, lam=1e-9)
        eq = assemble_equilibrium(params, bilinear, s_max(params))
        assert eq.T_hat == 0.0
        assert eq.degenerate
        assert 0.0 < eq.residual <= 1e-8

    def test_find_equilibria_order(self, ref_params, bilinear):
        eqs = find_equilibria(ref_params, bilinear)
        assert [e.kind for e in eqs] == ["trivial", "interior"]

    def test_equilibrium_norm(self, ref_params, bilinear):
        eq = find_equilibria(ref_params, bilinear)[1]
        assert equilibrium_norm(eq) == pytest.approx(math.sqrt(25 + 361 + 361), rel=1e-6)


@given(
    lam=st.floats(1.0, 100.0),
    d=st.floats(0.01, 1.0),
    delta=st.floats(0.1, 2.0),
    burst_n=st.floats(1.0, 50.0),
    c=st.floats(0.5, 20.0),
)
def test_every_detected_equilibrium_satisfies_stationarity(lam, d, delta, burst_n, c):
    params = ModelParams(lam=lam, d=d, delta=delta, burst_n=burst_n, c=c, omega=0.0, h_max=1.0)
    f = IncidenceFn("saturated", k=0.1, k2=0.1)
    for eq in find_equilibria(params, f):
        assert eq.residual <= 1e-8
        assert min(eq.T_hat, eq.T_star_hat, eq.V_hat) >= 0.0
