import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sddlab import Grid1D, integrate, laplacian_neumann
from sddlab.grid import gradient_central, mean_value

from .oracles import green_identity_residual


def test_grid_invariants():
    g = Grid1D(0.0, 1.0, 11)
    assert g.dx == pytest.approx(0.1)
    assert g.length == 1.0
    assert np.allclose(g.nodes(), np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Grid1D(1.0, 1.0, 5)
    for x_min, x_max in ((0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308), (0.0, np.nan), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="x_m"):
            Grid1D(x_min, x_max, 5)


@given(c=st.floats(-1e6, 1e6), nx=st.integers(3, 200))
def test_laplacian_annihilates_constants_exactly(c, nx):
    g = Grid1D(0.0, 2.0, nx)
    lap = laplacian_neumann(g, np.full(nx, c))
    assert np.all(lap == 0.0)


def test_laplacian_cosine_second_order():
    g = Grid1D(0.0, 1.0, 201)
    x = g.nodes()
    u = np.cos(np.pi * x)
    err = np.max(np.abs(laplacian_neumann(g, u) + np.pi**2 * u))
    assert err <= 1e-3


def test_laplacian_linear_field_boundary_artifacts():
    g = Grid1D(0.0, 1.0, 11)
    u = g.nodes().copy()
    lap = laplacian_neumann(g, u)
    assert np.max(np.abs(lap[1:-1])) <= 1e-10  # zero up to node rounding
    assert abs(lap[0]) > 1.0 and abs(lap[-1]) > 1.0  # x violates no-flux


def test_integrate_unit_constant():
    g = Grid1D(0.0, 1.0, 7)
    assert integrate(g, np.ones(7)) == pytest.approx(1.0, abs=1e-15)


@given(nx=st.integers(3, 300))
def test_integrate_exact_on_affine(nx):
    g = Grid1D(0.0, 1.0, nx)
    assert integrate(g, g.nodes()) == pytest.approx(0.5, abs=1e-12)


def test_integrate_cosine_small():
    g = Grid1D(0.0, 1.0, 201)
    assert abs(integrate(g, np.cos(np.pi * g.nodes()))) <= 1e-4


def test_mean_value():
    g = Grid1D(0.0, 2.0, 21)
    assert mean_value(g, np.full(21, 3.0)) == pytest.approx(3.0)


@given(
    vals=st.lists(st.floats(-10, 10), min_size=3, max_size=60),
    span=st.floats(0.1, 5.0),
)
def test_summation_by_parts_negative_semidefinite(vals, span):
    u = np.asarray(vals)
    g = Grid1D(0.0, span, u.size)
    quad = integrate(g, u * laplacian_neumann(g, u))
    tol = 1e-8 * (1.0 + float(np.max(np.abs(u))) ** 2) / g.dx
    assert quad <= tol


def test_summation_by_parts_strict_for_nonconstant():
    g = Grid1D(0.0, 1.0, 31)
    u = np.sin(2 * np.pi * g.nodes())
    assert integrate(g, u * laplacian_neumann(g, u)) < -1.0


def test_green_identity_cosine():
    g = Grid1D(0.0, 1.0, 201)
    u = np.cos(np.pi * g.nodes())
    res = green_identity_residual(g, u, lambda s: s, lambda s: np.ones_like(s))
    assert res <= 1e-3
    lhs = integrate(g, u * laplacian_neumann(g, u))
    assert lhs == pytest.approx(-np.pi**2 / 2.0, abs=1e-3)


def test_green_identity_constant_field_exact():
    g = Grid1D(0.0, 1.0, 21)
    u = np.full(21, 4.2)
    assert green_identity_residual(g, u, lambda s: s, lambda s: np.ones_like(s)) == 0.0


def test_green_identity_refinement_ratio():
    residuals = []
    for nx in (201, 401, 801):
        g = Grid1D(0.0, 1.0, nx)
        u = np.cos(np.pi * g.nodes())
        residuals.append(green_identity_residual(g, u, lambda s: s, lambda s: np.ones_like(s)))
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    assert 3.0 <= r1 <= 5.0
    assert 3.0 <= r2 <= 5.0


def test_green_identity_incidence_weighted():
    # p(s) = 1 - a / f(s, v_hat) with the saturated closed form; the field is
    # shifted away from zero since 1/f blows up there
    k, k2, v_hat, a = 1.0, 1.0, 1.0, 0.3

    def p(s):
        return 1.0 - a * (1.0 + k2 * v_hat) / (k * s * v_hat)

    def p_prime(s):
        return a * (1.0 + k2 * v_hat) / (k * v_hat * s * s)

    g = Grid1D(0.0, 1.0, 401)
    u = 2.0 + np.cos(np.pi * g.nodes())
    assert green_identity_residual(g, u, p, p_prime) <= 1e-3


def test_green_identity_warns_without_no_flux():
    g = Grid1D(0.0, 1.0, 51)
    u = g.nodes().copy()
    with pytest.warns(RuntimeWarning):
        green_identity_residual(g, u, lambda s: s, lambda s: np.ones_like(s))


def test_gradient_central_exact_on_affine():
    g = Grid1D(0.0, 1.0, 11)
    grad = gradient_central(g, 3.0 * g.nodes() + 1.0)
    assert np.allclose(grad, 3.0, atol=1e-12)
