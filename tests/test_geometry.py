"""Mesh, quadrature, and discrete operator tests.

Tolerances marked "measured" were frozen from convergence runs of the
analytic cases; they sit ~10-30% above the observed error so regressions
surface without the tests being flaky.
"""
import math

import numpy as np
import pytest

from kwlab import geometry as G
from kwlab.geometry import build_annulus


@pytest.fixture(scope="module")
def mesh():
    return build_annulus(1.0, 2.0, 33, 32)


@pytest.fixture(scope="module")
def fine_mesh():
    return build_annulus(1.0, 2.0, 257, 16)


# ---------------------------------------------------------------------------
# construction and preconditions


def test_mesh_spacing(mesh):
    assert mesh.dr == pytest.approx(1.0 / 32)
    assert mesh.dtheta == pytest.approx(2.0 * math.pi / 32)
    assert mesh.r[0] == 1.0 and mesh.r[-1] == 2.0
    assert mesh.r_half.shape == (32,)
    # faces sit midway between nodes
    assert np.allclose(mesh.r_half, 0.5 * (mesh.r[:-1] + mesh.r[1:]))


@pytest.mark.parametrize(
    "args, fragment",
    [
        ((2.0, 1.0, 33, 64), "r_inner"),
        ((0.0, 1.0, 33, 64), "r_inner"),
        ((1.0, 2.0, 2, 64), "n_r"),
        ((1.0, 2.0, 33, 4), "n_theta"),
        ((1.0, math.inf, 33, 64), "r_outer < inf"),
        ((1.0, 2.0, 33.7, 64), "n_r must be an integer"),
        ((1.0, 2.0, 33, math.nan), "n_theta must be an integer"),
    ],
)
def test_bad_mesh_arguments(args, fragment):
    with pytest.raises(ValueError, match=fragment):
        build_annulus(*args)


def test_weight_totals(mesh):
    # trapezoid in r is exact for the linear integrand r, so the annulus
    # area 3*pi comes out at rounding level, not just O(dr^2)
    assert mesh.interior_weights.sum() == pytest.approx(3.0 * math.pi, rel=1e-13)
    assert mesh.boundary_weights.sum() == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_weight_totals_spec_grid():
    m = build_annulus(1.0, 2.0, 33, 64)
    assert m.boundary_weights.sum() == pytest.approx(4.0 * math.pi, rel=1e-13)
    assert m.interior_weights.sum() == pytest.approx(3.0 * math.pi, rel=0.005)


# ---------------------------------------------------------------------------
# quadrature


def test_integrate_zero_and_constant(mesh):
    assert G.integrate_interior(mesh, np.zeros((mesh.n_r, mesh.n_theta))) == 0.0
    assert G.integrate_boundary(mesh, np.zeros(mesh.n_theta)) == 0.0
    m = build_annulus(1.0, 2.0, 129, 128)
    one = np.ones((129, 128))
    assert G.integrate_interior(m, one) == pytest.approx(3.0 * math.pi, rel=1e-3)
    assert G.integrate_boundary(m, np.ones(128)) == pytest.approx(4.0 * math.pi, rel=1e-13)


def test_integrate_inverse_radius():
    # integrand r^-1 * (jacobian r) is constant, trapezoid exact
    m = build_annulus(1.0, 2.0, 129, 128)
    f = (1.0 / m.r)[:, None] * np.ones((1, 128))
    assert G.integrate_interior(m, f) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_integrate_cos_squared(mesh):
    f = np.ones((33, 1)) * np.cos(mesh.theta)[None, :] ** 2
    # angular rectangle rule is exact for cos^2 below Nyquist
    assert G.integrate_interior(mesh, f) == pytest.approx(1.5 * math.pi, rel=1e-12)
    g = np.cos(mesh.theta) ** 2
    assert G.integrate_boundary(mesh, g) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_quadrature_convergence_order():
    exact = 2.0 * math.pi * math.e**2

    def err(n_r):
        m = build_annulus(1.0, 2.0, n_r, 16)
        f = np.exp(m.r)[:, None] * (1.0 + 0.5 * np.cos(m.theta))[None, :]
        return abs(G.integrate_interior(m, f) - exact)

    ratio = err(17) / err(33)
    assert 3.5 <= ratio <= 4.5


@pytest.mark.parametrize("shape", [(32, 32), (33, 31), (33,)])
def test_integrate_shape_errors(mesh, shape):
    with pytest.raises(ValueError):
        G.integrate_interior(mesh, np.zeros(shape))


def test_boundary_shape_error(mesh):
    with pytest.raises(ValueError):
        G.integrate_boundary(mesh, np.zeros(31))


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_zero(mesh):
    out = G.laplacian(mesh, np.zeros((mesh.n_r, mesh.n_theta)))
    assert not out.any()


def test_laplacian_harmonic_log(fine_mesh):
    u = np.log(fine_mesh.r)[:, None] * np.ones((1, fine_mesh.n_theta))
    lap = G.laplacian(fine_mesh, u)
    # measured 2.5e-6 on (1,2,257,16)
    assert np.abs(lap[1:-1]).max() <= 2.7e-6
    assert not lap[0].any() and not lap[-1].any()


def test_laplacian_r2_sin_convergence():
    def err(n_r, n_t):
        m = build_annulus(1.0, 2.0, n_r, n_t)
        u = (m.r**2)[:, None] * np.sin(m.theta)[None, :]
        exact = 3.0 * np.sin(m.theta)[None, :] * np.ones((m.n_r, 1))
        return np.abs(G.laplacian(m, u) - exact)[1:-1].max()

    ratio = err(33, 32) / err(65, 64)
    assert ratio == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# circle operators


def test_beltrami_constant(mesh):
    assert not G.laplace_beltrami(mesh, np.full(32, 3.7)).any()


def test_beltrami_sin():
    m = build_annulus(1.0, 2.0, 33, 64)
    v = np.sin(m.theta)
    # eigenfunction, eigenvalue -1/R^2 = -1/4; measured 2.0e-4 at n_theta=64
    assert np.abs(G.laplace_beltrami(m, v) + 0.25 * v).max() <= 2.2e-4


def test_beltrami_nyquist_mode_no_error():
    # sin(k theta) sampled at n_theta = 2k aliases to zero: accuracy is
    # lost silently, but nothing blows up
    m = build_annulus(1.0, 2.0, 17, 16)
    v = np.sin(8 * m.theta)
    out = G.laplace_beltrami(m, v)
    assert np.all(np.isfinite(out))
    assert np.abs(out).max() <= 1e-12


# ---------------------------------------------------------------------------
# boundary flux


def test_zero_trace(mesh):
    assert not G.boundary_flux(mesh, np.zeros((mesh.n_r, mesh.n_theta))).any()


# ---------------------------------------------------------------------------
# gradients and the discrete Green identity


# np.roll formulas of the operators, written out as the bitwise reference for
# the slice-based kernels
def roll_laplacian(m, u):
    r = m.r[1:-1, None]
    out = np.zeros_like(u)
    flux = m.r_half[:, None] * (u[1:] - u[:-1]) / m.dr
    out[1:-1] = (flux[1:] - flux[:-1]) / (r * m.dr)
    out[1:-1] += (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1))[1:-1] / (
        r * m.dtheta
    ) ** 2
    return out


def roll_laplace_beltrami(m, v):
    return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / (m.r_outer * m.dtheta) ** 2


def roll_gradient_energy(m, u):
    dr, dth = m.dr, m.dtheta
    du_r = (u[1:] - u[:-1]) / dr
    radial = float(np.sum(m.r_half[:, None] * du_r**2) * dr * dth)
    du_th = np.roll(u, -1, axis=1) - u
    angular = float(np.sum(m._angular_form_weights * np.sum(du_th**2, axis=1)))
    dv = np.roll(u[-1], -1) - u[-1]
    circle = float(np.sum(dv**2) / (m.r_outer * dth))
    return radial + angular, circle


@pytest.mark.parametrize("n_r, n_theta", [(17, 16), (33, 32), (9, 9)])
def test_operators_bitwise_equal_roll_formulas(n_r, n_theta):
    m = build_annulus(0.5, 1.0, n_r, n_theta)
    rng = np.random.default_rng(n_r * 100 + n_theta)
    for _ in range(3):
        u = rng.standard_normal((n_r, n_theta)) * rng.uniform(0.1, 10.0)
        lap = G.laplacian(m, u)
        assert np.array_equal(lap, roll_laplacian(m, u))
        assert not lap[0].any() and not lap[-1].any()
        assert np.array_equal(
            G.laplace_beltrami(m, u[-1]), roll_laplace_beltrami(m, u[-1])
        )
        assert G.gradient_energy(m, u) == roll_gradient_energy(m, u)
        w = np.abs(u)
        assert G.integrate_interior(m, w) == float(np.sum(w * m.interior_weights))
        assert G.integrate_boundary(m, w[-1]) == float(np.sum(w[-1] * m.boundary_weights))
    # a stack with a leading cell axis: each slice as if it came alone
    us = rng.standard_normal((3, n_r, n_theta)) * rng.uniform(0.1, 10.0, (3, 1, 1))
    per_cell = {
        "laplacian": G.laplacian(m, us),
        "laplace_beltrami": G.laplace_beltrami(m, us[:, -1]),
        "boundary_flux": G.boundary_flux(m, us),
        "gradient_energy": np.stack(G.gradient_energy(m, us), axis=-1),
        "integrate_interior": G.integrate_interior(m, us),
        "integrate_boundary": G.integrate_boundary(m, us[:, -1]),
    }
    for i, u in enumerate(us):
        alone = {
            "laplacian": G.laplacian(m, u),
            "laplace_beltrami": G.laplace_beltrami(m, u[-1]),
            "boundary_flux": G.boundary_flux(m, u),
            "gradient_energy": G.gradient_energy(m, u),
            "integrate_interior": G.integrate_interior(m, u),
            "integrate_boundary": G.integrate_boundary(m, u[-1]),
        }
        for name, value in alone.items():
            assert np.array_equal(per_cell[name][i], value), name


def test_gradient_energy_ramp(mesh):
    u = (mesh.r - 1.0)[:, None] * np.ones((1, 32))
    d_omega, d_gamma = G.gradient_energy(mesh, u)
    # staggered radial form is a midpoint rule, exact for int r dr = 3/2
    assert d_omega == pytest.approx(3.0 * math.pi, rel=1e-12)
    assert d_gamma == 0.0


def test_green_identity_discrete(mesh):
    """<laplacian(u), w> = -B(u, w) for fields pinned at both circles.

    B is the polarized gradient-energy form; the identity holding at
    rounding level is what makes the time integrator conserve energy.
    """
    rng = np.random.default_rng(7)

    def dirichlet_field():
        f = rng.standard_normal((33, 32))
        f[0] = 0.0
        f[-1] = 0.0
        return f

    def form(u):
        d_omega, _ = G.gradient_energy(mesh, u)
        return d_omega

    for _ in range(5):
        u, w = dirichlet_field(), dirichlet_field()
        lhs = G.integrate_interior(mesh, G.laplacian(mesh, u) * w)
        rhs = -0.25 * (form(u + w) - form(u - w))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_green_identity_symmetric(mesh):
    # <lap u, w> = <lap w, u> on pinned fields (self-adjointness)
    rng = np.random.default_rng(11)
    u = rng.standard_normal((33, 32))
    w = rng.standard_normal((33, 32))
    u[0] = u[-1] = w[0] = w[-1] = 0.0
    lhs = G.integrate_interior(mesh, G.laplacian(mesh, u) * w)
    rhs = G.integrate_interior(mesh, G.laplacian(mesh, w) * u)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_boundary_flux_closes_green_identity(mesh):
    """Green identity with only the inner circle pinned, at rounding level.

    <lap u, w> - oint flux(u) w_b + (dr/2) oint bel(u_b) w_b = -B(u, w),
    where B is the polarized gradient-energy form.  The staggered flux and
    the halved trapezoid row of the angular form are what make this exact
    rather than O(dr); the time integrator's conservation rests on it.
    """
    rng = np.random.default_rng(13)
    for _ in range(3):
        u = rng.standard_normal((33, 32))
        w = rng.standard_normal((33, 32))
        u[0] = w[0] = 0.0

        def form(z):
            return G.gradient_energy(mesh, z)[0]

        lhs = G.integrate_interior(mesh, G.laplacian(mesh, u) * w)
        lhs -= G.integrate_boundary(mesh, G.boundary_flux(mesh, u) * w[-1])
        lhs += 0.5 * mesh.dr * G.integrate_boundary(
            mesh, G.laplace_beltrami(mesh, u[-1]) * w[-1]
        )
        rhs = -0.25 * (form(u + w) - form(u - w))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs), abs(rhs))
