"""Energy bookkeeping: J, E, K, Z, dissipation rate, identity residual."""
import math

import numpy as np
import pytest

import kwlab.functionals as F
import kwlab.geometry as G
from kwlab.functionals import (
    REPORT_COLUMNS,
    LyapunovConfig,
    State,
    default_k,
    dissipation_rate,
    energy_E,
    energy_identity_residual,
    lyapunov_Z,
    make_report,
    potential_J,
)
from kwlab.geometry import build_annulus
from kwlab.model import ModelParams
from kwlab.solver import _crossing, negative_energy_data


@pytest.fixture(scope="module")
def mesh():
    return build_annulus(1.0, 2.0, 129, 128)


@pytest.fixture(scope="module")
def small_mesh():
    return build_annulus(1.0, 2.0, 33, 32)


def ramp_state(mesh, scale=1.0):
    u = scale * (mesh.r - 1.0)[:, None] * np.ones((1, mesh.n_theta))
    return State(u=u, v=np.zeros_like(u), t=0.0)


# ---------------------------------------------------------------------------
# potential J


def test_J_zero_state(mesh):
    st = State(u=np.zeros((129, 128)), v=np.zeros((129, 128)))
    assert potential_J(mesh, st, ModelParams(gamma=1.0, p=4)) == 0.0


def test_J_ramp_interior(mesh):
    # (1/4) int (r-1)^4 dx = (1/4) * 2pi * (1/5 + 1/6) = 11 pi / 60;
    # trapezoid error measured 1.2e-4 relative on the 129x128 grid
    st = ramp_state(mesh)
    val = potential_J(mesh, st, ModelParams(gamma=1.0, p=4))
    assert val == pytest.approx(11.0 * math.pi / 60.0, rel=2e-4)


def test_J_boundary_constant_trace(mesh):
    c = 1.7
    u = np.full((129, 128), c)
    st = State(u=u, v=np.zeros_like(u))
    val = potential_J(mesh, st, ModelParams(gamma=0.0, delta=1.0, q=2))
    assert val == pytest.approx(0.5 * c * c * 4.0 * math.pi, rel=1e-12)


def test_J_weights_scale_linearly(small_mesh):
    st = ramp_state(small_mesh)
    one = potential_J(small_mesh, st, ModelParams(gamma=1.0, p=4))
    three = potential_J(small_mesh, st, ModelParams(gamma=3.0, p=4))
    assert three == pytest.approx(3.0 * one, rel=1e-14)


# ---------------------------------------------------------------------------
# energy E and K


def test_E_zero_state(small_mesh):
    st = State(u=np.zeros((33, 32)), v=np.zeros((33, 32)))
    assert energy_E(small_mesh, st, ModelParams()) == 0.0


def test_E_pure_kinetic(small_mesh):
    c = 0.8
    v = np.full((33, 32), c)
    st = State(u=np.zeros_like(v), v=v)
    # (1/2) c^2 (|annulus| + |circle|) = (1/2) c^2 (3pi + 4pi)
    want = 0.5 * c * c * 7.0 * math.pi
    assert energy_E(small_mesh, st, ModelParams()) == pytest.approx(want, rel=1e-12)


def test_E_scaling_quadratic_quartic(small_mesh):
    """E(lam*phi) = lam^2 A - lam^4 B with A, B measured on the mesh."""
    par = ModelParams(gamma=1.0, p=4)
    phi = ramp_state(small_mesh)
    a_quad = energy_E(small_mesh, phi, ModelParams(gamma=0.0))
    b_src = potential_J(small_mesh, phi, par)
    for lam in (0.5, 1.0, 2.0, 3.7):
        st = ramp_state(small_mesh, scale=lam)
        want = lam**2 * a_quad - lam**4 * b_src
        assert energy_E(small_mesh, st, par) == pytest.approx(want, rel=1e-12)
    # sign change past the balance point
    lam_star = math.sqrt(a_quad / b_src)
    assert energy_E(small_mesh, ramp_state(small_mesh, 1.01 * lam_star), par) < 0.0
    assert energy_E(small_mesh, ramp_state(small_mesh, 0.99 * lam_star), par) > 0.0


def test_K_is_negated_E(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = ramp_state(small_mesh, scale=2.0)
    assert F.K(small_mesh, st, par) == -energy_E(small_mesh, st, par)


# ---------------------------------------------------------------------------
# Lyapunov functional


def test_Z_margin_one_is_one(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    z = lyapunov_Z(small_mesh, st, par, LyapunovConfig(k=0.25))
    assert z == pytest.approx(1.0, abs=1e-9)


def test_Z_power_evaluation(small_mesh):
    # K = 4, k = 1/4, v = 0 -> Z = 4^(3/4) = 2*sqrt(2)
    par = ModelParams(gamma=1.0, p=4)
    st = negative_energy_data(small_mesh, par, "ramp", margin=4.0)
    z = lyapunov_Z(small_mesh, st, par, LyapunovConfig(k=0.25))
    assert z == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_Z_includes_pairing(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    st.v[:] = 0.01 * st.u  # small enough that the kinetic term keeps E < 0
    z = lyapunov_Z(small_mesh, st, par, LyapunovConfig(k=0.25, omega=2.0))
    k_val = F.K(small_mesh, st, par)
    pairing = G.integrate_interior(small_mesh, st.v * st.u) + G.integrate_boundary(
        small_mesh, st.v[-1] * st.u[-1]
    )
    assert k_val > 0.0
    assert z == pytest.approx(k_val**0.75 + 2.0 * pairing, rel=1e-12)


def test_Z_requires_negative_energy(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = ramp_state(small_mesh, scale=0.1)  # small data, E > 0
    with pytest.raises(ValueError, match="energy not negative"):
        lyapunov_Z(small_mesh, st, par, LyapunovConfig(k=0.25))


@pytest.mark.parametrize("k", [0.0, 0.5, 0.7, -0.1])
def test_lyapunov_config_k_range(k):
    with pytest.raises(ValueError, match="k must lie"):
        LyapunovConfig(k=k)


# ---------------------------------------------------------------------------
# default exponent


def test_default_k_all_terms():
    par = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0,
                      m=2, mu=2, p=4, q=4)
    cfg = default_k(par)
    assert cfg.k == 0.25
    assert cfg.omega == 1.0
    assert cfg.k_bar == 0.25


def test_default_k_interior_pair_only():
    cfg = default_k(ModelParams(alpha=1.0, gamma=1.0, m=2, p=3))
    assert cfg.k == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert cfg.k_bar == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_default_k_no_damping_has_no_ceiling():
    cfg = default_k(ModelParams(gamma=1.0, p=4))
    assert cfg.k == 0.25
    assert cfg.k_bar is None


def test_default_k_degenerate():
    with pytest.raises(ValueError, match="no admissible Lyapunov exponent"):
        default_k(ModelParams(gamma=1.0, delta=1.0, p=2, q=2))
    with pytest.raises(ValueError, match="no source"):
        default_k(ModelParams(alpha=1.0, m=2))


def test_default_k_boundary_damping_uses_interior_p():
    # the boundary-damping candidate pairs 1/mu with 1/p
    cfg = default_k(ModelParams(beta=1.0, gamma=1.0, mu=3, p=4))
    assert cfg.k == pytest.approx(1.0 / 3.0 - 1.0 / 4.0, abs=1e-15)


# ---------------------------------------------------------------------------
# dissipation rate


def test_dissipation_constant_field_linear(small_mesh):
    c = 1.3
    st = State(u=np.zeros((33, 32)), v=np.full((33, 32), c))
    par = ModelParams(alpha=1.0, a=0.0, m=2, beta=0.0)
    assert dissipation_rate(small_mesh, st, par) == pytest.approx(
        c * c * 3.0 * math.pi, rel=1e-12
    )


def test_dissipation_constant_field_quartic(small_mesh):
    c = 1.3
    st = State(u=np.zeros((33, 32)), v=np.full((33, 32), c))
    par = ModelParams(alpha=1.0, a=0.0, m=4, beta=0.0)
    assert dissipation_rate(small_mesh, st, par) == pytest.approx(
        c**4 * 3.0 * math.pi, rel=1e-12
    )


def test_dissipation_boundary_only(small_mesh):
    c = -0.9
    st = State(u=np.zeros((33, 32)), v=np.full((33, 32), c))
    par = ModelParams(alpha=0.0, beta=1.0, b=0.0, mu=3)
    assert dissipation_rate(small_mesh, st, par) == pytest.approx(
        abs(c) ** 3 * 4.0 * math.pi, rel=1e-12
    )


def test_dissipation_sign_random(small_mesh):
    rng = np.random.default_rng(3)
    par = ModelParams(alpha=0.8, a=0.5, m=3, m_tilde=1.5,
                      beta=0.6, b=0.2, mu=2.5)
    for _ in range(20):
        v = rng.standard_normal((33, 32)) * 10.0 ** rng.integers(-3, 3)
        st = State(u=np.zeros_like(v), v=v)
        assert dissipation_rate(small_mesh, st, par) >= 0.0


def test_dissipation_zero_velocity(small_mesh):
    st = State(u=np.ones((33, 32)), v=np.zeros((33, 32)))
    par = ModelParams(alpha=1.0, m=3, beta=1.0, mu=3)
    assert dissipation_rate(small_mesh, st, par) == 0.0


def test_stacked_trace_terms_equal_each_cells_own(small_mesh):
    """A stack reads each cell's own free-circle trace: on a 9x8 mesh a stack
    of 9 cells gives each cell's own dissipation rate, and a one-cell stack
    its own Z pairing, bitwise."""
    mesh9 = build_annulus(1.0, 2.0, 9, 8)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((9, 9, 8))
    v = rng.standard_normal((9, 9, 8))
    u[:, 0] = v[:, 0] = 0.0
    par = ModelParams(alpha=0.8, a=0.5, m=3, m_tilde=1.5, beta=0.6, b=0.2, mu=2.5)
    stacked = dissipation_rate(mesh9, State(u=u, v=v), par)
    alone = [dissipation_rate(mesh9, State(u=u[i], v=v[i]), par) for i in range(9)]
    assert stacked.tolist() == alone

    par = ModelParams(gamma=1.0, p=4, beta=1.0, mu=3)
    st = negative_energy_data(small_mesh, par, "ramp")
    st.v = 0.1 * st.u
    lyap = default_k(par)
    one = State(u=st.u[None], v=st.v[None])
    assert make_report(small_mesh, one, par, lyap).Z.tolist() == [
        make_report(small_mesh, st, par, lyap).Z
    ]


# ---------------------------------------------------------------------------
# reports and the identity residual


def test_report_columns_match_dataclass(small_mesh):
    st = ramp_state(small_mesh)
    rep = make_report(small_mesh, st, ModelParams(gamma=1.0, p=4), None)
    for col in REPORT_COLUMNS:
        assert hasattr(rep, col)
    assert rep.t == 0.0
    assert rep.identity_residual == 0.0  # no predecessor


def test_report_consistency(small_mesh):
    par = ModelParams(gamma=1.0, p=4, alpha=1.0, m=2)
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    lyap = default_k(par)
    rep = make_report(small_mesh, st, par, lyap)
    assert rep.E == pytest.approx(-1.0, abs=1e-9)
    assert rep.K == -rep.E
    assert rep.Z == pytest.approx(1.0, abs=1e-9)
    trace_sq = G.integrate_boundary(small_mesh, st.u[-1] ** 2)
    assert rep.phase_norm_sq == pytest.approx(
        rep.kinetic + rep.grad_omega + rep.grad_gamma + trace_sq, rel=1e-14
    )
    # J recomputed from the stored norm columns
    assert rep.J == pytest.approx(
        par.gamma / par.p * rep.lp_interior, rel=1e-14
    )


def test_report_Z_none_when_energy_positive(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = ramp_state(small_mesh, scale=0.1)
    rep = make_report(small_mesh, st, par, LyapunovConfig(k=0.25))
    assert rep.Z is None


def test_residual_stationary_zero(small_mesh):
    par = ModelParams(alpha=1.0, m=3)
    st = State(u=np.zeros((33, 32)), v=np.zeros((33, 32)), t=0.0)
    r0 = make_report(small_mesh, st, par, None)
    st1 = State(u=st.u, v=st.v, t=1.0)
    r1 = make_report(small_mesh, st1, par, None, prev=r0)
    assert r1.identity_residual == 0.0
    assert energy_identity_residual(r0, r1) == 0.0


def test_residual_rejects_time_reversal(small_mesh):
    st = ramp_state(small_mesh)
    par = ModelParams()
    r0 = make_report(small_mesh, State(st.u, st.v, 1.0), par, None)
    r1 = make_report(small_mesh, State(st.u, st.v, 0.5), par, None)
    with pytest.raises(ValueError, match="non-monotone"):
        energy_identity_residual(r0, r1)


@pytest.mark.parametrize(
    "par",
    [
        ModelParams(gamma=1.0, p=4, alpha=1.0, m=3),
        ModelParams(delta=1.0, q=3, beta=1.0, mu=2, p=4),
        ModelParams(gamma=0.7, p=3, delta=1.3, q=4),
    ],
)
def test_report_agrees_exactly_with_functionals_and_monitor(small_mesh, par):
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    st.v[:] = 0.01 * st.u
    lyap = default_k(par)
    rep = make_report(small_mesh, st, par, lyap)
    assert rep.J == potential_J(small_mesh, st, par)
    assert rep.E == energy_E(small_mesh, st, par)
    assert rep.K == F.K(small_mesh, st, par)
    assert rep.Z == lyapunov_Z(small_mesh, st, par, lyap)
    # the blow-up monitor reads the same phase norm and source norms, so at
    # thresholds below, at and above each it gives the verdict the report's
    # columns give
    src = rep.lp_interior + rep.lq_boundary
    phase = math.sqrt(rep.phase_norm_sq)
    for threshold in (0.5 * phase, phase, 2.0 * phase, src, 2.0 * src):
        if not rep.phase_norm_sq < threshold * threshold:
            want = "PhaseNorm"
        elif not src < threshold:
            want = "LpNorm"
        else:
            want = None
        assert _crossing(small_mesh, st, par, threshold) == want
