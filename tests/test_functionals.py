"""Energy bookkeeping: J, E, K, Z, dissipation rate, identity residual."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

import kwlab.geometry as G
from kwlab import functionals, model
from kwlab.functionals import (
    REPORT_COLUMNS,
    State,
    default_k,
    dissipation_rate,
    make_report,
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
    assert make_report(mesh, st, ModelParams(gamma=1.0, p=4)).J == 0.0


def test_J_ramp_interior(mesh):
    # (1/4) int (r-1)^4 dx = (1/4) * 2pi * (1/5 + 1/6) = 11 pi / 60;
    # trapezoid error measured 1.2e-4 relative on the 129x128 grid
    st = ramp_state(mesh)
    val = make_report(mesh, st, ModelParams(gamma=1.0, p=4)).J
    assert val == pytest.approx(11.0 * math.pi / 60.0, rel=2e-4)


def test_J_boundary_constant_trace(mesh):
    c = 1.7
    u = np.full((129, 128), c)
    st = State(u=u, v=np.zeros_like(u))
    val = make_report(mesh, st, ModelParams(gamma=0.0, delta=1.0, q=2)).J
    assert val == pytest.approx(0.5 * c * c * 4.0 * math.pi, rel=1e-12)


def test_J_weights_scale_linearly(small_mesh):
    st = ramp_state(small_mesh)
    one = make_report(small_mesh, st, ModelParams(gamma=1.0, p=4)).J
    three = make_report(small_mesh, st, ModelParams(gamma=3.0, p=4)).J
    assert three == pytest.approx(3.0 * one, rel=1e-14)


# ---------------------------------------------------------------------------
# energy E and K


def test_E_zero_state(small_mesh):
    st = State(u=np.zeros((33, 32)), v=np.zeros((33, 32)))
    assert make_report(small_mesh, st, ModelParams()).E == 0.0


def test_E_pure_kinetic(small_mesh):
    c = 0.8
    v = np.full((33, 32), c)
    st = State(u=np.zeros_like(v), v=v)
    # (1/2) c^2 (|annulus| + |circle|) = (1/2) c^2 (3pi + 4pi)
    want = 0.5 * c * c * 7.0 * math.pi
    assert make_report(small_mesh, st, ModelParams()).E == pytest.approx(want, rel=1e-12)


def test_E_scaling_quadratic_quartic(small_mesh):
    """E(lam*phi) = lam^2 A - lam^4 B with A, B measured on the mesh."""
    par = ModelParams(gamma=1.0, p=4)
    phi = ramp_state(small_mesh)
    a_quad = make_report(small_mesh, phi, ModelParams(gamma=0.0)).E
    b_src = make_report(small_mesh, phi, par).J
    for lam in (0.5, 1.0, 2.0, 3.7):
        st = ramp_state(small_mesh, scale=lam)
        want = lam**2 * a_quad - lam**4 * b_src
        assert make_report(small_mesh, st, par).E == pytest.approx(want, rel=1e-12)
    # sign change past the balance point
    lam_star = math.sqrt(a_quad / b_src)
    assert make_report(small_mesh, ramp_state(small_mesh, 1.01 * lam_star), par).E < 0.0
    assert make_report(small_mesh, ramp_state(small_mesh, 0.99 * lam_star), par).E > 0.0


def test_K_is_negated_E(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    rep = make_report(small_mesh, ramp_state(small_mesh, scale=2.0), par)
    assert rep.K == -rep.E


# ---------------------------------------------------------------------------
# Lyapunov functional


def test_Z_margin_one_is_one(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    z = make_report(small_mesh, st, par).Z
    assert z == pytest.approx(1.0, abs=1e-9)


def test_Z_power_evaluation(small_mesh):
    # K = 4, k = default_k = 1/4, v = 0 -> Z = 4^(3/4) = 2*sqrt(2)
    par = ModelParams(gamma=1.0, p=4)
    st = negative_energy_data(small_mesh, par, "ramp", margin=4.0)
    z = make_report(small_mesh, st, par).Z
    assert z == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)


def test_Z_includes_pairing(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    st.v[:] = 0.01 * st.u  # small enough that the kinetic term keeps E < 0
    rep = make_report(small_mesh, st, par)
    pairing = G.integrate_interior(small_mesh, st.v * st.u) + G.integrate_boundary(
        small_mesh, st.v[-1] * st.u[-1]
    )
    assert rep.K > 0.0
    assert rep.Z == pytest.approx(rep.K**0.75 + pairing, rel=1e-12)


def test_Z_requires_negative_energy(small_mesh):
    par = ModelParams(gamma=1.0, p=4)
    st = ramp_state(small_mesh, scale=0.1)  # small data, E > 0
    assert make_report(small_mesh, st, par).Z is None


# ---------------------------------------------------------------------------
# default exponent


def test_default_k_all_terms():
    par = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0,
                      m=2, mu=2, p=4, q=4)
    assert default_k(par) == 0.25


def test_default_k_interior_pair_only():
    k = default_k(ModelParams(alpha=1.0, gamma=1.0, m=2, p=3))
    assert k == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_default_k_no_damping_has_no_ceiling():
    assert default_k(ModelParams(gamma=1.0, p=4)) == 0.25


def test_default_k_degenerate():
    # k = 0 is not admissible, and without a source there is no candidate
    assert default_k(ModelParams(gamma=1.0, delta=1.0, p=2, q=2)) is None
    assert default_k(ModelParams(alpha=1.0, m=2)) is None


def test_default_k_boundary_damping_uses_interior_p():
    # the boundary-damping candidate pairs 1/mu with 1/p
    k = default_k(ModelParams(beta=1.0, gamma=1.0, mu=3, p=4))
    assert k == pytest.approx(1.0 / 3.0 - 1.0 / 4.0, abs=1e-15)


def _random_record(rng):
    """Weights on or off, m and mu in (1, 9], p and q in [2, 12]."""
    on = rng.random(4) < 0.5
    return ModelParams(alpha=float(on[0]), beta=float(on[1]), gamma=float(on[2]),
                       delta=float(on[3]), m=9.0 - 8.0 * rng.random(),
                       mu=9.0 - 8.0 * rng.random(), p=rng.uniform(2.0, 12.0),
                       q=rng.uniform(2.0, 12.0))


def test_default_k_is_none_or_admissible_over_random_records():
    rng = np.random.default_rng(17)
    ks = [default_k(_random_record(rng)) for _ in range(20_000)]
    assert all(k is None or 0.0 < k < 0.5 for k in ks)
    assert any(k is None for k in ks) and any(k is not None for k in ks)


def test_Z_is_defined_exactly_when_K_is_positive_and_k_admissible():
    mesh9 = build_annulus(1.0, 2.0, 9, 8)
    rng = np.random.default_rng(18)
    seen = set()
    for _ in range(300):
        par = _random_record(rng)
        st = ramp_state(mesh9, scale=10.0 ** rng.uniform(-1.0, 1.0))
        st.v = 0.1 * st.u
        rep = make_report(mesh9, st, par)
        k = default_k(par)
        assert (rep.Z is not None) == (rep.K > 0.0 and k is not None)
        if rep.Z is not None:
            pairing = G.integrate_interior(mesh9, st.v * st.u) + G.integrate_boundary(
                mesh9, st.v[-1] * st.u[-1])
            assert rep.Z == rep.K ** (1.0 - k) + pairing
        seen.add((rep.K > 0.0, k is not None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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


def test_stacked_trace_terms_equal_each_cells_own():
    """A stack reads each cell's own free-circle trace: on a 9x8 mesh a stack
    of 9 cells gives each cell's own dissipation rate, bitwise."""
    mesh9 = build_annulus(1.0, 2.0, 9, 8)
    rng = np.random.default_rng(5)
    u = rng.standard_normal((9, 9, 8))
    v = rng.standard_normal((9, 9, 8))
    u[:, 0] = v[:, 0] = 0.0
    par = ModelParams(alpha=0.8, a=0.5, m=3, m_tilde=1.5, beta=0.6, b=0.2, mu=2.5)
    stacked = dissipation_rate(mesh9, State(u=u, v=v), par)
    alone = [dissipation_rate(mesh9, State(u=u[i], v=v[i]), par) for i in range(9)]
    assert stacked.tolist() == alone


# ---------------------------------------------------------------------------
# reports and the identity residual


def test_report_columns_match_dataclass(small_mesh):
    st = ramp_state(small_mesh)
    rep = make_report(small_mesh, st, ModelParams(gamma=1.0, p=4))
    for col in REPORT_COLUMNS:
        assert hasattr(rep, col)
    assert rep.t == 0.0
    assert rep.identity_residual == 0.0  # no predecessor


def test_report_consistency(small_mesh):
    par = ModelParams(gamma=1.0, p=4, alpha=1.0, m=2)
    st = negative_energy_data(small_mesh, par, "ramp", margin=1.0)
    rep = make_report(small_mesh, st, par)
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
    rep = make_report(small_mesh, st, par)
    assert rep.Z is None


def test_residual_stationary_zero(small_mesh):
    par = ModelParams(alpha=1.0, m=3)
    st = State(u=np.zeros((33, 32)), v=np.zeros((33, 32)), t=0.0)
    r0 = make_report(small_mesh, st, par)
    st1 = State(u=st.u, v=st.v, t=1.0)
    r1 = make_report(small_mesh, st1, par, prev=r0)
    assert r1.identity_residual == 0.0


def test_residual_rejects_time_reversal(small_mesh):
    st = ramp_state(small_mesh)
    par = ModelParams()
    r0 = make_report(small_mesh, State(st.u, st.v, 1.0), par)
    with pytest.raises(ValueError, match="non-monotone"):
        make_report(small_mesh, State(st.u, st.v, 0.5), par, prev=r0)


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
    rep = make_report(small_mesh, st, par)
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
        assert _crossing(small_mesh, st, par._plan, threshold) == want


# ---------------------------------------------------------------------------
# the monitor's max-norm bounds


BOUND_MESHES = [build_annulus(1.0, 2.0, 5, 8), build_annulus(0.5, 3.0, 9, 16)]
EXPONENTS = hs.one_of(hs.sampled_from([2.0, 3.0, 4.0]), hs.floats(2.0, 8.0))


@hs.composite
def monitor_field(draw, shape):
    """Random values at a random scale, or a checkerboard +-M, whose every
    grid difference is exactly 2M, so the bound is nearly tight; either may
    hold one entry of 1e200, inf or NaN."""
    scale = 10.0 ** draw(hs.integers(-3, 6))
    if draw(hs.booleans()):
        board = (-1.0) ** np.add.outer(np.arange(shape[-2]), np.arange(shape[-1]))
        field = scale * np.broadcast_to(board, shape).copy()
    else:
        field = scale * draw(arrays(float, shape, elements=hs.floats(-1.0, 1.0)))
    special = draw(hs.sampled_from([None, None, None, 1e200, math.inf, -math.inf, math.nan]))
    if special is not None:
        field[draw(hs.tuples(*(hs.integers(0, n - 1) for n in shape)))] = special
    return field


def exact_monitor(mesh, state, plan, threshold):
    """Each cell's verdict from the exact norms: PhaseNorm, LpNorm or None."""
    phase = functionals._phase_parts(mesh, state)[3]
    lp, lq = functionals._source_norms(mesh, state.u, plan)
    hit = np.where(phase < threshold * threshold,
                   np.where(lp + lq < threshold, None, "LpNorm"), "PhaseNorm")
    return hit.tolist()


@given(data=hs.data())
@settings(max_examples=300, deadline=None)
def test_max_norm_bounds_hold_and_keep_the_monitors_verdict(data):
    mesh = data.draw(hs.sampled_from(BOUND_MESHES))
    n_cells = data.draw(hs.sampled_from([None, 2, 3]))
    records = [ModelParams(gamma=1.0, p=data.draw(EXPONENTS), delta=1.0, q=data.draw(EXPONENTS))
               for _ in range(n_cells or 1)]
    plan = records[0]._plan if n_cells is None else model._Plan(records)
    shape = (mesh.n_r, mesh.n_theta) if n_cells is None else (n_cells, mesh.n_r, mesh.n_theta)
    state = State(data.draw(monitor_field(shape)), data.draw(monitor_field(shape)))
    # outside any errstate: an overflow the bound lets out fails the test
    phase_bound, source_bound = functionals._max_norm_bounds(mesh, state, plan)
    with np.errstate(over="ignore", invalid="ignore"):  # the exact norms of 1e200
        phase = functionals._phase_parts(mesh, state)[3]
        lp, lq = functionals._source_norms(mesh, state.u, plan)
        # a bound that is not finite certifies nothing
        assert np.all((phase_bound >= phase) | ~np.isfinite(phase_bound))
        assert np.all((source_bound >= lp + lq) | ~np.isfinite(source_bound))
        # thresholds on each side of the exact norms and of their bounds
        norms = (np.sqrt(phase), lp + lq, np.sqrt(phase_bound), source_bound, 1e8)
        levels = [x for norm in norms for x in np.ravel(norm) if 0.0 < x < math.inf]
        factors = hs.sampled_from([0.5, 0.999, 1.0, 1.001, 2.0])
        for _ in range(4):
            cells = [data.draw(hs.sampled_from(levels)) * data.draw(factors)
                     for _ in range(n_cells or 1)]
            threshold = cells[0] if n_cells is None else np.array(cells)
            want = exact_monitor(mesh, state, plan, threshold)
            got = _crossing(mesh, state, plan, threshold)
            if n_cells is not None:
                got = [None] * n_cells if got is None else got.tolist()
            assert got == want


def test_max_norm_bound_holds_where_M_squared_underflows():
    """M_u^2 rounds to 0 here while the exact phase norm is the least
    subnormal, 5e-324: the bound must still hold and the monitor, at a
    threshold whose square is that norm, must still say PhaseNorm."""
    mesh, plan = BOUND_MESHES[0], ModelParams(gamma=1.0, p=2.0, delta=1.0, q=2.0)._plan
    u = np.zeros((mesh.n_r, mesh.n_theta))
    u[0, 0] = 9.67688893e-163
    state = State(u, np.zeros_like(u))
    phase_bound, _ = functionals._max_norm_bounds(mesh, state, plan)
    phase = functionals._phase_parts(mesh, state)[3]
    assert phase == 5e-324 and phase_bound >= phase
    threshold = math.sqrt(5e-324)
    assert exact_monitor(mesh, state, plan, threshold) == "PhaseNorm"
    assert _crossing(mesh, state, plan, threshold) == "PhaseNorm"


def test_max_norm_bounds_give_a_scalar_per_cell():
    """One cell's bounds are 0-d NumPy scalars, not 1x1 arrays; a stack's are
    one value per cell, each its cell's own bound up to the last bits (a
    scalar power is libm's, an array's NumPy's)."""
    mesh = BOUND_MESHES[1]
    records = [ModelParams(gamma=1.0, p=p, delta=1.0, q=q)
               for p, q in ((2.0, 3.0), (4.5, 2.0), (3.0, 6.25))]
    rng = np.random.default_rng(3)
    us = rng.standard_normal((3, mesh.n_r, mesh.n_theta))
    vs = rng.standard_normal((3, mesh.n_r, mesh.n_theta))
    stacked = functionals._max_norm_bounds(mesh, State(us, vs), model._Plan(records))
    assert [np.shape(bound) for bound in stacked] == [(3,), (3,)]
    for i, par in enumerate(records):
        alone = functionals._max_norm_bounds(mesh, State(us[i], vs[i]), par._plan)
        assert all(isinstance(bound, np.floating) and np.ndim(bound) == 0 for bound in alone)
        assert np.allclose([bound[i] for bound in stacked], alone, rtol=1e-14, atol=0.0)
