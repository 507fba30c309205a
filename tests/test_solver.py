"""Time stepper and simulation driver."""
import math

import numpy as np
import pytest

from kwlab import solver
from kwlab.functionals import State, energy_E, make_report
from kwlab.geometry import build_annulus
from kwlab.model import ModelParams
from kwlab.solver import (
    SimConfig,
    StepFailure,
    initial_state,
    negative_energy_data,
    radial_profile,
    simulate,
    simulate_batch,
    step,
)


@pytest.fixture(scope="module")
def mesh():
    return build_annulus(1.0, 2.0, 33, 32)


SOURCE_PARAMS = ModelParams(gamma=1.0, p=4)


# ---------------------------------------------------------------------------
# single step


def test_step_zero_state_is_fixed_point(mesh):
    par = ModelParams(alpha=1.0, m=3, gamma=1.0, p=4)
    st = State(u=np.zeros((33, 32)), v=np.zeros((33, 32)))
    out, _ = step(mesh, st, par, 0.01)
    assert np.all(out.u == 0.0)
    assert np.all(out.v == 0.0)
    assert out.t == 0.01


def test_step_rejects_bad_dt(mesh):
    st = State(u=np.zeros((33, 32)), v=np.zeros((33, 32)))
    with pytest.raises(ValueError, match="dt must be positive"):
        step(mesh, st, ModelParams(), -0.01)
    # a non-finite dt is an input error on every kick path, not a StepFailure
    kicks = [ModelParams(gamma=1, p=3), ModelParams(alpha=1, gamma=1, p=3),
             ModelParams(alpha=1, m=3, gamma=1, p=3)]
    stack = State(u=np.zeros((2, 33, 32)), v=np.zeros((2, 33, 32)), t=np.zeros(2))
    for par in kicks:
        for dt in (math.inf, math.nan):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                step(mesh, st, par, dt)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(mesh, stack, par, np.array([0.01, math.inf]))


def test_step_preserves_pinned_row(mesh):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((33, 32))
    v = rng.standard_normal((33, 32))
    u[0] = 0.0
    v[0] = 0.0
    st = State(u=u, v=v)
    par = ModelParams(alpha=0.5, m=3, beta=0.2, mu=2.5, gamma=0.3, p=3)
    for _ in range(5):
        st, _ = step(mesh, st, par, 0.005)
        assert np.all(st.u[0] == 0.0)
        assert np.all(st.v[0] == 0.0)


def test_step_undamped_energy_drift_is_quadratic(mesh):
    """Without damping or sources E is conserved up to O(dt^2)."""
    par = ModelParams()
    u0 = 0.3 * radial_profile(mesh, "sine")
    drifts = []
    for dt in (0.01, 0.005):
        st = State(u=u0.copy(), v=np.zeros_like(u0))
        e0 = energy_E(mesh, st, par)
        for _ in range(int(round(0.5 / dt))):
            st, _ = step(mesh, st, par, dt)
        drifts.append(abs(energy_E(mesh, st, par) - e0))
    assert drifts[0] < 1e-3
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.1)


def test_step_damping_decreases_energy(mesh):
    par = ModelParams(alpha=2.0, m=3, a=1.0, m_tilde=2.0, beta=1.0, mu=2.0)
    rng = np.random.default_rng(7)
    v = 0.5 * rng.standard_normal((33, 32))
    v[0] = 0.0
    st = State(u=np.zeros((33, 32)), v=v)
    energies = [energy_E(mesh, st, par)]
    for _ in range(40):
        st, _ = step(mesh, st, par, 0.01)
        energies.append(energy_E(mesh, st, par))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12)
    assert energies[-1] < 0.5 * energies[0]


@pytest.mark.parametrize(
    "par",
    [
        ModelParams(alpha=1.0, m=4, gamma=1.0, p=3),
        ModelParams(alpha=1.0, m=4, a=1.0, m_tilde=1.5, gamma=1.0, p=3),
    ],
)
def test_damped_kick_newton_iteration_count(monkeypatch, par):
    """Converged entries stay put, so a kick costs a handful of damping
    evaluations, not a bisection tail of dozens."""
    counts = {"kicks": 0, "evals": 0, "inside": False}
    kick, damping = solver._solve_damped_kick, solver._damping_accel

    def counted_kick(*args):
        counts["kicks"] += 1
        counts["inside"] = True
        try:
            return kick(*args)
        finally:
            counts["inside"] = False

    def counted_damping(*args):
        counts["evals"] += counts["inside"]
        return damping(*args)

    monkeypatch.setattr(solver, "_solve_damped_kick", counted_kick)
    monkeypatch.setattr(solver, "_damping_accel", counted_damping)
    cfg = SimConfig(params=par, t_end=0.25, initial_profile="sine", initial_scale=2.0)
    _, blowup = simulate(cfg)
    assert blowup.steps == counts["kicks"] == 20
    assert counts["evals"] / counts["kicks"] <= 8.0


@pytest.mark.parametrize(
    "par, outside",
    [
        (ModelParams(alpha=1.0, m=4, a=1.0, m_tilde=1.5, gamma=1.0, p=3), 0),
        (ModelParams(beta=1.0, mu=3, gamma=1.0, p=3), 0),
        (ModelParams(alpha=1.0, beta=1.0, gamma=1.0, p=3), 1),
    ],
)
def test_step_reuses_the_kicks_damping_evaluation(monkeypatch, par, outside):
    """The Newton kick hands its last D(v_half) to v_next, so a step
    evaluates D only inside the kick; the closed-form kick evaluates none,
    and v_next then evaluates it once."""
    counts = {"inside": False, "outside": 0, "steps": 0}
    kick, damping, step_fn = solver._solve_damped_kick, solver._damping_accel, solver.step

    def counted_kick(*args):
        counts["inside"] = True
        try:
            return kick(*args)
        finally:
            counts["inside"] = False

    def counted_damping(*args):
        counts["outside"] += not counts["inside"]
        return damping(*args)

    def counted_step(*args):
        counts["steps"] += 1
        return step_fn(*args)

    monkeypatch.setattr(solver, "_solve_damped_kick", counted_kick)
    monkeypatch.setattr(solver, "_damping_accel", counted_damping)
    monkeypatch.setattr(solver, "step", counted_step)
    cfg = SimConfig(params=par, t_end=0.25, initial_profile="sine", initial_scale=2.0)
    _, blowup = simulate(cfg)
    assert blowup.steps == counts["steps"] == 20
    assert counts["outside"] == outside * counts["steps"]


def test_dt_regrows_after_64_clean_steps(monkeypatch):
    """A failed damping solve halves dt; 64 accepted steps later dt doubles
    back to the configured value."""
    kick, step_fn = solver._solve_damped_kick, solver.step
    dts, failures = [], []

    def failing_once(*args):
        if not failures:
            failures.append(1)
            raise StepFailure("injected")
        return kick(*args)

    def recorded_step(mesh, state, params, dt, s_u=None):
        out = step_fn(mesh, state, params, dt, s_u)
        dts.append(dt)
        return out

    monkeypatch.setattr(solver, "_solve_damped_kick", failing_once)
    monkeypatch.setattr(solver, "step", recorded_step)
    cfg = SimConfig(params=ModelParams(alpha=1.0, m=3), n_r=17, n_theta=16,
                    t_end=3.0, initial_scale=0.3)
    _, blowup = simulate(cfg)
    assert failures == [1]
    assert dts[:64] == [0.5 * cfg.dt] * 64
    assert set(dts[64:-1]) == {cfg.dt}
    assert blowup.trigger == "None" and blowup.steps == len(dts)
    assert blowup.dt_final == cfg.dt


def test_damped_kick_failure_marks_only_failed_cells(mesh):
    par = solver._stack_params(mesh, [ModelParams(alpha=1.0, m=3)])
    b = np.ones((3, 33, 32))
    b[1, 5, 7] = np.nan
    with pytest.raises(StepFailure) as failure:
        solver._solve_damped_kick(mesh, b, 0.01, par)
    assert failure.value.cells.tolist() == [False, True, False]
    with pytest.raises(StepFailure) as failure:
        solver._solve_damped_kick(mesh, b[1], 0.01, par)
    assert failure.value.cells is None


def test_damped_kick_failure_names_residual(mesh):
    par = solver._stack_params(mesh, [ModelParams(alpha=1.0, m=3)])
    b = np.ones((33, 32))
    b[5, 7] = np.nan
    with pytest.raises(
        StepFailure, match=r"1 of 1056 entries above tolerance, worst residual nan"
    ):
        solver._solve_damped_kick(mesh, b, 0.01, par)


# ---------------------------------------------------------------------------
# initial data


def test_radial_profile_shapes_and_range(mesh):
    for name in ("ramp", "sine", "bump"):
        arr = radial_profile(mesh, name)
        assert arr.shape == (33, 32)
        assert np.all(arr[0] == 0.0)  # pinned circle
        assert np.all(np.diff(arr, axis=1) == 0.0)  # radially symmetric
    assert np.all(radial_profile(mesh, "sine")[-1] == 0.0)
    assert np.all(radial_profile(mesh, "ramp")[-1] == 1.0)


def test_radial_profile_unknown(mesh):
    with pytest.raises(ValueError, match="unknown profile"):
        radial_profile(mesh, "plateau")


@pytest.mark.parametrize("margin", [0.25, 1.0, 4.0])
def test_negative_energy_data_hits_margin(mesh, margin):
    st = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=margin)
    assert np.all(st.v == 0.0)
    assert energy_E(mesh, st, SOURCE_PARAMS) == pytest.approx(-margin, abs=1e-9)


def test_negative_energy_data_small_margin_sits_past_balance(mesh):
    """As margin -> 0 the scale approaches the zero-energy crossing from above."""
    tiny = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=1e-6)
    big = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=1.0)
    assert 0.0 > energy_E(mesh, tiny, SOURCE_PARAMS) > -1e-5
    assert np.max(np.abs(tiny.u)) < np.max(np.abs(big.u))


def test_negative_energy_data_errors(mesh):
    with pytest.raises(ValueError, match="margin must be positive"):
        negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=0.0)
    with pytest.raises(ValueError, match="no source"):
        negative_energy_data(mesh, ModelParams(alpha=1.0, m=2), "ramp", margin=1.0)
    # sine vanishes on the free circle, so a boundary-only source sees nothing
    with pytest.raises(ValueError, match="carries no source energy"):
        negative_energy_data(
            mesh, ModelParams(delta=1.0, q=3), "sine", margin=1.0
        )
    # p = 2 source scales like the quadratic part and loses; no sign change
    with pytest.raises(ValueError, match="failed to bracket"):
        negative_energy_data(mesh, ModelParams(gamma=1.0, p=2), "ramp", margin=1.0)


# ---------------------------------------------------------------------------
# SimConfig


def test_config_default_dt_follows_mesh():
    cfg = SimConfig(params=SOURCE_PARAMS, n_r=33, n_theta=32, cfl=0.4)
    dr = 1.0 / 32.0
    assert cfg.dt == pytest.approx(0.4 * min(dr, 2.0 * math.pi / 32.0), rel=1e-15)


@pytest.mark.parametrize(
    "kwargs,pattern",
    [
        (dict(params=ModelParams(N=3, gamma=1.0, p=4)), "N=2 required"),
        (dict(params=SOURCE_PARAMS, cfl=0.6), "cfl must lie"),
        (dict(params=SOURCE_PARAMS, cfl=0.0), "cfl must lie"),
        (dict(params=SOURCE_PARAMS, dt=0.5), "violates the CFL bound"),
        (dict(params=SOURCE_PARAMS, t_end=0.0), "t_end must be positive"),
        (dict(params=SOURCE_PARAMS, dt_min=1.0), "dt_min must lie"),
        (dict(params=SOURCE_PARAMS, blow_threshold=0.0), "blow_threshold"),
        (dict(params=SOURCE_PARAMS, report_every=0), "report_every"),
        (dict(params=SOURCE_PARAMS, initial_profile="x"), "unknown profile"),
        (dict(params=SOURCE_PARAMS, initial_mode="x"), "unknown initial mode"),
        (
            dict(
                params=SOURCE_PARAMS,
                initial_mode="auto_negative_energy",
                initial_margin=-1.0,
            ),
            "margin must be positive",
        ),
        (dict(params=SOURCE_PARAMS, t_end=math.inf), "t_end must be positive and finite"),
        (dict(params=SOURCE_PARAMS, blow_threshold=math.inf), "blow_threshold"),
        (dict(params=SOURCE_PARAMS, n_r=33.7), "n_r must be an integer"),
        (dict(params=SOURCE_PARAMS, n_theta=math.nan), "n_theta must be an integer"),
        (dict(params=SOURCE_PARAMS, n_r=1), "n_r must be at least 3"),
        (dict(params=SOURCE_PARAMS, n_r=2), "n_r must be at least 3"),
        (dict(params=SOURCE_PARAMS, n_theta=0), "n_theta must be at least 8"),
        (dict(params=SOURCE_PARAMS, r_inner=2.0, r_outer=1.0), "radii must satisfy"),
        (dict(params=SOURCE_PARAMS, report_every=2.5), "report_every must be an integer"),
        (dict(params=SOURCE_PARAMS, report_every=True), "report_every must be an integer"),
        (dict(params=SOURCE_PARAMS, initial_scale=math.nan), "initial scale must be finite"),
        (dict(params=SOURCE_PARAMS, initial_scale=math.inf), "initial scale must be finite"),
    ],
)
def test_config_validation(kwargs, pattern):
    with pytest.raises(ValueError, match=pattern):
        SimConfig(**kwargs)


def test_config_from_dict_round_trip():
    doc = {
        "params": {"gamma": 1.0, "p": 4, "alpha": 1.0, "m": 2},
        "mesh": {"n_r": 17, "n_theta": 16},
        "initial_data": {"profile": "bump", "margin": 2.0},
        "t_end": 5.0,
        "report_every": 4,
    }
    cfg = SimConfig.from_dict(doc)
    assert cfg.n_r == 17 and cfg.n_theta == 16
    assert cfg.initial_profile == "bump"
    # margin without an explicit scale or mode selects the solved scaling
    assert cfg.initial_mode == "auto_negative_energy"
    assert cfg.initial_margin == 2.0
    assert cfg.t_end == 5.0 and cfg.report_every == 4
    assert cfg.params.alpha == 1.0


@pytest.mark.parametrize(
    "doc,pattern",
    [
        ([], "config must be a JSON object"),
        ({}, "requires a 'params'"),
        ({"params": {"gamma": 1.0, "p": 4, "zeta": 1.0}}, "unknown model parameters"),
        ({"params": {"p": 4}, "mesh": {"nr": 9}}, "unknown mesh keys"),
        (
            {"params": {"p": 4}, "initial_data": {"profil": "ramp"}},
            "unknown initial_data keys",
        ),
        ({"params": {"p": 4}, "tend": 3.0}, "unknown config keys"),
    ],
)
def test_config_from_dict_rejects_unknown_keys(doc, pattern):
    with pytest.raises(ValueError, match=pattern):
        SimConfig.from_dict(doc)


# ---------------------------------------------------------------------------
# full runs


def test_simulate_global_run_reaches_t_end():
    par = ModelParams(alpha=1.0, m=2)
    cfg = SimConfig(params=par, n_r=17, n_theta=16, t_end=2.0,
                    initial_scale=0.5, report_every=5)
    reports, blowup = simulate(cfg)
    assert not blowup.blew_up
    assert blowup.trigger == "None"
    assert blowup.t_detect is None
    assert reports[-1].t == pytest.approx(2.0, abs=1e-12)
    assert blowup.dt_final == cfg.dt  # never throttled
    assert blowup.final_report is reports[-1]
    # E monotone under pure damping, within the measured identity error
    for prev, cur in zip(reports, reports[1:]):
        assert cur.E - prev.E <= 10.0 * abs(cur.identity_residual) + 1e-12


def test_simulate_report_spacing():
    cfg = SimConfig(params=SOURCE_PARAMS, n_r=17, n_theta=16, t_end=1.0,
                    initial_scale=0.1, report_every=7)
    reports, _ = simulate(cfg)
    gaps = np.diff([r.t for r in reports[:-1]])
    assert np.allclose(gaps, 7 * cfg.dt, rtol=1e-12)


def test_simulate_detects_blowup():
    cfg = SimConfig(
        params=SOURCE_PARAMS,
        n_r=17,
        n_theta=16,
        t_end=50.0,
        dt_min=1e-5,
        blow_threshold=1e8,
        report_every=10,
        initial_mode="auto_negative_energy",
        initial_margin=1.0,
    )
    reports, blowup = simulate(cfg)
    assert blowup.blew_up
    assert blowup.trigger in ("PhaseNorm", "LpNorm")
    lo, hi = blowup.t_bracket
    assert blowup.t_detect == hi
    assert hi - lo <= cfg.dt_min * (1.0 + 1e-9)
    assert blowup.t_detect < 50.0
    # the final report is the detected over-threshold snapshot
    final = blowup.final_report
    assert final.t == blowup.t_detect
    assert (final.lp_interior + final.lq_boundary >= cfg.blow_threshold
            or final.phase_norm_sq >= cfg.blow_threshold**2)


def test_simulate_larger_margin_blows_up_sooner():
    def detect(margin):
        cfg = SimConfig(
            params=SOURCE_PARAMS, n_r=17, n_theta=16, t_end=50.0,
            dt_min=1e-5, blow_threshold=1e8, report_every=10**9,
            initial_mode="auto_negative_energy", initial_margin=margin,
        )
        _, blowup = simulate(cfg)
        assert blowup.blew_up
        return blowup.t_detect

    t1, t4 = detect(1.0), detect(4.0)
    assert t4 < t1


def test_simulate_initial_override_matches_config_path():
    cfg = SimConfig(params=SOURCE_PARAMS, n_r=17, n_theta=16, t_end=1.0,
                    initial_scale=0.2, report_every=5)
    mesh = build_annulus(cfg.r_inner, cfg.r_outer, cfg.n_r, cfg.n_theta)
    st0 = initial_state(mesh, cfg.params, cfg)
    ra, ba = simulate(cfg)
    rb, bb = simulate(cfg, initial=st0)
    assert len(ra) == len(rb)
    for x, y in zip(ra, rb):
        assert x == y
    # the caller's state is not mutated by the run
    assert st0.t == 0.0


def test_simulate_initial_override_changes_outcome():
    mesh = build_annulus(1.0, 2.0, 17, 16)
    hot = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=4.0)
    weak = ModelParams(gamma=1.0, p=2)  # same data, subcritical source
    cfg = SimConfig(params=weak, n_r=17, n_theta=16, t_end=5.0,
                    blow_threshold=1e8, report_every=20)
    reports, blowup = simulate(cfg, initial=hot)
    assert not blowup.blew_up
    assert reports[0].E == pytest.approx(
        energy_E(mesh, hot, weak), rel=1e-12
    )


def test_simulate_evaluates_S_once_per_step(monkeypatch):
    calls = {"step": 0, "accel": 0}
    step_fn, accel = solver.step, solver._accel

    def counted_step(*args):
        calls["step"] += 1
        return step_fn(*args)

    def counted_accel(*args):
        calls["accel"] += 1
        return accel(*args)

    monkeypatch.setattr(solver, "step", counted_step)
    monkeypatch.setattr(solver, "_accel", counted_accel)
    cfg = SimConfig(params=ModelParams(alpha=1.0, m=3, gamma=1.0, p=4),
                    n_r=17, n_theta=16, t_end=0.5, initial_scale=0.5)
    _, blowup = simulate(cfg)
    assert calls["step"] == blowup.steps > 0
    assert calls["accel"] == calls["step"] + 1


def test_simulate_cached_S_survives_rollbacks(monkeypatch):
    """Rolled-back steps keep the cached S(u_n): the run is identical to one
    whose every step evaluates S(u_n) afresh."""
    cfg = SimConfig(
        params=ModelParams(alpha=1.0, m=3, gamma=1.0, p=4), n_r=17, n_theta=16,
        t_end=50.0, dt_min=1e-5, blow_threshold=1e3, report_every=3,
        initial_mode="auto_negative_energy",
    )
    cached = simulate(cfg)
    step_fn = solver.step
    attempts = []

    def uncached_step(mesh, state, params, dt, s_u=None):
        attempts.append(dt)
        return step_fn(mesh, state, params, dt)

    monkeypatch.setattr(solver, "step", uncached_step)
    fresh = simulate(cfg)
    assert len(attempts) > fresh[1].steps  # steps were rejected
    assert fresh[1].blew_up
    assert cached == fresh


def test_simulate_identity_residual_refines():
    """Halving dt (and with it the report spacing) must shrink the
    accumulated energy-identity defect at second order."""
    par = ModelParams(alpha=1.0, m=2)

    def accumulated(dt_scale):
        base = SimConfig(params=par, n_r=33, n_theta=32)
        cfg = SimConfig(
            params=par, n_r=33, n_theta=32, dt=base.dt * dt_scale,
            t_end=1.0, initial_scale=0.5, initial_profile="sine",
            report_every=8,
        )
        reports, _ = simulate(cfg)
        return sum(abs(r.identity_residual) for r in reports)

    ratio = accumulated(1.0) / accumulated(0.5)
    assert 3.0 <= ratio <= 8.5


# ---------------------------------------------------------------------------
# lockstep batches


def batch_config(params, **overrides):
    kwargs = dict(
        n_r=17, n_theta=16, t_end=20.0, dt_min=1e-5, blow_threshold=1e8,
        initial_mode="auto_negative_energy", report_every=5,
    )
    kwargs.update(overrides)
    return SimConfig(params=ModelParams(**params), **kwargs)


def test_simulate_batch_cells_equal_single_runs():
    """Every cell of a mixed batch gives exactly what simulate gives it
    alone: reports and blow-up record compare with ==."""
    cfgs = [
        # linear damping: LpNorm blow-ups with different p (one exponent per
        # cell), p = 2 through NumPy's square shortcut, one cell reaching t_end
        batch_config(dict(alpha=1.0, gamma=1.0, p=4.0), report_every=3),
        batch_config(dict(alpha=2.0, gamma=1.0, p=5.0), report_every=7),
        batch_config(dict(alpha=1.0, gamma=1.0, p=2.0), t_end=1.0,
                     initial_mode="scaled", initial_scale=0.3),
        # nonlinear damping: m = 3 (square shortcut) beside m = 4
        batch_config(dict(alpha=1.0, m=3.0, gamma=1.0, p=4.0), report_every=4),
        batch_config(dict(alpha=1.0, m=4.0, gamma=1.0, p=5.0), report_every=6),
        # no damping: PhaseNorm blow-ups with per-cell thresholds and floors
        batch_config(dict(gamma=1.0, p=20.0), dt_min=1e-3),
        batch_config(dict(gamma=1.0, p=8.0), dt_min=1e-3, blow_threshold=1e13,
                     report_every=2),
        # both sources, boundary damping, no reports but the ends
        batch_config(dict(delta=1.0, q=3.0, beta=1.0, gamma=1.0, p=3.0),
                     report_every=10**9),
        # nonlinear boundary-only damping: the Newton kick with P off
        batch_config(dict(beta=1.0, mu=3.0, gamma=1.0, p=3.0)),
        batch_config(dict(beta=2.0, mu=4.0, gamma=1.0, p=4.0)),
        # two-term damping sharing |v| between its summands: m_tilde = 1.5
        # makes e - 1 = 0.5, NumPy's sqrt shortcut, in one cell of each pair
        batch_config(dict(alpha=1.0, a=1.0, m=4.0, m_tilde=1.5, gamma=1.0, p=4.0)),
        batch_config(dict(alpha=1.0, a=0.5, m=3.5, m_tilde=1.7, gamma=1.0, p=4.0)),
        batch_config(dict(beta=1.0, b=1.0, mu=3.0, mu_tilde=1.5, gamma=1.0, p=3.0)),
        batch_config(dict(beta=1.0, b=0.5, mu=3.0, mu_tilde=1.7, gamma=1.0, p=3.0)),
    ]
    batch = simulate_batch(cfgs)
    alone = [simulate(cfg) for cfg in cfgs]
    assert batch == alone
    triggers = {rep.trigger for _, rep in alone}
    assert triggers == {"LpNorm", "PhaseNorm", "None"}


def test_simulate_batch_damping_failure_fails_only_its_cell(monkeypatch):
    """A cell whose damping solve never converges halves its own dt down to
    the floor and ends as DtFloor; its stack-mates run on as if alone."""
    kick = solver._solve_damped_kick

    def poisoned_kick(mesh, b, kappa, params):
        # the cells with alpha = 2 get a NaN the Newton iteration cannot fix
        b = b.copy()
        cells = b.reshape(-1, *b.shape[-2:])
        alpha = np.broadcast_to(np.ravel(params.alpha), len(cells))
        cells[alpha == 2.0, 5, 5] = np.nan
        return kick(mesh, b, kappa, params)

    monkeypatch.setattr(solver, "_solve_damped_kick", poisoned_kick)
    cfgs = [
        batch_config(dict(alpha=1.0, m=3.0, gamma=1.0, p=4.0), dt_min=1e-3),
        batch_config(dict(alpha=2.0, m=3.0, gamma=1.0, p=4.0), dt_min=1e-3),
        batch_config(dict(alpha=1.0, m=4.0, gamma=1.0, p=5.0), dt_min=1e-3),
    ]
    batch = simulate_batch(cfgs)
    assert batch == [simulate(cfg) for cfg in cfgs]
    failed = batch[1][1]
    assert failed.trigger == "DtFloor" and failed.steps == 0
    assert failed.dt_final == cfgs[1].dt_min
    assert [rep.trigger for _, rep in batch[::2]] == ["LpNorm", "LpNorm"]


def test_simulate_batch_keeps_order_and_takes_initials():
    mesh = build_annulus(1.0, 2.0, 17, 16)
    hot = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=4.0)
    cfgs = [
        batch_config(dict(gamma=1.0, p=4.0)),
        batch_config(dict(alpha=1.0, gamma=1.0, p=4.0), t_end=0.5,
                     initial_mode="scaled", initial_scale=0.2),
        batch_config(dict(gamma=1.0, p=4.0)),
    ]
    batch = simulate_batch(cfgs, [None, None, hot])
    assert batch == [simulate(cfgs[0]), simulate(cfgs[1]), simulate(cfgs[2], hot)]
    assert batch[2][0][0].E == pytest.approx(-4.0, abs=1e-9)
    assert simulate_batch([]) == []
    with pytest.raises(ValueError, match="initial states for"):
        simulate_batch(cfgs, [None])


def test_simulate_rejects_bad_initial_states():
    """An initial state must have the mesh's shape and vanish on the pinned
    circle, as State requires: the first step would zero a nonzero pinned
    row and break the energy identity without an error."""
    cfg = SimConfig(params=ModelParams(gamma=1.0, p=3), n_r=9, n_theta=8,
                    t_end=1.0, initial_mode="auto_negative_energy")
    mesh = build_annulus(1.0, 2.0, 9, 8)
    good = initial_state(mesh, cfg.params, cfg)
    pinned_u = State(u=good.u.copy(), v=good.v)
    pinned_u.u[0] = 0.5
    pinned_v = State(u=good.u, v=good.v.copy())
    pinned_v.v[0, 3] = -1e-300
    for bad in (pinned_u, pinned_v, State(u=good.u[:-1], v=good.v[:-1]),
                State(u=good.u, v=np.zeros((9, 9)))):
        with pytest.raises(ValueError, match="initial u and v must have shape"):
            simulate(cfg, initial=bad)
        with pytest.raises(ValueError, match="initial u and v must have shape"):
            simulate_batch([cfg, cfg], [None, bad])
    assert simulate(cfg, initial=good) == simulate(cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e4])
def test_simulate_rejects_initial_data_past_the_monitors(scale):
    """Data that already crosses a monitor is an error, not a blow-up
    detected after zero steps."""
    cfg = SimConfig(params=SOURCE_PARAMS, n_r=17, n_theta=16, t_end=1.0,
                    initial_scale=scale)
    with pytest.raises(ValueError, match="initial data already crosses"):
        simulate(cfg)
    mesh = build_annulus(1.0, 2.0, 17, 16)
    st = initial_state(mesh, SOURCE_PARAMS, cfg)
    calm = SimConfig(params=SOURCE_PARAMS, n_r=17, n_theta=16, t_end=1.0)
    with pytest.raises(ValueError, match="initial data already crosses"):
        simulate(calm, initial=st)
    with pytest.raises(ValueError, match="initial data already crosses"):
        simulate_batch([calm, calm], [None, st])
