"""Time stepper and simulation driver."""
import dataclasses
import math
import re

import numpy as np
import pytest

from kwlab import functionals, model, solver
from kwlab.functionals import State, dissipation_rate, make_report
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


def test_step_rejects_states_and_dt_that_do_not_fit(mesh):
    """Each of these used to return a silently wrong state: a stack built
    from one u, a v row broadcast over every radius, or a 2-D state stepped
    as a stack of two."""
    par = ModelParams(alpha=1.0, gamma=1.0, p=4)
    u = radial_profile(mesh, "ramp")
    for v in (np.zeros((2, 33, 32)), np.zeros((1, 32))):
        with pytest.raises(ValueError, match="u and v must have shape"):
            step(mesh, State(u, v), par, 0.01)
    for dt in (np.array([0.01, 0.02]), np.array(0.01)):
        with pytest.raises(ValueError, match="a float or one value per cell"):
            step(mesh, State(u, np.zeros_like(u)), par, dt)
    stack = State(np.stack([u, 0.5 * u]), np.zeros((2, 33, 32)), t=np.zeros(2))
    with pytest.raises(ValueError, match="one value per cell"):
        step(mesh, stack, par, np.array([0.01, 0.02, 0.03]))
    # a stack takes one float for every cell, or one value per cell
    a, _ = step(mesh, stack, par, 0.01)
    b, _ = step(mesh, stack, par, np.array([0.01, 0.01]))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


@pytest.mark.parametrize("shape", [(32, 32), (33, 31), (33,), (31,), (1, 32), (32,)])
def test_entry_points_reject_bad_state_shapes(mesh, shape):
    """A u or v off the (n_r, n_theta) grid is refused where a state enters
    the library, the broadcastable (1, n_theta) and (n_theta,) included; the
    geometry operators under these calls do not check."""
    par = ModelParams(alpha=1.0, gamma=1.0, p=4)
    good, bad = np.zeros((33, 32)), np.zeros(shape)
    calls = (lambda st: step(mesh, st, par, 0.01), lambda st: make_report(mesh, st, par),
             lambda st: dissipation_rate(mesh, st, par))
    for state in (State(bad, good), State(good, bad)):
        for call in calls:
            with pytest.raises(ValueError, match="u and v must have shape"):
                call(state)


def test_report_and_dissipation_reject_u_and_v_that_disagree(mesh):
    """make_report used to return per-cell arrays for a 2-D u beside a
    stacked v, and dissipation_rate read v alone, whatever u held.
    make_report takes one cell's state, so a stack is refused too."""
    field, stack = np.zeros((33, 32)), np.zeros((2, 33, 32))
    for state in (State(field, stack), State(stack, stack)):
        with pytest.raises(ValueError, match="u and v must have shape"):
            make_report(mesh, state, SOURCE_PARAMS)
    for par in (SOURCE_PARAMS, ModelParams(alpha=1.0, gamma=1.0, p=4)):
        with pytest.raises(ValueError, match="u and v must have shape"):
            dissipation_rate(mesh, State(stack, field), par)


KICK_STACKS = {
    # three records per kick branch that differ in their weights or exponents
    "undamped": [ModelParams(gamma=g, p=p) for g, p in ((1.0, 4), (2.0, 3.5), (0.5, 5))],
    "closed_form": [ModelParams(alpha=al, a=a, beta=be, gamma=1.0, p=4)
                    for al, a, be in ((1.0, 0.0, 0.5), (2.0, 0.5, 1.5), (0.5, 1.0, 1.0))],
    "newton": [ModelParams(alpha=1.0, m=m, a=a, m_tilde=1.5, gamma=1.0, p=3)
               for m, a in ((3.0, 0.5), (4.0, 1.0), (3.5, 0.25))],
}


@pytest.mark.parametrize("kick", sorted(KICK_STACKS))
@pytest.mark.parametrize("stacked", [False, True])
def test_step_modifies_no_input(mesh, kick, stacked):
    """step writes only into arrays it allocated: u, v and s_u come back
    unchanged, and no returned array shares memory with them."""
    records = KICK_STACKS[kick]
    rng = np.random.default_rng(len(kick))
    shape = (3, 33, 32) if stacked else (33, 32)
    u, v = rng.standard_normal(shape), rng.standard_normal(shape)
    u[..., 0, :] = v[..., 0, :] = 0.0
    if stacked:
        params, dt, t = model._Plan(records), np.array([0.01, 0.005, 0.02]), np.zeros(3)
    else:
        params, dt, t = records[0], 0.01, 0.0
    plan = params if stacked else params._plan
    s_u = solver._accel(mesh, u, plan)
    state = State(u, v, t)
    saved = [x.copy() for x in (u, v, s_u)]
    for given in (None, s_u):
        new, s_new = step(mesh, state, params, dt, given)
        for before, now in zip(saved, (u, v, s_u)):
            assert np.array_equal(before, now)
        for out in (new.u, new.v, s_new):
            assert not any(np.shares_memory(out, x) for x in (u, v, s_u))


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
        e0 = make_report(mesh, st, par).E
        for _ in range(int(round(0.5 / dt))):
            st, _ = step(mesh, st, par, dt)
        drifts.append(abs(make_report(mesh, st, par).E - e0))
    assert drifts[0] < 1e-3
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.1)


def test_step_damping_decreases_energy(mesh):
    par = ModelParams(alpha=2.0, m=3, a=1.0, m_tilde=2.0, beta=1.0, mu=2.0)
    rng = np.random.default_rng(7)
    v = 0.5 * rng.standard_normal((33, 32))
    v[0] = 0.0
    st = State(u=np.zeros((33, 32)), v=v)
    energies = [make_report(mesh, st, par).E]
    for _ in range(40):
        st, _ = step(mesh, st, par, 0.01)
        energies.append(make_report(mesh, st, par).E)
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


def reference_kick(mesh, b, kappa, plan):
    """_solve_damped_kick's Newton loop as it was when every iteration took
    |x| twice and evaluated D and dD/dv on the whole grid; the kick must
    match it bit for bit."""
    lo, hi = np.minimum(b, 0.0), np.maximum(b, 0.0)
    x = b.copy()
    tol = 1e-14 * (1.0 + np.abs(b))
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(120):
            d = solver._damping_accel(mesh, x, plan)
            g = x + kappa * d - b
            done = np.abs(g) <= tol
            if done.all():
                return x, d
            pos = g > 0
            hi = np.where(pos, x, hi)
            lo = np.where(pos, lo, x)
            slope = solver._free_row_mix(mesh, x, plan, True)
            x_new = x - g / (1.0 + kappa * slope)
            inside = (x_new > lo) & (x_new < hi)
            x = np.where(done, x, np.where(inside, x_new, 0.5 * (lo + hi)))
    d = solver._damping_accel(mesh, x, plan)
    resid = np.abs(x + kappa * d - b)
    unconverged = ~(resid <= 1e3 * tol)
    if not unconverged.any():
        return x, d
    raise StepFailure(
        f"damping solve did not converge: {np.count_nonzero(unconverged)} of "
        f"{resid.size} entries above tolerance, worst residual {np.max(resid):.3e}",
        cells=unconverged.any(axis=(-2, -1)) if unconverged.ndim == 3 else None,
    )


def newton_config(t_end=0.25, profile="sine", scale=2.0, **params):
    return SimConfig(params=ModelParams(**params), t_end=t_end, initial_profile=profile,
                     initial_scale=scale)


# the benchmark's damped pool record 0 (m_tilde 1.25): from t = 0.4 on its
# kicks often end in a bisection tail; before t = 0.85 the longest takes 23
# evaluations
POOL_RECORD_0 = dict(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0, a=0.7934429425833257,
                     m=3.1388902914965597, m_tilde=1.25013481945106, mu=3.1065536192015317,
                     p=2.1297359078824116, q=2.9553241020516223)

KICK_RUNS = {
    "m4_mt1.5": lambda: simulate(newton_config(alpha=1.0, m=4, a=1.0, m_tilde=1.5, gamma=1.0, p=3)),
    "boundary_mut1.5": lambda: simulate(newton_config(
        profile="bump", beta=1.0, b=0.5, mu=3.0, mu_tilde=1.5, gamma=1.0, p=3.0)),
    "m3_mt2": lambda: simulate(newton_config(alpha=1.0, m=3, a=1.0, m_tilde=2.0, gamma=1.0, p=3)),
    # per-cell m_tilde; 1.5 raises |v| to the 0.5, a NumPy shortcut
    "stack": lambda: simulate_batch([newton_config(alpha=1.0, m=4, a=1.0, m_tilde=mt, gamma=1.0, p=3)
                                     for mt in (1.5, 1.3, 1.8)]),
    "pool_record_0": lambda: simulate(newton_config(
        t_end=0.85, profile="ramp", scale=0.514415208099274, **POOL_RECORD_0)),
}


def kick_inputs(monkeypatch, case):
    """(mesh, b, kappa, plan) of every damping kick of a KICK_RUNS run."""
    inputs, kick = [], solver._solve_damped_kick

    def recorded(mesh, b, kappa, plan):
        inputs.append((mesh, b.copy(), kappa, plan))
        return kick(mesh, b, kappa, plan)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_solve_damped_kick", recorded)
        KICK_RUNS[case]()
    return inputs


def counted_kick(monkeypatch, kick, mesh, b, kappa, plan):
    """kick's result on a copy of b (or the StepFailure it raised), and the
    size of the v of each damping evaluation it made."""
    sizes, damping = [], solver._damping_accel

    def counted_damping(*args):
        sizes.append(args[1].size)
        return damping(*args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_damping_accel", counted_damping)
        try:
            return kick(mesh, b.copy(), kappa, plan), sizes
        except StepFailure as failure:
            return failure, sizes


@pytest.mark.parametrize("case, ndim, longest", [
    ("m4_mt1.5", 2, 3), ("boundary_mut1.5", 2, 2), ("m3_mt2", 2, 3), ("stack", 3, 4),
    ("pool_record_0", 2, 20),
])
def test_damped_kick_matches_the_reference_loop_bitwise(monkeypatch, case, ndim, longest):
    """On every kick of a run, x, D(x) and the number of damping evaluations
    equal the reference loop's; each case's b has the stated ndim, and its
    longest kick takes at least `longest` evaluations."""
    inputs = kick_inputs(monkeypatch, case)
    most = 0
    for mesh, b, kappa, plan in inputs:
        assert b.ndim == ndim
        (x, d), sizes = counted_kick(monkeypatch, solver._solve_damped_kick, mesh, b, kappa, plan)
        (x_ref, d_ref), ref_sizes = counted_kick(monkeypatch, reference_kick, mesh, b, kappa, plan)
        assert x.tobytes() == x_ref.tobytes() and d.tobytes() == d_ref.tobytes()
        assert len(sizes) == len(ref_sizes)
        most = max(most, len(sizes))
    assert most >= longest


@pytest.mark.parametrize("case, cells", [("m4_mt1.5", None), ("stack", [False, True, False])])
def test_damped_kick_fails_on_overflow_like_the_reference_loop(monkeypatch, case, cells):
    """An entry whose D overflows fails the kick with the reference loop's
    message, and no overflow warning leaks out of the kick."""
    mesh, b, kappa, plan = kick_inputs(monkeypatch, case)[5]
    b[(1,) * (b.ndim - 2) + (5, 7)] = 1e200
    failure, _ = counted_kick(monkeypatch, solver._solve_damped_kick, mesh, b, kappa, plan)
    # the reference evaluates its final residual outside np.errstate
    with np.errstate(over="ignore", invalid="ignore"):
        ref_failure, _ = counted_kick(monkeypatch, reference_kick, mesh, b, kappa, plan)
    assert isinstance(failure, StepFailure) and isinstance(ref_failure, StepFailure)
    assert str(failure) == str(ref_failure)
    assert (None if failure.cells is None else failure.cells.tolist()) == cells


def test_damped_kick_evaluates_only_the_rows_still_moving(monkeypatch):
    """After each update the kick evaluates D only on the band of rows that
    holds an unconverged entry: on the m_tilde = 1.5 record it makes as many
    evaluations as the reference loop, which cover the grid 4 times per
    kick, but they cover at most 3.6 grids per kick."""
    inputs = kick_inputs(monkeypatch, "m4_mt1.5")
    entries = 0
    for mesh, b, kappa, plan in inputs:
        _, sizes = counted_kick(monkeypatch, solver._solve_damped_kick, mesh, b, kappa, plan)
        _, ref_sizes = counted_kick(monkeypatch, reference_kick, mesh, b, kappa, plan)
        assert len(sizes) == len(ref_sizes)
        entries += sum(sizes)
    kicks, grid = len(inputs), inputs[0][1].size
    assert kicks == 20
    assert entries <= 3.6 * grid * kicks


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


def count_plan_builds(monkeypatch) -> list:
    """Record the record count of every model._Plan built from now on."""
    builds, init = [], model._Plan.__init__

    def counting(plan, records):
        builds.append(len(records))
        init(plan, records)

    monkeypatch.setattr(model._Plan, "__init__", counting)
    return builds


def test_step_loop_on_a_record_builds_one_plan(mesh, monkeypatch):
    builds = count_plan_builds(monkeypatch)
    par = ModelParams(alpha=1.0, beta=1.0, gamma=1.0, p=4)
    st, s_u = negative_energy_data(mesh, par, "ramp", margin=1.0), None
    for _ in range(10):
        st, s_u = step(mesh, st, par, 0.01, s_u)
    assert builds == [1]


def test_one_cell_simulate_builds_one_plan(monkeypatch):
    builds = count_plan_builds(monkeypatch)
    _, blowup = simulate(batch_config(dict(alpha=1.0, beta=1.0, gamma=1.0, p=4.0)))
    assert blowup.blew_up and builds == [1]


def test_damped_kick_failure_marks_only_failed_cells(mesh):
    par = ModelParams(alpha=1.0, m=3)._plan
    b = np.ones((3, 33, 32))
    b[1, 5, 7] = np.nan
    with pytest.raises(StepFailure) as failure:
        solver._solve_damped_kick(mesh, b, 0.01, par)
    assert failure.value.cells.tolist() == [False, True, False]
    with pytest.raises(StepFailure) as failure:
        solver._solve_damped_kick(mesh, b[1], 0.01, par)
    assert failure.value.cells is None


def test_damped_kick_failure_names_residual(mesh):
    par = ModelParams(alpha=1.0, m=3)._plan
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
    assert make_report(mesh, st, SOURCE_PARAMS).E == pytest.approx(-margin, abs=1e-9)


def test_negative_energy_data_small_margin_sits_past_balance(mesh):
    """As margin -> 0 the scale approaches the zero-energy crossing from above."""
    tiny = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=1e-6)
    big = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=1.0)
    assert 0.0 > make_report(mesh, tiny, SOURCE_PARAMS).E > -1e-5
    assert np.max(np.abs(tiny.u)) < np.max(np.abs(big.u))


@pytest.mark.parametrize("margin, scale", [
    (1.0, "0x1.714bb40adcd80p+1"),
    (1e-3, "0x1.6cae68e9d619ap+1"),
    (1e-6, "0x1.6cad30d4334c2p+1"),
])
def test_negative_energy_data_scale_is_pinned(margin, scale):
    """The bisection's scale, bit for bit, on 17x16; the two small margins
    end where no float lies between the bracket's ends."""
    mesh = build_annulus(1.0, 2.0, 17, 16)
    st = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin=margin)
    assert np.array_equal(st.u, float.fromhex(scale) * radial_profile(mesh, "ramp"))
    assert np.all(st.v == 0.0)


def test_negative_energy_data_refuses_margins_below_rounding():
    """These margins used to return data whose E missed -margin: +4.4e-13
    for 1e-13 on 17x16, -7.4e-13 for 1e-12 on 33x32.  The named smallest
    margin is one the mesh resolves."""
    for n_r, margin in ((17, 1e-13), (33, 1e-12)):
        mesh = build_annulus(1.0, 2.0, n_r, n_r - 1)
        with pytest.raises(ValueError, match="the smallest margin is about") as err:
            negative_energy_data(mesh, SOURCE_PARAMS, "ramp", margin)
        floor = 2.0 * float(re.search(r"about (\S+) ", str(err.value)).group(1))
        st = negative_energy_data(mesh, SOURCE_PARAMS, "ramp", floor)
        assert make_report(mesh, st, SOURCE_PARAMS).E == pytest.approx(-floor, rel=1e-6)


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


@pytest.mark.parametrize("cfl", [0.4, 0.3, 0.5])
@pytest.mark.parametrize(
    "mesh_args",
    [dict(r_inner=1, r_outer=3, n_r=17, n_theta=16),
     dict(r_inner=1.0, r_outer=3.0, n_r=17.0, n_theta=16.0),
     dict(r_inner=0.5, r_outer=2, n_r=9, n_theta=64.0)],
)
def test_config_dt_uses_the_spacing_of_the_mesh_it_runs_on(mesh_args, cfl):
    cfg = SimConfig(params=SOURCE_PARAMS, cfl=cfl, **mesh_args)
    # the mesh simulate_batch builds for this config
    mesh = build_annulus(cfg.r_inner, cfg.r_outer, cfg.n_r, cfg.n_theta)
    wave_limit = min(mesh.dr, mesh.r_inner * mesh.dtheta)
    assert cfg.dt == cfl * wave_limit
    assert SimConfig(params=SOURCE_PARAMS, dt=0.5 * wave_limit, **mesh_args).dt == 0.5 * wave_limit
    with pytest.raises(ValueError, match="violates the CFL bound"):
        SimConfig(params=SOURCE_PARAMS, dt=math.nextafter(0.5 * wave_limit, 1.0), **mesh_args)


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
        # these used to construct, keeping a cfl, scale or margin the run ignores
        (dict(params=SOURCE_PARAMS, cfl=9.0, dt=0.01, initial_margin=-3.0, initial_scale=2.0),
         "does not apply"),
        (dict(params=SOURCE_PARAMS, initial_mode="auto_negative_energy", initial_scale=7.0),
         "key 'scale' does not apply to mode 'auto_negative_energy'"),
        (dict(params=SOURCE_PARAMS, cfl=0.3, dt=0.01), "key 'cfl' does not apply when 'dt'"),
        (dict(params=SOURCE_PARAMS, initial_scale=2.0, initial_margin=1.0),
         "key 'margin' does not apply to mode 'scaled'"),
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
    "kwargs",
    [dict(cfl=0.3), dict(dt=0.01), dict(initial_scale=0.5, initial_profile="sine"),
     dict(initial_margin=2.0)],
)
def test_config_round_trips_through_its_stored_fields(kwargs):
    """The stored fields hold only what the run reads: dt but no cfl, the
    mode and its scale or margin, the other None."""
    cfg = SimConfig(params=SOURCE_PARAMS, n_r=17, n_theta=16, **kwargs)
    stored = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    assert SimConfig(**stored) == cfg
    unused = {"scaled": "initial_margin", "auto_negative_energy": "initial_scale"}
    assert "cfl" not in stored and stored[unused[cfg.initial_mode]] is None


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
        make_report(mesh, hot, weak).E, rel=1e-12
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


@pytest.mark.parametrize("report_every", [1, 10])
@pytest.mark.parametrize("par, init, blows_up", [
    # a Newton kick, ending at t_end between two due reports
    (ModelParams(gamma=1.0, p=4, alpha=1.0, m=3), dict(initial_scale=0.8, t_end=1.51), False),
    # both sources, ending at a detected blow-up
    (ModelParams(gamma=1.0, p=4, delta=1.0, q=3),
     dict(initial_mode="auto_negative_energy", t_end=3.0), True),
])
def test_identity_residual_is_the_trapezoid_defect_of_each_row(par, init, blows_up, report_every):
    """Every row after the first, a due report or the run's last, holds E -
    prev.E plus the trapezoid of the dissipation rate over the report
    interval, bitwise; this formula is the reference."""
    cfg = SimConfig(params=par, n_r=17, n_theta=16, report_every=report_every, **init)
    reports, blowup = simulate(cfg)
    assert blowup.blew_up == blows_up and blowup.final_report == reports[-1]
    assert reports[0].identity_residual == 0.0
    for prev, rep in zip(reports, reports[1:]):
        want = rep.E - prev.E + 0.5 * (rep.t - prev.t) * (
            prev.dissipation_rate + rep.dissipation_rate)
        assert rep.identity_residual == want
    assert any(rep.identity_residual != 0.0 for rep in reports)


def test_calm_run_evaluates_the_exact_norms_only_for_its_reports(monkeypatch):
    """Far below the threshold the monitor proves each step calm from max|u|
    and max|v|, so only make_report evaluates the phase norm."""
    calls = []
    phase_parts = functionals._phase_parts
    monkeypatch.setattr(functionals, "_phase_parts",
                        lambda *args: calls.append(1) or phase_parts(*args))
    cfg = SimConfig(params=ModelParams(gamma=1.0, p=2, alpha=1.0, m=2), n_r=33, n_theta=32,
                    t_end=2.0, initial_scale=0.8, report_every=10)
    reports, blowup = simulate(cfg)
    assert not blowup.blew_up and blowup.steps > 100
    assert len(calls) == len(reports)


def test_exact_monitor_runs_from_the_first_uncertified_step_to_detection(monkeypatch):
    """On the c06 record the bound certifies the early steps; from the first
    step it cannot certify to the detection every step and rollback takes
    the exact norms, and the run is the one the exact monitor alone gives."""
    cfg = SimConfig(params=ModelParams(gamma=1.0, p=4, alpha=1.0, m=2), n_r=17, n_theta=16,
                    t_end=100.0, dt_min=1e-5, blow_threshold=1e13, report_every=10,
                    initial_mode="auto_negative_energy", initial_margin=1.0)
    calls, exact = [], []
    phase_parts, crossing = functionals._phase_parts, solver._crossing

    def counted_crossing(*args):
        before = len(calls)
        hit = crossing(*args)
        exact.append(len(calls) > before)
        return hit

    monkeypatch.setattr(functionals, "_phase_parts",
                        lambda *args: calls.append(1) or phase_parts(*args))
    monkeypatch.setattr(solver, "_crossing", counted_crossing)
    reports, blowup = simulate(cfg)
    first = exact.index(True)
    assert 0 < first < len(exact) - 1 and all(exact[first:])
    assert (blowup.t_detect, blowup.trigger, blowup.steps) == (1.1315285546875002, "LpNorm", 49)
    # the bound proving nothing leaves the exact monitor alone
    monkeypatch.setattr(functionals, "_max_norm_bounds",
                        lambda *args: (np.float64(math.inf), np.float64(math.inf)))
    assert simulate(cfg) == (reports, blowup)


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
        # both dampings linear with per-cell slopes: alpha, beta and a differ
        batch_config(dict(alpha=0.7, beta=1.3, a=0.4, gamma=1.0, p=4.0)),
        batch_config(dict(alpha=1.5, beta=0.5, a=0.9, gamma=1.0, p=4.0), report_every=2),
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

    def poisoned_kick(mesh, b, kappa, plan):
        # the cells with alpha = 2 get a NaN the Newton iteration cannot fix
        b = b.copy()
        cells = b.reshape(-1, *b.shape[-2:])
        alpha = np.broadcast_to(np.ravel(plan.P.weight), len(cells))
        cells[alpha == 2.0, 5, 5] = np.nan
        return kick(mesh, b, kappa, plan)

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
    # a failed solve ends at the state before the step, a crossing at the
    # candidate: the bracket is the floor step, the final report the t = 0 one
    assert failed.t_bracket == (0.0, cfgs[1].dt_min)
    assert batch[1][0] == [failed.final_report] and failed.final_report.t == 0.0
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


def test_stacked_initial_crossings_name_the_first_cell():
    """Two stack-mates whose data cross at t = 0, each under its own
    threshold: the error names the first cell's monitor and threshold."""
    mesh = build_annulus(1.0, 2.0, 17, 16)
    hot = SimConfig(params=SOURCE_PARAMS, n_r=17, n_theta=16, t_end=1.0, initial_scale=1e4)
    st = initial_state(mesh, SOURCE_PARAMS, hot)
    lp = dataclasses.replace(hot, blow_threshold=1e13)  # only the Lp norm crosses
    phase = dataclasses.replace(hot, blow_threshold=1e3)  # the phase norm crosses
    for cfgs, message in (
        ([lp, phase], f"LpNorm monitor (blow_threshold={lp.blow_threshold})"),
        ([phase, lp], f"PhaseNorm monitor (blow_threshold={phase.blow_threshold})"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_batch(cfgs, [st, st])


@pytest.mark.parametrize("calm, t", [
    (True, math.nan), (True, math.inf), (True, 1.0), (True, 2.0), (False, -math.inf),
    (True, -1e20),
])
def test_simulate_rejects_an_initial_t_outside_the_run(calm, t):
    """A supplied initial t must be finite and below t_end, or the run would
    end after 0 steps (nan, t_end and beyond) or bracket a blow-up at
    (-inf, -inf); and t + dt_min must exceed t, or every step would be
    accepted at the same t and the run would never end (-1e20)."""
    cfg = SimConfig(params=SOURCE_PARAMS, n_r=9, n_theta=8, t_end=1.0,
                    initial_mode="scaled" if calm else "auto_negative_energy",
                    initial_scale=0.1 if calm else None)
    good = initial_state(build_annulus(1.0, 2.0, 9, 8), SOURCE_PARAMS, cfg)
    with pytest.raises(ValueError, match="initial t must be finite and below t_end"):
        simulate(cfg, State(good.u, good.v, t))
