"""Turning the data by whole columns turns the run with it.

Every theta operator applies one stencil at every column, the wrap columns
included, and nothing else in a step depends on which column a value sits
in.  So a state rolled by k columns steps to the rolled step, bit for bit,
and a whole run from rolled data ends the same way.  Its reports sum over
the columns in another order, so they agree only to rounding.  The data is
non-radial: acceptance c06's negative-energy ramp times 1 + 0.3 cos 2theta,
which blows up, so the check reaches large amplitudes as well as the start.
"""
import dataclasses

import numpy as np
import pytest

from kwlab.functionals import REPORT_COLUMNS, State
from kwlab.geometry import build_annulus
from kwlab.model import ModelParams
from kwlab.solver import SimConfig, negative_energy_data, simulate, step

CFG = SimConfig(params=ModelParams(gamma=1.0, p=4, alpha=1.0, m=2), n_r=17, n_theta=16,
                t_end=100.0, dt_min=1e-5, blow_threshold=1e13, report_every=10)
SHIFTS = (1, 3, 5)  # cos 2theta repeats every 8 of the 16 columns


def wavy_data() -> State:
    mesh = build_annulus(CFG.r_inner, CFG.r_outer, CFG.n_r, CFG.n_theta)
    ramp = negative_energy_data(mesh, CFG.params, "ramp", margin=1.0)
    return State(ramp.u * (1.0 + 0.3 * np.cos(2.0 * mesh.theta)), ramp.v.copy())


def rolled(state: State, k: int) -> State:
    return State(np.roll(state.u, k, axis=-1), np.roll(state.v, k, axis=-1), state.t)


@pytest.mark.parametrize("k", SHIFTS)
def test_a_rolled_state_steps_to_the_rolled_step_bit_for_bit(k):
    mesh = build_annulus(CFG.r_inner, CFG.r_outer, CFG.n_r, CFG.n_theta)
    base = wavy_data()
    turned = rolled(base, k)
    s_base = s_turned = None
    for _ in range(33):  # the last one to stay finite
        base, s_base = step(mesh, base, CFG.params, CFG.dt, s_base)
        turned, s_turned = step(mesh, turned, CFG.params, CFG.dt, s_turned)
        for x, y in ((base.u, turned.u), (base.v, turned.v), (s_base, s_turned)):
            assert np.roll(x, k, axis=-1).tobytes() == y.tobytes()
        assert base.t == turned.t
    assert np.abs(base.u).max() > 1e6  # near blow-up, from about 3.8


@pytest.mark.parametrize("k", SHIFTS)
def test_a_run_from_rolled_data_ends_as_the_run_it_turns(k):
    """Same outcome, t_detect, steps and trigger; every report column within
    1e-12 * max(1, |value|)."""
    reports, end = simulate(CFG, initial=wavy_data())
    reports_k, end_k = simulate(CFG, initial=rolled(wavy_data(), k))
    assert end.blew_up
    outcome = ("blew_up", "t_detect", "steps", "trigger")
    assert [getattr(end_k, f) for f in outcome] == [getattr(end, f) for f in outcome]
    assert len(reports_k) == len(reports)
    for a, b in zip(reports + [end.final_report], reports_k + [end_k.final_report]):
        for column, x, y in zip(REPORT_COLUMNS, dataclasses.astuple(a), dataclasses.astuple(b)):
            if x is None or y is None:
                assert x is None and y is None, column
                continue
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (column, a.t, x, y)
