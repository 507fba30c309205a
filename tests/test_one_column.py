"""The one-column mesh (n_theta = 1) against the 2-D run of the same radial data.

Radial data stays radial under the scheme, bit for bit, and on one column
every theta difference is an exact zero.  So each row of a 2-D step equals
the one-column step of that row, and a simulate on one column ends as the 2-D
one does; only the quadratures' sums (reports, and the scale that
auto_negative_energy solves for) differ, at rounding.  Records: acceptance
c06's, c07's and c08's configs and a Newton-damped one (m = 3, m_tilde =
1.5), at 17, 33 and 65 radial nodes against n_theta = n_r - 1.
"""
import dataclasses

import numpy as np
import pytest

from kwlab.functionals import REPORT_COLUMNS, State
from kwlab.geometry import build_annulus
from kwlab.model import ModelParams
from kwlab.solver import SimConfig, negative_energy_data, simulate, step

HOT = ModelParams(gamma=1.0, p=4, alpha=1.0, m=2)
# name -> (params, SimConfig keywords, the record whose negative-energy ramp
# data the run starts from, or None for the config's own data)
RECORDS = {
    "c06": (HOT, dict(t_end=100.0, dt_min=1e-5, blow_threshold=1e13, report_every=10,
                      initial_margin=1.0), None),
    "c07": (ModelParams(gamma=1.0, p=2, alpha=1.0, m=2),
            dict(t_end=50.0, blow_threshold=1e8, report_every=20), HOT),
    "c08": (ModelParams(gamma=1.0, delta=1.0, p=4, q=4, alpha=1.0, beta=1.0, m=2, mu=2),
            dict(t_end=100.0, dt_min=1e-5, blow_threshold=1e8, report_every=10,
                 initial_margin=1.0), None),
    "newton": (ModelParams(gamma=1.0, p=4, alpha=1.0, a=0.5, m=3, m_tilde=1.5),
               dict(t_end=20.0, dt_min=1e-5, report_every=5, initial_margin=1.0), None),
}
CASES = [(name, n_r) for name in RECORDS for n_r in (17, 33, 65)]


def run(name, n_r, n_theta):
    params, keywords, data_params = RECORDS[name]
    cfg = SimConfig(params=params, n_r=n_r, n_theta=n_theta, **keywords)
    initial = None
    if data_params is not None:
        mesh = build_annulus(cfg.r_inner, cfg.r_outer, n_r, n_theta)
        initial = negative_energy_data(mesh, data_params, "ramp", margin=1.0)
    return simulate(cfg, initial=initial)


@pytest.mark.parametrize("name, n_r", CASES)
def test_one_column_simulate_ends_as_the_2d_run(name, n_r):
    """Same outcome, steps, t_detect and bracket; every report column within
    1e-12 of its size.  The identity residual subtracts energies, so its
    rounding is E's: it is held to max(1, |residual|, |E|)."""
    reports_2d, end_2d = run(name, n_r, n_r - 1)
    reports_1, end_1 = run(name, n_r, 1)
    outcome = ("blew_up", "t_detect", "t_bracket", "trigger", "steps", "dt_final")
    assert [getattr(end_1, f) for f in outcome] == [getattr(end_2d, f) for f in outcome]
    assert len(reports_1) == len(reports_2d)
    for a, b in zip(reports_2d + [end_2d.final_report], reports_1 + [end_1.final_report]):
        for column, x, y in zip(REPORT_COLUMNS, dataclasses.astuple(a), dataclasses.astuple(b)):
            if x is None or y is None:
                assert x is None and y is None, column
                continue
            scale = max(1.0, abs(x), abs(a.E) if column == "identity_residual" else 0.0)
            assert abs(x - y) <= 1e-12 * scale, (column, a.t, x, y)


@pytest.mark.parametrize("name, n_r", CASES)
def test_one_column_steps_are_the_2d_rows_bit_for_bit(name, n_r):
    """Stepped side by side with the 2-D run's dt, every row of the 2-D state
    equals the one-column state at every step, and so does S(u)."""
    params, _, data_params = RECORDS[name]
    mesh_2d, mesh_1 = build_annulus(1.0, 2.0, n_r, n_r - 1), build_annulus(1.0, 2.0, n_r, 1)
    dt = SimConfig(params=params, n_r=n_r, n_theta=n_r - 1).dt
    two = negative_energy_data(mesh_2d, data_params or params, "ramp", margin=1.0)
    one = State(two.u[:, :1].copy(), two.v[:, :1].copy())
    s_2d = s_1 = None
    for _ in range(40):
        two, s_2d = step(mesh_2d, two, params, dt, s_2d)
        one, s_1 = step(mesh_1, one, params, dt, s_1)
        for x, y in ((two.u, one.u), (two.v, one.v), (s_2d, s_1)):
            assert x.tobytes() == np.broadcast_to(y, x.shape).tobytes()
        assert two.t == one.t
