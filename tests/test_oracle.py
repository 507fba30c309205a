"""Scalar comparison ODE: quadrature blow-up time vs direct integration."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kwlab.oracle import OdeProblem, blowup_time, integrate_comparison

# closed forms: int_{psi0}^inf dtau/tau^l = psi0^(1-l)/(l-1), and for
# l = 2, c = 1 partial fractions give (1/2) ln((psi0+1)/(psi0-1))
GOLDEN = [
    (OdeProblem(l=2.0, c=0.0, psi0=1.0), 1.0),
    (OdeProblem(l=3.0, c=0.0, psi0=2.0), 0.125),
    (OdeProblem(l=2.0, c=1.0, psi0=2.0), 0.5 * math.log(3.0)),
]


@pytest.mark.parametrize("prob,want", GOLDEN)
def test_blowup_time_golden(prob, want):
    assert abs(blowup_time(prob) - want) <= 1e-9


def test_blowup_time_tolerance_argument():
    prob = OdeProblem(l=2.0, c=1.0, psi0=2.0)
    want = 0.5 * math.log(3.0)
    assert abs(blowup_time(prob, tol=1e-6) - want) <= 1e-6
    assert abs(blowup_time(prob, tol=1e-12) - want) <= 1e-11


def test_problem_validation():
    with pytest.raises(ValueError, match="l must exceed 1"):
        OdeProblem(l=1.0, c=0.0, psi0=1.0)
    with pytest.raises(ValueError, match="c must be nonnegative"):
        OdeProblem(l=2.0, c=-1.0, psi0=1.0)
    # the hypothesis is strict: psi0 == c^(1/l) is rejected too
    with pytest.raises(ValueError, match="hypothesis violated"):
        OdeProblem(l=2.0, c=4.0, psi0=2.0)
    with pytest.raises(ValueError, match="hypothesis violated"):
        OdeProblem(l=2.0, c=4.0, psi0=1.5)


def test_blowup_time_rejects_bad_tol():
    prob = OdeProblem(l=2.0, c=0.0, psi0=1.0)
    for tol in (0.0, -1e-10, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            blowup_time(prob, tol=tol)


def test_integrate_validation():
    prob = OdeProblem(l=2.0, c=0.0, psi0=5.0)
    for threshold in (5.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="blow_threshold must exceed psi0"):
            integrate_comparison(prob, blow_threshold=threshold)
    for eta in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            integrate_comparison(prob, eta=eta)


@pytest.mark.parametrize("l", [1.05, 1.001])
def test_blowup_time_raises_when_quadrature_fails(l):
    # c > 0 with l near 1 pushes the cut to ~1e13, where QUADPACK gives up;
    # the parent returned about 0 (true T_m is about 19.9 at l = 1.05)
    with pytest.raises(RuntimeError, match="quadrature of T_m failed"):
        blowup_time(OdeProblem(l=l, c=1.0, psi0=2.0))


def test_hitting_time_exact_solution():
    # y = 1/(1-t) reaches Y at t = 1 - 1/Y
    traj = integrate_comparison(
        OdeProblem(l=2.0, c=0.0, psi0=1.0), blow_threshold=1e3
    )
    t_hit, y_hit = traj[-1]
    assert y_hit == 1e3
    assert abs(t_hit - (1.0 - 1e-3)) <= 1e-8


def test_hitting_time_undershoots_by_tail():
    prob = OdeProblem(l=2.0, c=1.0, psi0=2.0)
    t_m = blowup_time(prob)
    t_hit = integrate_comparison(prob, blow_threshold=1e6)[-1][0]
    assert t_hit < t_m
    assert t_m - t_hit <= 2e-6  # remaining tail above 1e6 is ~1e-6


@pytest.mark.parametrize(
    "prob",
    [
        OdeProblem(l=2.0, c=0.0, psi0=1.0),
        OdeProblem(l=2.5, c=0.3, psi0=1.2),
        OdeProblem(l=4.0, c=2.0, psi0=1.5),
    ],
)
def test_two_routes_agree(prob):
    """T_m(psi0) - t_hit(Y) must equal the tail T_m(Y) for any threshold Y."""
    threshold = 1e5
    t_hit = integrate_comparison(prob, blow_threshold=threshold)[-1][0]
    tail = blowup_time(
        OdeProblem(l=prob.l, c=prob.c, psi0=threshold), tol=1e-13
    )
    t_m = blowup_time(prob, tol=1e-13)
    assert abs((t_m - t_hit) - tail) <= 1e-8 * max(1.0, t_m)


def test_trajectory_shape_and_monotonicity():
    prob = OdeProblem(l=3.0, c=0.5, psi0=1.1)
    traj = integrate_comparison(prob, blow_threshold=1e4)
    assert traj[0] == (0.0, 1.1)
    t = np.array([p[0] for p in traj])
    y = np.array([p[1] for p in traj])
    assert np.all(np.diff(t) > 0)
    assert np.all(np.diff(y) > 0)  # y' = y^l - c > 0 under the hypothesis
    assert traj[-1][1] == 1e4


def test_time_decreases_in_initial_height():
    rng = np.random.default_rng(11)
    for _ in range(25):
        l = rng.uniform(1.2, 4.0)
        c = rng.uniform(0.0, 5.0)
        psi0 = c ** (1.0 / l) + rng.uniform(0.1, 5.0)
        lo = blowup_time(OdeProblem(l=l, c=c, psi0=psi0))
        hi = blowup_time(OdeProblem(l=l, c=c, psi0=1.5 * psi0))
        assert hi < lo


def test_time_increases_in_damping_offset():
    # l >= 1.5 keeps the far tail light enough for quad's subdivision budget
    rng = np.random.default_rng(12)
    for _ in range(25):
        l = rng.uniform(1.5, 4.0)
        c = rng.uniform(0.0, 5.0)
        psi0 = (c + 1.0) ** (1.0 / l) + rng.uniform(0.1, 3.0)
        assert blowup_time(OdeProblem(l=l, c=c + 1.0, psi0=psi0)) > blowup_time(
            OdeProblem(l=l, c=c, psi0=psi0)
        )


def test_hitting_time_against_solve_ivp():
    prob = OdeProblem(l=2.5, c=0.7, psi0=1.5)
    threshold = 1e4
    t_hit = integrate_comparison(prob, blow_threshold=threshold)[-1][0]

    def hit(t, y):
        return y[0] - threshold

    hit.terminal = True
    sol = solve_ivp(
        lambda t, y: [abs(y[0]) ** prob.l - prob.c],
        (0.0, 2.0 * blowup_time(prob)),
        [prob.psi0],
        events=hit,
        rtol=1e-11,
        atol=1e-12,
    )
    assert sol.t_events[0].size == 1
    assert abs(t_hit - sol.t_events[0][0]) <= 1e-7
