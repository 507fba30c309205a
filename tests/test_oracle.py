"""Scalar comparison ODE: quadrature blow-up time vs direct integration."""
import math
import resource
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.integrate
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
    assert abs(blowup_time(prob) - want) <= 1e-15


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
    # non-finite l and psi0 are invalid, not a T_m of 0 or nan
    for l in (math.inf, math.nan):
        with pytest.raises(ValueError, match="l must exceed 1 and be finite"):
            OdeProblem(l=l, c=0.0, psi0=2.0)
    for psi0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="psi0 must be finite"):
            OdeProblem(l=2.0, c=0.0, psi0=psi0)


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


def series(l, c, psi0, terms=400):
    """T_m expanded in c/tau^l: sum_j c^j psi0^(1-(j+1)l)/((j+1)l - 1), a
    geometric-rate series with ratio c*psi0^(-l), independent of quad."""
    return math.fsum(
        c**j * psi0 ** (1.0 - (j + 1) * l) / ((j + 1) * l - 1.0) for j in range(terms)
    )


def near_edge_reference(n, delta):
    """T_m for l = 1 + 1/n, c = 1, psi0 = 1 + delta in closed form.

    With m = n + 1 and x = psi0^(-1/n), T_m = n * int_0^x dw/(1 - w^m), which
    splits over the m-th roots of unity r into -(n/m) sum_r r ln(1 - x/r).  The
    r = 1 term takes 1 - x from delta directly, since 1 - x loses digits near
    the edge.  At n = 1 this is (1/2) ln((psi0+1)/(psi0-1)).
    """
    m = n + 1
    x = (1.0 + delta) ** (-1.0 / n)
    roots = np.exp(2j * np.pi * np.arange(1, m) / m)
    others = -np.sum(roots * np.log(1.0 - x / roots)).real
    return n / m * (-math.log(-math.expm1(-math.log1p(delta) / n)) + others)


@pytest.mark.parametrize(
    "l, want", [pytest.param(1.05, 19.902118008449, id="1.05"),
                pytest.param(1.001, 999.997796752135, id="1.001")]
)
def test_blowup_time_l_near_one_golden(l, want):
    # c > 0 with l near 1: the slowest tails, decaying like tau^(1-l)
    t_m = blowup_time(OdeProblem(l=l, c=1.0, psi0=2.0))
    assert abs(t_m - want) <= 1e-9
    assert abs(t_m - series(l, 1.0, 2.0)) <= 1e-10


def test_l_near_one_golden_against_rk4():
    # no quadrature: the RK4 hitting time of Y = 1e30 plus the c = 0 tail
    # Y^(1-l)/(l-1); the c terms of the tail are below 1e-31
    l, Y = 1.05, 1e30
    t_hit = integrate_comparison(OdeProblem(l=l, c=1.0, psi0=2.0), Y)[-1][0]
    assert abs(t_hit + Y ** (1.0 - l) / (l - 1.0) - 19.902118008449) <= 1e-6


def test_blowup_time_matches_series_over_the_full_band():
    rng = np.random.default_rng(21)
    for _ in range(60):
        l = rng.uniform(1.05, 4.0)
        c = rng.uniform(0.0, 5.0)
        psi0 = (c + 1.0) ** (1.0 / l) + rng.uniform(0.1, 4.0)
        assert abs(blowup_time(OdeProblem(l=l, c=c, psi0=psi0)) - series(l, c, psi0)) <= 1e-10


def test_huge_psi0():
    # psi0^l overflows a double; T_m = 2 psi0^(-1/2) (1 + O(1/psi0^1.5))
    t_m = blowup_time(OdeProblem(l=1.5, c=1.0, psi0=1e300))
    assert t_m == pytest.approx(2e-150, rel=1e-14)


@pytest.mark.parametrize("n, per_decade", [(1, 10), (16, 100)])
def test_near_edge_answers_within_tol_or_raises(n, per_decade):
    # psi0 -> 1 = c^(1/l): T_m diverges like -ln(psi0 - 1)/l and one rounding
    # moves it more and more.  At l = 1 + 1/16 a rounding of the upper limit
    # psi0^(1-l) weighs 16 times more than one of psi0; a guard on psi0 alone
    # answers psi0 = 1 + 10^-5.05 with an error of 1.36e-10 (tol 1e-10)
    tol = 1e-10
    answered, refused = [], []
    for e in range(2 * per_decade, 10 * per_decade + 1):
        prob = OdeProblem(l=1.0 + 1.0 / n, c=1.0, psi0=1.0 + 10.0 ** (-e / per_decade))
        delta = prob.psi0 - 1.0  # exact
        try:
            t_m = blowup_time(prob, tol)
        except RuntimeError as exc:
            assert "ill-conditioned" in str(exc)
            refused.append(delta)
            continue
        assert abs(t_m - near_edge_reference(n, delta)) <= tol, delta
        answered.append(delta)
    assert answered and refused
    assert max(refused) < min(answered)


@pytest.mark.parametrize(
    "prob",
    [
        # one rounding of psi0 moves T_m by about 1e-9 and 4e-9 (tol 1e-10)
        OdeProblem(l=2.0, c=1.0, psi0=1.0 + 1e-7),
        OdeProblem(l=2.0, c=1.0, psi0=1.0 + 3e-8),
        # the first double above c^(1/l)
        OdeProblem(l=2.0, c=2.0, psi0=math.nextafter(math.sqrt(2.0), 3.0)),
        # T_m is about 1e206 and psi0^(1-l) overflows
        OdeProblem(l=4.0, c=0.0, psi0=1e-103),
    ],
)
def test_blowup_time_refuses_ill_conditioned(prob):
    with pytest.raises(RuntimeError, match="ill-conditioned"):
        blowup_time(prob)


def test_blowup_time_raises_when_quadrature_fails(monkeypatch):
    def failing_quad(*args, **kwargs):
        return 1.0, 1e-3, {}, "The maximum number of subdivisions (200) has been achieved."

    monkeypatch.setattr(scipy.integrate, "quad", failing_quad)
    with pytest.raises(RuntimeError, match="quadrature of T_m failed.*subdivisions"):
        blowup_time(OdeProblem(l=2.0, c=1.0, psi0=2.0))


def reference_rk4(prob, blow_threshold=1e6, eta=1e-3):
    """integrate_comparison's loop with its right-hand side as a function:
    the reference the inlined loop must reproduce exactly."""
    l, c = prob.l, prob.c

    def rhs(y):
        return abs(y) ** l - c

    t, y = 0.0, prob.psi0
    traj = [(t, y)]
    while y < blow_threshold:
        dt = eta * y ** (1.0 - l)
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y_new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if y_new >= blow_threshold:
            traj.append((t + (blow_threshold - y) * dt / (y_new - y), blow_threshold))
            return traj
        t, y = t + dt, y_new
        traj.append((t, y))
    return traj


@pytest.mark.parametrize(
    "l, c, psi0, threshold", [(2.0, 1.0, 2.0, 1e6), (1.7, 0.5, 3.0, 1e5), (3.3, 0.0, 0.4, 1e4)]
)
def test_integrate_matches_reference_loop(l, c, psi0, threshold):
    prob = OdeProblem(l=l, c=c, psi0=psi0)
    assert integrate_comparison(prob, threshold) == reference_rk4(prob, threshold)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_integrate_raises_when_a_step_stalls(tmp_path):
    """A step that leaves y where it was (y^l - c near eps, or a tiny eta)
    must raise, not loop forever; through the CLI that is exit 3 with
    nothing on stdout.  The child's time and address space are capped so a
    hang fails the test instead of growing the trajectory without bound."""
    child = textwrap.dedent(f"""
        import math
        from kwlab import cli
        from kwlab.oracle import OdeProblem, integrate_comparison
        for prob, eta in ((OdeProblem(l=2, c=1, psi0=math.nextafter(1.0, 2.0)), 1e-3),
                          (OdeProblem(l=2, c=0, psi0=1), 1e-17)):
            try:
                integrate_comparison(prob, eta=eta)
            except RuntimeError as exc:
                assert "stalled" in str(exc), exc
            else:
                raise AssertionError(f"no RuntimeError for {{prob}}, eta={{eta}}")
        assert cli.main(["oracle", "--l", "2", "--c", "1", "--psi0", "1.0000000000000002",
                         "--tol", "4", "--trajectory", {str(tmp_path / "t.csv")!r}]) == 3
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=5, preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: integration of y' = |y|^l - c stalled")
    assert not (tmp_path / "t.csv").exists()


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
        l = rng.uniform(1.05, 4.0)
        c = rng.uniform(0.0, 5.0)
        psi0 = c ** (1.0 / l) + rng.uniform(0.1, 5.0)
        lo = blowup_time(OdeProblem(l=l, c=c, psi0=psi0))
        hi = blowup_time(OdeProblem(l=l, c=c, psi0=1.5 * psi0))
        assert hi < lo


def test_time_increases_in_damping_offset():
    rng = np.random.default_rng(12)
    for _ in range(25):
        l = rng.uniform(1.05, 4.0)
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
