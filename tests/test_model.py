"""Parameter record validation and the pointwise nonlinearities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwlab.model import (
    ModelParams,
    check_assumptions,
    damping_P,
    damping_P_prime,
    damping_Q,
    damping_Q_prime,
    source_f,
    source_g,
)


def test_defaults_are_valid():
    p = ModelParams()
    assert p.N == 2 and p.m == 2 and p.p == 2
    # unset auxiliary exponents resolve to min(2, principal)
    assert p.m_tilde == 2.0 and p.mu_tilde == 2.0


def test_tilde_resolution_tracks_small_m():
    p = ModelParams(m=1.5)
    assert p.m_tilde == 1.5
    q = ModelParams(m=3.0)
    assert q.m_tilde == 2.0


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(alpha=-1.0), "alpha"),
        (dict(gamma=-0.5), "gamma"),
        (dict(m=1.0), "m_tilde <= m"),
        (dict(m=3.0, m_tilde=3.5), "m_tilde <= m"),
        (dict(mu=2.0, mu_tilde=0.5), "mu_tilde <= mu"),
        (dict(p=1.9), "p"),
        (dict(q=1.0), "q"),
        (dict(alpha=math.inf), "alpha"),
        (dict(delta=math.nan), "delta"),
        (dict(gamma=1.0, p=math.inf), "p < inf"),
        (dict(delta=1.0, q=math.inf), "q < inf"),
        (dict(m=math.inf), "m < inf"),
        (dict(mu=math.inf, mu_tilde=math.inf), "mu < inf"),
        (dict(N=math.inf), "N must be an integer"),
    ],
)
def test_parameter_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        ModelParams(**kwargs)


def test_field_names_cover_constructor():
    names = ModelParams.field_names()
    assert "m_tilde" in names and "gamma" in names
    ModelParams(**{n: v for n, v in zip(names, [ModelParams().__getattribute__(n) for n in names])})


# ---------------------------------------------------------------------------
# damping terms


def test_damping_example():
    p = ModelParams(alpha=1.0, a=0.0, m=3)
    assert damping_P(p, np.array(2.0)) == pytest.approx(4.0)


def test_damping_zero_velocity():
    p = ModelParams(alpha=2.0, a=1.0, m=3, m_tilde=1.5)
    assert damping_P(p, np.zeros(5)).tolist() == [0.0] * 5


def test_damping_switch_off():
    p = ModelParams(alpha=0.0)
    v = np.linspace(-3, 3, 7)
    assert not damping_P(p, v).any()
    q = ModelParams(beta=0.0)
    assert not damping_Q(q, v).any()
    assert not damping_P_prime(p, v).any()
    assert not damping_Q_prime(q, v).any()


def test_damping_two_terms():
    # alpha*(a*|v|^(mt-2)v + |v|^(m-2)v) at v=-2, alpha=2, a=1, mt=1.5, m=3
    p = ModelParams(alpha=2.0, a=1.0, m=3, m_tilde=1.5)
    want = 2.0 * (1.0 * (2.0 ** (-0.5)) * (-2.0) + 4.0 * (-1.0))
    assert damping_P(p, np.array(-2.0)) == pytest.approx(want)


def test_damping_Q_mirrors_P():
    p = ModelParams(alpha=1.3, a=0.7, m=2.5, m_tilde=2.0,
                    beta=1.3, b=0.7, mu=2.5, mu_tilde=2.0)
    v = np.linspace(-2, 2, 9)
    assert np.allclose(damping_P(p, v), damping_Q(p, v))


def test_damping_derivatives_match_difference_quotients():
    par = ModelParams(alpha=1.3, a=0.7, m=3.5, m_tilde=1.5,
                      beta=0.9, b=0.4, mu=2.5, mu_tilde=1.2)
    v = np.concatenate([-np.geomspace(3.0, 0.05, 8), np.geomspace(0.05, 3.0, 8)])
    h = 1e-6 * np.abs(v)
    for f, df in ((damping_P, damping_P_prime), (damping_Q, damping_Q_prime)):
        quotient = (f(par, v + h) - f(par, v - h)) / (2.0 * h)
        assert np.allclose(df(par, v), quotient, rtol=1e-7)
        assert df(par, -1.7) == df(par, 1.7) > 0.0
    # an exponent below 2 makes the slope at rest infinite
    assert damping_P_prime(par, 0.0) == math.inf
    assert damping_Q_prime(ModelParams(beta=1.0, mu=3), 0.0) == 0.0


def test_exponent_two_equals_general_power_bitwise():
    # the e = 2 fast path must reproduce sign(v)*|v|**1.0 exactly, -0.0 -> +0.0
    v = np.concatenate([
        [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e300],
        np.random.default_rng(3).standard_normal(40),
    ])

    def power(x):
        return np.sign(x) * np.abs(x) ** 1.0

    par = ModelParams(alpha=1.3, a=0.7, beta=0.9, b=0.4, gamma=2.5, delta=1.5)
    cases = [
        (damping_P(par, v), par.alpha * (power(v) + par.a * power(v))),
        (damping_Q(par, v), par.beta * (power(v) + par.b * power(v))),
        (damping_P(ModelParams(alpha=1.3), v), 1.3 * power(v)),
        (source_f(par, v), par.gamma * power(v)),
        (source_g(par, v), par.delta * power(v)),
    ]
    nan = np.isnan(v)
    for got, want in cases:
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
    assert not np.signbit(damping_P(par, v)[0])
    scalar = damping_P(par, -0.0)
    assert type(scalar) is float and scalar == 0.0 and math.copysign(1.0, scalar) == 1.0


def test_odd_symmetry():
    p = ModelParams(alpha=1.0, a=0.5, m=3.2, m_tilde=1.7)
    v = np.linspace(0.1, 4.0, 13)
    assert np.allclose(damping_P(p, -v), -damping_P(p, v))


# ---------------------------------------------------------------------------
# source terms


def test_source_example():
    p = ModelParams(gamma=1.0, p=4)
    assert source_f(p, np.array(2.0)) == pytest.approx(8.0)


def test_source_zero_and_switch():
    p = ModelParams(gamma=1.0, p=4)
    assert source_f(p, np.array(0.0)) == 0.0
    off = ModelParams(gamma=0.0, p=4)
    u = np.linspace(-2, 2, 5)
    assert not source_f(off, u).any()


def test_boundary_source_mirrors_interior():
    p = ModelParams(gamma=0.9, p=3.5, delta=0.9, q=3.5)
    u = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(source_f(p, u), source_g(p, u))


@given(u=st.floats(-50, 50), pexp=st.floats(2.0, 6.0), gamma=st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_euler_identity(u, pexp, gamma):
    # u * f(u) = p * F(u) with F(u) = (gamma/p)|u|^p, the source potential
    # density: the exact-gradient property the energy bookkeeping relies on
    par = ModelParams(gamma=gamma, p=pexp)
    lhs = u * float(source_f(par, np.array(u)))
    rhs = pexp * ((gamma / pexp) * abs(u) ** pexp)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(
    v=st.floats(-100, 100),
    alpha=st.floats(0.0, 4.0),
    a=st.floats(0.0, 4.0),
    m=st.floats(2.0, 6.0),
    mt=st.floats(1.1, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_dissipativity(v, alpha, a, m, mt):
    par = ModelParams(alpha=alpha, a=a, m=m, m_tilde=mt)
    assert float(damping_P(par, np.array(v))) * v >= 0.0


@given(
    vs=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
    alpha=st.floats(0.0, 3.0),
    a=st.floats(0.0, 3.0),
    m=st.floats(2.0, 5.0),
)
@settings(max_examples=200, deadline=None)
def test_monotonicity(vs, alpha, a, m):
    par = ModelParams(alpha=alpha, a=a, m=m)
    v = np.sort(np.asarray(vs))
    pv = damping_P(par, v)
    assert np.all(np.diff(pv) >= -1e-12 * np.maximum(1.0, np.abs(pv[:-1])))


@pytest.mark.parametrize("v", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_structural_growth_bound(v, sign):
    """|P(v)| <= c'*(P(v)v)^(1/m') + c'*(P(v)v)^(1/mt') at sample points.

    c' = max((alpha*a)^(1/mt), alpha^(1/m)) works for the two-power model:
    each term of |P| is bounded by its own share of (Pv) raised to the
    conjugate-exponent power.
    """
    par = ModelParams(alpha=1.5, a=0.8, m=3.0, m_tilde=1.8)
    w = sign * v
    pv = float(damping_P(par, np.array(w)))
    power = pv * w
    assert power > 0.0
    c_prime = max((par.alpha * par.a) ** (1.0 / par.m_tilde),
                  par.alpha ** (1.0 / par.m))
    m_conj = par.m / (par.m - 1.0)
    mt_conj = par.m_tilde / (par.m_tilde - 1.0)
    bound = c_prime * power ** (1.0 / m_conj) + c_prime * power ** (1.0 / mt_conj)
    assert abs(pv) <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# assumption report


def test_assumption_report_main_example():
    p = ModelParams(N=3, gamma=1.0, delta=0.0, alpha=1.0, m=3, p=3.4,
                    q=2, mu=2, beta=0.0)
    rep = check_assumptions(p)
    assert rep.local_theory is True
    assert rep.f1 is True
    assert rep.g1 is False
    assert rep.g2 is False
    assert rep.gamma0 == pytest.approx(1.0 * (1 - 2 / 3.4))
    assert rep.gamma1 == 0.0


def test_assumption_f1_needs_superlinear():
    rep = check_assumptions(ModelParams(gamma=1.0, p=2))
    assert rep.f1 is False


def test_assumption_boundary_constants():
    rep = check_assumptions(ModelParams(delta=1.0, q=3, beta=0.0))
    assert rep.g1 is True
    assert rep.delta0 == pytest.approx(1.0 / 3.0)
    assert rep.delta1 == 0.0
    assert rep.q_bar == 3
