"""Parameter record validation and the pointwise nonlinearities, evaluated
through the record's plan (P, Q, f, g and the derivative P.prime)."""
import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwlab import model
from kwlab.model import ModelParams, _Plan


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


def test_from_dict_builds_the_record_and_rejects_unknown_keys():
    doc = {"N": 3, "gamma": 1.0, "p": 4, "alpha": 1.0, "m": 3}
    assert ModelParams.from_dict(doc) == ModelParams(**doc)
    assert ModelParams.from_dict({}) == ModelParams()
    with pytest.raises(ValueError, match=r"unknown model parameters: \['rho', 'zeta'\]"):
        ModelParams.from_dict({"gamma": 1.0, "zeta": 1.0, "rho": 2.0})
    with pytest.raises(ValueError, match="2 <= p"):
        ModelParams.from_dict({"p": 1.5})


def test_default_tilde_is_the_constructors_default():
    for m in (1.5, 2, 3.5):
        assert ModelParams(m=m, mu=m).m_tilde == ModelParams.default_tilde(m) == min(2.0, m)
        assert ModelParams(m=m, mu=m).mu_tilde == ModelParams.default_tilde(m)


EXPONENTS = ("m", "mu", "m_tilde", "mu_tilde", "p", "q")


@pytest.mark.parametrize("value", [3, np.int64(3), 3.0, np.float64(3.0), np.float64(2.5)])
def test_exponents_normalize_to_exact_python_floats(value):
    # exactly float: np.float64 is a float subclass, but its repr differs
    par = ModelParams(**dict.fromkeys(EXPONENTS, value))
    for name in EXPONENTS:
        assert type(getattr(par, name)) is float and getattr(par, name) == value
    assert type(ModelParams(m=value).m_tilde) is float


def test_N_normalizes_to_int_and_equal_records_hash_alike():
    assert type(ModelParams(N=3.0).N) is int and ModelParams(N=3.0).N == 3
    assert type(ModelParams(N=np.int64(3)).N) is int
    a, b = ModelParams(p=3), ModelParams(p=3.0)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(ModelParams(p=np.float64(3.0))) == repr(b)


@dataclasses.dataclass(frozen=True)
class _ReferenceParams:
    """ModelParams as it was when the generated dataclass __init__ stored every
    field and __post_init__ checked them and rewrote N and the exponents."""

    N: int = 2
    a: float = 0.0
    b: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    m: float = 2.0
    mu: float = 2.0
    m_tilde: float | None = None
    mu_tilde: float | None = None
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not (2 <= self.N < math.inf and self.N == int(self.N)):
            raise ValueError(f"N must be an integer >= 2, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        for name in ("a", "b", "alpha", "beta", "gamma", "delta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"constraint violated: 0 <= {name} < inf "
                                 f"(got {getattr(self, name)})")
        if self.m_tilde is None:
            object.__setattr__(self, "m_tilde", min(2.0, float(self.m)))
        if self.mu_tilde is None:
            object.__setattr__(self, "mu_tilde", min(2.0, float(self.mu)))
        for name in EXPONENTS:
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        if not 1.0 < self.m_tilde <= self.m < math.inf:
            raise ValueError(
                f"constraint violated: 1 < m_tilde <= m < inf "
                f"(m_tilde={self.m_tilde}, m={self.m})")
        if not 1.0 < self.mu_tilde <= self.mu < math.inf:
            raise ValueError(
                f"constraint violated: 1 < mu_tilde <= mu < inf "
                f"(mu_tilde={self.mu_tilde}, mu={self.mu})")
        if not 2 <= self.p < math.inf:
            raise ValueError(f"constraint violated: 2 <= p < inf (got {self.p})")
        if not 2 <= self.q < math.inf:
            raise ValueError(f"constraint violated: 2 <= q < inf (got {self.q})")


def reference_params(*args, **kw):
    """The reference constructor's stored fields, each as (type, repr) so that
    -0.0 and np.float64 are told apart, or (exception type, message)."""
    return _outcome(_ReferenceParams, args, kw)


def _outcome(cls, args, kw):
    try:
        record = cls(*args, **kw)
    except Exception as exc:  # the exception itself is compared
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in (getattr(record, f) for f in ModelParams.field_names())]


WEIGHTS = ("a", "b", "alpha", "beta", "gamma", "delta")


def _c09_draws(n, seed):
    """n records drawn as acceptance c09 draws them, vectorized; every fourth
    leaves its tildes unset, and every third has np.float64 fields."""
    rng = np.random.default_rng(seed)
    m, mu = rng.uniform(2.0, 6.0, n), rng.uniform(2.0, 6.0, n)
    cols = {"N": rng.integers(2, 8, n), "m": m, "mu": mu,
            "m_tilde": rng.uniform(1.1, np.minimum(2.0, m)),
            "mu_tilde": rng.uniform(1.1, np.minimum(2.0, mu)),
            "p": rng.uniform(2.0, 7.0, n), "q": rng.uniform(2.0, 7.0, n)}
    for w in WEIGHTS:
        cols[w] = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    lists = {k: v.tolist() for k, v in cols.items()}
    for i in range(n):
        rec = {k: (cols[k][i] if i % 3 == 0 else v[i]) for k, v in lists.items()}
        if i % 4 == 0:
            del rec["m_tilde"], rec["mu_tilde"]
        yield rec


def _edge_records():
    yield from ({}, {"N": np.int64(3)}, {"N": 3.0}, {"N": 2.5}, {"N": 1}, {"N": True},
                {"m": 3, "mu": np.float64(2.5), "p": 4, "q": np.float64(3.0)},
                {"m": 1.5, "mu": np.int64(3)}, {"m": 3.0, "m_tilde": None, "mu_tilde": None},
                {"m": 3.0, "m_tilde": 3.5}, {"mu": 2.0, "mu_tilde": 2.5},
                {"m": 1.5, "m_tilde": 1.5}, {"a": np.float64(0.5), "gamma": 1},
                {"alpha": -0.0, "beta": np.int64(2)})
    for name in ModelParams.field_names():
        for value in (math.nan, math.inf, -math.inf, -1.0, np.float64(math.nan)):
            yield {name: value}
    # two invalid fields at once: the first check to fail is the one reported
    bad = (math.nan, math.inf, -1.0)
    for (f1, f2), (v1, v2) in itertools.product(
            itertools.combinations(ModelParams.field_names(), 2), itertools.product(bad, bad)):
        yield {f1: v1, f2: v2}
    yield {"N": 1, "a": -1.0, "m": 0.5, "p": 1.0}
    yield {"m": 3.0, "m_tilde": 3.5, "mu": 2.0, "mu_tilde": 2.5, "p": 1.0, "q": 1.0}


def test_constructor_matches_the_reference_on_draws_and_edges():
    records = itertools.chain(_c09_draws(20_000, 2501), _edge_records())
    n = 0
    for rec in records:
        assert _outcome(ModelParams, (), rec) == reference_params(**rec), rec
        n += 1
    assert n == 20_000 + 783
    # positional calls bind the same fields in the same order
    args = (3, 0.5, 0.0, 1.0, 0.0, 1.0, 0.0, 3, 2.5, None, 1.5, 4, np.float64(2.0))
    assert _outcome(ModelParams, args, {}) == reference_params(*args)
    assert _outcome(ModelParams, args[:8] + (0.5,), {}) == reference_params(*args[:8], 0.5)


def test_record_contract():
    kw = dict(N=3, a=0.5, alpha=1.0, gamma=1.0, m=3, p=4.0, mu_tilde=1.5)
    par = ModelParams(**kw)
    assert repr(par) == (
        "ModelParams(N=3, a=0.5, b=0.0, alpha=1.0, beta=0.0, gamma=1.0, delta=0.0, "
        "m=3.0, mu=2.0, m_tilde=2.0, mu_tilde=1.5, p=4.0, q=2.0)")
    names = ModelParams.field_names()
    assert tuple(f.name for f in dataclasses.fields(ModelParams)) == names
    assert names == ("N", "a", "b", "alpha", "beta", "gamma", "delta", "m", "mu",
                     "m_tilde", "mu_tilde", "p", "q")
    positional = ModelParams(*(getattr(par, n) for n in names))
    replaced = dataclasses.replace(ModelParams(), **kw)
    for other in (positional, replaced, copy.copy(par), pickle.loads(pickle.dumps(par)),
                  ModelParams.from_dict(dataclasses.asdict(par))):
        assert other == par and hash(other) == hash(par) and repr(other) == repr(par)
    assert dataclasses.replace(par, p=5.0) != par
    assert dataclasses.replace(par, p=5.0).p == 5.0
    with pytest.raises(ValueError, match="2 <= p"):
        dataclasses.replace(par, p=1.0)
    for name in ("p", "N", "zeta"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(par, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(par, name)
    assert par.p == 4.0


def test_plan_is_built_once_per_record(monkeypatch):
    built = []

    def counting_plan(records):
        built.append(records)
        return _Plan(records)

    monkeypatch.setattr(model, "_Plan", counting_plan)
    par = ModelParams(gamma=1.0, p=4)
    assert built == []  # construction builds no plan
    plan = par._plan
    assert par._plan is plan and built == [[par]]
    # a built plan does not enter ==, hash or repr, and copies carry it along
    fresh = ModelParams(gamma=1.0, p=4)
    assert fresh == par and hash(fresh) == hash(par) and repr(fresh) == repr(par)
    assert copy.copy(par)._plan is plan and len(built) == 1
    assert fresh._plan is not plan and len(built) == 2


# ---------------------------------------------------------------------------
# damping terms


def test_damping_example():
    p = ModelParams(alpha=1.0, a=0.0, m=3)
    assert p._plan.P(np.array(2.0)) == pytest.approx(4.0)


def test_damping_zero_velocity():
    p = ModelParams(alpha=2.0, a=1.0, m=3, m_tilde=1.5)
    assert p._plan.P(np.zeros(5)).tolist() == [0.0] * 5


def test_damping_switch_off():
    p = ModelParams(alpha=0.0)
    v = np.linspace(-3, 3, 7)
    assert not p._plan.P(v).any()
    q = ModelParams(beta=0.0)
    assert not q._plan.Q(v).any()
    assert not p._plan.P.prime(v).any()
    assert not q._plan.Q.prime(v).any()


def test_damping_two_terms():
    # alpha*(a*|v|^(mt-2)v + |v|^(m-2)v) at v=-2, alpha=2, a=1, mt=1.5, m=3
    p = ModelParams(alpha=2.0, a=1.0, m=3, m_tilde=1.5)
    want = 2.0 * (1.0 * (2.0 ** (-0.5)) * (-2.0) + 4.0 * (-1.0))
    assert p._plan.P(np.array(-2.0)) == pytest.approx(want)


def test_damping_Q_mirrors_P():
    p = ModelParams(alpha=1.3, a=0.7, m=2.5, m_tilde=2.0,
                    beta=1.3, b=0.7, mu=2.5, mu_tilde=2.0)
    v = np.linspace(-2, 2, 9)
    assert np.allclose(p._plan.P(v), p._plan.Q(v))


def test_damping_derivatives_match_difference_quotients():
    par = ModelParams(alpha=1.3, a=0.7, m=3.5, m_tilde=1.5,
                      beta=0.9, b=0.4, mu=2.5, mu_tilde=1.2)
    v = np.concatenate([-np.geomspace(3.0, 0.05, 8), np.geomspace(0.05, 3.0, 8)])
    h = 1e-6 * np.abs(v)
    for term in (par._plan.P, par._plan.Q):
        quotient = (term(v + h) - term(v - h)) / (2.0 * h)
        assert np.allclose(term.prime(v), quotient, rtol=1e-7)
        assert term.prime(-1.7) == term.prime(1.7) > 0.0
    # an exponent below 2 makes the slope at rest infinite
    with np.errstate(divide="ignore"):
        assert par._plan.P.prime(0.0) == math.inf
    assert ModelParams(beta=1.0, mu=3)._plan.Q.prime(0.0) == 0.0


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
        (par._plan.P(v), par.alpha * (power(v) + par.a * power(v))),
        (par._plan.Q(v), par.beta * (power(v) + par.b * power(v))),
        (ModelParams(alpha=1.3)._plan.P(v), 1.3 * power(v)),
        (par._plan.f(v), par.gamma * power(v)),
        (par._plan.g(v), par.delta * power(v)),
    ]
    nan = np.isnan(v)
    for got, want in cases:
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan]))
    assert not np.signbit(par._plan.P(v)[0])
    scalar = par._plan.P(-0.0)
    assert type(scalar) is float and scalar == 0.0 and math.copysign(1.0, scalar) == 1.0


@pytest.mark.parametrize("shape", [(3, 129, 128), (3, 1, 128)])
def test_term_on_a_stack_equals_the_formula_bitwise(shape):
    """P of a stack whose cells differ in their weights (one of them 1) and
    exponents (none of them a NumPy shortcut), and of one record with weight
    1 or 0.7, is weight*(sign*h0 + weight2*sign*h1), and P' the same form of
    the slopes, each computed directly: bit for bit, at +-0, +-inf, nan and
    subnormal entries too."""
    records = [ModelParams(alpha=al, a=a, m=m, m_tilde=mt)
               for al, a, m, mt in ((1.0, 0.5, 3.5, 1.6), (2.5, 1.5, 4.25, 1.8),
                                    (0.75, 0.25, 2.75, 1.3))]
    alpha, a, m, mt = (np.array([getattr(r, k) for r in records])[:, None, None]
                       for k in ("alpha", "a", "m", "m_tilde"))
    cases = [(_Plan(records), alpha, a, m, mt)]
    for weight in (1.0, 0.7):
        par = ModelParams(alpha=weight, a=0.7, m=3.5, m_tilde=1.6)
        cases.append((par._plan, par.alpha, par.a, par.m, par.m_tilde))
    v = np.random.default_rng(7).standard_normal(shape) * 3.0
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308]
    v[..., 0, :len(specials)] = specials
    abs_v, sign_v = np.abs(v), np.sign(v)

    def h(e):
        return sign_v * abs_v ** (e - 1.0)

    def slope(e):
        return (e - 1.0) * abs_v ** (e - 2.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        for plan, alpha, a, m, mt in cases:
            assert plan.P(v).tobytes() == (alpha * (h(m) + a * h(mt))).tobytes()
            assert plan.P.prime(v).tobytes() == (alpha * (slope(m) + a * slope(mt))).tobytes()


def test_odd_symmetry():
    p = ModelParams(alpha=1.0, a=0.5, m=3.2, m_tilde=1.7)
    v = np.linspace(0.1, 4.0, 13)
    assert np.allclose(p._plan.P(-v), -p._plan.P(v))


# ---------------------------------------------------------------------------
# source terms


def test_source_example():
    p = ModelParams(gamma=1.0, p=4)
    assert p._plan.f(np.array(2.0)) == pytest.approx(8.0)


def test_source_zero_and_switch():
    p = ModelParams(gamma=1.0, p=4)
    assert p._plan.f(np.array(0.0)) == 0.0
    off = ModelParams(gamma=0.0, p=4)
    u = np.linspace(-2, 2, 5)
    assert not off._plan.f(u).any()


def test_boundary_source_mirrors_interior():
    p = ModelParams(gamma=0.9, p=3.5, delta=0.9, q=3.5)
    u = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(p._plan.f(u), p._plan.g(u))


@given(u=st.floats(-50, 50), pexp=st.floats(2.0, 6.0), gamma=st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_euler_identity(u, pexp, gamma):
    # u * f(u) = p * F(u) with F(u) = (gamma/p)|u|^p, the source potential
    # density: the exact-gradient property the energy bookkeeping relies on
    par = ModelParams(gamma=gamma, p=pexp)
    lhs = u * float(par._plan.f(np.array(u)))
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
    assert float(par._plan.P(np.array(v))) * v >= 0.0


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
    pv = par._plan.P(v)
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
    pv = float(par._plan.P(np.array(w)))
    power = pv * w
    assert power > 0.0
    c_prime = max((par.alpha * par.a) ** (1.0 / par.m_tilde),
                  par.alpha ** (1.0 / par.m))
    m_conj = par.m / (par.m - 1.0)
    mt_conj = par.m_tilde / (par.m_tilde - 1.0)
    bound = c_prime * power ** (1.0 / m_conj) + c_prime * power ** (1.0 / mt_conj)
    assert abs(pv) <= bound * (1.0 + 1e-12)
