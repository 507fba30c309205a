"""Classifier fixtures: exponent thresholds and the verdict table.

The fixture grid walks the four source classes (no source / boundary only /
interior only / both) against linear and nonlinear damping, including the
cells where the theory gives no answer.
"""
import math

import numpy as np
import pytest

from kwlab.model import ModelParams
from kwlab.regimes import VERDICTS, bar, classify, critical_exponents, holder_conjugate

INF = float("inf")


# ---------------------------------------------------------------------------
# exponents and conjugates


@pytest.mark.parametrize(
    "N, r_om, r_ga",
    [
        (2, INF, INF),
        (3, 6.0, INF),
        (4, 4.0, 6.0),
        (5, 10.0 / 3.0, 4.0),
        (6, 3.0, 10.0 / 3.0),
    ],
)
def test_critical_exponent_goldens(N, r_om, r_ga):
    ce = critical_exponents(N)
    assert ce.r_omega == r_om
    assert ce.r_gamma == r_ga


def test_exponent_inequality_chain():
    # the trace exponent always dominates 1 + r_omega/2
    for N in range(2, 11):
        ce = critical_exponents(N)
        assert ce.r_gamma >= 1.0 + ce.r_omega / 2.0


@pytest.mark.parametrize("bad", [1, 1.5, 2.5, 0, -3, INF, math.nan])
def test_dimension_validation(bad):
    with pytest.raises(ValueError):
        critical_exponents(bad)


def test_integral_float_dimension_accepted():
    assert critical_exponents(3.0).r_omega == 6.0


def test_critical_exponents_shared_per_dimension():
    # cached: classify asks for them once per record
    assert critical_exponents(4) is critical_exponents(4)
    assert critical_exponents(4) is not critical_exponents(5)


@pytest.mark.parametrize("rho, conj", [(2.0, 2.0), (3.0, 1.5), (INF, 1.0), (1.5, 3.0)])
def test_holder_conjugate(rho, conj):
    assert holder_conjugate(rho) == pytest.approx(conj)


def test_holder_conjugate_domain():
    for rho in (1.0, -INF, math.nan):
        with pytest.raises(ValueError):
            holder_conjugate(rho)


@pytest.mark.parametrize("rho, want", [(1.5, 2.0), (2.0, 2.0), (3.7, 3.7), (math.nan, None)])
def test_bar(rho, want):
    if want is None:  # max(2, nan) would return 2
        with pytest.raises(ValueError, match="nan"):
            bar(rho)
    else:
        assert bar(rho) == want


# ---------------------------------------------------------------------------
# growth bound (local theory)


@pytest.mark.parametrize(
    "kwargs, ok",
    [
        (dict(N=2, gamma=1.0, p=40, delta=1.0, q=40), True),   # planar: no bound
        (dict(N=3, gamma=1.0, alpha=0.0, p=4), True),          # p <= 1+6/2
        (dict(N=3, gamma=1.0, alpha=0.0, p=4.1), False),
        (dict(N=3, gamma=1.0, alpha=1.0, m=4, p=5.5), True),   # 1+6/(4/3) = 5.5
        (dict(N=3, gamma=1.0, alpha=1.0, m=4, p=5.6), False),
        (dict(N=3, gamma=0.0, p=50), True),                    # inactive source
        (dict(N=4, delta=1.0, beta=0.0, q=4.0), True),         # q <= 1+6/2
        (dict(N=4, delta=1.0, beta=0.0, q=4.1), False),
        (dict(N=3, delta=1.0, beta=0.0, q=50), True),          # r_gamma = inf
    ],
)
def test_growth_bound(kwargs, ok):
    assert classify(ModelParams(**kwargs)).wellposed is ok


def test_damping_softens_growth_bound():
    # with interior damping m=4 the admissible p extends past 1+r/2
    base = dict(N=3, gamma=1.0, p=4.2)
    assert not classify(ModelParams(**base, alpha=0.0)).wellposed
    assert classify(ModelParams(**base, alpha=1.0, m=4)).wellposed


# ---------------------------------------------------------------------------
# global-existence condition


@pytest.mark.parametrize(
    "kwargs, ok",
    [
        (dict(gamma=1.0, alpha=1.0, m=3, p=3), True),    # p <= bar(m)
        (dict(gamma=1.0, alpha=0.0, p=2.5), False),      # needs p <= 2
        (dict(gamma=0.0, delta=0.0, alpha=1.0, m=9, N=3), True),  # class A
        (dict(gamma=1.0, alpha=1.0, m=1.5, p=2), True),  # bar(m)=2
        (dict(delta=1.0, beta=1.0, mu=3, q=3.5, N=2), False),
    ],
)
def test_global_condition(kwargs, ok):
    assert classify(ModelParams(**kwargs)).global_existence is ok


def test_global_condition_high_dimension_strictness():
    # N=5, m=4 > r_omega=10/3: the supplemental bound p < 1+r/m' is strict
    # while the growth bound allows equality, so the exact borderline value
    # stays wellposed but drops out of the global regime
    edge_p = 1.0 + (10.0 / 3.0) / (4.0 / 3.0)  # float-identical to the bound
    good = ModelParams(N=5, gamma=1.0, alpha=1.0, m=4, p=3.4)
    edge = ModelParams(N=5, gamma=1.0, alpha=1.0, m=4, p=edge_p)
    assert classify(good).global_existence
    assert not classify(edge).global_existence
    assert classify(edge).wellposed  # still inside the local theory
    assert classify(edge).conclusion == "Undetermined"
    assert classify(edge).fired == "none"  # above N = 4 no (1.12) note


# ---------------------------------------------------------------------------
# blow-up conditions


@pytest.mark.parametrize(
    "kwargs, ok",
    [
        (dict(gamma=1.0, delta=0.0, alpha=1.0, m=2, p=3, beta=1.0, mu=2, q=2), True),
        (dict(gamma=1.0, delta=0.0, alpha=1.0, m=3, p=3), False),    # p <= bar(m)
        (dict(gamma=1.0, delta=0.0, alpha=0.0, p=3, beta=1.0, mu=4, q=2, N=2), False),
        (dict(gamma=0.0, delta=1.0, q=4, N=2), False),               # needs interior source
    ],
)
def test_interior_blowup_condition(kwargs, ok):
    assert classify(ModelParams(**kwargs)).blowup_interior is ok


@pytest.mark.parametrize(
    "kwargs, ok",
    [
        (dict(gamma=1.0, delta=1.0, alpha=0.0, beta=0.0, p=3, q=3, N=2), True),
        (dict(gamma=1.0, delta=1.0, alpha=0.0, p=3, beta=1.0, mu=3, q=2.5, N=2), False),
        (dict(gamma=1.0, delta=1.0, alpha=0.0, p=4, beta=1.0, mu=2.9, q=2.5, N=2), True),
        (dict(gamma=1.0, delta=0.0, p=3, q=3, N=2), False),
    ],
)
def test_two_source_blowup_condition(kwargs, ok):
    assert classify(ModelParams(**kwargs)).blowup_two_sources is ok


# ---------------------------------------------------------------------------
# verdict table
#
# Each row: (params, conclusion, fired).  Grouped by source class.

TABLE = [
    # class A: no sources -> global regardless of damping
    (dict(gamma=0.0, delta=0.0), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=0.0, alpha=1.0, m=5, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=0.0, beta=2.0, mu=3, b=1.0, N=6), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    # class B: boundary source only
    (dict(gamma=0.0, delta=1.0, q=2, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=1.0, q=3, beta=1.0, mu=4, mu_tilde=2.0, N=3),
     "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=1.0, q=3, N=3), "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"),
    (dict(gamma=0.0, delta=1.0, q=3, beta=1.0, mu=2, N=3),
     "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"),
    (dict(gamma=0.0, delta=1.0, q=3, alpha=1.0, m=2, beta=1.0, mu=2, N=3),
     "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"),
    # ... nonlinear damping + boundary source: open problem
    (dict(gamma=0.0, delta=1.0, q=4, beta=1.0, mu=3, N=3), "Undetermined", "none"),
    (dict(gamma=0.0, delta=1.0, q=3, b=0.5, beta=1.0, mu=2, N=3), "Undetermined", "none"),
    # class C: interior source only
    (dict(gamma=1.0, p=2, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=1.0, p=3, alpha=1.0, m=3, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=1.0, p=4, alpha=1.0, m=2, N=3), "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=3, N=2), "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=4, beta=1.0, mu=2, N=2), "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=4, alpha=1.0, m=3, a=1.0, N=2),
     "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    # ... boundary damping too steep for the interior route, nothing fires
    (dict(gamma=1.0, p=3, beta=1.0, mu=5, mu_tilde=2.0, N=2), "Undetermined", "none"),
    # class D: both sources
    (dict(gamma=1.0, delta=1.0, p=2, q=2, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=1.0, delta=1.0, p=3, q=3, N=2),
     "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"),
    (dict(gamma=1.0, delta=1.0, p=4, q=4, alpha=1.0, beta=1.0, m=2, mu=2, N=2),
     "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"),
    (dict(gamma=1.0, delta=1.0, p=4, q=2.5, beta=1.0, mu=2.9, N=2),
     "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"),
    # ... the two open cells under linear damping
    (dict(gamma=1.0, delta=1.0, p=2, q=3, N=3), "Undetermined", "none"),
    (dict(gamma=1.0, delta=1.0, p=3, q=2, N=3), "Undetermined", "none"),
    # ... nonlinear boundary damping dominating both routes
    (dict(gamma=1.0, delta=1.0, p=3, q=2.5, beta=1.0, mu=6, mu_tilde=2.0, N=2),
     "Undetermined", "none"),
    # outside the local theory
    (dict(N=3, gamma=1.0, alpha=1.0, m=4, p=5.6), "OutsideLocalTheory", "(1.6) violated"),
    (dict(N=3, gamma=1.0, p=4.1), "OutsideLocalTheory", "(1.6) violated"),
    (dict(N=4, delta=1.0, q=4.1), "OutsideLocalTheory", "(1.6) violated"),
]


@pytest.mark.parametrize("kwargs, conclusion, fired", TABLE)
def test_verdict_table(kwargs, conclusion, fired):
    verdict = classify(ModelParams(**kwargs))
    assert verdict.conclusion == conclusion
    assert verdict.fired == fired


def test_verdict_strings_frozen():
    assert VERDICTS == (
        "GlobalForAllData",
        "BlowsUpForNegativeEnergy",
        "OutsideLocalTheory",
        "Undetermined",
    )


def test_interior_label_wins_over_linear_damping():
    # linear damping + superlinear interior source satisfies both routes;
    # the interior condition is the one credited
    v = classify(ModelParams(N=3, gamma=1.0, p=4, alpha=1.0, m=2))
    assert v.blowup_interior and v.blowup_linear_damping
    assert v.fired == "(1.21)/Theorem 1.3"


def test_two_source_label_wins_over_linear_damping():
    v = classify(ModelParams(N=2, gamma=1.0, delta=1.0, p=4, q=4,
                             alpha=1.0, beta=1.0, m=2, mu=2))
    assert v.blowup_two_sources and v.blowup_linear_damping
    assert v.fired == "(1.24bis)/Theorem 1.4"


def test_outside_short_circuits():
    v = classify(ModelParams(N=3, gamma=1.0, p=4.1))
    assert v.conclusion == "OutsideLocalTheory"
    assert not v.wellposed


# ---------------------------------------------------------------------------
# borderline data condition


def test_data_condition_note_appended():
    # N=3, m=7 > r_omega=6, p exactly 1 + 6/m' with m' = 7/6
    p_exact = 1.0 + 6.0 / (7.0 / 6.0)
    par = ModelParams(N=3, gamma=1.0, alpha=1.0, m=7, p=p_exact)
    assert "(1.12)" in classify(par).fired
    v = classify(par)
    assert v.fired.endswith("; (1.12) data condition applies")


def test_data_condition_needs_exact_borderline():
    par = ModelParams(N=3, gamma=1.0, alpha=1.0, m=7, p=6.0)
    assert "(1.12)" not in classify(par).fired


def test_data_condition_boundary_side():
    # N=4: r_gamma=6; mu=7 > 6; q = 1 + 6/(7/6) = 43/7
    q_exact = 1.0 + 6.0 / (7.0 / 6.0)
    par = ModelParams(N=4, delta=1.0, beta=1.0, mu=7, q=q_exact)
    assert "(1.12)" in classify(par).fired


@pytest.mark.parametrize("side", [dict(N=3, gamma=1.0, alpha=0.0, m=7, p=1.0 + 6.0 / (7.0 / 6.0)),
                                  dict(N=4, delta=1.0, beta=0.0, mu=7, q=1.0 + 6.0 / (7.0 / 6.0))])
def test_data_condition_needs_matching_damping(side):
    # the borderline 1 + r/m' belongs to the damping exponent m; with that
    # damping off the side's exponent is 2, so the source is past (1.6) and
    # no note applies
    assert classify(ModelParams(**side)).fired == "(1.6) violated"
    damped = dict(side, **{"alpha" if "alpha" in side else "beta": 1.0})
    assert classify(ModelParams(**damped)).fired.endswith("; (1.12) data condition applies")


# ---------------------------------------------------------------------------
# uniqueness upgrade


@pytest.mark.parametrize(
    "kwargs, ok",
    [
        (dict(N=4, gamma=1.0, p=3.9), True),            # below N=5 it never binds
        (dict(N=5, gamma=1.0, p=2.6), True),            # 1 + (10/3)/2 = 8/3
        (dict(N=5, gamma=1.0, p=2.7), False),
        (dict(N=6, delta=1.0, q=2.6), True),            # 1 + (10/3)/2
        (dict(N=6, delta=1.0, q=2.7), False),
        (dict(N=6, delta=0.0, q=5.0), True),            # inactive source
    ],
)
def test_uniqueness_extra(kwargs, ok):
    assert classify(ModelParams(**kwargs)).uniqueness_extra is ok


# ---------------------------------------------------------------------------
# structural properties


def test_exclusivity_random_sample():
    rng = np.random.default_rng(2024)
    hits = 0
    for _ in range(2000):
        kwargs = _random_params(rng)
        v = classify(ModelParams(**kwargs))
        blow = v.blowup_interior or v.blowup_two_sources or v.blowup_linear_damping
        assert not (v.global_existence and blow)
        if blow:
            hits += 1
    assert hits > 50  # the sample actually explores the blow-up region


def test_outside_iff_not_wellposed_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        v = classify(ModelParams(**_random_params(rng)))
        assert (v.conclusion == "OutsideLocalTheory") == (not v.wellposed)
        assert v.conclusion in VERDICTS


def test_boundary_is_interior_one_dimension_down():
    # a boundary-only record at N decides as the interior-only record at N-1
    # with (delta, q, beta, mu) read as (gamma, p, alpha, m); the exponents
    # include each exact borderline so that ties are exercised
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(3000):
        n = int(rng.integers(3, 10))
        weight = float(rng.uniform(0.1, 2.0))
        damp = float(rng.choice([0.0, rng.uniform(0.1, 2.0)]))
        e_damp = float(rng.choice([1.5, 2.0, 7.0, rng.uniform(1.1, 9.0)]))
        r = critical_exponents(n - 1).r_omega
        d = bar(e_damp) if damp > 0 else 2.0
        e_src = float(rng.choice([rng.uniform(2.0, 12.0), 2.0, d, 1.0 + r / 2.0,
                                  1.0 + r / holder_conjugate(d)]))
        if not 2.0 <= e_src < INF:
            continue
        edge = classify(ModelParams(N=n, delta=weight, q=e_src, beta=damp, mu=e_damp))
        inner = classify(ModelParams(N=n - 1, gamma=weight, p=e_src, alpha=damp, m=e_damp))
        got = [(v.wellposed, v.uniqueness_extra, v.global_existence, "(1.12)" in v.fired)
               for v in (edge, inner)]
        assert got[0] == got[1]
        seen.add(got[0])
    flags = list(zip(*seen))
    assert all(set(f) == {True, False} for f in flags)  # every flag both ways


def _random_params(rng):
    m = float(rng.uniform(2.0, 6.0))
    mu = float(rng.uniform(2.0, 6.0))
    return dict(
        N=int(rng.integers(2, 8)),
        a=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
        b=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
        alpha=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
        beta=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
        gamma=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
        delta=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
        m=m,
        mu=mu,
        m_tilde=float(rng.uniform(1.1, min(2.0, m))),
        mu_tilde=float(rng.uniform(1.1, min(2.0, mu))),
        p=float(rng.uniform(2.0, 7.0)),
        q=float(rng.uniform(2.0, 7.0)),
    )
