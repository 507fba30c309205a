"""Release acceptance suite.

One test per numbered criterion; each prints a single
``[acceptance NN] PASS`` line (visible under ``pytest -s``) so the run
doubles as a checklist.  Budgets quoted in the messages are wall-clock
ceilings the heavy benchmarks must stay under.
"""
import json
import math
import time

import numpy as np
import pytest

from kwlab import cli
from kwlab.geometry import build_annulus
from kwlab.model import ModelParams
from kwlab.oracle import OdeProblem, blowup_time, integrate_comparison
from kwlab.regimes import bar, classify, critical_exponents
from kwlab.solver import SimConfig, negative_energy_data, simulate


def ok(num: int, msg: str) -> None:
    print(f"[acceptance {num:02d}] PASS {msg}")


# ---------------------------------------------------------------------------
# 1. critical-exponent goldens


def test_c01_exponent_goldens():
    golden = {
        2: (math.inf, math.inf),
        3: (6.0, math.inf),
        4: (4.0, 6.0),
        5: (10.0 / 3.0, 4.0),
        6: (3.0, 10.0 / 3.0),
    }
    for n, (r_om, r_ga) in golden.items():
        ce = critical_exponents(n)
        assert ce.r_omega == r_om
        assert ce.r_gamma == r_ga
    for n in range(2, 11):
        ce = critical_exponents(n)
        assert ce.r_gamma >= 1.0 + ce.r_omega / 2.0
    ok(1, "exponent goldens N=2..6 exact; boundary-vs-interior bound N=2..10")


# ---------------------------------------------------------------------------
# 2. verdict table goldens

VERDICT_TABLE = [
    # no sources: global regardless of damping
    (dict(gamma=0.0, delta=0.0), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=0.0, alpha=1.0, m=5, N=3),
     "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=0.0, beta=2.0, mu=3, b=1.0, N=6),
     "GlobalForAllData", "(1.15)/Theorem 1.1"),
    # boundary source only
    (dict(gamma=0.0, delta=1.0, q=2, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=1.0, q=3, beta=1.0, mu=4, mu_tilde=2.0, N=3),
     "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=0.0, delta=1.0, q=3, N=3),
     "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"),
    (dict(gamma=0.0, delta=1.0, q=3, beta=1.0, mu=2, N=3),
     "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"),
    (dict(gamma=0.0, delta=1.0, q=3, alpha=1.0, m=2, beta=1.0, mu=2, N=3),
     "BlowsUpForNegativeEnergy", "(1.19)/Theorem 1.2"),
    (dict(gamma=0.0, delta=1.0, q=4, beta=1.0, mu=3, N=3), "Undetermined", "none"),
    (dict(gamma=0.0, delta=1.0, q=3, b=0.5, beta=1.0, mu=2, N=3),
     "Undetermined", "none"),
    # interior source only
    (dict(gamma=1.0, p=2, N=3), "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=1.0, p=3, alpha=1.0, m=3, N=3),
     "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=1.0, p=4, alpha=1.0, m=2, N=3),
     "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=3, N=2), "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=4, beta=1.0, mu=2, N=2),
     "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=4, alpha=1.0, m=3, a=1.0, N=2),
     "BlowsUpForNegativeEnergy", "(1.21)/Theorem 1.3"),
    (dict(gamma=1.0, p=3, beta=1.0, mu=5, mu_tilde=2.0, N=2),
     "Undetermined", "none"),
    # both sources
    (dict(gamma=1.0, delta=1.0, p=2, q=2, N=3),
     "GlobalForAllData", "(1.15)/Theorem 1.1"),
    (dict(gamma=1.0, delta=1.0, p=3, q=3, N=2),
     "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"),
    (dict(gamma=1.0, delta=1.0, p=4, q=4, alpha=1.0, beta=1.0, m=2, mu=2, N=2),
     "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"),
    (dict(gamma=1.0, delta=1.0, p=4, q=2.5, beta=1.0, mu=2.9, N=2),
     "BlowsUpForNegativeEnergy", "(1.24bis)/Theorem 1.4"),
    # mixed sub/superlinear sources under linear damping: open cells
    (dict(gamma=1.0, delta=1.0, p=2, q=3, alpha=1.0, m=2, beta=1.0, mu=2, N=3),
     "Undetermined", "none"),
    (dict(gamma=1.0, delta=1.0, p=3, q=2, alpha=1.0, m=2, beta=1.0, mu=2, N=3),
     "Undetermined", "none"),
    (dict(gamma=1.0, delta=1.0, p=2, q=3, N=3), "Undetermined", "none"),
    (dict(gamma=1.0, delta=1.0, p=3, q=2, N=3), "Undetermined", "none"),
    # growth bounds violated: outside the local theory
    (dict(N=3, gamma=1.0, alpha=1.0, m=4, p=5.6),
     "OutsideLocalTheory", "(1.6) violated"),
    (dict(N=3, gamma=1.0, p=4.1), "OutsideLocalTheory", "(1.6) violated"),
    (dict(N=4, delta=1.0, q=4.1), "OutsideLocalTheory", "(1.6) violated"),
]


def test_c02_verdict_table():
    assert len(VERDICT_TABLE) >= 20
    for kwargs, conclusion, fired in VERDICT_TABLE:
        verdict = classify(ModelParams(**kwargs))
        assert verdict.conclusion == conclusion, kwargs
        assert verdict.fired == fired, kwargs
    ok(2, f"{len(VERDICT_TABLE)} verdict-table fixtures match exactly")


# ---------------------------------------------------------------------------
# 3. comparison-ODE oracle


def test_c03_oracle_goldens():
    t0 = time.perf_counter()
    cases = [
        (OdeProblem(l=2.0, c=0.0, psi0=1.0), 1.0),
        (OdeProblem(l=3.0, c=0.0, psi0=2.0), 0.125),
        (OdeProblem(l=2.0, c=1.0, psi0=2.0), 0.5 * math.log(3.0)),
    ]
    for prob, want in cases:
        t_m = blowup_time(prob)
        assert abs(t_m - want) <= 1e-8
        t_hit = integrate_comparison(prob, blow_threshold=1e6)[-1][0]
        assert 0.0 < t_m - t_hit <= 2e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(3, f"3 blow-up times within 1e-8, hits within 2e-6 ({elapsed:.2f}s < 1s)")


# ---------------------------------------------------------------------------
# 4. discrete energy identity


def test_c04_energy_identity_convergence():
    t0 = time.perf_counter()
    par = ModelParams()  # no damping, no sources

    def run(refine):
        base_dt = SimConfig(params=par, n_r=65, n_theta=64, cfl=0.4).dt
        cfg = SimConfig(
            params=par, n_r=65, n_theta=64, dt=base_dt / refine,
            t_end=10.0, initial_profile="sine", initial_scale=0.5,
            report_every=10 * refine,
        )
        reports, blowup = simulate(cfg)
        assert not blowup.blew_up
        e0 = reports[0].E
        drift = max(abs(r.E - e0) for r in reports) / abs(e0)
        accumulated = sum(abs(r.identity_residual) for r in reports)
        return drift, accumulated

    drift, acc_coarse = run(1)
    assert drift <= 1e-3
    _, acc_fine = run(2)
    ratio = acc_coarse / acc_fine
    assert 3.2 <= ratio <= 4.8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(4, f"drift {drift:.2e} <= 1e-3, dt-halving ratio {ratio:.2f} in "
          f"[3.2, 4.8] ({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 5. dissipation sign


def test_c05_dissipation_sign():
    t0 = time.perf_counter()
    worst = -math.inf
    for m in (2, 4):
        par = ModelParams(alpha=1.0, m=m)
        cfg = SimConfig(
            params=par, n_r=33, n_theta=32, t_end=3.0,
            initial_profile="sine", initial_scale=0.5, report_every=1,
        )
        reports, _ = simulate(cfg)
        for prev, cur in zip(reports, reports[1:]):
            increase = cur.E - prev.E
            assert increase <= 10.0 * abs(cur.identity_residual) + 1e-15
            worst = max(worst, increase)
        assert all(r.dissipation_rate >= 0.0 for r in reports)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(5, f"E nonincreasing for m=2,4 (worst step {worst:.1e}); "
          f"dissipation_rate >= 0 at every step ({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 6. interior-source blow-up benchmark


def test_c06_blowup_benchmark():
    t0 = time.perf_counter()
    par = ModelParams(gamma=1.0, p=4, alpha=1.0, m=2)
    cfg = SimConfig(
        params=par, n_r=33, n_theta=32, t_end=100.0, dt_min=1e-5,
        blow_threshold=1e13, report_every=10,
        initial_mode="auto_negative_energy", initial_margin=1.0,
    )
    reports, blowup = simulate(cfg)
    assert blowup.blew_up
    assert blowup.t_detect < 100.0
    # K = -E grows monotonically and stays below J, within the local
    # identity-residual error of each report interval
    for prev, cur in zip(reports, reports[1:]):
        slack = 10.0 * abs(cur.identity_residual) + 1e-6 * max(1.0, abs(prev.K))
        assert cur.K - prev.K >= -slack
    for r in reports:
        assert r.K <= r.J + 1e-9 * max(1.0, abs(r.J))
    final = blowup.final_report
    phase_norm = math.sqrt(final.phase_norm_sq)
    assert phase_norm > 1e6
    assert final.lp_interior > 1e6
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(6, f"blew up at t={blowup.t_detect:.3f}; K monotone, K <= J; "
          f"phase norm {phase_norm:.1e} and |u|_p^p {final.lp_interior:.1e} "
          f"> 1e6 ({elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 7. contrast benchmark: same data, subcritical source


def test_c07_contrast_benchmark():
    t0 = time.perf_counter()
    mesh = build_annulus(1.0, 2.0, 33, 32)
    hot_par = ModelParams(gamma=1.0, p=4, alpha=1.0, m=2)
    data = negative_energy_data(mesh, hot_par, "ramp", margin=1.0)
    calm_par = ModelParams(gamma=1.0, p=2, alpha=1.0, m=2)  # p <= max(2, m)
    assert classify(calm_par).conclusion == "GlobalForAllData"
    cfg = SimConfig(
        params=calm_par, n_r=33, n_theta=32, t_end=50.0,
        blow_threshold=1e8, report_every=20,
    )
    reports, blowup = simulate(cfg, initial=data)
    assert not blowup.blew_up
    assert reports[-1].t == pytest.approx(50.0, abs=1e-9)
    growth = max(r.phase_norm_sq for r in reports) / reports[0].phase_norm_sq
    assert growth <= 100.0  # phase norm within 10x its initial value
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(7, f"same data stays global to t=50; phase norm grew "
          f"{math.sqrt(growth):.2f}x <= 10x ({elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 8. two-source blow-up benchmark


def test_c08_two_source_benchmark():
    t0 = time.perf_counter()
    par = ModelParams(gamma=1.0, delta=1.0, p=4, q=4,
                      alpha=1.0, beta=1.0, m=2, mu=2)
    verdict = classify(par)
    assert verdict.conclusion == "BlowsUpForNegativeEnergy"
    assert verdict.fired == "(1.24bis)/Theorem 1.4"
    cfg = SimConfig(
        params=par, n_r=33, n_theta=32, t_end=100.0, dt_min=1e-5,
        blow_threshold=1e8, report_every=10,
        initial_mode="auto_negative_energy", initial_margin=1.0,
    )
    _, blowup = simulate(cfg)
    assert blowup.blew_up
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(8, f"fired {verdict.fired!r}; blew up at t={blowup.t_detect:.3f} "
          f"({elapsed:.1f}s < 60s)")


# ---------------------------------------------------------------------------
# 9. property suites


def _random_params(rng):
    m = float(rng.uniform(2.0, 6.0))
    mu = float(rng.uniform(2.0, 6.0))
    # each weight is 0 or U(0, 2) with equal odds; indexing the pair draws
    # what rng.choice([0.0, u]) draws, without building an array per weight
    return ModelParams(
        N=int(rng.integers(2, 8)),
        a=(0.0, rng.uniform(0.0, 2.0))[rng.integers(0, 2)],
        b=(0.0, rng.uniform(0.0, 2.0))[rng.integers(0, 2)],
        alpha=(0.0, rng.uniform(0.0, 2.0))[rng.integers(0, 2)],
        beta=(0.0, rng.uniform(0.0, 2.0))[rng.integers(0, 2)],
        gamma=(0.0, rng.uniform(0.0, 2.0))[rng.integers(0, 2)],
        delta=(0.0, rng.uniform(0.0, 2.0))[rng.integers(0, 2)],
        m=m,
        mu=mu,
        m_tilde=float(rng.uniform(1.1, min(2.0, m))),
        mu_tilde=float(rng.uniform(1.1, min(2.0, mu))),
        p=float(rng.uniform(2.0, 7.0)),
        q=float(rng.uniform(2.0, 7.0)),
    )


def test_c09_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    blow_hits = dominance_hits = 0
    for _ in range(100_000):
        par = _random_params(rng)
        v = classify(par)
        blow = v.blowup_interior or v.blowup_two_sources or v.blowup_linear_damping
        assert not (v.global_existence and blow)
        if blow:
            blow_hits += 1
        if not v.wellposed:
            continue
        ce = critical_exponents(par.N)
        # a source strong enough to beat its damping must itself sit
        # strictly inside the growth bound, and so must the damping
        if par.gamma > 0 and par.p > bar(par.m if par.alpha > 0 else 2.0):
            dominance_hits += 1
            assert par.p < ce.r_omega
            if par.alpha > 0:
                assert bar(par.m) < ce.r_omega
        if par.delta > 0 and par.q > bar(par.mu if par.beta > 0 else 2.0):
            assert par.q < ce.r_gamma
            if par.beta > 0:
                assert bar(par.mu) < ce.r_gamma
    assert blow_hits > 1000
    assert dominance_hits > 1000

    for _ in range(1000):
        l = float(rng.uniform(1.5, 4.0))
        c = float(rng.uniform(0.0, 5.0))
        psi0 = (c + 1.0) ** (1.0 / l) + float(rng.uniform(0.1, 4.0))
        t_base = blowup_time(OdeProblem(l=l, c=c, psi0=psi0))
        assert blowup_time(OdeProblem(l=l, c=c, psi0=1.4 * psi0)) < t_base
        assert blowup_time(OdeProblem(l=l, c=c + 1.0, psi0=psi0)) > t_base

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(9, f"1e5 classifier draws exclusive ({blow_hits} blow-up, "
          f"{dominance_hits} dominance checks); 1e3 oracle monotonicity "
          f"draws ({elapsed:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 10. scan determinism across two serial runs


def test_c10_scan_determinism(tmp_path):
    argv = ["scan", "--gamma", "1", "--alpha", "1", "--m", "2",
            "--axis1", "p:2:5:4", "--axis2", "q:2:5:4",
            "--mode", "ClassifyAndSimulate", "--out", None]
    outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"scan_{run}.csv"
        argv[-1] = str(out)
        assert cli.main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    n_rows = len(outputs[0].splitlines()) - 1
    ok(10, f"{n_rows}-cell ClassifyAndSimulate scan byte-identical for "
           f"two serial runs")
