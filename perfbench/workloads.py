"""The four benchmark workloads: inputs from a seed, the ops, and their checks.

Every input is drawn in ``build`` with vectorized numpy before the timer
starts; the program only ever sees the generated records, configs and
queries.  A workload's round is its fixed list of ops; the runner times each
op and then hands its output to the op's check.

A check returns one status per checked unit (a scan cell, a simulation, a
record, an ODE query):

    OK       the output matched its reference
    FLAGGED  the output was wrong or missing, and the program said so
             (an ``IntegrationWarning`` from the quadrature, or a raised
             error) -- only the oracle stream can end up here
    WRONG    the output was wrong and nothing said so

References that cannot be derived independently are recorded at the commit
that introduced this benchmark in ``reference.json`` (see
``record_reference.py``).  So that any seed has recorded references, the
damped configs and the classifier records are drawn once from a fixed pool
seed, and the workload seed chooses which pool entries a run uses.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning

from kwlab import cli, oracle, regimes, solver
from kwlab.geometry import build_annulus
from kwlab.model import ModelParams

OK, FLAGGED, WRONG = "ok", "flagged", "wrong"
POOL_SEED = 20240
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class Op:
    kind: str  # latency stream the op's time goes to
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def energy_nonincreasing(E, residual, slack) -> bool:
    """The c05 rule: each report-to-report rise of E stays within
    10*|identity_residual| (plus ``slack`` per step)."""
    return all(
        e1 - e0 <= 10.0 * abs(r1) + slack(e0, e1)
        for e0, e1, r1 in zip(E, E[1:], residual[1:])
    )


# ---------------------------------------------------------------------------
# scan


class Scan:
    """ClassifyAndSimulate sweeps through cli.run_scan on p x q grids around
    the two-source, linear-damping record.  The seed jitters both axis
    ranges; lo stays above 2 so every cell simulates."""

    name = "scan"
    STEPS = 4
    BASE = dict(N=2, gamma=1.0, delta=1.0, alpha=1.0, beta=1.0, m=2.0, mu=2.0)

    def __init__(self, tmp: Path, reference: dict):
        self.out = tmp / "scan.csv"

    def build(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        lo = 2.25 + 0.05 * rng.random(2)
        hi = lo + 2.7 + 0.05 * rng.random(2)
        spec = cli.ScanSpec(
            base=ModelParams(**self.BASE),
            axis1=("p", float(lo[0]), float(hi[0]), self.STEPS),
            axis2=("q", float(lo[1]), float(hi[1]), self.STEPS),
            mode="ClassifyAndSimulate",
        )
        expected = []

        def check(path) -> list[str]:
            if not expected:
                expected.extend(self._expected_rows(spec))
            rows = Path(path).read_text().splitlines()
            if rows[0] != "p,q,verdict,fired,blew_up" or len(rows) != len(expected) + 1:
                return [WRONG] * len(expected)
            return [OK if g == e else WRONG for g, e in zip(rows[1:], expected)]

        return [Op("scan", lambda: cli.run_scan(spec, self.out), check)]

    @staticmethod
    def _expected_rows(spec) -> list[str]:
        """Rows built from direct classify calls.  At the commit that
        introduced this benchmark every simulated cell (verdict
        BlowsUpForNegativeEnergy, negative-energy data) blew up, so that is
        the blew_up reference."""
        rows = []
        for v1 in _axis(spec.axis1):
            for v2 in _axis(spec.axis2):
                par = dataclasses.replace(spec.base, p=v1, q=v2)
                v = regimes.classify(par)
                blew = "true" if v.conclusion == "BlowsUpForNegativeEnergy" else ""
                rows.append(f"{v1:.9g},{v2:.9g},{v.conclusion},{v.fired},{blew}")
        return rows


def _axis(axis) -> list[float]:
    _, lo, hi, steps = axis
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


# ---------------------------------------------------------------------------
# damped


def damped_pool(n: int) -> list[dict]:
    """Global-existence records with nonlinear damping: interior m in [3, 5]
    with an m_tilde term, boundary mu in [3, 4], sources below their
    dampings (p, q in [2, 3]); sine or ramp data at scale [0.5, 1.5]."""
    rng = np.random.default_rng(POOL_SEED)
    cols = dict(
        a=rng.uniform(0.5, 1.5, n),
        m=rng.uniform(3.0, 5.0, n),
        m_tilde=rng.uniform(1.2, 2.0, n),
        mu=rng.uniform(3.0, 4.0, n),
        p=rng.uniform(2.0, 3.0, n),
        q=rng.uniform(2.0, 3.0, n),
        scale=rng.uniform(0.5, 1.5, n),
        sine=rng.random(n) < 0.5,
    )
    return [
        {
            "params": dict(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0,
                           **{k: float(cols[k][i]) for k in ("a", "m", "m_tilde", "mu", "p", "q")}),
            "profile": "sine" if cols["sine"][i] else "ramp",
            "scale": float(cols["scale"][i]),
        }
        for i in range(n)
    ]


def damped_config(entry: dict, t_end: float) -> solver.SimConfig:
    return solver.SimConfig(
        params=ModelParams(**entry["params"]), n_r=33, n_theta=32, t_end=t_end,
        initial_profile=entry["profile"], initial_scale=entry["scale"],
        report_every=10,
    )


class Damped:
    """Nonlinear-damping runs on the 33x32 mesh: the only workload where the
    iterative damping solve (_solve_damped_kick) runs."""

    name = "damped"
    POOL = 96
    PICK = 24
    T_END = 0.25

    def __init__(self, tmp: Path, reference: dict):
        self.ref = reference["damped"]
        if len(self.ref["runs"]) != self.POOL or self.ref["t_end"] != self.T_END:
            raise ValueError("reference.json does not match the damped pool")

    def build(self, seed: int) -> list[Op]:
        pool = damped_pool(self.POOL)
        # At the recording commit a step takes either 4 to 8 or 16 to 51
        # damping evaluations, and which one depends on rounding in the
        # kick's safeguard, not on any parameter.  Drawing one entry from
        # each stratum of the recorded count gives every seed the same mix,
        # so seeds differ in their records but not in what a round costs.
        runs = self.ref["runs"]
        order = sorted(range(self.POOL), key=lambda i: (runs[i]["evals_per_step"], i))
        width = self.POOL // self.PICK
        rng = np.random.default_rng(seed)
        offsets = rng.integers(0, width, self.PICK)
        picks = [order[k * width + int(o)] for k, o in enumerate(offsets)]
        ops = []
        for i in picks:
            cfg = damped_config(pool[i], self.T_END)
            mesh = build_annulus(cfg.r_inner, cfg.r_outer, cfg.n_r, cfg.n_theta)
            state = solver.initial_state(mesh, cfg.params, cfg)
            ops.append(Op(
                "simulate",
                lambda cfg=cfg, state=state: solver.simulate(cfg, initial=state),
                lambda out, ref=runs[i]: [self._check(out, ref)],
            ))
        return ops

    @staticmethod
    def _check(out, ref) -> str:
        reports, rep = out
        ok = (
            not rep.blew_up
            and rep.steps == ref["steps"]
            and rel_close(rep.final_report.E, ref["E"], 1e-9)
            and energy_nonincreasing(
                [r.E for r in reports], [r.identity_residual for r in reports],
                lambda e0, e1: 1e-15,
            )
        )
        return OK if ok else WRONG


# ---------------------------------------------------------------------------
# fine_grid


FINE_PARAMS = {"gamma": 1.0, "p": 2.0, "alpha": 1.0, "m": 2.0}


def fine_grid_doc(scale: float, t_end: float) -> dict:
    return {
        "params": FINE_PARAMS,
        "mesh": {"n_r": 129, "n_theta": 128},
        "initial_data": {"profile": "ramp", "mode": "scaled", "scale": scale},
        "t_end": t_end,
        "report_every": 10,
    }


class FineGrid:
    """One cli.run_simulate of the calm contrast record on the 129x128 mesh,
    with trajectory.csv and blowup.json written to a scratch directory.

    The record is linear (p = m = 2), so the final energy at data scale s is
    s^2 times the one recorded at scale 1."""

    name = "fine_grid"

    def __init__(self, tmp: Path, reference: dict):
        self.ref = reference["fine_grid"]
        self.dir = tmp / "fine_grid"

    def build(self, seed: int) -> list[Op]:
        scale = 0.5 + float(np.random.default_rng(seed).random())
        self.dir.mkdir(parents=True, exist_ok=True)
        config = self.dir / "config.json"
        config.write_text(json.dumps(fine_grid_doc(scale, self.ref["t_end"])))
        out_dir = self.dir / "out"

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run_simulate(config, out_dir)

        return [Op("simulate", run, lambda _rep: [self._check(out_dir, scale)])]

    def _check(self, out_dir: Path, scale: float) -> str:
        doc = json.loads((out_dir / "blowup.json").read_text())
        lines = (out_dir / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        E = [float(r[header.index("E")]) for r in rows]
        res = [float(r[header.index("identity_residual")]) for r in rows]
        ok = (
            doc["blew_up"] is False
            and doc["steps"] == self.ref["steps"]
            and rel_close(doc["final_report"]["E"], scale * scale * self.ref["E"], 1e-9)
            # the CSV keeps 9 significant digits, so allow its rounding
            and energy_nonincreasing(E, res, lambda e0, e1: 1e-8 * max(abs(e0), abs(e1)))
        )
        return OK if ok else WRONG


# ---------------------------------------------------------------------------
# theory


def theory_pool(n: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Parameter records drawn as in acceptance c09, vectorized: (N, the
    other fields by name)."""
    rng = np.random.default_rng(POOL_SEED)
    m = rng.uniform(2.0, 6.0, n)
    mu = rng.uniform(2.0, 6.0, n)
    cols = {"m": m, "mu": mu}
    for w in ("a", "b", "alpha", "beta", "gamma", "delta"):
        cols[w] = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
    cols["m_tilde"] = rng.uniform(1.1, np.minimum(2.0, m))
    cols["mu_tilde"] = rng.uniform(1.1, np.minimum(2.0, mu))
    cols["p"] = rng.uniform(2.0, 7.0, n)
    cols["q"] = rng.uniform(2.0, 7.0, n)
    return rng.integers(2, 8, n), cols


def theory_records(pool, picks) -> list[dict]:
    N, cols = pool
    fields = {k: v[picks].tolist() for k, v in cols.items()}
    return [
        dict(N=n, **{k: v[j] for k, v in fields.items()})
        for j, n in enumerate(N[picks].tolist())
    ]


def ode_queries(rng, band: tuple[float, float], n: int) -> tuple[list, list, list]:
    """Comparison-ODE queries: l in ``band``, c in [0, 5] and
    psi0 = (c+1)^(1/l) + U(0.1, 4), so psi0 > c^(1/l) always holds."""
    l = rng.uniform(*band, n)
    c = rng.uniform(0.0, 5.0, n)
    psi0 = (c + 1.0) ** (1.0 / l) + rng.uniform(0.1, 4.0, n)
    return l.tolist(), c.tolist(), psi0.tolist()


def tail(Y: float, l: float, c: float) -> float:
    """integral_Y^inf dtau/(tau^l - c), by the series in c/tau^l to third order."""
    return sum(c**k * Y ** (1.0 - (k + 1) * l) / ((k + 1) * l - 1.0) for k in range(3))


class Theory:
    """Two scalar streams: ModelParams + classify on c09-style records, and
    comparison-ODE queries (blowup_time plus the integrate_comparison
    cross-check, as ``kwlab oracle --trajectory`` runs them).

    The timed queries draw l from BAND.  At the commit that introduced
    this benchmark, blowup_time was right on each of 60,000 draws with l in
    [1.5, 4], checked against a log-substitution quadrature.  Below that, down to l = 1.05, blowup_time returns about 0 or
    a negative T_m on some draws with c > 0 (the highest such l seen was
    1.47).  That defect is measured on its own, untimed: ``defect_probe``
    runs PROBE queries drawn from FULL_BAND with the same check and counts
    what fails, without filtering any draw."""

    name = "theory"
    POOL = 30000
    RECORDS = 20000
    QUERIES = 32
    PROBE = 200
    BAND = (1.6, 4.0)
    FULL_BAND = (1.05, 4.0)
    THRESHOLD = 1e6

    def __init__(self, tmp: Path, reference: dict):
        ref = reference["theory"]
        self.labels = [tuple(x) for x in ref["labels"]]
        self.codes = ref["codes"]
        if len(self.codes) != self.POOL:
            raise ValueError("reference.json does not match the theory pool")
        self.probe_queries = []

    def build(self, seed: int) -> list[Op]:
        rng = np.random.default_rng(seed)
        picks = rng.choice(self.POOL, self.RECORDS, replace=False)
        records = theory_records(theory_pool(self.POOL), picks)
        l, c, psi0 = ode_queries(rng, self.BAND, self.QUERIES)
        self.probe_queries = list(zip(*ode_queries(rng, self.FULL_BAND, self.PROBE)))
        ops = [
            Op("classify",
               lambda rec=rec: regimes.classify(ModelParams(**rec)),
               lambda v, want=self.labels[ord(self.codes[i]) - 65]:
                   [OK if (v.conclusion, v.fired) == want else WRONG])
            for rec, i in zip(records, picks.tolist())
        ]
        ops += [
            Op("oracle", lambda q=q: self._oracle(*q), self._check_oracle)
            for q in zip(l, c, psi0)
        ]
        return ops

    def defect_probe(self) -> dict[str, int]:
        """Run the full-band queries once, untimed; count their statuses
        and the IntegrationWarnings they raised."""
        counts = {OK: 0, FLAGGED: 0, WRONG: 0, "quad_warnings": 0}
        for q in self.probe_queries:
            try:
                out = self._oracle(*q)
            except (ArithmeticError, RuntimeError, ValueError):
                counts[FLAGGED] += 1  # refusing a query is the flag
                continue
            counts[self._check_oracle(out)[0]] += 1
            counts["quad_warnings"] += out[2]
        return counts

    def _oracle(self, l, c, psi0):
        prob = oracle.OdeProblem(l=l, c=c, psi0=psi0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            try:
                t_m = oracle.blowup_time(prob)
            except (ArithmeticError, RuntimeError, ValueError):
                t_m = None
        t_hit = oracle.integrate_comparison(prob, self.THRESHOLD)[-1][0]
        n_warn = sum(issubclass(w.category, IntegrationWarning) for w in caught)
        return (l, c), t_m, n_warn, t_hit

    def _check_oracle(self, out) -> list[str]:
        (l, c), t_m, n_warn, t_hit = out
        if t_m is not None:
            want = t_hit + tail(self.THRESHOLD, l, c)
            if math.isfinite(t_m) and abs(t_m - want) <= 1e-6 * max(1.0, t_m):
                return [OK]
        return [FLAGGED if n_warn or t_m is None else WRONG]


WORKLOADS = {w.name: w for w in (Scan, Damped, FineGrid, Theory)}
