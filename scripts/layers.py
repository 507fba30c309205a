"""Best-of-N time per call of a step's kernels, by mesh size, and of the scalar layers.

    python3 scripts/layers.py [--repeat 7] [--number 100]

Imports kwlab from this checkout's src/ and times, with timeit, each kernel
on the c06 record (gamma = 1, p = 4, alpha = 1, m = 2) over radii 1..2 at
17x16, 33x32, 65x64 and 129x128, and on a stack of 16 such 17x16 cells.
The state is the record's negative-energy ramp data (margin 1) after five
steps, so u and v are both nonzero; the stack's cells are that state scaled
by 1, 1.01, ..., 1.15.  Each kernel runs NUMBER times per repeat, and the
least of REPEAT repeats is printed in microseconds per call; one untimed
pass over every kernel runs first, so the first column pays no warm-up.

  laplacian, laplace_beltrami, gradient_energy   the geometry operators (the
                                                 trace for laplace_beltrami)
  _max_norm_bounds                               the monitor's max-norm bound
  _crossing certified                            threshold 1e13: the bound
                                                 proves the cell calm
  _crossing exact                                threshold 1.001 times the
                                                 larger exact norm: the bound
                                                 proves nothing, so the exact
                                                 norms are evaluated
  step                                           one step, S(u) passed in
  make_report                                    one cell only ("-" on the stack)

A second table times the scalar layers of the theory workload, untraced, on
one fixed record in the ranges acceptance c09 draws from (N = 5, every weight
on) and one comparison-ODE query (l = 2.5, c = 2, psi0 = 2.5, threshold 1e6).
ModelParams(**rec), RegimeVerdict(...) and classify take microseconds, so
they run 100 * NUMBER times per repeat; blowup_time and integrate_comparison
take milliseconds and run max(1, NUMBER // 10) times.  The calls column gives
the count; the least of REPEAT repeats is printed in microseconds per call.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kwlab import functionals, geometry, model, oracle, regimes, solver  # noqa: E402
from kwlab.functionals import State, make_report  # noqa: E402
from kwlab.model import ModelParams  # noqa: E402

PARAMS = ModelParams(gamma=1.0, p=4.0, alpha=1.0, m=2.0)
GRIDS = [(17, 16), (33, 32), (65, 64), (129, 128)]
STACK = 16
RECORD = dict(N=5, a=0.6, b=0.3, alpha=1.2, beta=0.8, gamma=1.5, delta=0.4, m=3.1, mu=4.2,
              m_tilde=1.5, mu_tilde=1.7, p=3.3, q=4.4)
QUERY = oracle.OdeProblem(l=2.5, c=2.0, psi0=2.5)


def case(n_r, n_theta, cells):
    """(label, mesh, state, plan, dt) for one column of the table."""
    mesh = geometry.build_annulus(1.0, 2.0, n_r, n_theta)
    cfg = solver.SimConfig(params=PARAMS, n_r=n_r, n_theta=n_theta)
    state = solver.negative_energy_data(mesh, PARAMS)
    state, s_u = State(state.u, state.v), None
    for _ in range(5):
        state, s_u = solver.step(mesh, state, PARAMS, cfg.dt, s_u)
    if cells is None:
        return f"{n_r}x{n_theta}", mesh, state, PARAMS._plan, cfg.dt
    scale = (1.0 + 0.01 * np.arange(cells))[:, None, None]
    stack = State(scale * state.u, scale * state.v, state.t)
    return f"{cells}x{n_r}x{n_theta}", mesh, stack, model._Plan([PARAMS] * cells), cfg.dt


def kernels(mesh, state, plan, dt):
    """name -> zero-argument callable; make_report only for one cell."""
    u = state.u
    params = PARAMS if u.ndim == 2 else plan
    s_u = solver._accel(mesh, u, plan)
    with np.errstate(all="ignore"):
        phase = functionals._phase_parts(mesh, state)[3]
        lp, lq = functionals._source_norms(mesh, u, plan)
    near = 1.001 * np.maximum(np.sqrt(phase), lp + lq)
    bound = functionals._max_norm_bounds(mesh, state, plan)
    if ((bound[0] < near * near) & (bound[1] < near)).any():
        raise SystemExit("the bound certifies a cell at the 'exact' threshold")
    out = {
        "laplacian": lambda: geometry.laplacian(mesh, u),
        "laplace_beltrami": lambda: geometry.laplace_beltrami(mesh, u[..., -1, :]),
        "gradient_energy": lambda: geometry.gradient_energy(mesh, u),
        "_max_norm_bounds": lambda: functionals._max_norm_bounds(mesh, state, plan),
        "_crossing certified": lambda: solver._crossing(mesh, state, plan, 1e13),
        "_crossing exact": lambda: solver._crossing(mesh, state, plan, near),
        "step": lambda: solver.step(mesh, state, params, dt, s_u),
    }
    if u.ndim == 2:
        out["make_report"] = lambda: make_report(mesh, state, PARAMS)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--number", type=int, default=100)
    args = ap.parse_args(argv)
    if args.repeat < 1 or args.number < 1:
        ap.error("--repeat and --number must be at least 1")
    columns = [case(n_r, n_theta, None) for n_r, n_theta in GRIDS]
    columns.append(case(*GRIDS[0], STACK))
    calls = [(label, kernels(mesh, state, plan, dt)) for label, mesh, state, plan, dt in columns]
    for _, row in calls:
        for call in row.values():
            timeit.repeat(call, repeat=1, number=args.number)
    table = {}
    for label, row in calls:
        for name, call in row.items():
            best = min(timeit.repeat(call, repeat=args.repeat, number=args.number))
            table.setdefault(name, {})[label] = 1e6 * best / args.number
    labels = [label for label, _ in calls]
    width = max(map(len, table))
    print(f"best of {args.repeat} x {args.number} calls, us per call")
    print(" " * width + "".join(f"{label:>12}" for label in labels))
    for name, row in table.items():
        cells = (f"{row[label]:12.1f}" if label in row else f"{'-':>12}" for label in labels)
        print(f"{name:<{width}}" + "".join(cells))
    print()
    scalar_table(args.repeat, args.number)


def scalar_table(repeat, number):
    """The theory workload's scalar layers, untraced (see the module docstring)."""
    par = ModelParams(**RECORD)
    fields = dataclasses.astuple(regimes.classify(par))
    rows = [
        ("ModelParams(**rec)", 100 * number, lambda: ModelParams(**RECORD)),
        ("RegimeVerdict(...)", 100 * number, lambda: regimes.RegimeVerdict(*fields)),
        ("classify", 100 * number, lambda: regimes.classify(par)),
        ("blowup_time", max(1, number // 10), lambda: oracle.blowup_time(QUERY)),
        ("integrate_comparison", max(1, number // 10),
         lambda: oracle.integrate_comparison(QUERY, 1e6)),
    ]
    print(f"scalar layers, untraced: best of {repeat}, us per call")
    print(f"{'':<20}{'calls':>12}{'us':>12}")
    for name, calls, call in rows:
        timeit.repeat(call, repeat=1, number=calls)
        best = min(timeit.repeat(call, repeat=repeat, number=calls))
        print(f"{name:<20}{calls:12d}{1e6 * best / calls:12.2f}")


if __name__ == "__main__":
    main()
