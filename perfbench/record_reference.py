"""Record the references the benchmark checks outputs against.

    python3 perfbench/record_reference.py

writes perfbench/reference.json from the program in ./src.  Run it only
when the program's outputs are meant to change; the benchmark then checks
every later commit against the new recording.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from kwlab import cli, regimes, solver  # noqa: E402
from kwlab.model import ModelParams  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

FINE_T_END = 2.0


def record_damped() -> dict:
    runs = []
    for entry in wl.damped_pool(wl.Damped.POOL):
        tracer = tracing.Tracer()
        tracer.wrap(solver, "_damping_accel", "solver.damping_accel")
        try:
            _, rep = solver.simulate(wl.damped_config(entry, wl.Damped.T_END))
        finally:
            tracer.unwrap_all()
        if rep.blew_up:
            raise SystemExit(f"damped pool entry blew up: {entry}")
        runs.append({"E": rep.final_report.E, "steps": rep.steps,
                     "evals_per_step": len(tracer.spans) / rep.steps})
    return {"t_end": wl.Damped.T_END, "runs": runs}


def record_fine_grid(tmp: Path) -> dict:
    config = tmp / "config.json"
    config.write_text(json.dumps(wl.fine_grid_doc(1.0, FINE_T_END)))
    rep = cli.run_simulate(config, tmp / "out")
    return {"t_end": FINE_T_END, "E": rep.final_report.E, "steps": rep.steps}


def record_theory() -> dict:
    labels: list[tuple[str, str]] = []
    codes = []
    n = wl.Theory.POOL
    for rec in wl.theory_records(wl.theory_pool(n), np.arange(n)):
        v = regimes.classify(ModelParams(**rec))
        key = (v.conclusion, v.fired)
        if key not in labels:
            labels.append(key)
        codes.append(chr(65 + labels.index(key)))
    return {"labels": labels, "codes": "".join(codes)}


def main() -> None:
    tmp = ROOT / ".perfbench_tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ref = {
            "damped": record_damped(),
            "fine_grid": record_fine_grid(tmp),
            "theory": record_theory(),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wl.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE}")


if __name__ == "__main__":
    main()
