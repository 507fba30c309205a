"""Command line interface: classify / simulate / scan / oracle.

All file outputs are byte-deterministic: floats are rendered with 17
significant digits in JSON and 9 in CSV, rows are written in a fixed order,
and line endings are LF.  The scan subcommand classifies its grid cells in
grid order, then simulates the cells that need it in one lockstep batch
(solver.simulate_batch); the rows keep grid order.

Exit codes: 0 = completed (a *detected* blow-up is a successful outcome),
2 = invalid configuration or parameters, 3 = numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import oracle as oracle_mod
from . import regimes, solver
from .functionals import REPORT_COLUMNS, EnergyReport
from .model import ModelParams

__all__ = [
    "ScanSpec",
    "run_classify",
    "run_scan",
    "run_simulate",
    "run_oracle",
    "main",
]


# ---------------------------------------------------------------------------
# deterministic serialization

def fmt_json_float(x: float) -> str:
    return format(float(x), ".17g")


def fmt_csv_float(x: float) -> str:
    return format(float(x), ".9g")


def _json_render(value, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return "null"
        return fmt_json_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(
            pad + "  " + _json_render(v, indent + 2) for v in value
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _json_render(v, indent + 2)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_json(value) -> str:
    """Pretty JSON with fixed float formatting; ends with a newline."""
    return _json_render(value, 0) + "\n"


def to_json_line(value) -> str:
    """Single-line JSON (for stdout records)."""
    text = _json_render(value, 0)
    return " ".join(line.strip() for line in text.splitlines())


def report_to_dict(rep: EnergyReport) -> dict:
    return {col: getattr(rep, col) for col in REPORT_COLUMNS}


def trajectory_csv(reports: list[EnergyReport]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for rep in reports:
        cells = []
        for col in REPORT_COLUMNS:
            val = getattr(rep, col)
            cells.append("" if val is None else fmt_csv_float(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def verdict_to_dict(verdict: regimes.RegimeVerdict) -> dict:
    return {
        "conclusion": verdict.conclusion,
        "fired": verdict.fired,
        "wellposed": verdict.wellposed,
        "uniqueness_extra": verdict.uniqueness_extra,
        "global_existence": verdict.global_existence,
        "blowup_interior": verdict.blowup_interior,
        "blowup_two_sources": verdict.blowup_two_sources,
        "blowup_linear_damping": verdict.blowup_linear_damping,
    }


def blowup_to_dict(report: solver.BlowupReport) -> dict:
    return {
        "blew_up": report.blew_up,
        "t_detect": report.t_detect,
        "t_bracket": list(report.t_bracket) if report.t_bracket else None,
        "trigger": report.trigger,
        "steps": report.steps,
        "dt_final": report.dt_final,
        "final_report": report_to_dict(report.final_report),
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def run_classify(params: ModelParams, out=None) -> regimes.RegimeVerdict:
    verdict = regimes.classify(params)
    print(to_json_line(verdict_to_dict(verdict)), file=out or sys.stdout)
    return verdict


@dataclass(frozen=True)
class ScanSpec:
    """Two-axis parameter sweep around a base parameter record."""

    base: ModelParams
    axis1: tuple[str, float, float, int]  # (field, lo, hi, steps)
    axis2: tuple[str, float, float, int]
    mode: str = "ClassifyOnly"

    def __post_init__(self):
        names = ModelParams.field_names()
        for axis in (self.axis1, self.axis2):
            name, lo, hi, steps = axis
            if name not in names:
                raise ValueError(f"axis on a non-existent field {name!r}")
            if steps < 2:
                raise ValueError(f"axis steps must be >= 2, got {steps}")
            if not hi >= lo:
                raise ValueError(f"axis range is empty: [{lo}, {hi}]")
        if self.axis1[0] == self.axis2[0]:
            raise ValueError(f"axes must name distinct fields, both are {self.axis1[0]!r}")
        if self.mode not in ("ClassifyOnly", "ClassifyAndSimulate"):
            raise ValueError(f"unknown scan mode {self.mode!r}")
        if self.mode == "ClassifyAndSimulate" and self.base.N != 2:
            raise ValueError("ClassifyAndSimulate requires N=2 (the simulator is two-dimensional)")


def _axis_values(axis) -> list[float]:
    _, lo, hi, steps = axis
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _scan_cell(
    spec: ScanSpec, v1: float, v2: float
) -> tuple[regimes.RegimeVerdict, solver.SimConfig | None]:
    """Classify one cell; also return its simulation config when the scan
    simulates it."""
    params = dataclasses.replace(
        spec.base, **{spec.axis1[0]: v1, spec.axis2[0]: v2}
    )
    verdict = regimes.classify(params)
    cfg = None
    if (
        spec.mode == "ClassifyAndSimulate"
        and verdict.conclusion == "BlowsUpForNegativeEnergy"
    ):
        cfg = solver.SimConfig(
            params=params,
            n_r=17,
            n_theta=16,
            cfl=0.4,
            t_end=20.0,
            dt_min=1e-5,
            report_every=10**9,
            initial_mode="auto_negative_energy",
            initial_margin=1.0,
        )
    return verdict, cfg


def run_scan(spec: ScanSpec, out_path: str | Path) -> Path:
    """Write the sweep grid as CSV; returns the output path."""
    vals1 = _axis_values(spec.axis1)
    vals2 = _axis_values(spec.axis2)
    cells = [(v1, v2) for v1 in vals1 for v2 in vals2]
    results = [_scan_cell(spec, v1, v2) for v1, v2 in cells]
    runs = iter(solver.simulate_batch([cfg for _, cfg in results if cfg is not None]))

    header = [spec.axis1[0], spec.axis2[0], "verdict", "fired"]
    simulating = spec.mode == "ClassifyAndSimulate"
    if simulating:
        header.append("blew_up")
    lines = [",".join(header)]
    for (v1, v2), (verdict, cfg) in zip(cells, results):
        row = [fmt_csv_float(v1), fmt_csv_float(v2), verdict.conclusion, verdict.fired]
        if simulating:
            row.append("" if cfg is None else "true" if next(runs)[1].blew_up else "false")
        lines.append(",".join(row))
    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def run_simulate(config_path: str | Path, out_dir: str | Path) -> solver.BlowupReport:
    """Run one simulation from a JSON config; write trajectory.csv + blowup.json."""
    with open(config_path) as fh:
        doc = json.load(fh)
    cfg = solver.SimConfig.from_dict(doc)
    reports, blowup = solver.simulate(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectory.csv").write_text(trajectory_csv(reports))
    (out_dir / "blowup.json").write_text(to_json(blowup_to_dict(blowup)))
    print(
        f"blew_up={'true' if blowup.blew_up else 'false'} "
        f"trigger={blowup.trigger} reports={len(reports)} -> {out_dir}"
    )
    return blowup


def run_oracle(
    l: float,
    c: float,
    psi0: float,
    tol: float = 1e-10,
    blow_threshold: float | None = None,
    trajectory_path: str | Path | None = None,
) -> float:
    """Print the blow-up time; optionally also integrate and dump (t, y).

    Prints nothing unless every step succeeds."""
    if blow_threshold is not None and trajectory_path is None:
        raise ValueError("--threshold needs --trajectory")
    prob = oracle_mod.OdeProblem(l=l, c=c, psi0=psi0)
    t_m = oracle_mod.blowup_time(prob, tol)
    out = [f"T_m = {fmt_json_float(t_m)}"]
    if trajectory_path is not None:
        traj = oracle_mod.integrate_comparison(
            prob, 1e6 if blow_threshold is None else blow_threshold
        )
        lines = ["t,y"]
        lines += [f"{fmt_csv_float(t)},{fmt_csv_float(y)}" for t, y in traj]
        Path(trajectory_path).write_text("\n".join(lines) + "\n")
        out.append(f"t_hit = {fmt_json_float(traj[-1][0])} -> {trajectory_path}")
    print("\n".join(out))
    return t_m


# ---------------------------------------------------------------------------
# argument parsing


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--params-file", help="JSON file with model parameters")
    parser.add_argument("--N", type=int, default=None)
    for name in ("a", "b", "alpha", "beta", "gamma", "delta",
                 "m", "mu", "m-tilde", "mu-tilde", "p", "q"):
        parser.add_argument(f"--{name}", type=float, default=None,
                            dest=name.replace("-", "_"))


def _params_from_args(args) -> ModelParams:
    merged: dict = {}
    if args.params_file:
        with open(args.params_file) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("params file must contain a JSON object")
        bad = set(doc) - set(ModelParams.field_names())
        if bad:
            raise ValueError(f"unknown model parameters: {sorted(bad)}")
        merged.update(doc)
    for name in ModelParams.field_names():
        val = getattr(args, name, None)
        if val is not None:
            merged[name] = val
    return ModelParams(**merged)


def _parse_axis(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"axis must be name:lo:hi:steps, got {text!r}")
    name, lo, hi, steps = parts
    return (name, float(lo), float(hi), int(steps))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwlab",
        description="Blow-up vs. global existence lab for wave equations "
        "with kinetic boundary conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a parameter record")
    _add_param_flags(p_classify)

    p_sim = sub.add_parser("simulate", help="run one simulation from a JSON config")
    p_sim.add_argument("config", help="JSON configuration file")
    p_sim.add_argument("out_dir", help="output directory")

    p_scan = sub.add_parser("scan", help="two-axis parameter sweep")
    _add_param_flags(p_scan)
    p_scan.add_argument("--axis1", required=True, help="name:lo:hi:steps")
    p_scan.add_argument("--axis2", required=True, help="name:lo:hi:steps")
    p_scan.add_argument(
        "--mode",
        choices=("ClassifyOnly", "ClassifyAndSimulate"),
        default="ClassifyOnly",
    )
    p_scan.add_argument("--out", required=True, help="output CSV path")

    p_oracle = sub.add_parser("oracle", help="blow-up time of y' = |y|^l - c")
    p_oracle.add_argument("--l", type=float, required=True)
    p_oracle.add_argument("--c", type=float, default=0.0)
    p_oracle.add_argument("--psi0", type=float, required=True)
    p_oracle.add_argument("--tol", type=float, default=1e-10)
    p_oracle.add_argument("--threshold", type=float, default=None)
    p_oracle.add_argument("--trajectory", default=None, help="CSV path for (t, y)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            run_classify(_params_from_args(args))
        elif args.command == "simulate":
            run_simulate(args.config, args.out_dir)
        elif args.command == "scan":
            spec = ScanSpec(
                base=_params_from_args(args),
                axis1=_parse_axis(args.axis1),
                axis2=_parse_axis(args.axis2),
                mode=args.mode,
            )
            run_scan(spec, args.out)
        elif args.command == "oracle":
            run_oracle(
                args.l, args.c, args.psi0, args.tol,
                blow_threshold=args.threshold,
                trajectory_path=args.trajectory,
            )
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failures
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
