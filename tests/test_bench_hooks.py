"""The benchmark's tracer wraps module attributes of kwlab by name; every
name it wraps must exist and still be on the call path it measures."""
import sys
from pathlib import Path

from kwlab import cli, functionals, solver
from kwlab.model import ModelParams

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_wraps_and_sees_every_layer(tmp_path):
    originals = (solver.simulate, solver._crossing, functionals.integrate_interior)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        params = ModelParams(gamma=1.0, p=4, alpha=1.0, m=3)
        cfg = solver.SimConfig(
            params=params, n_r=9, n_theta=8, t_end=0.05, report_every=2,
            initial_mode="auto_negative_energy",
        )
        solver.simulate(cfg)
        spec = cli.ScanSpec(
            base=ModelParams(gamma=1.0, alpha=1.0, delta=1.0, beta=1.0),
            axis1=("p", 3.0, 4.0, 2),
            axis2=("q", 3.0, 4.0, 2),
            mode="ClassifyAndSimulate",
        )
        cli.run_scan(spec, tmp_path / "grid.csv")
        cli.run_oracle(2.0, 1.0, 2.0, trajectory_path=tmp_path / "traj.csv")
    finally:
        tracer.unwrap_all()
    assert (solver.simulate, solver._crossing, functionals.integrate_interior) == originals
    names = {span[4] for span in tracer.spans}
    for name in (
        "cli.run_scan", "cli.scan_cell", "regimes.classify", "model.ModelParams",
        "geometry.laplacian", "geometry.gradient_energy", "geometry.integrate",
        "functionals.make_report", "solver.simulate", "solver.step",
        "solver.accel", "solver.kick", "solver.damping_accel",
        "solver.crossing", "solver.negative_energy_data",
        "oracle.blowup_time", "oracle.integrate_comparison",
    ):
        assert name in names, name
    metrics = tracing.layer_metrics(tracer.spans, rounds=1)
    assert metrics["solver.step.calls"] > 0
    assert metrics["geometry.integrate.calls_per_step"] > 0
    assert metrics["oracle.blowup_time.us_per_call"] > 0
    assert metrics["oracle.integrate_comparison.ms_per_call"] > 0
