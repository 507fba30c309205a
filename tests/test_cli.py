"""Command-line surface: formats, determinism, exit codes."""
import dataclasses
import json
import math
import subprocess
import sys
import textwrap

import pytest

from kwlab import cli
from kwlab.functionals import REPORT_COLUMNS
from kwlab.model import ModelParams
from kwlab.regimes import classify


# ---------------------------------------------------------------------------
# serialization helpers


def test_float_formats():
    assert cli.fmt_json_float(1.0) == "1"
    assert cli.fmt_json_float(0.1) == "0.10000000000000001"
    assert cli.fmt_csv_float(0.1) == "0.1"
    assert cli.fmt_csv_float(math.pi) == "3.14159265"


def test_json_rendering_special_values():
    line = cli.to_json_line(
        {"a": None, "b": True, "c": float("nan"), "d": float("inf"), "e": "x"}
    )
    assert "\n" not in line
    doc = json.loads(line)
    assert doc == {"a": None, "b": True, "c": None, "d": None, "e": "x"}


def test_json_round_trip_is_lossless():
    vals = [0.1, 1.0 / 3.0, 2.0**-40, 1e300, -7.25]
    text = cli.to_json({"vals": vals})
    assert text.endswith("\n")
    assert json.loads(text)["vals"] == vals  # 17 digits reproduce doubles


def test_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        cli.to_json({"x": object()})


# ---------------------------------------------------------------------------
# classify


def classify_line(capsys, argv):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    return json.loads(out)


def test_classify_interior_blowup_example(capsys):
    doc = classify_line(
        capsys,
        ["classify", "--N", "3", "--gamma", "1", "--p", "4",
         "--alpha", "1", "--m", "2"],
    )
    assert doc["conclusion"] == "BlowsUpForNegativeEnergy"
    assert doc["fired"] == "(1.21)/Theorem 1.3"
    assert doc["wellposed"] is True
    assert doc["blowup_interior"] is True


def test_classify_no_source_example(capsys):
    doc = classify_line(capsys, ["classify", "--gamma", "0", "--delta", "0"])
    assert doc["conclusion"] == "GlobalForAllData"
    assert doc["fired"] == "(1.15)/Theorem 1.1"


def test_classify_unbounded_source_example(capsys):
    doc = classify_line(
        capsys,
        ["classify", "--N", "3", "--gamma", "1", "--alpha", "1",
         "--m", "4", "--p", "5.6"],
    )
    assert doc["conclusion"] == "OutsideLocalTheory"
    assert doc["wellposed"] is False


def test_classify_record_keys(capsys):
    doc = classify_line(capsys, ["classify", "--gamma", "1", "--p", "4"])
    assert list(doc) == [
        "conclusion",
        "fired",
        "wellposed",
        "uniqueness_extra",
        "global_existence",
        "blowup_interior",
        "blowup_two_sources",
        "blowup_linear_damping",
    ]


def test_classify_params_file_with_flag_override(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"N": 3, "gamma": 1.0, "alpha": 1.0, "m": 4, "p": 4.0}))
    doc = classify_line(capsys, ["classify", "--params-file", str(f)])
    assert doc["wellposed"] is True
    # a flag wins over the file value
    doc = classify_line(
        capsys, ["classify", "--params-file", str(f), "--p", "5.6"]
    )
    assert doc["conclusion"] == "OutsideLocalTheory"


def test_classify_params_file_errors(tmp_path, capsys):
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"gamma": 1.0, "rho": 2.0}))
    assert cli.main(["classify", "--params-file", str(f)]) == 2
    assert "unknown model parameters" in capsys.readouterr().err
    assert cli.main(["classify", "--params-file", str(tmp_path / "nope.json")]) == 2
    f.write_text("{not json")
    assert cli.main(["classify", "--params-file", str(f)]) == 2


def test_classify_invalid_parameters_exit_2(capsys):
    assert cli.main(["classify", "--N", "1"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["classify", "--p", "1.5"]) == 2
    # non-finite weights and exponents are invalid, not a verdict
    assert cli.main(["classify", "--gamma", "1", "--p", "inf"]) == 2
    assert cli.main(["classify", "--alpha", "inf"]) == 2


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------------------
# oracle


def test_oracle_prints_time(capsys):
    assert cli.main(["oracle", "--l", "2", "--c", "0", "--psi0", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("T_m = ")
    assert float(out.split("=")[1]) == pytest.approx(1.0, abs=1e-9)


def test_oracle_trajectory_file(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    assert cli.main(
        ["oracle", "--l", "2", "--c", "1", "--psi0", "2",
         "--threshold", "1e6", "--trajectory", str(path)]
    ) == 0
    out = capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines[0] == "t,y"
    assert lines[1] == "0,2"
    assert lines[-1].endswith(",1000000")
    t_hit = float(out.splitlines()[1].split("=")[1].split("->")[0])
    assert t_hit < 0.5 * math.log(3.0)
    assert 0.5 * math.log(3.0) - t_hit < 2e-6


def test_oracle_rejects_bad_problem(capsys):
    assert cli.main(["oracle", "--l", "2", "--c", "4", "--psi0", "1"]) == 2
    assert "hypothesis violated" in capsys.readouterr().err
    assert cli.main(["oracle", "--l", "inf", "--psi0", "2"]) == 2
    assert "l must exceed 1 and be finite" in capsys.readouterr().err
    assert cli.main(["oracle", "--l", "2", "--psi0", "inf"]) == 2
    captured = capsys.readouterr()
    assert "psi0 must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("extra, fragment", [
    (["--threshold", "0"], "blow_threshold must exceed psi0"),
    (["--threshold", "inf"], "blow_threshold must exceed psi0"),
    (["--tol", "inf"], "tol must be positive and finite"),
    (["--threshold", "1"], "blow_threshold must exceed psi0"),
])
def test_oracle_rejects_bad_tolerance_and_threshold(tmp_path, capsys, extra, fragment):
    path = tmp_path / "t.csv"
    assert cli.main(
        ["oracle", "--l", "2", "--c", "1", "--psi0", "2", "--trajectory", str(path)]
        + extra
    ) == 2
    captured = capsys.readouterr()
    assert fragment in captured.err
    assert captured.out == ""
    assert not path.exists()


def test_oracle_threshold_needs_trajectory(capsys):
    assert cli.main(["oracle", "--l", "2", "--c", "1", "--psi0", "2", "--threshold", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--threshold needs --trajectory" in captured.err


@pytest.mark.parametrize(
    "l, want", [("1.05", 19.902118008449), ("1.001", 999.997796752135)], ids=["1.05", "1.001"]
)
def test_oracle_l_near_one_prints_golden(l, want, capsys):
    assert cli.main(["oracle", "--l", l, "--c", "1", "--psi0", "2"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("=")[1]) == pytest.approx(want, abs=1e-9)


def test_oracle_huge_psi0(capsys):
    assert cli.main(["oracle", "--l", "1.5", "--c", "1", "--psi0", "1e300"]) == 0
    assert float(capsys.readouterr().out.split("=")[1]) == pytest.approx(2e-150, rel=1e-14)


def test_oracle_ill_conditioned_exits_3(capsys):
    assert cli.main(["oracle", "--l", "2", "--c", "1", "--psi0", "1.0000001"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ill-conditioned" in captured.err


# ---------------------------------------------------------------------------
# simulate


def write_sim_config(path, **overrides):
    doc = {
        "params": {"gamma": 1.0, "p": 4.0},
        "mesh": {"n_r": 17, "n_theta": 16},
        "initial_data": {"profile": "ramp", "mode": "scaled", "scale": 0.1},
        "t_end": 0.5,
        "report_every": 5,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write_sim_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert cli.main(["simulate", str(cfg), str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "blew_up=false" in stdout
    csv_text = (out / "trajectory.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(REPORT_COLUMNS)
    doc = json.loads((out / "blowup.json").read_text())
    assert doc["blew_up"] is False
    assert doc["t_bracket"] is None
    assert doc["trigger"] == "None"
    assert set(doc["final_report"]) == set(REPORT_COLUMNS)


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = write_sim_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", str(cfg), str(a)])
    cli.main(["simulate", str(cfg), str(b)])
    for name in ("trajectory.csv", "blowup.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_blowup_artifacts(tmp_path, capsys):
    cfg = write_sim_config(
        tmp_path / "cfg.json",
        initial_data={"profile": "ramp", "margin": 1.0},
        t_end=20.0,
        dt_min=1e-5,
        blow_threshold=1e8,
    )
    out = tmp_path / "out"
    assert cli.main(["simulate", str(cfg), str(out)]) == 0
    assert "blew_up=true" in capsys.readouterr().out
    doc = json.loads((out / "blowup.json").read_text())
    assert doc["blew_up"] is True
    assert doc["trigger"] in ("PhaseNorm", "LpNorm")
    assert doc["t_detect"] == doc["t_bracket"][1]


def test_simulate_config_errors(tmp_path, capsys):
    cfg = write_sim_config(tmp_path / "cfg.json", t_endd=1.0)
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    (tmp_path / "broken.json").write_text("{")
    assert cli.main(["simulate", str(tmp_path / "broken.json"),
                     str(tmp_path / "o")]) == 2
    assert cli.main(["simulate", str(tmp_path / "missing.json"),
                     str(tmp_path / "o")]) == 2
    # json writes inf as Infinity, which json.load reads back as inf
    cfg = write_sim_config(tmp_path / "inf.json", t_end=math.inf)
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert "t_end" in capsys.readouterr().err
    cfg = write_sim_config(tmp_path / "frac.json", mesh={"n_r": 17.5, "n_theta": 16})
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert "n_r must be an integer" in capsys.readouterr().err
    # below the mesh's bounds: rejected before dr and dtheta divide by zero
    for mesh, msg in (({"n_r": 1}, "n_r must be at least 3"),
                      ({"n_theta": 0}, "n_theta must be at least 8")):
        cfg = write_sim_config(tmp_path / "small.json", mesh=mesh)
        assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
        assert msg in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(initial_data={"scale": math.nan}), "initial scale must be finite"),
        (dict(initial_data={"scale": math.inf}), "initial scale must be finite"),
        (dict(initial_data={"scale": 1e200}), "initial data already crosses"),
        (dict(report_every=2.5), "report_every must be an integer"),
        (dict(report_every=True), "report_every must be an integer"),
    ],
)
def test_simulate_rejects_bad_initial_data_and_report_spacing(
    tmp_path, capsys, overrides, fragment
):
    # these used to run: a zero-step "PhaseNorm blow-up", or reports every
    # 5 steps for 2.5 and every step for true
    cfg = write_sim_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# scan


def test_scan_minimal_grid(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(
        ["scan", "--N", "3", "--gamma", "1", "--alpha", "1",
         "--axis1", "p:2:6:2", "--axis2", "m:2:6:2", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,m,verdict,fired"
    assert len(lines) == 5
    # row-major: axis1 outer, axis2 inner
    assert [ln.split(",")[:2] for ln in lines[1:]] == [
        ["2", "2"], ["2", "6"], ["6", "2"], ["6", "6"]
    ]


def test_scan_cells_agree_with_classify(tmp_path):
    out = tmp_path / "grid.csv"
    base = ["scan", "--N", "3", "--gamma", "1", "--alpha", "1",
            "--axis1", "p:2:6:5", "--axis2", "m:2:6:5", "--out", str(out)]
    assert cli.main(base) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 25
    seen = set()
    for row in rows:
        p_str, m_str, verdict, fired = row.split(",")
        params = ModelParams(N=3, gamma=1.0, alpha=1.0,
                             p=float(p_str), m=float(m_str))
        want = classify(params)
        assert verdict == want.conclusion
        assert fired == want.fired
        seen.add(verdict)
    # the sweep crosses at least one regime boundary
    assert len(seen) >= 2


def test_scan_simulation_mode_and_determinism(tmp_path):
    argv = ["scan", "--gamma", "1", "--alpha", "1", "--m", "2",
            "--axis1", "p:3:4:2", "--axis2", "a:0:1:2",
            "--mode", "ClassifyAndSimulate", "--out", None]
    texts = []
    for run in range(2):
        out = tmp_path / f"grid{run}.csv"
        argv[-1] = str(out)
        assert cli.main(argv) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    lines = texts[0].splitlines()
    assert lines[0] == "p,a,verdict,fired,blew_up"
    blow_cells = [ln for ln in lines[1:] if "BlowsUpForNegativeEnergy" in ln]
    assert blow_cells
    for ln in blow_cells:
        assert ln.endswith(",true")
    # cells without a blow-up verdict leave the column empty
    for ln in lines[1:]:
        if "BlowsUpForNegativeEnergy" not in ln:
            assert ln.endswith(",")


def test_scan_simulates_in_grid_order_across_stacks(tmp_path):
    """The cells of a p x m scan fall into a linear-damping and a
    nonlinear-damping stack; each row still reports its own cell's run."""
    spec = cli.ScanSpec(
        base=ModelParams(gamma=1.0, alpha=1.0),
        axis1=("p", 3.0, 5.0, 3),
        axis2=("m", 2.0, 3.0, 2),
        mode="ClassifyAndSimulate",
    )
    rows = cli.run_scan(spec, tmp_path / "grid.csv").read_text().splitlines()[1:]
    assert len(rows) == 6
    simulated = 0
    for row, (p, m) in zip(rows, [(p, m) for p in (3.0, 4.0, 5.0) for m in (2.0, 3.0)]):
        assert row.startswith(f"{cli.fmt_csv_float(p)},{cli.fmt_csv_float(m)},")
        verdict, cfg = cli._scan_cell(spec, p, m)
        if cfg is None:
            assert row.endswith(",")
            continue
        simulated += 1
        _, blowup = cli.solver.simulate(cfg)
        assert row.endswith(",true" if blowup.blew_up else ",false")
    assert simulated >= 4


def test_scan_axis_validation(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    bad_axes = [
        ["--axis1", "rho:0:1:2", "--axis2", "p:2:4:2"],
        ["--axis1", "p:2:4:1", "--axis2", "q:2:4:2"],
        ["--axis1", "p:2:4:2", "--axis2", "p:2:4:2"],
        ["--axis1", "p:4:2:2", "--axis2", "q:2:4:2"],
        ["--axis1", "p:2:4", "--axis2", "q:2:4:2"],
    ]
    for axes in bad_axes:
        assert cli.main(["scan", "--gamma", "1", *axes, "--out", out]) == 2
        assert "error:" in capsys.readouterr().err


def test_scan_simulation_mode_requires_planar_model(tmp_path, capsys):
    assert cli.main(
        ["scan", "--N", "3", "--gamma", "1",
         "--axis1", "p:2:4:2", "--axis2", "q:2:4:2",
         "--mode", "ClassifyAndSimulate", "--out", str(tmp_path / "x.csv")]
    ) == 2
    assert "N=2" in capsys.readouterr().err


def test_scan_spec_direct_construction():
    base = ModelParams(gamma=1.0, p=4)
    with pytest.raises(ValueError, match="distinct fields"):
        cli.ScanSpec(base, ("p", 2, 4, 2), ("p", 2, 4, 2))
    with pytest.raises(ValueError, match="unknown scan mode"):
        cli.ScanSpec(base, ("p", 2, 4, 2), ("q", 2, 4, 2), mode="Both")


def test_axis_endpoints_are_exact():
    vals = cli._axis_values(("p", 2.0, 6.0, 5))
    assert vals == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert cli._axis_values(("p", 2.0, 6.0, 2)) == [2.0, 6.0]


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "kwlab", "classify", "--gamma", "0",
         "--delta", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["conclusion"] == "GlobalForAllData"
    proc = subprocess.run(
        [sys.executable, "-m", "kwlab", "classify", "--p", "1.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


def test_cold_start_loads_no_scipy(tmp_path):
    """classify, simulate and scan run without loading scipy; only the
    oracle's quadrature imports it, on its first call."""
    cfg = write_sim_config(tmp_path / "cfg.json", mesh={"n_r": 9, "n_theta": 8}, t_end=0.05)
    child = textwrap.dedent(f"""
        import sys
        import kwlab, kwlab.cli
        from kwlab import cli
        assert cli.main(["classify", "--gamma", "1", "--p", "3"]) == 0
        assert cli.main(["simulate", {str(cfg)!r}, {str(tmp_path / "sim")!r}]) == 0
        assert cli.main(["scan", "--gamma", "1", "--alpha", "1", "--m", "2",
                         "--axis1", "p:2:5:2", "--axis2", "q:2:5:2",
                         "--mode", "ClassifyAndSimulate",
                         "--out", {str(tmp_path / "scan.csv")!r}]) == 0
        loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
        assert not loaded, loaded[:3]
        assert cli.main(["oracle", "--l", "2", "--c", "1", "--psi0", "2"]) == 0
    """)
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "T_m = 0.54930614433405478"
