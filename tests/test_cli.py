"""Command-line surface: formats, determinism, exit codes."""
import dataclasses
import json
import math
import re
import subprocess
import sys
import textwrap

import pytest

from kwlab import cli
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
    with pytest.raises(TypeError, match="not JSON serializable"):
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
    capsys.readouterr()
    f.write_text("[1, 2]")
    assert cli.main(["classify", "--params-file", str(f)]) == 2
    assert "params file must contain a JSON object" in capsys.readouterr().err


def test_classify_refuses_a_numeric_string_exponent(tmp_path, capsys):
    # used to classify with p = 4 and exit 0: float() accepted "4"
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"gamma": 1, "p": "4"}))
    assert cli.main(["classify", "--params-file", str(f)]) == 2
    assert "model parameter p must be a number, got '4'" in capsys.readouterr().err


def test_classify_refuses_a_boolean_weight(tmp_path, capsys):
    # used to classify with alpha = 1 and exit 0: true is the int 1
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"gamma": 1, "p": 4, "alpha": True, "m": 3}))
    assert cli.main(["classify", "--params-file", str(f)]) == 2
    assert "model parameter alpha must be a number, got True" in capsys.readouterr().err


def test_a_string_number_error_names_its_key(tmp_path, capsys):
    # these exited 2 with "'<=' (or '<') not supported between instances of
    # 'int' and 'str'", which names no key
    f = tmp_path / "params.json"
    f.write_text(json.dumps({"gamma": "1", "p": 4}))
    assert cli.main(["classify", "--params-file", str(f)]) == 2
    assert "model parameter gamma must be a number, got '1'" in capsys.readouterr().err
    cfg = write_sim_config(tmp_path / "cfg.json", t_end="2")
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert "config key t_end must be a number, got '2'" in capsys.readouterr().err


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
    # T_m's tolerance is fixed, so argparse refuses the flag: SystemExit(2)
    (["--tol", "1e-12"], "unrecognized arguments: --tol 1e-12"),
    (["--threshold", "1"], "blow_threshold must exceed psi0"),
])
def test_oracle_rejects_bad_tolerance_and_threshold(tmp_path, capsys, extra, fragment):
    path = tmp_path / "t.csv"
    argv = ["oracle", "--l", "2", "--c", "1", "--psi0", "2", "--trajectory", str(path)]
    try:
        code = cli.main(argv + extra)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
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
    # the output schemas, key order included (the classify line's is pinned
    # by test_classify_record_keys)
    report_keys = [
        "t", "lp_interior", "lq_boundary", "grad_omega", "grad_gamma", "kinetic",
        "phase_norm_sq", "J", "E", "K", "Z", "dissipation_rate", "identity_residual",
    ]
    csv_text = (out / "trajectory.csv").read_text()
    assert csv_text.splitlines()[0] == ",".join(report_keys)
    doc = json.loads((out / "blowup.json").read_text())
    assert list(doc) == [
        "blew_up", "t_detect", "t_bracket", "trigger", "steps", "dt_final", "final_report",
    ]
    assert doc["blew_up"] is False
    assert doc["t_bracket"] is None
    assert doc["trigger"] == "None"
    assert list(doc["final_report"]) == report_keys


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
                      ({"n_theta": 0}, "n_theta must be 1 (radial) or at least 8, got 0")):
        cfg = write_sim_config(tmp_path / "small.json", mesh=mesh)
        assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
        assert msg in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(initial_data={"scale": math.nan}), "initial scale must be finite"),
        (dict(initial_data={"scale": math.inf}), "initial scale must be finite"),
        (dict(initial_data={"scale": 1e200}), "initial data already crosses"),
        (dict(report_every=2.5), "report_every must be an integer"),
        (dict(report_every=True), "report_every must be an integer"),
        (dict(initial_data={"margin": 1e-15}), "the smallest margin is about"),
    ],
)
def test_simulate_rejects_bad_initial_data_and_report_spacing(
    tmp_path, capsys, overrides, fragment
):
    # these used to run: a zero-step "PhaseNorm blow-up", reports every
    # 5 steps for 2.5 and every step for true, or E = +4.4e-13 at t = 0 for
    # margin 1e-15
    cfg = write_sim_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("overrides, fragment", [
    (dict(params={"gamma": 1.0, "p": 4.0, "alpha": True}),
     "model parameter alpha must be a number, got True"),
    (dict(t_end=True), "config key t_end must be a number, got True"),
])
def test_simulate_refuses_a_boolean_number(tmp_path, capsys, overrides, fragment):
    # these ran, with alpha = 1 and to t = 1
    cfg = write_sim_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["simulate", str(cfg), str(tmp_path / "o")]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (dict(initial_data={"scale": 0.1, "margin": 1.0}),
         "initial_data key 'margin' does not apply to mode 'scaled'"),
        (dict(initial_data={"mode": "auto_negative_energy", "scale": 0.1}),
         "initial_data key 'scale' does not apply to mode 'auto_negative_energy'"),
        (dict(cfl=9.0, dt=0.01), "config key 'cfl' does not apply when 'dt' is given"),
    ],
)
def test_simulate_rejects_keys_the_run_would_ignore(tmp_path, capsys, overrides, fragment):
    # these used to run, dropping margin, scale or cfl without a word
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


@pytest.mark.parametrize("axis, base", [
    ("m:1.5:2.5:3", []),
    ("m:1.5:2.5:3", ["--m", "1.5"]),  # the base's default tilde is 1.5
    ("mu:1.5:2.5:3", ["--beta", "1"]),
])
def test_scan_axis_on_m_or_mu_rederives_the_default_tilde(tmp_path, axis, base):
    out = tmp_path / "grid.csv"
    argv = ["scan", "--gamma", "1", "--alpha", "1", *base,
            "--axis1", "p:2.5:3.5:2", "--axis2", axis, "--out", str(out)]
    assert cli.main(argv) == 0
    name = axis.split(":")[0]
    base_params = dict(gamma=1.0, alpha=1.0, beta=1.0 if base == ["--beta", "1"] else 0.0)
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        p_str, e_str, verdict, fired = row.split(",")
        want = classify(ModelParams(**base_params, p=float(p_str), **{name: float(e_str)}))
        assert (verdict, fired) == (want.conclusion, want.fired)


def test_scan_keeps_a_base_tilde_that_is_not_the_default(tmp_path):
    # m_tilde = 1.8 is the base's own choice: every cell keeps it, and a cell
    # with m below it is invalid
    argv = ["scan", "--gamma", "1", "--alpha", "1", "--m", "3", "--m-tilde", "1.8",
            "--axis1", "p:2.5:3.5:2", "--axis2", "m:2:3:2", "--out", None]
    argv[-1] = str(tmp_path / "kept.csv")
    assert cli.main(argv) == 0
    for row in (tmp_path / "kept.csv").read_text().splitlines()[1:]:
        p_str, m_str, verdict, fired = row.split(",")
        want = classify(ModelParams(gamma=1.0, alpha=1.0, p=float(p_str),
                                    m=float(m_str), m_tilde=1.8))
        assert (verdict, fired) == (want.conclusion, want.fired)
    argv[-3], argv[-1] = "m:1.5:3:2", str(tmp_path / "bad.csv")
    assert cli.main(argv) == 2


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


def test_scan_cells_on_one_column_write_the_17x16_csv(tmp_path, monkeypatch):
    """A scan simulates its cells on 17x1, the radial data's exact reduction
    of 17x16: on a two-source p x q grid and an interior p x m grid, the
    ClassifyAndSimulate CSV is byte for byte the one 17x16 cells write."""
    specs = [
        cli.ScanSpec(ModelParams(alpha=1.0, beta=1.0, gamma=1.0, delta=1.0),
                     ("p", 3.0, 5.0, 4), ("q", 3.0, 5.0, 4), mode="ClassifyAndSimulate"),
        cli.ScanSpec(ModelParams(alpha=1.0, beta=1.0, b=0.5, gamma=1.0),
                     ("p", 3.0, 5.0, 4), ("m", 2.0, 3.0, 4), mode="ClassifyAndSimulate"),
    ]
    one_column = [cli.run_scan(spec, tmp_path / f"one{i}.csv").read_bytes()
                  for i, spec in enumerate(specs)]
    scan_cell = cli._scan_cell

    def on_17x16(spec, v1, v2):
        verdict, cfg = scan_cell(spec, v1, v2)
        if cfg is None:
            return verdict, None
        assert (cfg.n_r, cfg.n_theta) == (17, 1)
        return verdict, dataclasses.replace(cfg, n_theta=16)

    monkeypatch.setattr(cli, "_scan_cell", on_17x16)
    assert [cli.run_scan(spec, tmp_path / f"two{i}.csv").read_bytes()
            for i, spec in enumerate(specs)] == one_column
    rows = b"".join(one_column).decode().splitlines()
    assert sum(row.endswith(",true") for row in rows) == 31  # p = m = 3 is global


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


@pytest.mark.parametrize("axis1, cell", [("p:2.001:4:3", "p=2.001, a=0"),
                                         ("p:2.05:4:2", "p=2.05, a=0")])
def test_scan_names_the_cell_whose_initial_state_is_refused(tmp_path, capsys, axis1, cell):
    """The first cell whose negative-energy data cannot be built stops the
    scan (exit 2, no CSV) with simulate's message for it, after the cell's
    axis values as the CSV prints them."""
    out = tmp_path / "d.csv"
    argv = ["scan", "--gamma", "1", "--alpha", "1", "--m", "2", "--axis1", axis1,
            "--axis2", "a:0:0.5:2", "--mode", "ClassifyAndSimulate", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    spec = cli.ScanSpec(ModelParams(gamma=1.0, alpha=1.0, m=2.0), cli._parse_axis(axis1),
                        ("a", 0.0, 0.5, 2), mode="ClassifyAndSimulate")
    _, cfg = cli._scan_cell(spec, spec.axis1[1], 0.0)
    with pytest.raises(ValueError) as alone:
        cli.solver.simulate(cfg)
    assert capsys.readouterr().err == f"error: cell {cell}: {alone.value}\n"


@pytest.mark.parametrize("axis2, cell, message", [
    ("m:1.5:3:3", "p=3, m=1.5", "constraint violated: 1 < m_tilde <= m < inf "
                                "(m_tilde=1.8, m=1.5)"),
    ("N:2:3:3", "p=3, N=2.5", "N must be an integer >= 2, got 2.5"),
])
def test_scan_names_the_cell_whose_record_is_refused(tmp_path, capsys, axis2, cell, message):
    """A cell whose parameter record cannot be built stops the scan (exit 2,
    no CSV) with the record's message after the cell's axis values, like a
    cell whose initial state is refused."""
    out = tmp_path / "x.csv"
    argv = ["scan", "--gamma", "1", "--alpha", "1", "--m-tilde", "1.8",
            "--axis1", "p:3:4:2", "--axis2", axis2, "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: cell {cell}: {message}\n"


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


@pytest.mark.parametrize("axis", [0, 1])
def test_scan_spec_refuses_an_n_axis_when_simulating(axis):
    """An N axis used to construct, classify every cell and only then fail in
    SimConfig, writing no CSV; classifying alone may still sweep N."""
    base = ModelParams(gamma=1.0, alpha=1.0, m=2)
    axes = [("N", 2, 3, 2), ("p", 3, 4, 2)]
    if axis:
        axes.reverse()
    with pytest.raises(ValueError, match="no N axis"):
        cli.ScanSpec(base, *axes, mode="ClassifyAndSimulate")
    assert cli.ScanSpec(base, *axes).mode == "ClassifyOnly"


@pytest.mark.parametrize("axis, message", [
    (("p", 3.0, 4.0, 2.5), "integer >= 2"),
    (("p", 3.0, 4.0, math.nan), "integer >= 2"),
    (("p", 3.0, 4.0, True), "integer >= 2"),
    (("p", 3.0, math.inf, 2), "finite"),
    (("p", -math.inf, 4.0, 2), "finite"),
    (("p", math.nan, 4.0, 2), "finite"),
])
def test_scan_spec_refuses_axes_run_scan_cannot_run(axis, message):
    """A fractional or nan steps used to construct and then fail in
    run_scan with a TypeError, and an infinite bound built nan cells."""
    with pytest.raises(ValueError, match=message):
        cli.ScanSpec(ModelParams(gamma=1.0, p=4), axis, ("m", 2.0, 3.0, 2))


@pytest.mark.parametrize("axis, message", [
    (("p", "3", 4.0, 2), "axis1 bounds must be numbers, got '3' and 4.0"),
    (("p", 3.0, True, 2), "axis1 bounds must be numbers, got 3.0 and True"),
    (("p", 3.0, 4.0, "2"), "axis steps must be an integer >= 2, got '2'"),
])
def test_scan_spec_takes_only_numbers(axis, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        cli.ScanSpec(ModelParams(gamma=1.0, p=4), axis, ("m", 2.0, 3.0, 2))


def test_scan_spec_takes_an_integral_float_steps_as_int(tmp_path):
    spec = cli.ScanSpec(ModelParams(gamma=1.0, p=4), ("p", 3.0, 4.0, 4.0), ("m", 2, 3, 2))
    assert spec.axis1 == ("p", 3.0, 4.0, 4) and type(spec.axis1[3]) is int
    rows = cli.run_scan(spec, tmp_path / "grid.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 * 2


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
