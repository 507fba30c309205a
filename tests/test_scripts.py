"""Smoke tests of scripts/: each runs in a subprocess from the repository root."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run(argv):
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_layers_prints_both_tables():
    proc = run([sys.executable, str(SCRIPTS / "layers.py"), "--repeat", "1", "--number", "1"])
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("best of 1 x 1 calls, us per call\n")
    assert "\nscalar layers, untraced: best of 1, us per call\n" in out
    for row in ("laplacian", "_crossing exact", "step", "make_report", "classify",
                "integrate_comparison"):
        assert f"\n{row} " in out


def test_faults_prints_its_median_line():
    proc = run([sys.executable, str(SCRIPTS / "faults.py"), "--rounds", "1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("median over 1 rounds: ")


def test_diff_outputs_without_a_revision_prints_its_usage():
    proc = run(["sh", str(SCRIPTS / "diff_outputs.sh")])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and "REV" in proc.stderr
