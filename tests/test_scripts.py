"""Smoke tests of scripts/: each runs in a subprocess from the repository root."""
import functools
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run(argv):
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)


@functools.lru_cache(maxsize=None)
def layers_output():
    proc = run([sys.executable, str(SCRIPTS / "layers.py"), "--repeat", "1", "--number", "1"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_layers_prints_both_tables():
    out = layers_output()
    assert out.startswith("best of 1 x 1 calls, us per call\n")
    assert "\nscalar layers, untraced: best of 1, us per call\n" in out
    for row in ("laplacian", "_crossing exact", "step", "make_report", "classify",
                "integrate_comparison"):
        assert f"\n{row} " in out


def test_faults_prints_its_median_line():
    """The minor-faults table of whole fine runs sits between the kernel and scalar tables."""
    out = layers_output()
    kernels_end = out.index("\nmake_report ")
    fine, scalar = out.index("\nround 0: "), out.index("\nscalar layers, untraced: best of 1,")
    assert kernels_end < fine < out.index("\nmedian over 1 rounds: ") < scalar


def test_diff_outputs_without_a_revision_prints_its_usage():
    proc = run(["sh", str(SCRIPTS / "diff_outputs.sh")])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: ") and "REV" in proc.stderr
