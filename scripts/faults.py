"""Time and minor page faults of the 129x128 calm run, round by round.

    python3 scripts/faults.py --rounds 7

Imports kwlab from this checkout's src/, then runs cli.run_simulate ROUNDS
times on the 129x128 config of scripts/cli_outputs.sh (fine.json: p = m = 2,
ramp data at scale 1, t_end 2, 640 steps), writing into a temporary
directory.  Each round is timed with perf_counter and its minor faults are
read from resource.getrusage(RUSAGE_SELF) before and after.  Prints one line
per round, then the medians; the first round also pays for warming the
allocator, so compare medians.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kwlab import cli  # noqa: E402

FINE = {
    "params": {"gamma": 1.0, "p": 2.0, "alpha": 1.0, "m": 2.0},
    "mesh": {"n_r": 129, "n_theta": 128},
    "initial_data": {"profile": "ramp", "mode": "scaled", "scale": 1.0},
    "t_end": 2.0,
    "report_every": 10,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    walls, faults = [], []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fine.json"
        config.write_text(json.dumps(FINE))
        for k in range(args.rounds):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run_simulate(config, Path(tmp) / "out")
            wall = time.perf_counter() - t0
            fault = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            walls.append(wall)
            faults.append(fault)
            print(f"round {k}: {wall:.4f} s, {fault} minor faults")
    print(f"median over {args.rounds} rounds: {statistics.median(walls):.4f} s, "
          f"{statistics.median(faults):g} minor faults")


if __name__ == "__main__":
    main()
