"""kwlab benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from ./src.
The workloads (scan, damped, fine_grid, theory) are defined in
workloads.py, and README.md says why each was chosen and which end-to-end
metric each per-layer metric should move.

A run sets up (imports, then inputs drawn from --seed), then repeats rounds
of the workload's fixed ops until --seconds have passed, checking every
output.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics of
the traced ones, plus the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
BUILD_REPEATS = 3
IMPORT_PROBES = 3
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import kwlab.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "damped", "fine_grid", "theory"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import kwlab from ./src (never from site-packages)."""
    if not (SRC / "kwlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'kwlab'}")
    sys.path.insert(0, str(SRC))
    import kwlab.cli  # noqa: F401
    if Path(kwlab.cli.__file__).resolve().parent != SRC / "kwlab":
        raise SystemExit(f"error: imported kwlab from {kwlab.cli.__file__}")


def probe_imports() -> list[float]:
    """Time the program's imports in fresh interpreters, one after another
    (this process has imported them already)."""
    out = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        out.append(float(proc.stdout.strip()))
    return out


def quartiles(xs: list[float]) -> str:
    if len(xs) < 2:
        return "n/a"
    q = statistics.quantiles(xs, n=4)
    return f"{q[0]:.4g}..{q[2]:.4g}, min {min(xs):.4g}"


def llc_bytes() -> int | None:
    """Size of the largest cache level, read from sysfs; None if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for idx in sorted(base.glob("index*")):
        try:
            level = int((idx / "level").read_text())
            text = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        mult = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        size = int(text.rstrip("KM")) * mult
        if best is None or level > best[0]:
            best = (level, size)
    return best[1] if best else None


def print_env(workload: str, seed: int):
    import numpy
    import scipy

    print(f"workload={workload} seed={seed}")
    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"KWL_THREADS={os.environ.get('KWL_THREADS', 'unset (default: nproc)')}")
    llc = llc_bytes()
    for label, n_r, n_theta in (("scan", 17, 16), ("damped", 33, 32), ("fine_grid", 129, 128)):
        lap = 2 * 8 * n_r * n_theta
        share = f"{lap / llc:.2e} of LLC {llc} B" if llc else "LLC size unknown"
        print(f"env mesh {label} {n_r}x{n_theta}: laplacian bytes per call "
              f"(computed: input + output) {lap} B = {share}")


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop that shares no code with
    kwlab.  It is timed next to every round: on a shared VM the speed at
    which this process interprets Python drifts by tens of percent over
    seconds to minutes, and a round's time divided by the loop's cancels
    most of that drift."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(250_000):
        acc += i * i % 7
        seen[i & 255] = acc
    return time.perf_counter() - t0


class Latencies:
    """Op latencies of one kind as counts in log bins 0.5% wide, so memory
    stays the same however many rounds a run makes."""

    STEP = math.log(1.005)

    def __init__(self):
        self.bins = Counter()
        self.n = 0

    def add(self, ns: int):
        self.bins[int(math.log(max(ns, 1)) / self.STEP)] += 1
        self.n += 1

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in seconds, at the middle of its bin."""
        rank = max(1, math.ceil(q * self.n))
        for b in sorted(self.bins):
            rank -= self.bins[b]
            if rank <= 0:
                return math.exp((b + 0.5) * self.STEP) / 1e9
        raise ValueError("no samples")


def run_rounds(wl, ops, seconds: float, trace: bool):
    """Repeat the ops until `seconds` have passed.  Returns per-round wall
    times (untraced and traced), the untraced round times divided by the
    reference loop timed around them, per-round CPU times of the untraced
    rounds, per-kind op latencies of untraced rounds, the counted check
    statuses, and the tracer of the traced rounds."""
    untraced, traced, ratios, cpu, latency, statuses = [], [], [], [], {}, Counter()
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    ref_before = reference_loop()
    op_id = 0
    while True:
        traced_round = trace and len(traced) < len(untraced)
        if traced_round:
            tracing.install(tracer)
        round_ns = 0
        outputs = []
        cpu0 = time.process_time()
        try:
            for op in ops:
                op_id += 1
                if traced_round:
                    tracer.op_id = op_id
                t0 = time.perf_counter_ns()
                try:
                    out = op.run()
                except Exception as exc:  # a raised error fails the op, not the run
                    out = exc
                dt = time.perf_counter_ns() - t0
                round_ns += dt
                outputs.append((op, out, dt))
        finally:
            if traced_round:
                tracer.unwrap_all()
            else:
                cpu.append(time.process_time() - cpu0)
        ref_after = reference_loop()
        if not traced_round:
            ratios.append(round_ns / 1e9 / (0.5 * (ref_before + ref_after)))
        ref_before = ref_after
        for op, out, dt in outputs:
            if not traced_round:
                latency.setdefault(op.kind, Latencies()).add(dt)
            statuses.update(_check(wl, op, out))
        (traced if traced_round else untraced).append(round_ns / 1e9)
        done = len(untraced) >= MIN_ROUNDS and (not trace or len(traced) >= MIN_ROUNDS)
        if done and time.perf_counter() >= deadline:
            break
    return untraced, traced, ratios, cpu, latency, statuses, tracer


def _check(wl, op, out) -> list[str]:
    if isinstance(out, Exception):
        if op.kind == "oracle":  # refusing a query is the flag
            return [wl.FLAGGED]
        print(f"{op.kind} op raised {out!r}", file=sys.stderr)
        return [wl.WRONG]
    try:
        return op.check(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"check failed: {exc!r}", file=sys.stderr)
        return [wl.WRONG]


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("KWL_THREADS", None)  # the scan pool runs at its documented default
    import_program()
    import workloads as wl

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, wl, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass


def _run(args, wl, tmp: Path) -> int:
    print_env(args.workload, args.seed)
    imports = probe_imports()
    workload = wl.WORKLOADS[args.workload](tmp, wl.load_reference())
    builds = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        ops = workload.build(args.seed)
        builds.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(builds)

    untraced, traced, ratios, cpu, latency, statuses, tracer = run_rounds(
        wl, ops, args.seconds, bool(args.trace)
    )
    probe = workload.defect_probe() if hasattr(workload, "defect_probe") else None
    attempted = sum(statuses.values())
    failed = attempted - statuses[wl.OK]
    wrong = statuses[wl.WRONG]
    run_s = statistics.median(untraced)
    run_ref = statistics.median(ratios)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    table = [
        ("setup_s", setup_s, "s", f"median of {len(imports)} imports + median of {len(builds)} input builds"),
        ("run_s", run_s, "s", f"median of {len(untraced)} rounds of {len(ops)} ops, "
                              f"quartiles {quartiles(untraced)}"),
        ("run_ref", run_ref, "ref_loops", f"median of the same rounds, each divided by the "
                                          f"reference loop timed around it; quartiles {quartiles(ratios)}"),
        ("cpu_s", statistics.median(cpu), "s", "median process CPU time of the same rounds"),
        ("fail_frac", failed / attempted, "ratio", f"{failed} of {attempted} checked units; {wrong} silently wrong"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss"),
    ]
    for kind, xs in sorted(latency.items()):
        table.append((f"{kind}_p50_ms", xs.percentile(0.5) * 1e3, "ms", f"n={xs.n}"))
        if xs.n >= 100:  # at least ten samples beyond the 90th percentile
            table.append((f"{kind}_p90_ms", xs.percentile(0.9) * 1e3, "ms", f"n={xs.n}"))
    if args.workload == "scan":
        cells = attempted / (len(untraced) + len(traced))
        table.append(("cells_per_s", cells / run_s, "1/s", f"{cells:.0f} cells per round"))
    if probe:
        n_probe = sum(probe[k] for k in (wl.OK, wl.FLAGGED, wl.WRONG))
        table.append(("oracle.full_band_fail_frac", (n_probe - probe[wl.OK]) / n_probe, "ratio",
                      f"untimed probe, l in {workload.FULL_BAND}: {probe[wl.FLAGGED]} flagged, "
                      f"{probe[wl.WRONG]} silently wrong of {n_probe}"))
        table.append(("oracle.quad_warnings", probe["quad_warnings"], "count", "untimed probe"))
    for name, value, unit, note in table:
        print(f"{name:<34} {value:>14.6g} {unit:<6} {note}")

    if args.trace:
        layers = tracing.layer_metrics(tracer.spans, len(traced))
        layers["oracle.quad_warnings"] = probe["quad_warnings"] if probe else 0
        layers["oracle.full_band_failures"] = probe[wl.FLAGGED] + probe[wl.WRONG] if probe else 0
        layers["trace.overhead_frac"] = statistics.median(traced) / run_s - 1.0
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{args.workload}_seed{args.seed}.csv.gz"
        tracing.write_spans(tracer.spans, spans_path)
        print(f"{len(tracer.spans)} spans of {len(traced)} traced rounds -> {spans_path}")
        for name, value in layers.items():
            print(f"{name:<42} {value:>14.6g} {tracing.UNITS[name]}")
        metrics = {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_ref": {"value": run_ref, "unit": "ref_loops"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    silent = wrong + (probe[wl.WRONG] if probe else 0)
    print(json.dumps({"correct": silent == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
