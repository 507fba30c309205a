"""Span tracing from outside the program.

The tracer replaces module attributes of the kwlab package with wrappers
that record one span per call: (span id, parent span id, op id, thread id,
name, start ns, end ns, extra).  Every alias a caller looks up is wrapped
separately, because a name imported with ``from .x import y`` is a second
binding that patching ``x.y`` does not reach.

Parents come from a thread-local stack.  A span opened on a worker thread
with an empty stack gets the outermost span open on the main thread as its
parent, so the cells that ``cli.run_scan`` hands to its thread pool hang
under the ``run_scan`` span that caused them.

Spans stay in memory; ``write_spans`` dumps them at the end of a run.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns

UNITS = {
    "regimes.classify.calls": "count",
    "regimes.classify.us_per_call": "us/call",
    "model.ModelParams.us_per_call": "us/call",
    "oracle.blowup_time.us_per_call": "us/call",
    "oracle.integrate_comparison.ms_per_call": "ms/call",
    "oracle.rk4_steps": "count",
    "oracle.quad_warnings": "count",
    "oracle.full_band_failures": "count",
    "geometry.laplacian.calls": "count",
    "geometry.laplacian.us_per_call": "us/call",
    "geometry.laplacian.bytes_computed": "B/call",
    "geometry.gradient_energy.us_per_call": "us/call",
    "geometry.integrate.calls_per_step": "calls/step",
    "functionals.make_report.calls": "count",
    "functionals.make_report.us_per_call": "us/call",
    "solver.step.calls": "count",
    "solver.step.us_per_call": "us/call",
    "solver.steps_accepted": "count",
    "solver.steps_rejected": "count",
    "solver.accel.calls_per_step": "calls/step",
    "solver.accel.us_per_call": "us/call",
    "solver.kick.us_per_call": "us/call",
    "solver.kick.damping_evals": "evals/call",
    "solver.crossing.us_per_call": "us/call",
    "solver.negative_energy_data.us_per_call": "us/call",
    "solver.simulate.self_ms": "ms/call",
    "cli.run_scan.overlap": "ratio",
    "cli.run_scan.self_ms": "ms/call",
    "cli.run_simulate.write_ms": "ms/call",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root = None
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, extra=None, cpu: bool = False):
        """Replace owner.attr by a recording wrapper.

        ``extra(args, result)`` may return one number stored with the span
        (a step count, a byte count); with ``cpu`` the span stores the
        calling thread's CPU time instead.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            on_main = threading.current_thread() is tracer._main
            parent = stack[-1] if stack else (None if on_main else tracer._root)
            sid = next(tracer._ids)
            if on_main and not stack:
                tracer._root = sid
            stack.append(sid)
            c0 = time.thread_time_ns() if cpu else 0
            t0 = _now()
            result = None
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                stack.pop()
                if on_main and not stack:
                    tracer._root = None
                if cpu:
                    value = time.thread_time_ns() - c0
                elif extra is not None and result is not None:
                    value = extra(args, result)
                else:
                    value = 0
                tracer.spans.append(
                    (sid, parent, tracer.op_id, threading.get_ident(), name, t0, t1, value)
                )

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics read."""
    from kwlab import cli, functionals, geometry, oracle, regimes, solver
    from kwlab.model import ModelParams

    def n_steps(_args, rep):
        return rep[1].steps

    def rk4_steps(_args, traj):
        return len(traj) - 1

    def lap_bytes(args, _out):
        # computed, not measured: input read once plus output written once
        return 2 * args[1].nbytes

    w = tracer.wrap
    w(cli, "run_scan", "cli.run_scan")
    # cells wait for the interpreter lock inside their spans, so their busy
    # time is the worker thread's CPU time, not the span's wall time
    w(cli, "_scan_cell", "cli.scan_cell", cpu=True)
    w(cli, "run_simulate", "cli.run_simulate")
    w(regimes, "classify", "regimes.classify")
    w(ModelParams, "__init__", "model.ModelParams")
    w(oracle, "blowup_time", "oracle.blowup_time")
    w(oracle, "integrate_comparison", "oracle.integrate_comparison", rk4_steps)
    w(geometry, "laplacian", "geometry.laplacian", lap_bytes)
    w(geometry, "gradient_energy", "geometry.gradient_energy")
    for mod in (geometry, functionals):
        w(mod, "integrate_interior", "geometry.integrate")
        w(mod, "integrate_boundary", "geometry.integrate")
    for mod in (functionals, solver):
        w(mod, "make_report", "functionals.make_report")
    w(solver, "simulate", "solver.simulate", n_steps)
    w(solver, "step", "solver.step")
    w(solver, "_accel", "solver.accel")
    w(solver, "_solve_damped_kick", "solver.kick")
    w(solver, "_damping_accel", "solver.damping_accel")
    w(solver, "_crossing", "solver.crossing")
    w(solver, "negative_energy_data", "solver.negative_energy_data")


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, parent, _op, _th, _name, t0, t1, _x in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - _union_ns(children.get(sid, []), t0, t1)
        for sid, _p, _op, _th, _name, t0, t1, _x in spans
    }


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer metrics of the traced rounds; counts are per round."""
    calls = defaultdict(int)
    busy = defaultdict(int)
    extra = defaultdict(int)
    for _sid, _p, _op, _th, name, t0, t1, x in spans:
        calls[name] += 1
        busy[name] += t1 - t0
        extra[name] += x
    selfs = self_times(spans)
    names = {sid: name for sid, _p, _op, _th, name, *_ in spans}
    self_ns = defaultdict(int)
    for sid, ns in selfs.items():
        self_ns[names[sid]] += ns
    kick_ids = {sid for sid, name in names.items() if name == "solver.kick"}
    evals_in_kick = sum(
        1 for _sid, p, _op, _th, name, *_ in spans
        if name == "solver.damping_accel" and p in kick_ids
    )
    sim_ns_under_cli = sum(
        t1 - t0 for _sid, p, _op, _th, name, t0, t1, _x in spans
        if name == "solver.simulate" and names.get(p) == "cli.run_simulate"
    )

    def per_call(name, scale):
        return busy[name] / calls[name] / scale if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls["solver.step"]
    return {
        "regimes.classify.calls": calls["regimes.classify"] / rounds,
        "regimes.classify.us_per_call": per_call("regimes.classify", 1e3),
        "model.ModelParams.us_per_call": per_call("model.ModelParams", 1e3),
        "oracle.blowup_time.us_per_call": per_call("oracle.blowup_time", 1e3),
        "oracle.integrate_comparison.ms_per_call": per_call("oracle.integrate_comparison", 1e6),
        "oracle.rk4_steps": extra["oracle.integrate_comparison"] / rounds,
        "geometry.laplacian.calls": calls["geometry.laplacian"] / rounds,
        "geometry.laplacian.us_per_call": per_call("geometry.laplacian", 1e3),
        "geometry.laplacian.bytes_computed": ratio(extra["geometry.laplacian"], calls["geometry.laplacian"]),
        "geometry.gradient_energy.us_per_call": per_call("geometry.gradient_energy", 1e3),
        "geometry.integrate.calls_per_step": ratio(calls["geometry.integrate"], steps),
        "functionals.make_report.calls": calls["functionals.make_report"] / rounds,
        "functionals.make_report.us_per_call": per_call("functionals.make_report", 1e3),
        "solver.step.calls": steps / rounds,
        "solver.step.us_per_call": per_call("solver.step", 1e3),
        "solver.steps_accepted": extra["solver.simulate"] / rounds,
        "solver.steps_rejected": (steps - extra["solver.simulate"]) / rounds,
        "solver.accel.calls_per_step": ratio(calls["solver.accel"], steps),
        "solver.accel.us_per_call": per_call("solver.accel", 1e3),
        "solver.kick.us_per_call": per_call("solver.kick", 1e3),
        "solver.kick.damping_evals": ratio(evals_in_kick, calls["solver.kick"]),
        "solver.crossing.us_per_call": per_call("solver.crossing", 1e3),
        "solver.negative_energy_data.us_per_call": per_call("solver.negative_energy_data", 1e3),
        "solver.simulate.self_ms": ratio(self_ns["solver.simulate"], calls["solver.simulate"]) / 1e6,
        "cli.run_scan.overlap": ratio(extra["cli.scan_cell"], busy["cli.run_scan"]),
        "cli.run_scan.self_ms": ratio(self_ns["cli.run_scan"], calls["cli.run_scan"]) / 1e6,
        "cli.run_simulate.write_ms": ratio(
            busy["cli.run_simulate"] - sim_ns_under_cli, calls["cli.run_simulate"]
        ) / 1e6,
    }


def write_spans(spans: list[tuple], path) -> None:
    """Dump spans as gzipped CSV, with each span's self time."""
    selfs = self_times(spans)
    with gzip.open(path, "wt") as fh:
        fh.write("span,parent,op,thread,name,start_ns,end_ns,self_ns,extra\n")
        for sid, parent, op, th, name, t0, t1, x in spans:
            fh.write(
                f"{sid},{'' if parent is None else parent},{op},{th},{name},"
                f"{t0},{t1},{selfs[sid]},{x}\n"
            )
