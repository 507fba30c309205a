"""Energy-type functionals evaluated along discrete trajectories.

Conventions (matching the continuous problem):

    kinetic        |u'|^2 integrated over the annulus AND the free circle
                   (the velocity has a trace component of its own)
    J              (gamma/p) ||u||_p^p + (delta/q) ||u||_{q,circle}^q
    E              1/2 kinetic + 1/2 ∫|grad u|^2 + 1/2 ∫|grad_tang u|^2 - J
    K              -E (the blow-up bookkeeping quantity; K > 0 on
                   negative-energy trajectories and is nondecreasing)
    Z              K^{1-k} + (u', u)_{H0} with k = default_k(params), the
                   Lyapunov functional whose superlinear growth drives the
                   blow-up argument

The gradient terms use the staggered quadratures of geometry.gradient_energy,
so E is exactly the invariant of the undamped sourceless semi-discrete flow;
see that docstring.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import AnnulusMesh, integrate_boundary, integrate_interior
from .model import ModelParams, _Plan

__all__ = [
    "State",
    "EnergyReport",
    "REPORT_COLUMNS",
    "default_k",
    "dissipation_rate",
    "energy_identity_residual",
    "make_report",
]


@dataclass
class State:
    """Trajectory snapshot: displacement, velocity, time.

    u and v live on the full (n_r, n_theta) grid; row 0 (the pinned circle)
    must be zero in both.  The free-circle unknowns are the last row -- the
    boundary trace is the same storage, so trace compatibility is exact by
    construction.
    """

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0


def _check_state(mesh: AnnulusMesh, state: State, name: str = "state") -> State:
    """The state with float u and v, which must share the shape (n_r, n_theta)
    or (n_cells, n_r, n_theta); the entry points check, the kernels do not."""
    u, v = np.asarray(state.u, dtype=float), np.asarray(state.v, dtype=float)
    grid = (mesh.n_r, mesh.n_theta)
    if not (u.shape == v.shape and u.shape[-2:] == grid and u.ndim in (2, 3)):
        raise ValueError(f"{name} u and v must have shape {grid} or (n_cells, {grid[0]}, "
                         f"{grid[1]}), got {u.shape} and {v.shape}")
    return State(u, v, state.t)


@dataclass(frozen=True)
class EnergyReport:
    """One monitoring row; the field order is the output order of
    trajectory.csv's columns (REPORT_COLUMNS) and final_report's keys."""

    t: float
    lp_interior: float
    lq_boundary: float
    grad_omega: float
    grad_gamma: float
    kinetic: float
    phase_norm_sq: float
    J: float
    E: float
    K: float
    Z: float | None
    dissipation_rate: float
    identity_residual: float


REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(EnergyReport))


def _phase_parts(mesh: AnnulusMesh, state: State) -> tuple[float, float, float, float]:
    """(kinetic, grad_omega, grad_gamma, phase_norm_sq) of a snapshot.

    The squared phase norm adds the free-circle trace ∫_circle u^2 to the
    kinetic and gradient parts; it is what the PhaseNorm monitor watches.
    A stack of cells gives one value of each per cell.
    """
    u, v = state.u, state.v
    grad_omega, grad_gamma = geometry.gradient_energy(mesh, u)
    kin = integrate_interior(mesh, v**2) + integrate_boundary(mesh, v[..., -1, :] ** 2)
    trace_sq = integrate_boundary(mesh, u[..., -1, :] ** 2)
    return kin, grad_omega, grad_gamma, kin + grad_omega + grad_gamma + trace_sq


def _source_norms(mesh: AnnulusMesh, u: np.ndarray, plan: _Plan) -> tuple[float, float]:
    """(∫|u|^p, ∫_circle |u|^q): the source norms read by J and by the
    LpNorm monitor.  The free-circle row keeps its row axis while the
    exponent acts on it, so per-cell exponents, shaped (n_cells, 1, 1),
    broadcast over a stack."""
    return (
        integrate_interior(mesh, plan.lp(np.abs(u))),
        integrate_boundary(mesh, plan.lq(np.abs(u[..., -1:, :]))[..., 0, :]),
    )


def _max_norm_bounds(mesh: AnnulusMesh, state: State, plan: _Plan):
    """Upper bounds of (phase_norm_sq, ∫|u|^p + ∫_circle |u|^q), one per cell,
    from M_u = max|u| and M_v = max|v| alone: A_v M_v^2 + A_u M_u^2 and
    S_p M_u^p + S_q M_u^q, with the mesh's constants (see AnnulusMesh) and
    the plan's lp and lq, the powers _source_norms takes.  Each grid
    difference is at most 2 M_u (a discrete inverse inequality; Ciarlet, The
    Finite Element Method for Elliptic Problems, 1978, section 3.2).  A NaN
    or inf M, or a product that overflows, gives a NaN or inf bound, which
    bounds nothing.  A constant multiplies M first: M^2 alone can round to 0
    where the exact norm, whose differences are divided by dr, stays subnormal.
    """
    axes = (-2, -1)
    u, v = state.u, state.v
    m_u = np.maximum(u.max(axis=axes, keepdims=True), -u.min(axis=axes, keepdims=True))
    m_v = np.maximum(v.max(axis=axes, keepdims=True), -v.min(axis=axes, keepdims=True))
    with np.errstate(over="ignore"):
        phase = (mesh._phase_bound_v * m_v) * m_v + (mesh._phase_bound_u * m_u) * m_u
        source = mesh._source_bound_p * plan.lp(m_u) + mesh._source_bound_q * plan.lq(m_u)
    return phase[..., 0, 0], source[..., 0, 0]


def _source_terms(plan: _Plan, lp: float, lq: float) -> tuple[float, float]:
    """The two summands (gamma/p) lp and (delta/q) lq of J.  A source that is
    off contributes exactly 0.0, whatever its norm."""
    f, g = plan.f, plan.g
    return (
        (f.weight / f.e) * lp if f.on else 0.0,
        (g.weight / g.e) * lq if g.on else 0.0,
    )


def default_k(params: ModelParams) -> float | None:
    """Largest admissible Lyapunov exponent k for the parameter record, or
    None when there is none: no source term is on, or k <= 0.

    k = min over the active terms of {1/m - 1/p (interior damping),
    1/mu - 1/p (boundary damping), 1/2 - 1/p (interior source),
    1/2 - 1/q (boundary source)}.  A term is active when its weight (alpha,
    beta, gamma, delta respectively) is positive.  An admissible k lies in
    (0, 1/2), since the source candidates are below 1/2.
    """
    terms = []
    if params.alpha > 0:
        terms.append(1.0 / params.m - 1.0 / params.p)
    if params.beta > 0:
        terms.append(1.0 / params.mu - 1.0 / params.p)
    if params.gamma > 0:
        terms.append(0.5 - 1.0 / params.p)
    if params.delta > 0:
        terms.append(0.5 - 1.0 / params.q)
    k = min(terms, default=0.0)
    return k if k > 0.0 and (params.gamma > 0 or params.delta > 0) else None


def dissipation_rate(mesh: AnnulusMesh, state: State, params: ModelParams) -> float:
    """∫ P(u')u' + ∫_circle Q(u')u'; each summand is pointwise >= 0, so the
    result is exactly nonnegative."""
    v = _check_state(mesh, state).v
    P, Q = params._plan.P, params._plan.Q
    total = 0.0
    if P.on:
        total += integrate_interior(mesh, P(v) * v)
    if Q.on:
        v_last = v[..., -1, :]
        total += integrate_boundary(mesh, Q(v_last) * v_last)
    return total


def energy_identity_residual(report_prev: EnergyReport, report_next: EnergyReport) -> float:
    """Defect of the discrete energy identity between two consecutive reports:
    E_next - E_prev + trapezoid of the dissipation rate.  Zero for the exact
    flow; O(dt^2) for the integrator."""
    if report_next.t < report_prev.t:
        raise ValueError(
            f"non-monotone report times: {report_prev.t} -> {report_next.t}"
        )
    dt = report_next.t - report_prev.t
    return (
        report_next.E
        - report_prev.E
        + 0.5 * dt * (report_prev.dissipation_rate + report_next.dissipation_rate)
    )


def make_report(
    mesh: AnnulusMesh, state: State, params: ModelParams, *, prev: EnergyReport | None = None
) -> EnergyReport:
    """Evaluate every monitored functional at one snapshot.

    This is the one place J, E, K and Z are computed.  Z is filled only when
    K > 0 (in every cell of a stack) and default_k(params) is not None; the
    identity residual is measured against `prev` (0 for the first report).
    """
    state = _check_state(mesh, state)
    u, v = state.u, state.v
    plan = params._plan
    lp, lq = _source_norms(mesh, u, plan)
    kin, grad_omega, grad_gamma, phase_sq = _phase_parts(mesh, state)
    j_interior, j_boundary = _source_terms(plan, lp, lq)
    j_val = j_interior + j_boundary
    e_val = 0.5 * kin + 0.5 * grad_omega + 0.5 * grad_gamma - j_val
    k_val = -e_val
    z_val = None
    k_min = k_val.min() if isinstance(k_val, np.ndarray) else k_val  # a stack's least K
    if k_min > 0.0 and (k := default_k(params)) is not None:
        pairing = integrate_interior(mesh, v * u) + integrate_boundary(
            mesh, v[..., -1, :] * u[..., -1, :]
        )
        z_val = k_val ** (1.0 - k) + pairing
    diss = dissipation_rate(mesh, state, params)
    report = EnergyReport(
        t=state.t,
        lp_interior=lp,
        lq_boundary=lq,
        grad_omega=grad_omega,
        grad_gamma=grad_gamma,
        kinetic=kin,
        phase_norm_sq=phase_sq,
        J=j_val,
        E=e_val,
        K=k_val,
        Z=z_val,
        dissipation_rate=diss,
        identity_residual=0.0,
    )
    if prev is not None:
        report = dataclasses.replace(
            report, identity_residual=energy_identity_residual(prev, report)
        )
    return report
