"""Energy-type functionals evaluated along discrete trajectories.

Conventions (matching the continuous problem):

    kinetic        |u'|^2 integrated over the annulus AND the free circle
                   (the velocity has a trace component of its own)
    J              (gamma/p) ||u||_p^p + (delta/q) ||u||_{q,circle}^q
    E              1/2 kinetic + 1/2 ∫|grad u|^2 + 1/2 ∫|grad_tang u|^2 - J
    K              -E (the blow-up bookkeeping quantity; K > 0 on
                   negative-energy trajectories and is nondecreasing)
    Z              K^{1-k} + omega*(u', u)_{H0}, the Lyapunov functional
                   whose superlinear growth drives the blow-up argument

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
from .model import ModelParams, abs_power, damping_P, damping_Q

__all__ = [
    "State",
    "EnergyReport",
    "LyapunovConfig",
    "REPORT_COLUMNS",
    "potential_J",
    "energy_E",
    "K",
    "lyapunov_Z",
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


@dataclass(frozen=True)
class EnergyReport:
    """One monitoring row; serializes to one CSV line (see REPORT_COLUMNS)."""

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


REPORT_COLUMNS = (
    "t",
    "lp_interior",
    "lq_boundary",
    "grad_omega",
    "grad_gamma",
    "kinetic",
    "phase_norm_sq",
    "J",
    "E",
    "K",
    "Z",
    "dissipation_rate",
    "identity_residual",
)


@dataclass(frozen=True)
class LyapunovConfig:
    """Exponent k in (0, 1/2), weight omega > 0, and the damping ceiling
    k_bar (None when no damping is active)."""

    k: float
    omega: float = 1.0
    k_bar: float | None = None

    def __post_init__(self):
        if not 0.0 < self.k < 0.5:
            raise ValueError(f"k must lie in (0, 1/2), got {self.k}")
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")


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


def _source_norms(mesh: AnnulusMesh, u: np.ndarray, params: ModelParams) -> tuple[float, float]:
    """(∫|u|^p, ∫_circle |u|^q): the source norms read by J and by the
    LpNorm monitor.  The free-circle row keeps its row axis while the
    exponent acts on it, so per-cell exponents, shaped (n_cells, 1, 1),
    broadcast over a stack."""
    return (
        integrate_interior(mesh, abs_power(np.abs(u), params.p)),
        integrate_boundary(mesh, abs_power(np.abs(u[..., -1:, :]), params.q)[..., 0, :]),
    )


def _source_terms(params: ModelParams, lp: float, lq: float) -> tuple[float, float]:
    """The two summands (gamma/p) lp and (delta/q) lq of J.  A source whose
    weight is zero contributes exactly 0.0, whatever its norm."""
    return (
        (params.gamma / params.p) * lp if params.gamma != 0.0 else 0.0,
        (params.delta / params.q) * lq if params.delta != 0.0 else 0.0,
    )


def potential_J(mesh: AnnulusMesh, state: State, params: ModelParams) -> float:
    """(gamma/p)*∫|u|^p + (delta/q)*∫_circle |u|^q; nonnegative."""
    return make_report(mesh, state, params).J


def energy_E(mesh: AnnulusMesh, state: State, params: ModelParams) -> float:
    """Total energy; exactly conserved by the semi-discrete flow when damping
    and sources are off."""
    return make_report(mesh, state, params).E


def K(mesh: AnnulusMesh, state: State, params: ModelParams) -> float:
    """-E, the same value make_report stores."""
    return make_report(mesh, state, params).K


def lyapunov_Z(
    mesh: AnnulusMesh, state: State, params: ModelParams, cfg: LyapunovConfig
) -> float:
    """K^(1-k) + omega*(u', u)_{H0}; defined only while K > 0."""
    z_val = make_report(mesh, state, params, cfg).Z
    if z_val is None:
        raise ValueError("Z undefined: energy not negative")
    return z_val


def default_k(params: ModelParams) -> LyapunovConfig:
    """Largest admissible Lyapunov exponent for the parameter record.

    k = min over the active terms of {1/m - 1/p (interior damping),
    1/mu - 1/p (boundary damping), 1/2 - 1/p (interior source),
    1/2 - 1/q (boundary source)}, omega = 1.  A term is active when its
    weight (alpha, beta, gamma, delta respectively) is positive.  The
    damping terms alone form the ceiling k_bar.
    """
    damping_terms = []
    if params.alpha > 0:
        damping_terms.append(1.0 / params.m - 1.0 / params.p)
    if params.beta > 0:
        damping_terms.append(1.0 / params.mu - 1.0 / params.p)
    terms = list(damping_terms)
    if params.gamma > 0:
        terms.append(0.5 - 1.0 / params.p)
    if params.delta > 0:
        terms.append(0.5 - 1.0 / params.q)
    if params.gamma == 0 and params.delta == 0:
        raise ValueError("no admissible Lyapunov exponent: no source term")
    k0 = min(terms)
    if not k0 > 0.0:
        raise ValueError(
            f"no admissible Lyapunov exponent: min of candidate terms is {k0}"
        )
    return LyapunovConfig(
        k=k0, omega=1.0, k_bar=min(damping_terms) if damping_terms else None
    )


def dissipation_rate(mesh: AnnulusMesh, state: State, params: ModelParams) -> float:
    """∫ P(u')u' + ∫_circle Q(u')u'; each summand is pointwise >= 0, so the
    result is exactly nonnegative."""
    total = 0.0
    if params.alpha != 0.0:
        total += integrate_interior(mesh, damping_P(params, state.v) * state.v)
    if params.beta != 0.0:
        v_last = state.v[..., -1, :]
        total += integrate_boundary(mesh, damping_Q(params, v_last) * v_last)
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
    mesh: AnnulusMesh,
    state: State,
    params: ModelParams,
    lyap: LyapunovConfig | None = None,
    prev: EnergyReport | None = None,
) -> EnergyReport:
    """Evaluate every monitored functional at one snapshot.

    This is the one place J, E, K and Z are computed; potential_J, energy_E,
    K and lyapunov_Z read the fields of this report.  Z is filled only when a
    Lyapunov config is supplied and K > 0; the identity residual is measured
    against `prev` (0 for the first report).
    """
    u, v = state.u, state.v
    lp, lq = _source_norms(mesh, u, params)
    kin, grad_omega, grad_gamma, phase_sq = _phase_parts(mesh, state)
    j_interior, j_boundary = _source_terms(params, lp, lq)
    j_val = j_interior + j_boundary
    e_val = 0.5 * kin + 0.5 * grad_omega + 0.5 * grad_gamma - j_val
    k_val = -e_val
    z_val = None
    if lyap is not None and k_val > 0.0:
        pairing = integrate_interior(mesh, v * u) + integrate_boundary(
            mesh, v[..., -1, :] * u[..., -1, :]
        )
        z_val = k_val ** (1.0 - lyap.k) + lyap.omega * pairing
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
