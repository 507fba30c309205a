"""Time integration of the coupled interior/boundary wave system.

Space: the annulus mesh (geometry module).  The unknowns are the grid values
of u and u_t; the free-circle trace shares storage with the outermost row, so
the boundary equation replaces the interior update there and trace
compatibility is exact.

Scheme: kick-drift-kick (velocity Verlet) with the damping handled inside the
kicks by a pointwise implicit midpoint solve,

    v_half  solves  v_half + (dt/2) D(v_half) = v_n + (dt/2) S(u_n)
    u_next  =  u_n + dt v_half
    v_next  =  v_half + (dt/2) S(u_next) - (dt/2) D(v_half)

where S is the stiffness+source acceleration and D the damping acceleration.
For D = 0 this is plain Verlet; for S = 0 it reduces to the implicit midpoint
rule for v' = -D(v), which for our odd nondecreasing D is unconditionally
contractive.  Both halves are second order, and because the reported energy
is exactly the invariant of the semi-discrete flow (see geometry), the
energy-identity residual measures pure time-discretization error.

Near blow-up the damping solve stays pointwise: the equation
x + kappa*D(x) = b has exactly one root, trapped between 0 and b, found by a
vectorized safeguarded Newton iteration (bisection fallback, as in rtsafe),
with a closed form when every active damping exponent is 2.  An entry whose
residual meets the tolerance is frozen; only the others shrink their bracket
and move.

S is evaluated once per step: the S(u_next) that ends a step is the S(u_n)
that starts the next one (first same as last), so simulate carries it from
step to step.  A rolled-back step leaves the state, and with it the cached
S(u_n), untouched.

Blow-up detection: after each step the phase norm and the source norms are
checked against the threshold; a crossing rolls the step back and halves dt,
and is accepted as a detection only once dt has been driven to dt_min, so the
reported bracket has width <= dt_min.  A step failure at the floor is flagged
separately (DtFloor) rather than silently treated as a crossing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals, geometry
from .functionals import EnergyReport, State, make_report
from .geometry import AnnulusMesh, build_annulus
from .model import (
    ModelParams,
    damping_P,
    damping_P_prime,
    damping_Q,
    damping_Q_prime,
    source_f,
    source_g,
)

__all__ = [
    "StepFailure",
    "SimConfig",
    "BlowupReport",
    "PROFILES",
    "radial_profile",
    "negative_energy_data",
    "initial_state",
    "step",
    "simulate",
]

PROFILES = ("ramp", "sine", "bump")


class StepFailure(RuntimeError):
    """The pointwise damping solve failed to converge; retry with smaller dt."""


# ---------------------------------------------------------------------------
# initial data


def radial_profile(mesh: AnnulusMesh, profile: str) -> np.ndarray:
    """Named radial shapes vanishing on the pinned circle.

    ramp: (r - r_in)/W, sine: sin(pi (r - r_in)/W), bump: ((r - r_in)/W)^2,
    with W the annulus width.  ramp and bump load the free circle; sine
    vanishes there too.
    """
    s = (mesh.r - mesh.r_inner) / (mesh.r_outer - mesh.r_inner)
    if profile == "ramp":
        radial = s
    elif profile == "sine":
        radial = np.sin(np.pi * s)
        radial[-1] = 0.0  # sin(pi*1.0) rounds to 1.2e-16; the trace is zero
    elif profile == "bump":
        radial = s**2
    else:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    return np.broadcast_to(radial[:, None], (mesh.n_r, mesh.n_theta)).copy()


def negative_energy_data(
    mesh: AnnulusMesh, params: ModelParams, profile: str = "ramp", margin: float = 1.0
) -> State:
    """Scale a profile until E(lambda*phi, 0) = -margin.

    E(lambda*phi) = lambda^2 A - lambda^p B - lambda^q C with A the stiffness
    quadratic and B, C the source integrals measured on the mesh; since the
    active source exponents exceed 2 whenever this is solvable, the scale is
    found by doubling and bisection.
    """
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    if params.gamma == 0 and params.delta == 0:
        raise ValueError("no source: energy cannot be negative")
    phi = radial_profile(mesh, profile)
    grad_omega, grad_gamma = geometry.gradient_energy(mesh, phi)
    a_quad = 0.5 * (grad_omega + grad_gamma)
    b_src, c_src = functionals._source_terms(
        params, *functionals._source_norms(mesh, phi, params)
    )
    if b_src == 0.0 and c_src == 0.0:
        raise ValueError(
            f"profile {profile!r} carries no source energy for these parameters"
        )

    def excess(lam: float) -> float:
        # E(lam*phi) + margin; positive at 0, negative for large lam
        return (
            lam * lam * a_quad
            - lam**params.p * b_src
            - lam**params.q * c_src
            + margin
        )

    hi = 1.0
    try:
        while excess(hi) > 0:
            hi *= 2.0
            if hi > 1e200:
                raise ValueError("failed to bracket the negative-energy scale")
    except OverflowError:
        # lam**p overflows before any sign change: the crossing, if it even
        # exists, lies beyond float range, so there is no usable scale
        raise ValueError("failed to bracket the negative-energy scale") from None
    lo, mid = 0.0, hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = excess(mid)
        if abs(g_mid) <= 1e-12 * max(1.0, margin):
            break
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
    u0 = mid * phi
    return State(u=u0, v=np.zeros_like(u0), t=0.0)


def initial_state(mesh: AnnulusMesh, params: ModelParams, cfg: "SimConfig") -> State:
    if cfg.initial_mode == "auto_negative_energy":
        return negative_energy_data(mesh, params, cfg.initial_profile, cfg.initial_margin)
    u0 = cfg.initial_scale * radial_profile(mesh, cfg.initial_profile)
    return State(u=u0, v=np.zeros_like(u0), t=0.0)


# ---------------------------------------------------------------------------
# the step


def _accel(mesh: AnnulusMesh, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Stiffness + source acceleration S(u) (damping excluded).

    Interior rows: laplacian + f(u).  Free-circle row: the variational
    boundary acceleration
        [-flux + (dr/2) f(u) + g(u)] / (1 + dr/2) + laplace_beltrami(u),
    in which the (dr/2)-weighted terms are the interior contributions of the
    outermost half cell and the row mass is r dtheta (1 + dr/2).
    """
    acc = geometry.laplacian(mesh, u)
    if params.gamma != 0.0:
        f_u = source_f(params, u)
        acc[1:-1] += f_u[1:-1]
        f_last = f_u[-1]
    else:
        f_last = 0.0
    half = 0.5 * mesh.dr
    boundary = -geometry.boundary_flux(mesh, u) + half * f_last
    if params.delta != 0.0:
        boundary += source_g(params, u[-1])
    acc[-1] = boundary / (1.0 + half) + geometry.laplace_beltrami(mesh, u[-1])
    acc[0] = 0.0
    return acc


def _mix_free_row(mesh: AnnulusMesh, d: np.ndarray, q_last) -> np.ndarray:
    """Overwrite d's free-circle row with the mass-scaled mix
    ((dr/2) d + q_last) / (1 + dr/2); q_last is None when Q is switched off."""
    half = 0.5 * mesh.dr
    d_last = half * d[-1]
    if q_last is not None:
        d_last = d_last + q_last
    d[-1] = d_last / (1.0 + half)
    return d


def _damping_accel(mesh: AnnulusMesh, v: np.ndarray, params: ModelParams) -> np.ndarray:
    """Damping acceleration D(v): P(v) at interior rows, the mass-scaled mix
    ((dr/2) P(v) + Q(v)) / (1 + dr/2) on the free-circle row."""
    q_last = damping_Q(params, v[-1]) if params.beta != 0.0 else None
    return _mix_free_row(mesh, damping_P(params, v), q_last)


def _damping_linear_coeffs(mesh: AnnulusMesh, params: ModelParams):
    """(c_interior, c_boundary_row) when D is linear, else None."""
    if params.alpha != 0.0 and (
        params.m != 2.0 or (params.a != 0.0 and params.m_tilde != 2.0)
    ):
        return None
    if params.beta != 0.0 and (
        params.mu != 2.0 or (params.b != 0.0 and params.mu_tilde != 2.0)
    ):
        return None
    c_int = params.alpha * (1.0 + params.a)
    c_bnd = params.beta * (1.0 + params.b)
    half = 0.5 * mesh.dr
    return c_int, (half * c_int + c_bnd) / (1.0 + half)


def _damping_derivative(mesh: AnnulusMesh, v: np.ndarray, params: ModelParams) -> np.ndarray:
    """dD/dv, for the Newton iteration; may be inf at v = 0 when an exponent
    is below 2 (the safeguard handles it)."""
    q_last = damping_Q_prime(params, v[-1]) if params.beta != 0.0 else None
    return _mix_free_row(mesh, damping_P_prime(params, v), q_last)


def _solve_damped_kick(
    mesh: AnnulusMesh, b: np.ndarray, kappa: float, params: ModelParams
) -> np.ndarray:
    """Solve x + kappa*D(x) = b pointwise.

    D is odd and nondecreasing, so the root is unique and lies between 0 and
    b componentwise.  Newton from x = b with a bisection safeguard; closed
    form when D is linear.  Converged entries are frozen: each sits on an
    end of its own bracket, so the bracket test would bisect it away.
    """
    if params.alpha == 0.0 and params.beta == 0.0:
        return b.copy()
    lin = _damping_linear_coeffs(mesh, params)
    if lin is not None:
        c_int, c_bnd = lin
        x = b / (1.0 + kappa * c_int)
        x[-1] = b[-1] / (1.0 + kappa * c_bnd)
        return x

    lo = np.minimum(b, 0.0)
    hi = np.maximum(b, 0.0)
    x = b.copy()
    tol = 1e-14 * (1.0 + np.abs(b))
    for _ in range(120):
        g = x + kappa * _damping_accel(mesh, x, params) - b
        done = np.abs(g) <= tol
        if done.all():
            return x
        active = ~done
        pos = g > 0
        hi = np.where(active & pos, x, hi)
        lo = np.where(active & ~pos, x, lo)
        with np.errstate(invalid="ignore", over="ignore"):
            x_new = x - g / (1.0 + kappa * _damping_derivative(mesh, x, params))
        bad = ~np.isfinite(x_new) | (x_new <= lo) | (x_new >= hi)
        x = np.where(done, x, np.where(bad, 0.5 * (lo + hi), x_new))
    resid = np.abs(x + kappa * _damping_accel(mesh, x, params) - b)
    unconverged = ~(resid <= 1e3 * tol)
    if not unconverged.any():
        return x
    raise StepFailure(
        f"damping solve did not converge: {np.count_nonzero(unconverged)} of "
        f"{resid.size} entries above tolerance, worst residual {np.max(resid):.3e}"
    )


def step(
    mesh: AnnulusMesh,
    state: State,
    params: ModelParams,
    dt: float,
    s_u: np.ndarray | None = None,
) -> tuple[State, np.ndarray]:
    """One kick-drift-kick step of size dt.

    s_u is S(state.u) if the caller already has it, else None.  Returns a
    fresh State and S of its u, which the next step can take as its s_u.
    Neither s_u nor the state is modified.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    kappa = 0.5 * dt
    if s_u is None:
        s_u = _accel(mesh, state.u, params)
    b = state.v + kappa * s_u
    b[0] = 0.0
    v_half = _solve_damped_kick(mesh, b, kappa, params)
    u_new = state.u + dt * v_half
    u_new[0] = 0.0
    s_new = _accel(mesh, u_new, params)
    v_new = v_half + kappa * s_new
    if params.alpha != 0.0 or params.beta != 0.0:
        v_new = v_new - kappa * _damping_accel(mesh, v_half, params)
    v_new[0] = 0.0
    return State(u=u_new, v=v_new, t=state.t + dt), s_new


# ---------------------------------------------------------------------------
# simulation driver


@dataclass
class SimConfig:
    """Everything one run needs; validated at construction.

    dt defaults to cfl*min(dr, r_inner*dtheta) (unit wave speed); an explicit
    dt must respect the 0.5 CFL cap.  initial_mode is "scaled" (u0 =
    scale*profile) or "auto_negative_energy" (scale solved so E = -margin).
    """

    params: ModelParams
    r_inner: float = 1.0
    r_outer: float = 2.0
    n_r: int = 33
    n_theta: int = 32
    cfl: float = 0.4
    dt: float | None = None
    t_end: float = 10.0
    dt_min: float = 1e-6
    blow_threshold: float = 1e8
    report_every: int = 10
    initial_profile: str = "ramp"
    initial_mode: str = "scaled"
    initial_scale: float = 1.0
    initial_margin: float = 1.0

    def __post_init__(self):
        if self.params.N != 2:
            raise ValueError(f"the simulator is two-dimensional; N=2 required, got N={self.params.N}")
        # the mesh's own checks, before dr and dtheta divide by its sizes
        geometry.check_mesh_args(self.r_inner, self.r_outer, self.n_r, self.n_theta)
        dr = (self.r_outer - self.r_inner) / (self.n_r - 1)
        dtheta = 2.0 * math.pi / self.n_theta
        wave_limit = min(dr, self.r_inner * dtheta)
        if self.dt is None:
            if not 0.0 < self.cfl <= 0.5:
                raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
            self.dt = self.cfl * wave_limit
        elif not 0.0 < self.dt <= 0.5 * wave_limit:
            raise ValueError(
                f"dt={self.dt} violates the CFL bound 0.5*min(dr, r_inner*dtheta)"
                f"={0.5 * wave_limit}"
            )
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0.0 < self.dt_min < self.dt:
            raise ValueError(
                f"dt_min must lie in (0, dt) (dt_min={self.dt_min}, dt={self.dt})"
            )
        if not 0 < self.blow_threshold < math.inf:
            raise ValueError(
                f"blow_threshold must be positive and finite, got {self.blow_threshold}"
            )
        if self.report_every < 1:
            raise ValueError(f"report_every must be >= 1, got {self.report_every}")
        if self.initial_profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.initial_profile!r}; choose from {PROFILES}"
            )
        if self.initial_mode not in ("scaled", "auto_negative_energy"):
            raise ValueError(f"unknown initial mode {self.initial_mode!r}")
        if self.initial_mode == "auto_negative_energy" and not self.initial_margin > 0:
            raise ValueError(f"margin must be positive, got {self.initial_margin}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        """Build from a JSON-style document; unknown keys are errors."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        doc = dict(doc)
        kwargs = {}
        params_doc = doc.pop("params", None)
        if not isinstance(params_doc, dict):
            raise ValueError("config requires a 'params' object")
        known = set(ModelParams.field_names())
        bad = set(params_doc) - known
        if bad:
            raise ValueError(f"unknown model parameters: {sorted(bad)}")
        kwargs["params"] = ModelParams(**params_doc)
        mesh_doc = doc.pop("mesh", {})
        if not isinstance(mesh_doc, dict):
            raise ValueError("'mesh' must be an object")
        bad = set(mesh_doc) - {"r_inner", "r_outer", "n_r", "n_theta"}
        if bad:
            raise ValueError(f"unknown mesh keys: {sorted(bad)}")
        kwargs.update(mesh_doc)
        init_doc = doc.pop("initial_data", {})
        if not isinstance(init_doc, dict):
            raise ValueError("'initial_data' must be an object")
        bad = set(init_doc) - {"profile", "mode", "scale", "margin"}
        if bad:
            raise ValueError(f"unknown initial_data keys: {sorted(bad)}")
        if "profile" in init_doc:
            kwargs["initial_profile"] = init_doc["profile"]
        if "mode" in init_doc:
            kwargs["initial_mode"] = init_doc["mode"]
        elif "margin" in init_doc and "scale" not in init_doc:
            kwargs["initial_mode"] = "auto_negative_energy"
        if "scale" in init_doc:
            kwargs["initial_scale"] = float(init_doc["scale"])
        if "margin" in init_doc:
            kwargs["initial_margin"] = float(init_doc["margin"])
        simple = {"cfl", "dt", "t_end", "dt_min", "blow_threshold", "report_every"}
        bad = set(doc) - simple
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        kwargs.update(doc)
        return cls(**kwargs)


@dataclass
class BlowupReport:
    blew_up: bool
    t_detect: float | None
    t_bracket: tuple[float, float] | None
    trigger: str  # PhaseNorm | LpNorm | DtFloor | None
    final_report: EnergyReport
    steps: int = 0
    dt_final: float = 0.0


def _crossing(
    mesh: AnnulusMesh, state: State, params: ModelParams, threshold: float
) -> str | None:
    """Name of the triggered monitor, or None.  Non-finite counts as crossed."""
    phase_sq = functionals._phase_parts(mesh, state)[3]
    if not phase_sq < threshold * threshold:
        return "PhaseNorm"
    lp, lq = functionals._source_norms(mesh, state.u, params)
    if not lp + lq < threshold:
        return "LpNorm"
    return None


def simulate(
    cfg: SimConfig, initial: State | None = None
) -> tuple[list[EnergyReport], BlowupReport]:
    """Run to t_end or to a detected blow-up; see module docstring.

    `initial` overrides the configured initial data (same mesh shape
    required); used to evolve one data set under several parameter records.
    """
    mesh = build_annulus(cfg.r_inner, cfg.r_outer, cfg.n_r, cfg.n_theta)
    params = cfg.params
    state = initial.copy() if initial is not None else initial_state(mesh, params, cfg)
    try:
        lyap = functionals.default_k(params)
    except ValueError:
        lyap = None

    reports = [make_report(mesh, state, params, lyap)]
    s_u = _accel(mesh, state.u, params)
    dt0 = cfg.dt
    dt = dt0
    accepted = 0
    clean_streak = 0
    blew_up = False
    trigger = "None"
    bracket = None
    eps = 1e-12 * cfg.t_end

    while state.t < cfg.t_end - eps:
        dt_step = min(dt, cfg.t_end - state.t)
        try:
            candidate, s_candidate = step(mesh, state, params, dt_step, s_u)
        except StepFailure:
            if dt <= cfg.dt_min:
                blew_up = True
                trigger = "DtFloor"
                bracket = (state.t, state.t + dt_step)
                break
            dt = max(0.5 * dt, cfg.dt_min)
            clean_streak = 0
            continue
        hit = _crossing(mesh, candidate, params, cfg.blow_threshold)
        if hit is not None:
            if dt <= cfg.dt_min:
                blew_up = True
                trigger = hit
                bracket = (state.t, candidate.t)
                # the detected state itself is the final report, so the
                # over-threshold norms at t_detect are visible downstream
                state = candidate
                break
            dt = max(0.5 * dt, cfg.dt_min)
            clean_streak = 0
            continue
        state, s_u = candidate, s_candidate
        accepted += 1
        clean_streak += 1
        if clean_streak >= 64 and dt < dt0:
            dt = min(2.0 * dt, dt0)
            clean_streak = 0
        if accepted % cfg.report_every == 0:
            reports.append(make_report(mesh, state, params, lyap, prev=reports[-1]))

    if reports[-1].t != state.t:
        reports.append(make_report(mesh, state, params, lyap, prev=reports[-1]))

    report = BlowupReport(
        blew_up=blew_up,
        t_detect=bracket[1] if blew_up else None,
        t_bracket=bracket,
        trigger=trigger,
        final_report=reports[-1],
        steps=accepted,
        dt_final=dt,
    )
    return reports, report
