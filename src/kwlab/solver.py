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
and move.  v_next reuses the iteration's last evaluation of D(v_half).

S is evaluated once per step: the S(u_next) that ends a step is the S(u_n)
that starts the next one (first same as last), so simulate carries it from
step to step.  A rolled-back step leaves the state, and with it the cached
S(u_n), untouched.

Blow-up detection: after each step the phase norm and the source norms are
checked against the threshold; a crossing rolls the step back and halves dt,
and is accepted as a detection only once dt has been driven to dt_min, so the
reported bracket has width <= dt_min.  A step failure at the floor is flagged
separately (DtFloor) rather than silently treated as a crossing.  Initial
data that already crosses the monitors is an error.

Stacks: the kernels (_accel, _solve_damped_kick, step, _crossing and the
geometry operators under them) also take a stack of cells, arrays of shape
(n_cells, n_r, n_theta) with a leading cell axis.  dt, t and the threshold
then hold one value per cell, and a parameter on which the cells differ is
an (n_cells, 1, 1) array; a 2-D input is computed exactly as before.
simulate_batch steps the cells that share a mesh and their kernel branches
(which weights are zero, whether the kick has a closed form) as one stack in
lockstep.  The stack's parameter record resolves those branches once, when
the stack forms and at each compaction.  Each cell keeps its own dt, clean
streak and step count; a rollback is a masked where over the cell axis, and
a cell that finishes (blow-up detected, DtFloor, or t_end) is retired: its
rows are compacted out of the arrays.  No operation mixes cells, and an
exponent NumPy takes by a shortcut is applied cell by cell (model.abs_power),
so each cell's result is bitwise the one it gets alone; simulate is the batch
of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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
    differs,
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
    "simulate_batch",
]

PROFILES = ("ramp", "sine", "bump")


class StepFailure(RuntimeError):
    """The pointwise damping solve failed to converge; retry with smaller dt.

    For a stack of cells, `cells` marks the cells that failed (one bool per
    cell); it is None for a single cell.
    """

    def __init__(self, message: str, cells: np.ndarray | None = None):
        super().__init__(message)
        self.cells = cells


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


def _accel(mesh: AnnulusMesh, u: np.ndarray, params: SimpleNamespace) -> np.ndarray:
    """Stiffness + source acceleration S(u) (damping excluded).

    Interior rows: laplacian + f(u).  Free-circle row: the variational
    boundary acceleration
        [-flux + (dr/2) f(u) + g(u)] / (1 + dr/2) + laplace_beltrami(u),
    in which the (dr/2)-weighted terms are the interior contributions of the
    outermost half cell and the row mass is r dtheta (1 + dr/2).
    """
    acc = geometry.laplacian(mesh, u)
    if params.gamma_on:
        f_u = source_f(params, u)
        acc[..., 1:-1, :] += f_u[..., 1:-1, :]
        f_last = f_u[..., -1, :]
    else:
        f_last = 0.0
    half = 0.5 * mesh.dr
    boundary = -geometry.boundary_flux(mesh, u) + half * f_last
    if params.delta_on:
        # the row keeps its axis while per-cell parameters, shaped
        # (n_cells, 1, 1), act on it
        boundary += source_g(params, u[..., -1:, :])[..., 0, :]
    acc[..., -1, :] = boundary / (1.0 + half) + geometry.laplace_beltrami(
        mesh, u[..., -1, :]
    )
    acc[..., 0, :] = 0.0
    return acc


def _free_row_mix(
    mesh: AnnulusMesh, v: np.ndarray, params: SimpleNamespace, P, Q
) -> np.ndarray:
    """P(v) at interior rows, the mass-scaled mix ((dr/2) P(v) + Q(v)) / (1 + dr/2)
    on the free-circle row; Q is skipped when beta is zero.  Called with
    (damping_P, damping_Q) for D and with their derivatives for dD/dv."""
    d = P(params, v)
    half = 0.5 * mesh.dr
    d_last = half * d[..., -1, :]
    if params.beta_on:
        # the row keeps its axis while per-cell parameters act on it
        d_last = d_last + Q(params, v[..., -1:, :])[..., 0, :]
    d[..., -1, :] = d_last / (1.0 + half)
    return d


def _damping_accel(mesh: AnnulusMesh, v: np.ndarray, params: SimpleNamespace) -> np.ndarray:
    """Damping acceleration D(v), assembled by _free_row_mix from P and Q."""
    return _free_row_mix(mesh, v, params, damping_P, damping_Q)


def _damping_linear_coeffs(mesh: AnnulusMesh, params: SimpleNamespace):
    """(c_interior, c_boundary_row) when D is linear, else None."""
    for w, e, w2, e2 in ((params.alpha, params.m, params.a, params.m_tilde),
                         (params.beta, params.mu, params.b, params.mu_tilde)):
        if differs(w, 0.0) and (differs(e, 2.0) or (differs(w2, 0.0) and differs(e2, 2.0))):
            return None
    c_int = params.alpha * (1.0 + params.a)
    c_bnd = params.beta * (1.0 + params.b)
    half = 0.5 * mesh.dr
    return c_int, (half * c_int + c_bnd) / (1.0 + half)


def _solve_damped_kick(
    mesh: AnnulusMesh, b: np.ndarray, kappa: float, params: SimpleNamespace
) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve x + kappa*D(x) = b pointwise; returns x and D(x).

    D is odd and nondecreasing, so the root is unique and lies between 0 and
    b componentwise.  Newton from x = b with a bisection safeguard; closed
    form when D is linear.  Converged entries are frozen: each sits on an
    end of its own bracket, so the bracket test would bisect it away, and
    because they stay put no cell of a stack depends on another.  D(x) is
    the last residual's, or None when the kick evaluated none (closed form,
    no damping).  params is a stack's record (_stack_params).
    """
    if not params.damped:
        return b.copy(), None
    if params.lin is not None:
        c_int, c_bnd = params.lin
        x = b / (1.0 + kappa * c_int)
        x[..., -1:, :] = b[..., -1:, :] / (1.0 + kappa * c_bnd)
        return x, None

    lo, hi = np.minimum(b, 0.0), np.maximum(b, 0.0)
    x = b.copy()
    tol = 1e-14 * (1.0 + np.abs(b))
    # the safeguard and the final residual check catch non-finite values
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(120):
            d = _damping_accel(mesh, x, params)
            g = x + kappa * d - b
            done = np.abs(g) <= tol
            if done.all():
                return x, d
            # a converged entry is frozen, so its bracket is never read again
            pos = g > 0
            hi = np.where(pos, x, hi)
            lo = np.where(pos, lo, x)
            # dD/dv is inf at 0 when an exponent is below 2; such steps bisect
            slope = _free_row_mix(mesh, x, params, damping_P_prime, damping_Q_prime)
            x_new = x - g / (1.0 + kappa * slope)
            inside = (x_new > lo) & (x_new < hi)
            x = np.where(done, x, np.where(inside, x_new, 0.5 * (lo + hi)))
    d = _damping_accel(mesh, x, params)
    resid = np.abs(x + kappa * d - b)
    unconverged = ~(resid <= 1e3 * tol)
    if not unconverged.any():
        return x, d
    raise StepFailure(
        f"damping solve did not converge: {np.count_nonzero(unconverged)} of "
        f"{resid.size} entries above tolerance, worst residual {np.max(resid):.3e}",
        cells=unconverged.any(axis=(-2, -1)) if unconverged.ndim == 3 else None,
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
    Neither s_u nor the state is modified.  On a stack of cells, dt and
    state.t hold one value per cell.  params is a ModelParams or a stack's
    record (_stack_params).
    """
    if isinstance(dt, np.ndarray):
        valid = ((dt > 0) & (dt < math.inf)).all()
        dt_grid = dt[:, None, None]  # broadcasts over each cell's grid
    else:
        valid = 0 < dt < math.inf
        dt_grid = dt
    if not valid:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if isinstance(params, ModelParams):
        params = _stack_params(mesh, [params])
    kappa = 0.5 * dt_grid
    if s_u is None:
        s_u = _accel(mesh, state.u, params)
    b = state.v + kappa * s_u
    b[..., 0, :] = 0.0
    v_half, d_half = _solve_damped_kick(mesh, b, kappa, params)
    u_new = state.u + dt_grid * v_half
    u_new[..., 0, :] = 0.0
    s_new = _accel(mesh, u_new, params)
    v_new = v_half + kappa * s_new
    if params.damped:
        if d_half is None:
            d_half = _damping_accel(mesh, v_half, params)
        v_new = v_new - kappa * d_half
    v_new[..., 0, :] = 0.0
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
        every = self.report_every
        if isinstance(every, bool) or not float(every).is_integer():
            raise ValueError(f"report_every must be an integer, got {every!r}")
        if every < 1:
            raise ValueError(f"report_every must be >= 1, got {every}")
        self.report_every = int(every)
        if not math.isfinite(self.initial_scale):
            raise ValueError(f"initial scale must be finite, got {self.initial_scale}")
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
    """Name of the triggered monitor, or None.  Non-finite counts as crossed.

    On a stack of cells, with one threshold per cell: None when no cell
    crossed, else an object array holding each cell's name or None.
    """
    calm = functionals._phase_parts(mesh, state)[3] < threshold * threshold
    lp_calm = True
    if calm.any() if isinstance(calm, np.ndarray) else calm:
        lp, lq = functionals._source_norms(mesh, state.u, params)
        lp_calm = lp + lq < threshold
    quiet = calm & lp_calm
    if quiet.all() if isinstance(quiet, np.ndarray) else quiet:
        return None
    hit = np.where(calm, np.where(lp_calm, None, "LpNorm"), "PhaseNorm")
    return hit[()] if hit.ndim == 0 else hit


def _stack_params(mesh: AnnulusMesh, records: list[ModelParams]) -> SimpleNamespace:
    """One parameter record for a stack (a field the cells differ on holds one
    value per cell, shaped (n_cells, 1, 1)), with the kernels' branch flags, lin
    (the closed-form kick's coefficients, or None) and branches, the stacking key."""
    fields = {}
    for name in ModelParams.field_names():
        values = [getattr(par, name) for par in records]
        same = all(x == values[0] for x in values)
        fields[name] = values[0] if same else np.array(values, dtype=float)[:, None, None]
    par = SimpleNamespace(**fields)
    weights = (par.alpha, par.beta, par.gamma, par.delta, par.a, par.b)
    on = tuple(differs(w, 0.0) for w in weights)
    par.beta_on, par.gamma_on, par.delta_on = on[1:4]
    par.damped = on[0] or par.beta_on
    par.lin = _damping_linear_coeffs(mesh, par)
    par.branches = on, par.lin is None
    return par


@dataclass(slots=True)
class _Cell:
    """The run of one cell of a stack: what simulate keeps besides the
    cell's rows of the stack's arrays."""

    cfg: SimConfig
    lyap: functionals.LyapunovConfig | None
    reports: list[EnergyReport]
    t: float
    dt: float
    accepted: int = 0
    streak: int = 0  # accepted steps since dt last changed
    result: tuple[list[EnergyReport], BlowupReport] | None = None

    def accept(self, mesh: AnnulusMesh, state: State) -> None:
        """Count an accepted step that ended at `state`; report it when due."""
        self.t = state.t
        self.accepted += 1
        self.streak += 1
        if self.streak >= 64 and self.dt < self.cfg.dt:
            self.dt = min(2.0 * self.dt, self.cfg.dt)
            self.streak = 0
        if self.accepted % self.cfg.report_every == 0:
            self.reports.append(
                make_report(mesh, state, self.cfg.params, self.lyap, prev=self.reports[-1])
            )

    def reject(self) -> bool:
        """Roll back a rejected step; True when dt is already at the floor,
        which ends the run."""
        if self.dt <= self.cfg.dt_min:
            return True
        self.dt = max(0.5 * self.dt, self.cfg.dt_min)
        self.streak = 0
        return False

    def finish(self, mesh: AnnulusMesh, final: State, trigger: str, bracket) -> None:
        """End the run at `final`; `bracket` is None unless it blew up."""
        reports = self.reports
        if reports[-1].t != final.t:
            reports.append(
                make_report(mesh, final, self.cfg.params, self.lyap, prev=reports[-1])
            )
        self.result = reports, BlowupReport(
            blew_up=bracket is not None,
            t_detect=None if bracket is None else bracket[1],
            t_bracket=bracket,
            trigger=trigger,
            final_report=reports[-1],
            steps=self.accepted,
            dt_final=self.dt,
        )


def _cell_values(values: list, one: bool):
    """Per-cell scalars as the kernels take them: the value itself for a
    stack of one, else an array."""
    return values[0] if one else np.array(values)


def _row(x: np.ndarray, i: int) -> np.ndarray:
    """Cell i's field of a stack's array (a stack of one holds a 2-D array)."""
    return x if x.ndim == 2 else x[i]


def _run_stack(
    mesh: AnnulusMesh, cfgs: list[SimConfig], states: list[State]
) -> list[tuple[list[EnergyReport], BlowupReport]]:
    """Step cells that share a mesh and their kernel branches in lockstep.

    The stack's arrays hold one row per live cell; each cell keeps its own
    dt, clean streak and step count.  A crossing or a failed damping solve
    rolls back only the cells it hit (a masked where), and the cells a
    failed solve spared retry the same step.  A finished cell leaves the
    arrays.  A stack of one runs on its cell's own 2-D arrays with a scalar
    dt: numpy then combines them with the mesh's arrays without
    broadcasting, which a one-row stack would pay for on every operation.
    """
    cells = []
    for cfg, st in zip(cfgs, states):
        try:
            lyap = functionals.default_k(cfg.params)
        except ValueError:
            lyap = None
        report = make_report(mesh, st, cfg.params, lyap)
        cells.append(_Cell(cfg, lyap, [report], t=st.t, dt=cfg.dt))
    one = len(cells) == 1
    u = np.stack([st.u for st in states])
    v = np.stack([st.v for st in states])
    if one:
        u, v = u[0], v[0]
    params = _stack_params(mesh, [cfg.params for cfg in cfgs])
    threshold = _cell_values([cfg.blow_threshold for cfg in cfgs], one)
    hit = _crossing(mesh, State(u, v), params, threshold)
    if hit is not None:
        hits = [hit] if one else list(hit)
        j = next(j for j, name in enumerate(hits) if name is not None)
        raise ValueError(
            f"initial data already crosses the {hits[j]} monitor "
            f"(blow_threshold={cfgs[j].blow_threshold})"
        )
    s_u = _accel(mesh, u, params)

    live = cells
    while True:
        for i, c in enumerate(live):
            if c.result is None and not c.t < c.cfg.t_end - 1e-12 * c.cfg.t_end:
                c.finish(mesh, State(_row(u, i), _row(v, i), c.t), "None", None)
        if any(c.result is not None for c in live):
            keep = [c.result is None for c in live]
            live = [c for c in live if c.result is None]
            if not live:
                return [c.result for c in cells]
            u, v, s_u = u[keep], v[keep], s_u[keep]
            one = len(live) == 1
            if one:
                u, v, s_u = u[0], v[0], s_u[0]
            params = _stack_params(mesh, [c.cfg.params for c in live])
            threshold = _cell_values([c.cfg.blow_threshold for c in live], one)
        dt_step = [min(c.dt, c.cfg.t_end - c.t) for c in live]
        state = State(u, v, _cell_values([c.t for c in live], one))
        try:
            cand, s_cand = step(mesh, state, params, _cell_values(dt_step, one), s_u)
        except StepFailure as exc:
            for i in [0] if one else np.flatnonzero(exc.cells):
                c = live[i]
                if c.reject():
                    bracket = (c.t, c.t + dt_step[i])
                    c.finish(mesh, State(_row(u, i), _row(v, i), c.t), "DtFloor", bracket)
            continue  # the cells the failed solve spared retry the same step
        hit = _crossing(mesh, cand, params, threshold)
        hits = [None] * len(live) if hit is None else [hit] if one else hit
        t_new = [cand.t] if one else cand.t.tolist()
        for i, c in enumerate(live):
            new = State(_row(cand.u, i), _row(cand.v, i), t_new[i])
            if hits[i] is None:
                c.accept(mesh, new)
            elif c.reject():
                # the detected state itself is the final report, so the
                # over-threshold norms at t_detect are visible downstream
                c.finish(mesh, new, hits[i], (c.t, new.t))
        if hit is None:
            u, v, s_u = cand.u, cand.v, s_cand
        else:
            accept = np.equal(hit, None)
            if accept.any():
                grid = accept[:, None, None]
                u = np.where(grid, cand.u, u)
                v = np.where(grid, cand.v, v)
                s_u = np.where(grid, s_cand, s_u)


def simulate_batch(
    cfgs: list[SimConfig], initials: list[State | None] | None = None
) -> list[tuple[list[EnergyReport], BlowupReport]]:
    """Run several configurations; returns simulate's result for each, in order.

    Cells that share a mesh and their kernel branches step together as one
    stack (see _run_stack); each cell's result is bitwise the one simulate
    gives it alone.  `initials` overrides the configured initial data cell by
    cell (None keeps it).  Raises ValueError when an initial state does not
    have the mesh's shape, is nonzero on the pinned circle, or already
    crosses the blow-up monitors.
    """
    cfgs = list(cfgs)
    initials = [None] * len(cfgs) if initials is None else list(initials)
    if len(initials) != len(cfgs):
        raise ValueError(f"{len(initials)} initial states for {len(cfgs)} configs")
    meshes, states, stacks = {}, [], {}
    for i, (cfg, initial) in enumerate(zip(cfgs, initials)):
        shape = (cfg.r_inner, cfg.r_outer, cfg.n_r, cfg.n_theta)
        if shape not in meshes:
            meshes[shape] = build_annulus(*shape)
        mesh = meshes[shape]
        if initial is None:
            initial = initial_state(mesh, cfg.params, cfg)
        elif (not np.shape(initial.u) == np.shape(initial.v) == shape[2:]
              or np.any(initial.u[0]) or np.any(initial.v[0])):
            raise ValueError(f"initial u and v must have shape {shape[2:]} and be "
                             "zero on the pinned circle (row 0)")
        states.append(initial)
        stacks.setdefault((shape, _stack_params(mesh, [cfg.params]).branches), []).append(i)
    results = [None] * len(cfgs)
    for (shape, _), members in stacks.items():
        outcomes = _run_stack(
            meshes[shape], [cfgs[i] for i in members], [states[i] for i in members]
        )
        for i, outcome in zip(members, outcomes):
            results[i] = outcome
    return results


def simulate(
    cfg: SimConfig, initial: State | None = None
) -> tuple[list[EnergyReport], BlowupReport]:
    """Run to t_end or to a detected blow-up; see module docstring.

    `initial` overrides the configured initial data (same mesh shape
    required); used to evolve one data set under several parameter records.
    """
    return simulate_batch([cfg], [initial])[0]
