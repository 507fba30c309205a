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
contractive.  Both halves are second order, and the reported energy is
exactly the invariant of the semi-discrete flow (see geometry).  The
energy-identity residual between two reports integrates the dissipation rate
by the trapezoid over the report interval, so it holds that quadrature's
error too and grows with report_every.

Near blow-up the damping solve stays pointwise: the equation
x + kappa*D(x) = b has exactly one root, trapped between 0 and b, found by a
vectorized safeguarded Newton iteration (bisection fallback, as in rtsafe),
with a closed form when every active damping exponent is 2.  An entry whose
residual meets the tolerance is frozen; only the others shrink their bracket
and move.  Each iteration takes |x| once, for both D and dD/dv, and evaluates
them only on the band of rows that holds an unconverged entry of some cell;
a row outside the band keeps the D of its frozen x.  v_next reuses the
iteration's last evaluation of D(v_half).  Every kernel writes only into
arrays it (or for the kick, step) allocated: a + k*b is formed as k*b, then
+= a; IEEE + and * commute, so the bits are the same.

S is evaluated once per step: the S(u_next) that ends a step is the S(u_n)
that starts the next one (first same as last), so simulate carries it from
step to step.  A rolled-back step leaves the state, and with it the cached
S(u_n), untouched.

Step control: each cell's controller (_Cell) decides its dt, min(dt,
t_end - t), and how a step ends.  An accepted step is reported when due and
ends the run at t_end; after 64 in a row a halved dt doubles back.  A failed
damping solve (DtFloor) and a monitor crossing (PhaseNorm, LpNorm) are
rejected by one path: dt halves, and once it is at dt_min the run ends with
the bracket (t, t + dt) of width <= dt_min, at the state before the step for
DtFloor and at the crossing candidate otherwise.  Initial data that already
crosses the monitors is an error.  The monitor first tries to prove a step
calm from max|u| and max|v| alone (functionals._max_norm_bounds) and
evaluates the exact norms only when it cannot, so no output changes; a run
close to its threshold pays the full cost, and a stack is proved calm only
when every one of its cells is.

Stacks: the kernels (_accel, _solve_damped_kick, step, _crossing and the
geometry operators under them) also take a stack of cells, arrays of shape
(n_cells, n_r, n_theta) with a leading cell axis.  dt, t and the threshold
then hold one value per cell, and a parameter on which the cells differ is
an (n_cells, 1, 1) array; a 2-D input is computed exactly as before.
simulate_batch steps the cells that share a mesh and their kernel branches
as one stack in lockstep.  The kernels read the stack's plan (model._Plan),
which decides each term's branches once: a term that is off is skipped, a
summand with exponent 2 is h(v) = v, the cells whose exponent NumPy takes by
a shortcut are listed once, and linear dampings carry the closed-form kick's
slopes; no kernel tests a weight or an exponent per call.  The stack loop
(_run_stack) only gathers the cells' values and applies their verdicts as
masks, and a finished cell's rows are compacted out.  No operation mixes
cells, and a shortcut exponent is applied cell by cell, so each cell's
result is bitwise the one it gets alone; simulate is the batch of one.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from . import functionals, geometry
from .functionals import EnergyReport, State, make_report
from .geometry import AnnulusMesh, build_annulus
from .model import ModelParams, _Plan

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


@dataclass
class _SolvedState(State):
    """negative_energy_data's State and the report that verified it."""
    report: EnergyReport | None = None


def negative_energy_data(
    mesh: AnnulusMesh, params: ModelParams, profile: str = "ramp", margin: float = 1.0
) -> State:
    """Scale a profile until E(lambda*phi, 0) = -margin.

    E(lambda*phi) = lambda^2 A - lambda^p B - lambda^q C with A the stiffness
    quadratic and B, C the source integrals measured on the mesh; since the
    active source exponents exceed 2 whenever this is solvable, the scale is
    found by doubling and bisection.  The result's E is within a relative
    1e-6 of -margin, or ValueError names the smallest margin E resolves.
    """
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    phi = radial_profile(mesh, profile)
    grad_omega, grad_gamma = geometry.gradient_energy(mesh, phi)
    a_quad = 0.5 * (grad_omega + grad_gamma)
    b_src, c_src = functionals._source_terms(
        params._plan, *functionals._source_norms(mesh, phi, params._plan)
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
        if mid == lo or mid == hi:
            break  # no float lies between lo and hi: mid can move no further
        g_mid = excess(mid)
        if abs(g_mid) <= 1e-12 * margin:
            break
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
    state = _SolvedState(u=mid * phi, v=np.zeros_like(phi), t=0.0)
    # E sums terms of about mid^2 A, each rounded to a few eps of that size
    floor = 1e7 * np.finfo(float).eps * mid * mid * a_quad
    state.report = make_report(mesh, state, params)
    e_val = state.report.E
    if margin < floor or not abs(e_val + margin) <= 1e-6 * margin:
        raise ValueError(f"margin {margin:g} is below what this mesh's energy resolves for "
                         f"{profile!r}: the smallest margin is about {floor:.1e} (E = {e_val:.3e})")
    return state


def initial_state(mesh: AnnulusMesh, params: ModelParams, cfg: "SimConfig") -> State:
    if cfg.initial_mode == "auto_negative_energy":
        return negative_energy_data(mesh, params, cfg.initial_profile, cfg.initial_margin)
    u0 = cfg.initial_scale * radial_profile(mesh, cfg.initial_profile)
    return State(u=u0, v=np.zeros_like(u0), t=0.0)


# ---------------------------------------------------------------------------
# the step


def _accel(mesh: AnnulusMesh, u: np.ndarray, plan: _Plan) -> np.ndarray:
    """Stiffness + source acceleration S(u) (damping excluded).

    Interior rows: laplacian + f(u).  Free-circle row: the variational
    boundary acceleration
        [-flux + (dr/2) f(u) + g(u)] / (1 + dr/2) + laplace_beltrami(u),
    in which the (dr/2)-weighted terms are the interior contributions of the
    outermost half cell and the row mass is r dtheta (1 + dr/2).
    """
    acc = geometry.laplacian(mesh, u)
    if plan.f.on:
        f_u = plan.f(u)
        acc[..., 1:-1, :] += f_u[..., 1:-1, :]
        f_last = f_u[..., -1, :]
    else:
        f_last = 0.0
    half = 0.5 * mesh.dr
    boundary = -geometry.boundary_flux(mesh, u) + half * f_last
    if plan.g.on:
        # the row keeps its axis while per-cell parameters, shaped
        # (n_cells, 1, 1), act on it
        boundary += plan.g(u[..., -1:, :])[..., 0, :]
    acc[..., -1, :] = boundary / (1.0 + half) + geometry.laplace_beltrami(
        mesh, u[..., -1, :]
    )
    acc[..., 0, :] = 0.0
    return acc


def _free_row_mix(mesh: AnnulusMesh, v: np.ndarray, plan: _Plan, prime: bool,
                  abs_v: np.ndarray | None = None, free_row: bool = True) -> np.ndarray:
    """P(v) at interior rows, the mass-scaled mix ((dr/2) P(v) + Q(v)) / (1 + dr/2)
    on the free-circle row; Q is skipped when it is off.  D for prime False,
    dD/dv for prime True.  abs_v is |v| if the caller has it.  free_row False
    says v is a band of interior rows, so its last row is P alone."""
    P, Q = plan.P, plan.Q
    d = P.prime(v, abs_v) if prime else P(v, abs_v)
    if free_row:
        half = 0.5 * mesh.dr
        last = d[..., -1, :]
        last *= half
        if Q.on:
            # the row keeps its axis while per-cell parameters act on it
            v_last = v[..., -1:, :]
            abs_last = None if abs_v is None else abs_v[..., -1:, :]
            last += (Q.prime(v_last, abs_last) if prime else Q(v_last, abs_last))[..., 0, :]
        last /= 1.0 + half
    return d


def _damping_accel(mesh: AnnulusMesh, v: np.ndarray, plan: _Plan,
                   abs_v: np.ndarray | None = None, free_row: bool = True) -> np.ndarray:
    """Damping acceleration D(v), assembled by _free_row_mix from P and Q."""
    return _free_row_mix(mesh, v, plan, False, abs_v, free_row)


def _solve_damped_kick(
    mesh: AnnulusMesh, b: np.ndarray, kappa: float, plan: _Plan
) -> tuple[np.ndarray, np.ndarray | None]:
    """Solve x + kappa*D(x) = b pointwise; returns x and D(x).

    D is odd and nondecreasing, so the root is unique and lies between 0 and
    b componentwise.  Newton from x = b with a bisection safeguard; closed
    form from the plan's slopes when D is linear.  Converged entries are
    frozen: each sits on an end of its own bracket, so the bracket test
    would bisect it away, and because they stay put no cell of a stack
    depends on another.  Each iteration takes |x| once for D and dD/dv, and
    evaluates them only on the band of rows that holds an unconverged entry
    of some cell; the rows outside are frozen and keep their D.  D(x) is the
    last residual's, or None when the kick evaluated none (closed form, no
    damping).  b is the caller's scratch: without damping x is b itself, and
    the closed form overwrites b with x.
    """
    if not plan.damped:
        return b, None
    if plan.lin is not None:
        # the free-circle row's slope mixes P's and Q's as _free_row_mix does
        c_int, c_q = plan.lin
        half = 0.5 * mesh.dr
        c_row = (half * c_int + c_q) / (1.0 + half)
        b[..., :-1, :] /= 1.0 + kappa * c_int
        b[..., -1:, :] /= 1.0 + kappa * c_row
        return b, None

    lo, hi = np.minimum(b, 0.0), np.maximum(b, 0.0)
    x = b.copy()
    d = np.empty_like(b)
    tol = 1e-14 * (1.0 + np.abs(b))
    n_r = b.shape[-2]
    across_rows = tuple(range(b.ndim - 2)) + (b.ndim - 1,)
    r0, r1 = 0, n_r
    # the safeguard and the final residual check catch non-finite values,
    # the slope's inf at v = 0 included
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(120):
            x_band = x[..., r0:r1, :]
            abs_x = np.abs(x_band)
            d_band = _damping_accel(mesh, x_band, plan, abs_x, r1 == n_r)
            d[..., r0:r1, :] = d_band
            g = kappa * d_band
            g += x_band
            g -= b[..., r0:r1, :]
            # not (|g| <= tol): an entry with a nan residual keeps moving
            moving = np.logical_not(np.abs(g) <= tol[..., r0:r1, :])
            rows = moving.any(axis=across_rows).nonzero()[0]
            if not rows.size:
                return x, d
            # narrow the band to the rows that still move; the update of a
            # converged entry is discarded anyway
            s0, s1 = int(rows[0]), int(rows[-1]) + 1
            g, moving, abs_x = g[..., s0:s1, :], moving[..., s0:s1, :], abs_x[..., s0:s1, :]
            r0, r1 = r0 + s0, r0 + s1
            x_band, lo_band, hi_band = x[..., r0:r1, :], lo[..., r0:r1, :], hi[..., r0:r1, :]
            # a converged entry is frozen, so its bracket is never read again
            pos = g > 0
            np.copyto(hi_band, x_band, where=pos)
            # not g > 0, so a nan residual moves lo, as np.where(pos, lo, x) did
            np.copyto(lo_band, x_band, where=np.logical_not(pos))
            # dD/dv is inf at 0 when an exponent is below 2; such steps bisect
            denom = _free_row_mix(mesh, x_band, plan, True, abs_x, r1 == n_r)
            denom *= kappa
            denom += 1.0
            g /= denom
            x_new = np.subtract(x_band, g, out=g)
            inside = x_new > lo_band
            inside &= x_new < hi_band
            if not inside.all():
                mid = lo_band + hi_band
                mid *= 0.5
                np.copyto(x_new, mid, where=np.logical_not(inside))
            np.copyto(x_band, x_new, where=moving)
        d = _damping_accel(mesh, x, plan)
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

    u and v share one shape, (n_r, n_theta) or a stack (n_cells, n_r,
    n_theta).  dt is a float or, on a stack, one value per cell, like state.t.
    s_u is S(state.u) if the caller already has it, else None.  Returns a
    fresh State and S of its u, which the next step can take as its s_u.
    Neither s_u nor the state is modified.  params is a ModelParams, whose
    cached plan is read, or a stack's plan (model._Plan).
    """
    state = functionals._check_state(mesh, state)
    if isinstance(dt, np.ndarray):
        valid = state.u.ndim == 3 and dt.shape == state.u.shape[:1] and (
            (dt > 0) & (dt < math.inf)).all()
        dt_grid = dt.reshape(-1, 1, 1)  # broadcasts over each cell's grid
    else:
        valid = 0 < dt < math.inf
        dt_grid = dt
    if not valid:
        raise ValueError(f"dt must be positive and finite, a float or one value per "
                         f"cell of a stack; got {dt!r} for a state of shape {state.u.shape}")
    plan = params._plan if isinstance(params, ModelParams) else params
    kappa = 0.5 * dt_grid
    if s_u is None:
        s_u = _accel(mesh, state.u, plan)
    b = kappa * s_u
    b += state.v
    b[..., 0, :] = 0.0
    v_half, d_half = _solve_damped_kick(mesh, b, kappa, plan)
    u_new = dt_grid * v_half
    u_new += state.u
    u_new[..., 0, :] = 0.0
    s_new = _accel(mesh, u_new, plan)
    v_new = kappa * s_new
    v_new += v_half
    if plan.damped:
        if d_half is None:
            d_half = _damping_accel(mesh, v_half, plan)
        d_half *= kappa
        v_new -= d_half
    v_new[..., 0, :] = 0.0
    return State(u=u_new, v=v_new, t=state.t + dt), s_new


# ---------------------------------------------------------------------------
# simulation driver


@dataclass
class SimConfig:
    """Everything one run needs; every rule is checked at construction.

    dt defaults to cfl*min(dr, r_inner*dtheta) (unit wave speed, cfl 0.4); an
    explicit dt must respect the 0.5 CFL cap, and cfl beside it is an error.
    initial_mode is "scaled" (u0 = scale*profile) or "auto_negative_energy"
    (scale solved so E = -margin), which a margin alone selects.  The mode's
    scale or margin defaults to 1; the other must stay None.  The stored
    fields hold only what the run reads: dt (not cfl), the mode, its value.
    """

    params: ModelParams
    r_inner: float = 1.0
    r_outer: float = 2.0
    n_r: int = 33
    n_theta: int = 32
    cfl: InitVar[float | None] = None
    dt: float | None = None
    t_end: float = 10.0
    dt_min: float = 1e-6
    blow_threshold: float = 1e8
    report_every: int = 10
    initial_profile: str = "ramp"
    initial_mode: str | None = None
    initial_scale: float | None = None
    initial_margin: float | None = None

    def __post_init__(self, cfl):
        if self.params.N != 2:
            raise ValueError(f"the simulator is two-dimensional; N=2 required, got N={self.params.N}")
        dr, dtheta = geometry.mesh_spacing(self.r_inner, self.r_outer, self.n_r, self.n_theta)
        wave_limit = min(dr, self.r_inner * dtheta)
        if self.dt is None:
            cfl = 0.4 if cfl is None else cfl
            if not 0.0 < cfl <= 0.5:
                raise ValueError(f"cfl must lie in (0, 0.5], got {cfl}")
            self.dt = cfl * wave_limit
        elif cfl is not None:
            raise ValueError("config key 'cfl' does not apply when 'dt' is given")
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
        if self.initial_profile not in PROFILES:
            raise ValueError(
                f"unknown profile {self.initial_profile!r}; choose from {PROFILES}"
            )
        mode = self.initial_mode
        if mode is None:
            solved = self.initial_margin is not None and self.initial_scale is None
            mode = self.initial_mode = "auto_negative_energy" if solved else "scaled"
        if mode not in ("scaled", "auto_negative_energy"):
            raise ValueError(f"unknown initial mode {mode!r}")
        used, unused = ("scale", "margin") if mode == "scaled" else ("margin", "scale")
        if getattr(self, "initial_" + unused) is not None:
            raise ValueError(f"initial_data key {unused!r} does not apply to mode {mode!r}")
        if getattr(self, "initial_" + used) is None:
            setattr(self, "initial_" + used, 1.0)
        if mode == "scaled" and not math.isfinite(self.initial_scale):
            raise ValueError(f"initial scale must be finite, got {self.initial_scale}")
        if mode != "scaled" and not self.initial_margin > 0:
            raise ValueError(f"margin must be positive, got {self.initial_margin}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        """Build from a JSON-style document.  Only its shape is checked here
        (objects where objects belong, no unknown keys); each key maps to one
        constructor keyword, and the constructor applies every value rule."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        doc = dict(doc)
        params_doc = doc.pop("params", None)
        if not isinstance(params_doc, dict):
            raise ValueError("config requires a 'params' object")
        kwargs = {"params": ModelParams.from_dict(params_doc)}
        # section (None: the top level) -> its keys, the keyword prefix
        for section, (prefix, keys) in {
            "mesh": ("", {"r_inner", "r_outer", "n_r", "n_theta"}),
            "initial_data": ("initial_", {"profile", "mode", "scale", "margin"}),
            None: ("", {"cfl", "dt", "t_end", "dt_min", "blow_threshold", "report_every"}),
        }.items():
            part = doc if section is None else doc.pop(section, {})
            if not isinstance(part, dict):
                raise ValueError(f"'{section}' must be an object")
            bad = set(part) - keys
            if bad:
                raise ValueError(f"unknown {section or 'config'} keys: {sorted(bad)}")
            kwargs.update((prefix + key, value) for key, value in part.items())
        return cls(**kwargs)


@dataclass
class BlowupReport:
    """How a run ended; the field order is blowup.json's key order."""

    blew_up: bool
    t_detect: float | None
    t_bracket: tuple[float, float] | None
    trigger: str  # PhaseNorm | LpNorm | DtFloor | None
    steps: int
    dt_final: float
    final_report: EnergyReport


def _crossing(
    mesh: AnnulusMesh, state: State, plan: _Plan, threshold: float
) -> str | None:
    """Name of the triggered monitor, or None.  Non-finite counts as crossed.

    On a stack of cells, with one threshold per cell: None when no cell
    crossed, else an object array holding each cell's name or None.  When
    the max-norm bounds prove every cell calm, the exact norms are skipped.
    """
    phase_bound, source_bound = functionals._max_norm_bounds(mesh, state, plan)
    if ((phase_bound < threshold * threshold) & (source_bound < threshold)).all():
        return None
    calm = functionals._phase_parts(mesh, state)[3] < threshold * threshold
    lp_calm = True
    if calm.any() if isinstance(calm, np.ndarray) else calm:
        lp, lq = functionals._source_norms(mesh, state.u, plan)
        lp_calm = lp + lq < threshold
    quiet = calm & lp_calm
    if quiet.all() if isinstance(quiet, np.ndarray) else quiet:
        return None
    hit = np.where(calm, np.where(lp_calm, None, "LpNorm"), "PhaseNorm")
    return hit[()] if hit.ndim == 0 else hit


def _before_end(cfg: SimConfig, t: float) -> bool:
    """Whether a run at t has not yet reached cfg.t_end: the end test of an
    accepted step, and the bound an initial t must stay below."""
    return t < cfg.t_end - 1e-12 * cfg.t_end


@dataclass(slots=True)
class _Cell:
    """One cell's step controller: it decides the cell's dt and how each step
    ends, and keeps the cell's run but for its rows of the stack's arrays."""

    mesh: AnnulusMesh
    cfg: SimConfig
    reports: list[EnergyReport]
    t: float
    dt: float
    accepted: int = 0
    streak: int = 0  # accepted steps since dt last changed
    result: tuple[list[EnergyReport], BlowupReport] | None = None

    @classmethod
    def start(cls, mesh: AnnulusMesh, cfg: SimConfig, state: State) -> "_Cell":
        """Report the initial state, or take solved data's; ValueError if it crosses a monitor."""
        solved = isinstance(state, _SolvedState)  # _check_state makes supplied ones plain
        report = state.report if solved else make_report(mesh, state, cfg.params)
        hit = _crossing(mesh, state, cfg.params._plan, cfg.blow_threshold)
        if hit is not None:
            raise ValueError(f"initial data already crosses the {hit} monitor "
                             f"(blow_threshold={cfg.blow_threshold})")
        return cls(mesh, cfg, [report], t=state.t, dt=cfg.dt)

    def next_dt(self) -> float:
        return min(self.dt, self.cfg.t_end - self.t)

    def accept(self, state: State) -> None:
        """Count an accepted step that ended at `state`; report it when due,
        and end the run once it reaches t_end."""
        cfg = self.cfg
        self.t = state.t
        self.accepted += 1
        self.streak += 1
        if self.streak >= 64 and self.dt < cfg.dt:
            self.dt = min(2.0 * self.dt, cfg.dt)
            self.streak = 0
        if self.accepted % cfg.report_every == 0:
            self.report(state)
        if not _before_end(cfg, self.t):
            self.finish(state, "None", None)

    def report(self, state: State) -> None:
        """Append the report of `state`, its residual measured since the last row."""
        self.reports.append(make_report(self.mesh, state, self.cfg.params, prev=self.reports[-1]))

    def reject(self, final: State, cause: str, t_try: float) -> None:
        """Roll back a step to t_try rejected for `cause` (DtFloor, PhaseNorm
        or LpNorm): halve dt, or at the floor end the run at `final`, the
        blow-up bracketed by (t, t_try)."""
        if self.dt <= self.cfg.dt_min:
            self.finish(final, cause, (self.t, t_try))
        else:
            self.dt = max(0.5 * self.dt, self.cfg.dt_min)
            self.streak = 0

    def finish(self, final: State, trigger: str, bracket) -> None:
        """End the run at `final`; `bracket` is None unless it blew up."""
        reports = self.reports
        if reports[-1].t != final.t:
            self.report(final)
        self.result = reports, BlowupReport(
            blew_up=bracket is not None,
            t_detect=None if bracket is None else bracket[1],
            t_bracket=bracket,
            trigger=trigger,
            steps=self.accepted,
            dt_final=self.dt,
            final_report=reports[-1],
        )


def _run_stack(
    mesh: AnnulusMesh, cfgs: list[SimConfig], states: list[State]
) -> list[tuple[list[EnergyReport], BlowupReport]]:
    """Step cells that share a mesh and their kernel branches in lockstep.

    Each cell's _Cell decides its dt and how its step ends; this loop only
    gathers the cells' values and applies the verdicts as masks.  The stack
    forms in one place, for its live members: a finished cell's rows leave
    the arrays and the plan and thresholds are rebuilt.  A stack of one runs
    on 2-D arrays with a scalar dt and threshold and the record's cached
    plan: numpy then combines them with the mesh's arrays without
    broadcasting, which a one-row stack would pay for on every operation.
    """
    cells = [_Cell.start(mesh, cfg, st) for cfg, st in zip(cfgs, states)]
    live = cells
    u = np.stack([st.u for st in states])
    v = np.stack([st.v for st in states])
    s_u = None
    while live:
        if len(live) == 1:
            u, v = u[0], v[0]
            s_u = None if s_u is None else s_u[0]
            plan, threshold = live[0].cfg.params._plan, live[0].cfg.blow_threshold
            gather, split = (lambda xs: xs[0]), (lambda x: [x])
        else:
            plan = _Plan([c.cfg.params for c in live])
            threshold = np.array([c.cfg.blow_threshold for c in live])
            gather, split = np.array, list
        if s_u is None:
            s_u = _accel(mesh, u, plan)
        while all(c.result is None for c in live):
            dt, t = [c.next_dt() for c in live], gather([c.t for c in live])
            try:
                cand, s_cand = step(mesh, State(u, v, t), plan, gather(dt), s_u)
            except StepFailure as exc:
                failed = [True] if exc.cells is None else exc.cells
                for c, dt_i, fail, u_i, v_i in zip(live, dt, failed, split(u), split(v)):
                    if fail:
                        c.reject(State(u_i, v_i, c.t), "DtFloor", c.t + dt_i)
                continue  # the cells the failed solve spared retry the same step
            hit = _crossing(mesh, cand, plan, threshold)
            hits = [None] * len(live) if hit is None else split(hit)
            for c, dt_i, name, u_i, v_i in zip(live, dt, hits, split(cand.u), split(cand.v)):
                # c.t + dt_i is the candidate's t, which step computes the same way
                new = State(u_i, v_i, c.t + dt_i)
                if name is None:
                    c.accept(new)
                else:  # a detection ends at the candidate whose norms crossed
                    c.reject(new, name, new.t)
            if hit is None:
                u, v, s_u = cand.u, cand.v, s_cand
            else:
                accept = np.equal(hit, None)
                if accept.any():
                    grid = accept[:, None, None]
                    u = np.where(grid, cand.u, u)
                    v = np.where(grid, cand.v, v)
                    s_u = np.where(grid, s_cand, s_u)
        keep = [c.result is None for c in live]
        live = [c for c in live if c.result is None]
        if live:
            u, v, s_u = u[keep], v[keep], s_u[keep]
    return [c.result for c in cells]


def simulate_batch(
    cfgs: list[SimConfig], initials: list[State | None] | None = None
) -> list[tuple[list[EnergyReport], BlowupReport]]:
    """Run several configurations; returns simulate's result for each, in order.

    Cells that share a mesh and their kernel branches step together as one
    stack (see _run_stack); each cell's result is bitwise the one simulate
    gives it alone.  `initials` overrides the configured initial data cell by
    cell (None keeps it).  Raises ValueError when an initial state does not
    have the mesh's shape, is nonzero on the pinned circle, has a t that is
    not finite or not below t_end (by _before_end, the end test of an
    accepted step, so every run takes a step) or so large in magnitude that t + dt_min rounds to t
    (the run could never advance), or already crosses the blow-up monitors.
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
        else:
            initial = functionals._check_state(mesh, initial, "initial", stack=False)
            if initial.u[0].any() or initial.v[0].any():
                raise ValueError(f"initial u and v must have shape {shape[2:]} and be "
                                 "zero on the pinned circle (row 0)")
            t = initial.t
            if not (-math.inf < t and _before_end(cfg, t)) or t + cfg.dt_min == t:
                raise ValueError(f"initial t must be finite and below t_end={cfg.t_end}, and "
                                 f"t + dt_min must exceed t (dt_min={cfg.dt_min}), got {t}")
        states.append(initial)
        # the plan's key decides the kernels' branches; lin follows from it
        stacks.setdefault((shape, cfg.params._plan.key), []).append(i)
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
