"""Annulus mesh, quadratures and discrete differential operators.

The computational domain is the annulus r_inner < r < r_outer with the inner
circle pinned (homogeneous Dirichlet) and the outer circle free -- the outer
circle carries its own surface dynamics, so it needs a Laplace-Beltrami
operator and an outward normal derivative in addition to the interior
Laplacian.

Grid: uniform in r (n_r nodes, both boundary circles included) and uniform,
periodic in theta (n_theta nodes).  Interior fields are (n_r, n_theta) arrays
with row 0 on the pinned circle and row n_r-1 on the free circle; boundary
traces are (n_theta,) arrays.

Every operator and quadrature also takes a stack of fields with a leading
cell axis, (n_cells, n_r, n_theta) or (n_cells, n_theta), and treats each
cell on its own: a quadrature then returns one value per cell, and each
value is bitwise the one the cell's own 2-D field gives.  The operators take
float arrays of these shapes unchecked; states are checked where they enter.
Each stencil does its plain formula's operations on the same operands, so it
keeps the formula's bits, but in contiguous passes: laplacian's coefficients
are stored at full row shape; theta differences run over flat views, with the
wrap columns j = 0 and n_theta-1 taken from their true neighbours; x/dr is
x*(1/dr) where dr is a power of two, which rounds the same real number.

The interior Laplacian is assembled in conservative flux form,

    (1/r) d/dr (r du/dr)  ->  [ r_{i+1/2}(u_{i+1}-u_i) - r_{i-1/2}(u_i-u_{i-1}) ] / (r_i dr^2),

which on this uniform grid is algebraically the familiar centered
u_rr + u_r/r stencil, but makes summation by parts exact: the discrete
Green identity

    sum (laplacian u) w dA  +  B(u, w)  =  sum (boundary_flux u) w ds

holds to rounding, with B the symmetric bilinear form returned (in quadratic
form) by gradient_energy.  boundary_flux is the one-sided *staggered* flux
that the telescoping produces.  Energies built from
gradient_energy are exactly the quadratic forms whose gradients are the
discrete operators, which is what makes the semi-discrete wave flow conserve
the reported energy to machine precision.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "AnnulusMesh",
    "build_annulus",
    "mesh_spacing",
    "integrate_interior",
    "integrate_boundary",
    "laplacian",
    "laplace_beltrami",
    "boundary_flux",
    "gradient_energy",
]


class AnnulusMesh:
    """Uniform polar grid on an annulus, with quadrature weights.

    Attributes
    ----------
    r_inner, r_outer : float
        Radii of the pinned (inner) and free (outer) circles.
    n_r, n_theta : int
        Node counts; radial nodes at r_i = r_inner + i*dr, angular nodes at
        theta_j = j*dtheta (periodic).
    interior_weights : (n_r, n_theta) array
        Trapezoid-in-r x periodic-trapezoid-in-theta weights for the area
        element r dr dtheta.  Exact for integrands linear in r per theta
        mode, hence exact on constants.
    boundary_weights : (n_theta,) array
        Arclength weights r_outer*dtheta on the free circle (periodic
        trapezoid; exact on constants).
    """

    def __init__(self, r_inner: float, r_outer: float, n_r: int, n_theta: int):
        self.dr, self.dtheta = mesh_spacing(r_inner, r_outer, n_r, n_theta)
        self.r_inner = float(r_inner)
        self.r_outer = float(r_outer)
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)
        self.r = self.r_inner + self.dr * np.arange(self.n_r)
        self.theta = self.dtheta * np.arange(self.n_theta)
        # radii at the staggered faces r_{i+1/2}, i = 0 .. n_r-2
        self.r_half = self.r[:-1] + 0.5 * self.dr

        w_r = self.r * (self.dr * self.dtheta)
        w_r[0] *= 0.5
        w_r[-1] *= 0.5
        self.interior_weights = np.broadcast_to(
            w_r[:, None], (self.n_r, self.n_theta)
        ).copy()
        self.boundary_weights = np.full(self.n_theta, self.r_outer * self.dtheta)

        # trapezoid-in-r weights for the angular part of the Dirichlet form,
        # ∫ u_theta^2 / r dr dtheta  ->  sum_i c_i sum_j (u_{i,j+1}-u_{i,j})^2
        c = self.dr / (self.r * self.dtheta)
        c[0] *= 0.5
        c[-1] *= 0.5
        self._angular_form_weights = c

        # stencil coefficients of laplacian (full shape) and laplace_beltrami
        r = self.r[1:-1, None]
        self._face_r = np.repeat(self.r_half[:, None], self.n_theta, axis=1)
        self._radial_den = np.repeat(r * self.dr, self.n_theta, axis=1)
        self._angular_den = np.repeat((r * self.dtheta) ** 2, self.n_theta, axis=1)
        self._circle_den = (self.r_outer * self.dtheta) ** 2
        # 1/dr where dr is a power of two with a finite reciprocal (so it is exact)
        self._inv_dr = 1.0 / self.dr if np.frexp(self.dr)[0] == 0.5 and self.dr >= 2.0**-1023 else None

        # constants of the blow-up monitor's bounds by M_u = max|u| and
        # M_v = max|v| (functionals._max_norm_bounds).  A quadrature of v^2,
        # u^2 or |u|^p is at most M^2 or M_u^p times its weights' sum s_w or
        # s_b; each grid difference is at most 2 M_u, so each of
        # gradient_energy's three forms is at most 4 M_u^2 times the sum g_r,
        # g_a or g_c of its face weights.  The factor 2 covers rounding.
        s_w, s_b = self.interior_weights.sum(), self.boundary_weights.sum()
        g_r = self.r_half.sum() * self.n_theta * self.dtheta / self.dr
        g_a = self.n_theta * c.sum()
        g_c = self.n_theta / (self.r_outer * self.dtheta)
        self._phase_bound_v = 2.0 * (s_w + s_b)
        self._phase_bound_u = 2.0 * (4.0 * (g_r + g_a + g_c) + s_b)
        self._source_bound_p, self._source_bound_q = 2.0 * s_w, 2.0 * s_b

    def __repr__(self):  # pragma: no cover
        return (
            f"AnnulusMesh(r_inner={self.r_inner}, r_outer={self.r_outer}, "
            f"n_r={self.n_r}, n_theta={self.n_theta})"
        )


def mesh_spacing(r_inner: float, r_outer: float, n_r: int, n_theta: int) -> tuple[float, float]:
    """(dr, dtheta) of the AnnulusMesh with these arguments; raises
    ValueError unless they describe a valid one."""
    if not r_inner > 0:
        raise ValueError(f"r_inner must be positive, got {r_inner}")
    if not r_inner < r_outer < np.inf:
        raise ValueError(
            f"radii must satisfy r_inner < r_outer < inf ({r_inner}, {r_outer})"
        )
    for name, value, least in (("n_r", n_r, 3), ("n_theta", n_theta, 8)):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    return (float(r_outer) - float(r_inner)) / (int(n_r) - 1), 2.0 * np.pi / int(n_theta)


def build_annulus(r_inner: float, r_outer: float, n_r: int, n_theta: int) -> AnnulusMesh:
    """Build the annulus mesh; see AnnulusMesh for the grid conventions."""
    return AnnulusMesh(r_inner, r_outer, n_r, n_theta)


def _per_cell(total):
    """A float for a single field; one value per cell for a stack."""
    return float(total) if total.ndim == 0 else total


def integrate_interior(mesh: AnnulusMesh, f: np.ndarray) -> float:
    """Quadrature of an interior field over the annulus."""
    return _per_cell((f * mesh.interior_weights).sum(axis=(-2, -1)))


def integrate_boundary(mesh: AnnulusMesh, g: np.ndarray) -> float:
    """Quadrature of a trace over the free (outer) circle."""
    return _per_cell((g * mesh.boundary_weights).sum(axis=-1))


def _per_dr(mesh: AnnulusMesh, x: np.ndarray) -> np.ndarray:
    """x /= dr in place, or x *= 1/dr where that rounds the same; returns x."""
    return np.divide(x, mesh.dr, out=x) if mesh._inv_dr is None else np.multiply(x, mesh._inv_dr, out=x)


def _theta_second_difference(x: np.ndarray, den: np.ndarray | float) -> np.ndarray:
    """((x[..., j+1] - 2 x[..., j]) + x[..., j-1]) / den, periodic in j, in a fresh array."""
    x = np.ascontiguousarray(x)
    t = np.multiply(x, 2.0)
    flat, t_flat = x.reshape(-1), t.reshape(-1)
    last = np.subtract(x[..., 0], t[..., -1])
    np.subtract(flat[1:], t_flat[:-1], out=t_flat[:-1])
    t[..., -1] = last
    first = t[..., 0] + x[..., -1]
    np.add(t_flat[1:], flat[:-1], out=t_flat[1:])
    t[..., 0] = first
    t /= den
    return t


def laplacian(mesh: AnnulusMesh, u: np.ndarray) -> np.ndarray:
    """Five-point polar Laplacian u_rr + u_r/r + u_thth/r^2 at interior nodes.

    Assembled in flux form (see module docstring).  The output is zero on
    both boundary rows: the pinned row has no dynamics and the free-circle
    row is governed by its own surface equation, not by this operator.
    """
    out = np.empty_like(u)
    out[..., 0, :] = out[..., -1, :] = 0.0
    # r_{i+1/2} du/dr
    flux = np.subtract(u[..., 1:, :], u[..., :-1, :])
    flux *= mesh._face_r
    _per_dr(mesh, flux)
    inner = out[..., 1:-1, :]
    np.subtract(flux[..., 1:, :], flux[..., :-1, :], out=inner)
    inner /= mesh._radial_den
    inner += _theta_second_difference(u[..., 1:-1, :], mesh._angular_den)
    return out


def laplace_beltrami(mesh: AnnulusMesh, v: np.ndarray) -> np.ndarray:
    """Surface Laplacian on the free circle: periodic centered v_thth / r_outer^2.

    Spectrally exact up to (but not at) the Nyquist mode; a trace sampled
    exactly at its Nyquist zeros comes back as zero (accuracy loss, not an
    error).
    """
    return _theta_second_difference(v, mesh._circle_den)


def boundary_flux(mesh: AnnulusMesh, u: np.ndarray) -> np.ndarray:
    """Variational outward flux at the free circle.

    r_{n-3/2} (u_{n-1} - u_{n-2}) / (r_outer dr) -- the exact boundary term
    produced by summation by parts of the flux-form Laplacian, so that the
    discrete Green identity holds to rounding.  First-order as a pointwise
    derivative, but the energetically consistent choice.
    """
    return mesh.r_half[-1] * (u[..., -1, :] - u[..., -2, :]) / (mesh.r_outer * mesh.dr)


def gradient_energy(mesh: AnnulusMesh, u: np.ndarray) -> tuple[float, float]:
    """Staggered Dirichlet forms (∫_annulus |grad u|^2, ∫_circle |grad_tang u|^2).

    Face-based quadratures: radial faces carry r_{i+1/2}((u_{i+1}-u_i)/dr)^2,
    angular faces carry trapezoid-in-r weights of (u_theta/r)^2, and the
    free-circle form is sum_j ((u_{j+1}-u_j)/(r_outer dtheta))^2 r_outer dtheta.
    These are the quadratic forms differentiated by the discrete operators,
    so 0.5*(their sum) is the exactly-conserved stiffness energy of the
    semi-discrete flow.
    """
    u, dr, dth = np.ascontiguousarray(u), mesh.dr, mesh.dtheta  # a sum's bits follow its layout
    du_r = _per_dr(mesh, np.subtract(u[..., 1:, :], u[..., :-1, :]))
    du_r *= du_r
    du_r *= mesh._face_r
    radial = du_r.sum(axis=(-2, -1)) * dr * dth
    du_th = np.empty_like(u)  # u_{i,j+1} - u_{i,j}, periodic in j
    np.subtract(u.reshape(-1)[1:], u.reshape(-1)[:-1], out=du_th.reshape(-1)[:-1])
    np.subtract(u[..., 0], u[..., -1], out=du_th[..., -1])
    angular = (mesh._angular_form_weights * (du_th**2).sum(axis=-1)).sum(axis=-1)
    circle = (du_th[..., -1, :] ** 2).sum(axis=-1) / (mesh.r_outer * dth)
    return _per_cell(radial) + _per_cell(angular), _per_cell(circle)
