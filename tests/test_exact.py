"""The simulator against exact standing waves of the linear problem.

u = phi(r) cos(k theta) g(t) with phi = J_k(w r) Y_k(w r_in) - Y_k(w r) J_k(w r_in)
vanishes on the pinned circle and solves the interior equation when g'' =
-w^2 g (plus the damping term).  The free-circle equation u_tt + du/dr -
R^-2 d_thetatheta u = 0 fixes w by -w^2 phi(R) + phi'(R) + (k/R)^2 phi(R) = 0.
With alpha = beta and m = mu = 2 (linear damping on both pieces) the same phi
works with g'' + alpha g' + w^2 g = 0, so the closed-form kick gets an exact
solution too.  Unlike the energy identity, these runs see a coupling error in
the free-circle row (its lumped mass, flux or Laplace-Beltrami term).
Nonlinear records started from the same mode are checked by
self-convergence between meshes.
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv, jvp, yv, yvp

from kwlab import solver
from kwlab.functionals import State
from kwlab.geometry import build_annulus, integrate_interior
from kwlab.model import ModelParams

K, R_IN, R_OUT, T = 2, 1.0, 2.0, 2.0


def phi(w, r):
    return jv(K, w * r) * yv(K, w * R_IN) - yv(K, w * r) * jv(K, w * R_IN)


def free_circle_residual(w):
    dphi = w * (jvp(K, w * R_OUT) * yv(K, w * R_IN) - yvp(K, w * R_OUT) * jv(K, w * R_IN))
    return -w * w * phi(w, R_OUT) + dphi + (K / R_OUT) ** 2 * phi(w, R_OUT)


OMEGA = brentq(free_circle_residual, 1.0, 1.5, xtol=1e-15)


def amplitude(alpha, t):
    """g with g(0) = 1, g'(0) = 0 and g'' + alpha g' + OMEGA^2 g = 0."""
    nu = math.sqrt(OMEGA**2 - 0.25 * alpha**2)
    return math.exp(-0.5 * alpha * t) * (math.cos(nu * t) + 0.5 * alpha / nu * math.sin(nu * t))


def evolve(n_r, params):
    """The mesh, the mode's shape on it, and u at T from u = shape, v = 0."""
    mesh = build_annulus(R_IN, R_OUT, n_r, 4 * (n_r - 1))
    shape = phi(OMEGA, mesh.r)[:, None] * np.cos(K * mesh.theta)[None, :]
    shape[0] = 0.0  # phi(r_in) = 0 up to rounding
    n_steps = round(T / (0.4 * min(mesh.dr, R_IN * mesh.dtheta)))
    dt = T / n_steps
    state, s_u = State(shape.copy(), np.zeros_like(shape)), None
    for _ in range(n_steps):
        state, s_u = solver.step(mesh, state, params, dt, s_u)
    return mesh, shape, state.u


def l2_error(n_r, alpha):
    mesh, shape, u = evolve(n_r, ModelParams(alpha=alpha, beta=alpha))
    err = u - amplitude(alpha, T) * shape
    return math.sqrt(integrate_interior(mesh, err * err))


def test_omega_is_the_first_root():
    assert OMEGA == pytest.approx(1.27718889356220, abs=1e-12)


@pytest.mark.parametrize("alpha, golden_33", [(0.0, 2.88986964e-4), (0.5, 2.56799336e-4)],
                         ids=["undamped", "linear_damping"])
def test_standing_wave_converges_at_second_order(alpha, golden_33):
    errors = [l2_error(n_r, alpha) for n_r in (17, 33, 65)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.6 <= coarse / fine <= 4.4, errors
    assert errors[1] == pytest.approx(golden_33, rel=1e-6)


@pytest.mark.parametrize("params", [
    ModelParams(alpha=1.0, m=3, beta=1.0, mu=3.5),
    ModelParams(alpha=1.0, a=1.0, m=3, gamma=1.0, p=3),
], ids=["newton_kick", "two_term_damping_and_source"])
def test_eigenmode_data_self_converge_at_second_order(params):
    """With a nonlinear damping or source no exact solution is known, but the
    mode is compatible data (the named profiles are not), so the difference
    between successive meshes, at the coarse mesh's nodes, falls by about 4
    in the max norm."""
    finals = [evolve(n_r, params)[2] for n_r in (17, 33, 65)]
    diffs = [np.abs(coarse - fine[::2, ::2]).max() for coarse, fine in zip(finals, finals[1:])]
    assert 3.6 <= diffs[0] / diffs[1] <= 4.4, diffs
