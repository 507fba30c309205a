"""Blow-up time of the scalar comparison ODE.

The machinery that turns a superlinear differential inequality into
finite-time blow-up reduces, at its core, to the scalar problem

    y' = |y|^l - c,    y(0) = psi0 > c^(1/l),    l > 1, c >= 0,

whose solution is increasing and reaches +infinity at the finite time

                       infinity
        T_m(psi0)  =  integral  d tau / (tau^l - c).
                        psi0

This module computes T_m by quadrature with an explicit error budget, and
independently integrates the ODE itself so the two routes can be checked
against each other.  Only the quadrature needs scipy, and blowup_time
imports it on its first call, so importing kwlab does not load scipy.

Quadrature route (blowup_time): w = tau^(1-l) makes T_m a proper integral,

    T_m = 1/(l-1) * integral_0^(psi0^(1-l)) dw / (1 - c*w^k),    k = l/(l-1),

whose integrand lies in [1, 1/(1 - c*psi0^(-l))], finite as psi0 > c^(1/l).
One QUADPACK call with absolute budget tol*(l-1)/2 leaves tol/2 on T_m, and
c*w^k is formed as (c^(1/k)*w)^k, whose base stays below 1, so no power
overflows.  RuntimeError replaces a T_m that cannot be vouched for: on a
QUADPACK failure or an error estimate over budget, and near the edge
psi0 -> c^(1/l), where T_m diverges logarithmically, once a rounding of psi0
(which moves T_m by about eps*psi0^(1-l)/(1 - c*psi0^(-l))) or of the upper
limit (that over l-1) moves T_m by more than tol/4.

Integration route (integrate_comparison): explicit RK4 with the step law
dt = eta * y^(1-l), which keeps the relative growth per step bounded as
y -> infinity, so a finite threshold is reached in O(log(threshold)/eta)
steps.  The hitting time of a threshold Y underestimates T_m by exactly the
remaining tail T_m(Y).  A step that does not raise y (it rounds to y, or is
NaN) raises RuntimeError instead of looping forever.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["OdeProblem", "blowup_time", "integrate_comparison"]


@dataclass(frozen=True)
class OdeProblem:
    """y' = |y|^l - c with y(0) = psi0; requires finite l > 1, c >= 0 and a
    finite psi0 > c^(1/l) (strict)."""

    l: float
    c: float
    psi0: float

    def __post_init__(self):
        if not 1 < self.l < math.inf:
            raise ValueError(f"l must exceed 1 and be finite, got {self.l}")
        if not self.c >= 0:
            raise ValueError(f"c must be nonnegative, got {self.c}")
        if not math.isfinite(self.psi0):
            raise ValueError(f"psi0 must be finite, got {self.psi0}")
        if not self.psi0 > self.c ** (1.0 / self.l):
            raise ValueError(
                f"hypothesis violated: psi0 <= c^(1/l) "
                f"({self.psi0} <= {self.c ** (1.0 / self.l)})"
            )


def blowup_time(prob: OdeProblem, tol: float = 1e-10) -> float:
    """T_m(psi0) = integral_{psi0}^inf dtau/(tau^l - c), abs error <= tol.

    Raises RuntimeError when T_m is too ill-conditioned or quad misses tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    l, c, psi0 = prob.l, prob.c, prob.psi0
    k = l / (l - 1.0)
    scale = c ** (1.0 / k)
    try:
        top = psi0 ** (1.0 - l)
    except OverflowError:  # tiny psi0; the guard below refuses it
        top = math.inf
    gap = 1.0 - (scale * top) ** k
    # T_m's shift under one rounding (relative eps) of psi0 or of top
    shift = math.ulp(1.0) * top / (min(l - 1.0, 1.0) * gap) if gap > 0 else math.inf
    if not shift <= 0.25 * tol:
        raise RuntimeError(f"T_m is too ill-conditioned for l={l}, c={c}, psi0={psi0}: "
                           f"one rounding moves it by {shift:.3g}, over tol/4")
    budget = 0.5 * tol * (l - 1.0)
    from scipy.integrate import quad  # the only scipy use in kwlab

    # full_output=1 appends QUADPACK's message only when it reports a failure
    integral, abserr, _info, *failure = quad(
        lambda w: 1.0 / (1.0 - (scale * w) ** k), 0.0, top, epsabs=budget,
        epsrel=1e-13, limit=200, full_output=1,
    )
    if failure or not abserr <= budget:
        reason = failure[0].splitlines()[0] if failure else "error estimate over budget"
        raise RuntimeError(
            f"quadrature of T_m failed for l={l}, c={c}, psi0={psi0}: {reason} "
            f"(error estimate {abserr:.3g}, budget {budget:.3g})"
        )
    return integral / (l - 1.0)


def integrate_comparison(
    prob: OdeProblem, blow_threshold: float = 1e6, eta: float = 1e-3
) -> list[tuple[float, float]]:
    """Integrate y' = |y|^l - c until y >= blow_threshold.

    Classical RK4 with the adaptive step dt = eta*y^(1-l); the returned
    trajectory ends at the threshold crossing, located by linear
    interpolation inside the final step, so trajectory[-1] is
    (t_hit, blow_threshold).  Raises RuntimeError when a step fails to raise y.
    """
    if not prob.psi0 < blow_threshold < math.inf:
        raise ValueError(
            f"blow_threshold must exceed psi0 and be finite "
            f"(blow_threshold={blow_threshold}, psi0={prob.psi0})"
        )
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    l, c = prob.l, prob.c
    step_power = 1.0 - l

    t, y = 0.0, prob.psi0
    traj = [(t, y)]
    while y < blow_threshold:
        # the right-hand side |y|^l - c, inlined into the hot loop
        dt = eta * y**step_power
        k1 = abs(y) ** l - c
        k2 = abs(y + 0.5 * dt * k1) ** l - c
        k3 = abs(y + 0.5 * dt * k2) ** l - c
        k4 = abs(y + dt * k3) ** l - c
        y_new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not y_new > y:  # also catches NaN
            raise RuntimeError(f"integration of y' = |y|^l - c stalled at t={t}, y={y}: "
                               f"the step dt={dt:.3g} does not raise y")
        t_new = t + dt
        if y_new >= blow_threshold:
            t_hit = t + (blow_threshold - y) * dt / (y_new - y)
            traj.append((t_hit, blow_threshold))
            return traj
        t, y = t_new, y_new
        traj.append((t, y))
    return traj
