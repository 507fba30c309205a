"""Blow-up time of the scalar comparison ODE.

The machinery that turns a superlinear differential inequality into
finite-time blow-up reduces, at its core, to the scalar problem

    y' = |y|^l - c,    y(0) = psi0 > c^(1/l),    l > 1, c >= 0,

whose solution is increasing and reaches +infinity at the finite time

                       infinity
        T_m(psi0)  =  integral  d tau / (tau^l - c).
                        psi0

The blow-up argument's Lyapunov functional Z = K^(1-k) + (u', u), with
k = functionals.default_k, obeys Z' >= xi*Z^l, l = 1/(1-k): this ODE at c = 0.

This module computes T_m by quadrature with an explicit error budget, and
independently integrates the ODE itself so the two routes can be checked
against each other.  Only the quadrature needs scipy, and blowup_time
imports it on its first call, so importing kwlab does not load scipy.

Quadrature route (blowup_time): w = tau^(1-l) makes T_m a proper integral,

    T_m = 1/(l-1) * integral_0^(psi0^(1-l)) dw / (1 - c*w^k),    k = l/(l-1),

whose integrand lies in [1, 1/(1 - c*psi0^(-l))], finite as psi0 > c^(1/l).
T_m is given to the absolute tolerance tol = 1e-10: one QUADPACK call with
absolute budget tol*(l-1)/2 leaves at most tol/2 on T_m, and c*w^k is formed
as (c^(1/k)*w)^k, whose base stays below 1, so no power overflows.
RuntimeError replaces a T_m that cannot be vouched for: on a QUADPACK
failure or an error estimate over budget, and near the edge
psi0 -> c^(1/l), where T_m diverges logarithmically, once a rounding of psi0
(which moves T_m by about eps*psi0^(1-l)/(1 - c*psi0^(-l))) or of the upper
limit (that over l-1) moves T_m by more than tol/4.

Integration route (integrate_comparison): explicit RK4 with the step law
dt = 1e-3 * y^(1-l), which keeps the relative growth per step bounded as
y -> infinity, so a finite threshold is reached in O(1000*log(threshold))
steps.  The hitting time of a threshold Y underestimates T_m by exactly the
remaining tail T_m(Y).  A step that does not raise y (it rounds to y, or is
NaN) raises RuntimeError instead of looping forever.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import _is_number

__all__ = ["OdeProblem", "blowup_time", "integrate_comparison"]

_TOL = 1e-10  # absolute tolerance on T_m


@dataclass(frozen=True)
class OdeProblem:
    """y' = |y|^l - c with y(0) = psi0; requires numbers (not booleans):
    finite l > 1, a finite c >= 0 and a finite psi0 > c^(1/l) (strict)."""

    l: float
    c: float
    psi0: float

    def __post_init__(self):
        for name, value in (("l", self.l), ("c", self.c), ("psi0", self.psi0)):
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 1 < self.l < math.inf:
            raise ValueError(f"l must exceed 1 and be finite, got {self.l}")
        if not 0 <= self.c < math.inf:
            raise ValueError(f"c must be nonnegative and finite, got {self.c}")
        if not math.isfinite(self.psi0):
            raise ValueError(f"psi0 must be finite, got {self.psi0}")
        if not self.psi0 > self.c ** (1.0 / self.l):
            raise ValueError(
                f"hypothesis violated: psi0 <= c^(1/l) "
                f"({self.psi0} <= {self.c ** (1.0 / self.l)})"
            )


def blowup_time(prob: OdeProblem) -> float:
    """T_m(psi0) = integral_{psi0}^inf dtau/(tau^l - c), abs error <= 1e-10.

    Raises RuntimeError when T_m is too ill-conditioned or quad misses 1e-10.
    """
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
    if not shift <= 0.25 * _TOL:
        raise RuntimeError(f"T_m is too ill-conditioned for l={l}, c={c}, psi0={psi0}: "
                           f"one rounding moves it by {shift:.3g}, over tol/4")
    budget = 0.5 * _TOL * (l - 1.0)
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
    prob: OdeProblem, blow_threshold: float = 1e6
) -> list[tuple[float, float]]:
    """Integrate y' = |y|^l - c until y >= blow_threshold.

    Classical RK4 with the adaptive step dt = 1e-3*y^(1-l); the returned
    trajectory ends at the threshold crossing, located by linear
    interpolation inside the final step, so trajectory[-1] is
    (t_hit, blow_threshold).  Raises RuntimeError when a step fails to raise y.
    """
    if not prob.psi0 < blow_threshold < math.inf:
        raise ValueError(
            f"blow_threshold must exceed psi0 and be finite "
            f"(blow_threshold={blow_threshold}, psi0={prob.psi0})"
        )
    l, c = prob.l, prob.c
    step_power = 1.0 - l

    # The right-hand side y^l - c is inlined without abs(): every stage is
    # positive, so |.| would be the identity.  y >= psi0 > c^(1/l) >= 0 and
    # each k_i >= -c, so each stage is at least y - dt*c = y*(1 - 1e-3*c*y^(-l)),
    # which is > 0 because y^l >= c up to rounding.
    t, y = 0.0, prob.psi0
    traj = [(t, y)]
    while y < blow_threshold:
        dt = 1e-3 * y**step_power
        half = 0.5 * dt
        k1 = y**l - c
        k2 = (y + half * k1) ** l - c
        k3 = (y + half * k2) ** l - c
        k4 = (y + dt * k3) ** l - c
        y_new = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not y_new > y:  # also catches NaN
            raise RuntimeError(f"integration of y' = |y|^l - c stalled at t={t}, y={y}: "
                               f"the step dt={dt:.3g} does not raise y")
        if y_new >= blow_threshold:  # the crossing, interpolated inside the step
            t, y = t + (blow_threshold - y) * dt / (y_new - y), blow_threshold
        else:
            t, y = t + dt, y_new
        traj.append((t, y))
    return traj
